"""In-memory spans recorded around calls into the program's modules.

A span has a name, a start, an end, a parent span and an episode id. The
tracer keeps spans in memory; `fold` turns the spans of one round into
per-name totals and `dump` writes spans out when the run ends. A span's
self time is its duration minus the durations of its direct children
(calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

ID, NAME, START, END, PARENT, EPISODE, CHILD = range(7)


class Tracer:
    def __init__(self, clock=time.perf_counter, keep_durations=()):
        self.clock = clock
        # finished spans, in the order they end: (id, name, start, end,
        # parent id, episode, time in direct children); tuples, so the
        # garbage collector stops scanning them
        self.spans: list = []
        self.stack: list = []  # open spans, as lists in the same layout
        self.next_id = 0
        self.episode = 0
        self.keep_durations = set(keep_durations)
        self.calls: dict = {}
        self.self_time: dict = {}
        self.durations: dict = {name: [] for name in self.keep_durations}

    def open(self, name: str) -> list:
        parent = self.stack[-1][ID] if self.stack else -1
        span = [self.next_id, name, self.clock(), 0.0, parent, self.episode, 0.0]
        self.next_id += 1
        self.stack.append(span)
        return span

    def close(self, span: list):
        span[END] = self.clock()
        self.stack.pop()
        if self.stack:
            self.stack[-1][CHILD] += span[END] - span[START]
        self.spans.append(tuple(span))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        traced.__wrapped__ = fn
        return traced

    def fold(self, scale: float = 1.0) -> list:
        """Add the finished spans, their times multiplied by `scale`, to
        the per-name totals; forget them and return them."""
        if self.stack:
            raise RuntimeError("fold with open spans")
        spans, self.spans = self.spans, []
        for _, name, start, end, _, _, child in spans:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + (end - start - child) * scale
            if name in self.keep_durations:
                self.durations[name].append((end - start) * scale)
        return spans


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def dump(spans: list, path):
    """Write spans as JSON lines in start order; times in microseconds
    from the first start."""
    spans = sorted(spans)
    origin = spans[0][START] if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, name, start, end, parent, episode, child in spans:
            handle.write(json.dumps({
                "id": span_id, "name": name, "parent": parent, "episode": episode,
                "start_us": round((start - origin) * 1e6, 3),
                "end_us": round((end - origin) * 1e6, 3),
                "self_us": round((end - start - child) * 1e6, 3),
            }) + "\n")


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore them on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
