"""A fixed reference workload that says how fast the machine runs Python
at the moment.

Timings are scaled to a machine on which one probe takes PROBE_SECONDS.
The probe is fixed work of the kinds the program does: object and dict
building, string formatting, regex, sorting, frozensets and a json round
trip. The harness runs one probe before every episode and probes between
the calls of every set-up or report block, always timed apart from the
work, and multiplies each time by PROBE_SECONDS over the median of the
probes around it. On a shared machine whose speed drifts by a quarter
within a minute this removes most of the drift from search and bridge
work, whose ratio to probe time moves far less than either; it helps BM25
scans, where garbage collection takes a third of the time, much less
(README.md).
"""

from __future__ import annotations

import json
import re
import time

PROBE_SECONDS = 0.0015
_TOKEN = re.compile(r"[a-z0-9]+")


class _Node:
    __slots__ = ("name", "value")

    def __init__(self, name, value):
        self.name = name
        self.value = value


def _work() -> int:
    table = {}
    total = 0
    for i in range(360):
        name = f"k{i % 97}_{i}"
        table[name] = _Node(name, i)
        total += len(_TOKEN.findall(name))
    nodes = sorted(table.values(), key=lambda node: (node.value % 13, node.name))
    text = json.dumps([{"name": node.name, "tags": [node.value % 7, node.name[:2]]} for node in nodes])
    total += len(json.loads(text))
    return total + len(frozenset((node.name, node.value % 5) for node in nodes))


def probe_once() -> float:
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
