"""Language-neutral subprocess protocol for external prover adapters.

One JSON object per line over the adapter's stdin/stdout. Requests carry a
monotonically increasing id; the adapter answers each request with exactly
one response echoing that id. State handles are adapter-issued opaque ids,
so large states never round-trip repeatedly. See docs/bridge-protocol.md
for the wire contract; `proofsearch.bridge_adapter` is a loopback adapter
that serves the toy prover behind this protocol.

Transport problems (timeout, crash, malformed line or reply) raise
BridgeFailure, an InfrastructureFailure: never a proof error.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import time
from dataclasses import dataclass
from typing import Sequence

from .core import (InfrastructureFailure, Obligation, ProofEnvironment, ProofState,
                   canonical_key, encode_json)


class BridgeFailure(InfrastructureFailure):
    """Transport-level bridge failure; aborts the episode."""


@dataclass
class BridgeConfig:
    command: Sequence[str]
    timeout_seconds: float = 10.0

    def __post_init__(self):
        if self.timeout_seconds <= 0:
            raise ValueError("timeout must be > 0")


def obligations_from_wire(payload) -> list:
    """The obligations of an `ok` reply. Anything but a nonempty list of
    objects, each with a string `goal` and a list of string `name`/`prop`
    hypotheses whose names are distinct, raises BridgeFailure: an `ok`
    with no obligations would read as a proof, which only `qed` may end."""
    if not isinstance(payload, list) or not payload:
        raise BridgeFailure(f"malformed obligations: {payload!r}")
    obligations = []
    for item in payload:
        hyps = item.get("hypotheses", []) if isinstance(item, dict) else None
        if not (isinstance(hyps, list) and isinstance(item.get("goal"), str) and all(
                isinstance(h, dict) and isinstance(h.get("name"), str)
                and isinstance(h.get("prop"), str) for h in hyps)):
            raise BridgeFailure(f"malformed obligation: {item!r}")
        pairs = [(h["name"], h["prop"]) for h in hyps]
        if len({name.strip() for name, _ in pairs}) < len(pairs):
            raise BridgeFailure(f"repeated hypothesis name in obligation: {item!r}")
        obligations.append(Obligation(item["goal"], pairs))
    return obligations


class BridgeSession(ProofEnvironment):
    """One adapter process, strictly serialized request/response, and the
    ProofEnvironment it serves: "qed" replies map to QED, "ok" to the
    reported obligations, and "error" to an error state carrying the
    previous obligations plus the adapter's message. Error states absorb
    locally without a wire call.

    Requests and replies are UTF-8 bytes over binary pipes, the request
    written without blocking and the reply read on the calling thread in
    `_CHUNK`-byte pieces. A call waits on `select.poll` only for a full
    pipe or a reply not yet come, under one deadline, `timeout_seconds`
    after the call starts (so POSIX only)."""

    _CHUNK = 8192

    def __init__(self, config: BridgeConfig):
        self.config = config
        self._next_id = 0
        self._proc = subprocess.Popen(
            list(self.config.command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            bufsize=0,
        )
        self._stdin = self._proc.stdin.fileno()
        self._stdout = self._proc.stdout.fileno()
        os.set_blocking(self._stdin, False)
        self._writable = select.poll()
        self._writable.register(self._stdin, select.POLLOUT)
        self._readable = select.poll()
        self._readable.register(self._stdout, select.POLLIN)
        self._pending = b""  # what the adapter wrote past the last reply read
        self._ids: dict = {}  # canonical state key -> adapter state id, this episode

    def call(self, cmd: str, **fields) -> dict:
        if self._proc.poll() is not None:
            raise BridgeFailure("adapter process is not running")
        deadline = time.monotonic() + self.config.timeout_seconds
        self._next_id += 1
        request = {"id": self._next_id, "cmd": cmd, **fields}
        self._write((encode_json(request) + "\n").encode(), deadline)
        line = self._read_line(deadline)
        try:
            response = json.loads(line.decode())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise BridgeFailure(f"malformed response line: {line.strip()!r}") from exc
        if not isinstance(response, dict) or response.get("id") != request["id"]:
            raise BridgeFailure(
                f"response id mismatch: sent {request['id']}, got {response!r}"
            )
        if response.get("status") not in ("ok", "error", "qed"):
            raise BridgeFailure(f"unknown response status in {response!r}")
        return response

    def _wait(self, poller, deadline: float):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not poller.poll(remaining * 1000):
            raise BridgeFailure(
                f"adapter response timed out after {self.config.timeout_seconds}s")

    def _write(self, data: bytes, deadline: float):
        """Write all of `data` to the adapter's stdin by `deadline`."""
        view = memoryview(data)
        while view:
            try:
                view = view[os.write(self._stdin, view):]
            except BlockingIOError:  # the pipe is full until the adapter reads
                self._wait(self._writable, deadline)
            except OSError as exc:
                raise BridgeFailure(f"adapter pipe broken: {exc}") from exc

    def _read_line(self, deadline: float) -> bytes:
        """The adapter's next line, newline included, if it comes by
        `deadline` (a `time.monotonic()` reading)."""
        parts = [self._pending]
        while (end := parts[-1].find(b"\n")) < 0:
            self._wait(self._readable, deadline)
            chunk = os.read(self._stdout, self._CHUNK)
            if not chunk:
                raise BridgeFailure("adapter closed its output stream")
            parts.append(chunk)
        last = parts.pop()
        self._pending = last[end + 1:]
        return b"".join(parts) + last[:end + 1]

    def initial_state(self, theorem_id: str) -> ProofState:
        """Send `init`: the adapter drops the states of the episode or
        stage before, and so does the session."""
        response = self.call("init", theorem=theorem_id)
        if response["status"] == "error":
            raise BridgeFailure(f"init failed: {response.get('message')}")
        state_id, state = self._decode_state(response)
        self._ids = {canonical_key(state): state_id}
        return state

    def apply_tactic(self, state: ProofState, tactic: str) -> ProofState:
        if state.is_error:
            return state
        key = canonical_key(state)
        if key not in self._ids:
            raise BridgeFailure("state was not issued by this session")
        response = self.call("apply", state_id=self._ids[key], tactic=tactic)
        if response["status"] == "error":
            return state.with_error(response.get("message") or "error")
        state_id, new_state = self._decode_state(response)
        if state_id is not None:
            self._ids[canonical_key(new_state)] = state_id
        return new_state

    def close(self):
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()

    @staticmethod
    def _decode_state(response: dict) -> tuple:
        """The (state id, state) of an `ok` or `qed` reply to `init` or
        `apply`. An `ok` reply needs a string `state_id`, and raises
        BridgeFailure without one; a `qed` reply's id is optional (None)."""
        state_id = response.get("state_id")
        if response["status"] == "qed":
            return state_id, ProofState.qed()
        if not isinstance(state_id, str):
            raise BridgeFailure(f"ok reply without a string state_id: {response!r}")
        return state_id, ProofState.of(obligations_from_wire(response.get("obligations")))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
