"""Language-neutral subprocess protocol for external prover adapters.

One JSON object per line over the adapter's stdin/stdout. Requests carry a
monotonically increasing id; the adapter answers each request with exactly
one response echoing that id. State handles are adapter-issued opaque ids,
so large states never round-trip repeatedly. See docs/bridge-protocol.md
for the wire contract; `proofsearch.bridge_adapter` is a loopback adapter
that serves the toy prover behind this protocol.

Transport problems (timeout, crash, malformed line) raise BridgeFailure,
which is infrastructure failure — never a proof error.
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Obligation,
    ProofEnvironment,
    ProofState,
    canonical_key,
    ordered_obligations,
)


class BridgeFailure(Exception):
    """Transport-level bridge failure; aborts the episode."""


@dataclass
class BridgeConfig:
    command: Sequence[str]
    timeout_seconds: float = 10.0

    def __post_init__(self):
        if self.timeout_seconds <= 0:
            raise ValueError("timeout must be > 0")


def obligations_to_wire(state: ProofState) -> list:
    return [
        {
            "goal": ob.goal,
            "hypotheses": [
                {"name": name, "prop": prop} for name, prop in sorted(ob.hypotheses)
            ],
        }
        for ob in ordered_obligations(state)
    ]


def obligations_from_wire(payload: list) -> frozenset:
    return frozenset(
        Obligation.make(
            item["goal"], {h["name"]: h["prop"] for h in item.get("hypotheses", [])}
        )
        for item in payload
    )


class BridgeSession:
    """One adapter process, strictly serialized request/response."""

    def __init__(self, config: BridgeConfig):
        self.config = config
        self._next_id = 0
        self._proc = subprocess.Popen(
            list(self.config.command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
        )
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self):
        with self._proc.stdout as stdout:  # this thread is its only reader
            for line in stdout:
                self._lines.put(line)
        self._lines.put(None)  # EOF marker

    def call(self, cmd: str, **fields) -> dict:
        if self._proc.poll() is not None:
            raise BridgeFailure("adapter process is not running")
        self._next_id += 1
        request = {"id": self._next_id, "cmd": cmd, **fields}
        try:
            self._proc.stdin.write(json.dumps(request, ensure_ascii=False) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise BridgeFailure(f"adapter pipe broken: {exc}") from exc
        try:
            line = self._lines.get(timeout=self.config.timeout_seconds)
        except queue.Empty:
            raise BridgeFailure(
                f"adapter response timed out after {self.config.timeout_seconds}s"
            ) from None
        if line is None:
            raise BridgeFailure("adapter closed its output stream")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BridgeFailure(f"malformed response line: {line.strip()!r}") from exc
        if not isinstance(response, dict) or response.get("id") != request["id"]:
            raise BridgeFailure(
                f"response id mismatch: sent {request['id']}, got {response!r}"
            )
        if response.get("status") not in ("ok", "error", "qed"):
            raise BridgeFailure(f"unknown response status in {response!r}")
        return response

    def init(self, theorem: str) -> tuple:
        response = self.call("init", theorem=theorem)
        if response["status"] == "error":
            raise BridgeFailure(f"init failed: {response.get('message')}")
        return response["state_id"], self._state_from(response)

    def apply(self, state_id: str, tactic: str) -> dict:
        return self.call("apply", state_id=state_id, tactic=tactic)

    def reset(self):
        self.call("reset")

    def shutdown(self, wait_seconds: float | None = None) -> int:
        """Ask the adapter to exit; returns its exit status."""
        try:
            self.call("shutdown")
        except BridgeFailure:
            pass
        try:
            return self._proc.wait(timeout=wait_seconds or self.config.timeout_seconds)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            raise BridgeFailure("adapter did not exit after shutdown") from None

    def close(self):
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
        try:
            self._proc.stdin.close()
        except BrokenPipeError:  # a request the dead adapter never read
            pass

    @staticmethod
    def _state_from(response: dict) -> ProofState:
        if response["status"] == "qed":
            return ProofState.qed()
        return ProofState.of(obligations_from_wire(response.get("obligations", [])))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class BridgedEnvironment(ProofEnvironment):
    """ProofEnvironment implementation backed by a bridge session.

    "qed" responses map to QED, "ok" to the reported obligations, and
    "error" to an error state carrying the previous obligations plus the
    adapter's message. Error states absorb locally without a wire call.
    """

    def __init__(self, session: BridgeSession):
        self.session = session
        self._ids: dict = {}  # canonical state key -> adapter state id

    def initial_state(self, theorem_id: str) -> ProofState:
        state_id, state = self.session.init(theorem_id)
        self._ids[canonical_key(state)] = state_id
        return state

    def apply_tactic(self, state: ProofState, tactic: str) -> ProofState:
        if state.is_error:
            return state
        key = canonical_key(state)
        if key not in self._ids:
            raise BridgeFailure("state was not issued by this session")
        response = self.session.apply(self._ids[key], tactic)
        if response["status"] == "error":
            return ProofState.error(state.obligations, response.get("message") or "error")
        new_state = self.session._state_from(response)
        if "state_id" in response:
            self._ids[canonical_key(new_state)] = response["state_id"]
        return new_state
