"""Loopback bridge adapter: serves the toy prover over the line-delimited
wire protocol. Run as `python -m proofsearch.bridge_adapter SUITE_FILE`.

Used by the integration tests as the reference adapter, and as a template
for adapters that wrap real provers. It imports only `core` and `toy`:
every spawn pays for what it imports.
"""

from __future__ import annotations

import json
import sys

from .core import ProofState, encode_json
from .toy import ToyEnvironment, load_suite


def obligations_to_wire(state: ProofState) -> list:
    return [
        {
            "goal": ob.goal,
            "hypotheses": [
                {"name": name, "prop": prop} for name, prop in ob.hypotheses
            ],
        }
        for ob in state.obligations
    ]


def _respond(payload: dict):
    out = sys.stdout.buffer
    out.write((encode_json(payload) + "\n").encode())
    out.flush()


def serve(suite_path: str):
    """Answer the requests on `sys.stdin.buffer` on `sys.stdout.buffer`, in
    UTF-8 whatever the locale, until `shutdown` or the end of input."""
    suite = load_suite(suite_path)
    states: dict = {}  # state id -> ProofState
    env: ToyEnvironment | None = None
    counter = 0

    def issue(state: ProofState) -> str:
        nonlocal counter
        counter += 1
        state_id = f"s{counter}"
        states[state_id] = state
        return state_id

    def state_response(request_id, state: ProofState) -> dict:
        if state.is_error:
            return {"id": request_id, "status": "error", "message": state.error_message}
        payload = {"id": request_id, "status": "qed" if state.is_qed else "ok",
                   "state_id": issue(state)}
        if not state.is_qed:
            payload["obligations"] = obligations_to_wire(state)
        return payload

    for line in sys.stdin.buffer:
        if not line.strip():
            continue
        try:
            request = json.loads(line.decode())
            request_id = request.get("id")
            cmd = request.get("cmd")
        except (ValueError, AttributeError):  # not UTF-8 JSON, or not a JSON object
            _respond({"id": None, "status": "error", "message": "malformed request line"})
            continue
        if cmd == "shutdown":
            _respond({"id": request_id, "status": "ok"})
            return 0
        if cmd == "init":  # starts an episode: every state issued before is dropped
            states.clear()
            env = None
            theorem = request.get("theorem")
            if theorem not in suite.theorems:
                _respond({"id": request_id, "status": "error",
                          "message": f"unknown theorem {theorem!r}"})
                continue
            env = ToyEnvironment(suite.theorem(theorem))
            _respond(state_response(request_id, env.initial_state(theorem)))
        elif cmd == "apply":
            state_id = request.get("state_id")
            if env is None or state_id not in states:
                _respond({"id": request_id, "status": "error",
                          "message": f"unknown state id {state_id!r}"})
                continue
            tactic = request.get("tactic")
            if not isinstance(tactic, str) or not tactic.strip():
                _respond({"id": request_id, "status": "error",
                          "message": "missing or empty tactic"})
                continue
            _respond(state_response(request_id, env.apply_tactic(states[state_id], tactic)))
        else:
            _respond({"id": request_id, "status": "error",
                      "message": f"unknown command {cmd!r}"})
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m proofsearch.bridge_adapter SUITE_FILE", file=sys.stderr)
        return 2
    return serve(argv[0])


if __name__ == "__main__":
    raise SystemExit(main())
