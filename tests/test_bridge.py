"""Subprocess bridge: wire serialization, protocol conformance of the
loopback adapter, differential equivalence with the in-process toy
environment, and transport-failure handling."""

import json
import subprocess
import sys

import pytest

from proofsearch.bridge import (
    BridgeConfig,
    BridgedEnvironment,
    BridgeFailure,
    BridgeSession,
    obligations_from_wire,
    obligations_to_wire,
)
from proofsearch.core import Obligation, ProofState, canonical_key
from proofsearch.toy import ToyEnvironment, brute_force_prove, candidate_tactics

from conftest import SUITE_PATH

LOOPBACK = [sys.executable, "-m", "proofsearch.bridge_adapter", str(SUITE_PATH)]


@pytest.fixture()
def session():
    with BridgeSession(BridgeConfig(command=LOOPBACK)) as active:
        yield active


class TestWireSerialization:
    def test_round_trip(self):
        state = ProofState.of(
            [
                Obligation.make("B", {"h2": "Q", "h1": "P"}),
                Obligation.make("A"),
            ]
        )
        wire = obligations_to_wire(state)
        assert obligations_from_wire(wire) == state.obligations

    def test_wire_order_deterministic(self):
        state = ProofState.of([Obligation.make("B"), Obligation.make("A")])
        assert [item["goal"] for item in obligations_to_wire(state)] == ["A", "B"]

    def test_hypotheses_sorted_by_name(self):
        state = ProofState.of([Obligation.make("G", {"hb": "Q", "ha": "P"})])
        names = [h["name"] for h in obligations_to_wire(state)[0]["hypotheses"]]
        assert names == ["ha", "hb"]


class TestConformance:
    """Protocol conformance of the loopback adapter, exercised over the raw
    wire so any external adapter can be checked the same way."""

    def raw(self, requests):
        proc = subprocess.Popen(
            LOOPBACK, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        stdout, _ = proc.communicate(
            "".join(json.dumps(r) + "\n" for r in requests), timeout=30
        )
        return [json.loads(line) for line in stdout.splitlines()], proc.returncode

    def test_init_returns_state_and_obligations(self):
        responses, _ = self.raw(
            [
                {"id": 1, "cmd": "init", "theorem": "imp_self"},
                {"id": 2, "cmd": "shutdown"},
            ]
        )
        first = responses[0]
        assert first["id"] == 1
        assert first["status"] == "ok"
        assert first["state_id"]
        assert first["obligations"] == [{"goal": "P -> P", "hypotheses": []}]

    def test_one_response_per_request_ids_in_order(self):
        requests = [
            {"id": 1, "cmd": "init", "theorem": "imp_self"},
            {"id": 2, "cmd": "apply", "state_id": "s1", "tactic": "intro h"},
            {"id": 3, "cmd": "apply", "state_id": "s2", "tactic": "exact h"},
            {"id": 4, "cmd": "shutdown"},
        ]
        responses, code = self.raw(requests)
        assert [r["id"] for r in responses] == [1, 2, 3, 4]
        assert responses[2]["status"] == "qed"
        assert code == 0

    def test_tactic_failure_is_proof_error_not_crash(self):
        responses, code = self.raw(
            [
                {"id": 1, "cmd": "init", "theorem": "imp_self"},
                {"id": 2, "cmd": "apply", "state_id": "s1", "tactic": "refl"},
                {"id": 3, "cmd": "shutdown"},
            ]
        )
        assert responses[1]["status"] == "error"
        assert "refl failed" in responses[1]["message"]
        assert code == 0

    def test_unknown_theorem(self):
        responses, _ = self.raw(
            [
                {"id": 1, "cmd": "init", "theorem": "nope"},
                {"id": 2, "cmd": "shutdown"},
            ]
        )
        assert responses[0]["status"] == "error"
        assert "unknown theorem" in responses[0]["message"]

    def test_unknown_state_id(self):
        responses, _ = self.raw(
            [
                {"id": 1, "cmd": "init", "theorem": "imp_self"},
                {"id": 2, "cmd": "apply", "state_id": "s99", "tactic": "intro h"},
                {"id": 3, "cmd": "shutdown"},
            ]
        )
        assert responses[1]["status"] == "error"
        assert "unknown state id" in responses[1]["message"]

    def test_malformed_request_line_answered_not_fatal(self):
        proc = subprocess.Popen(
            LOOPBACK, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        stdout, _ = proc.communicate(
            "this is not json\n"
            + json.dumps({"id": 1, "cmd": "shutdown"}) + "\n",
            timeout=30,
        )
        responses = [json.loads(line) for line in stdout.splitlines()]
        assert responses[0] == {
            "id": None, "status": "error", "message": "malformed request line"
        }
        assert responses[1]["status"] == "ok"
        assert proc.returncode == 0

    def test_unknown_command(self):
        responses, _ = self.raw(
            [{"id": 1, "cmd": "frobnicate"}, {"id": 2, "cmd": "shutdown"}]
        )
        assert responses[0]["status"] == "error"
        assert "unknown command" in responses[0]["message"]

    def test_reset_invalidates_state_ids(self):
        responses, _ = self.raw(
            [
                {"id": 1, "cmd": "init", "theorem": "imp_self"},
                {"id": 2, "cmd": "reset"},
                {"id": 3, "cmd": "apply", "state_id": "s1", "tactic": "intro h"},
                {"id": 4, "cmd": "shutdown"},
            ]
        )
        assert responses[1]["status"] == "ok"
        assert responses[2]["status"] == "error"

    def test_shutdown_exits_zero(self):
        _, code = self.raw([{"id": 1, "cmd": "shutdown"}])
        assert code == 0


class TestBridgeSession:
    def test_init_and_apply(self, session):
        state_id, state = session.init("imp_self")
        assert state == ProofState.of([Obligation.make("P -> P")])
        response = session.apply(state_id, "intro h")
        assert response["status"] == "ok"

    def test_shutdown_within_timeout(self, session):
        assert session.shutdown() == 0


class TestBridgedEnvironment:
    def test_full_proof_through_bridge(self, session):
        env = BridgedEnvironment(session)
        state = env.initial_state("imp_self")
        state = env.apply_tactic(state, "intro h")
        assert state == ProofState.of([Obligation.make("P", {"h": "P"})])
        assert env.apply_tactic(state, "exact h").is_qed

    def test_error_absorbs_locally(self, session):
        env = BridgedEnvironment(session)
        state = env.initial_state("imp_self")
        err = env.apply_tactic(state, "refl")
        assert err.is_error
        assert env.apply_tactic(err, "intro h") == err

    def test_unknown_state_raises_bridge_failure(self, session):
        env = BridgedEnvironment(session)
        foreign = ProofState.of([Obligation.make("Z")])
        with pytest.raises(BridgeFailure):
            env.apply_tactic(foreign, "intro h")


def differential_pairs(theorem):
    """Every (reachable state, candidate tactic) pair along the oracle
    proof, plus some deliberately failing tactics."""
    env = ToyEnvironment(theorem)
    lemmas = dict(theorem.lemmas)
    states = [env.initial_state(theorem.name)]
    for tactic in brute_force_prove(theorem, 4):
        states.append(env.apply_tactic(states[-1], tactic))
    for state in states:
        if state.is_qed or state.is_error:
            continue
        for tactic in candidate_tactics(state, lemmas) + ["linarith", "exact nope"]:
            yield state, tactic


class TestDifferentialEquivalence:
    def test_stub_matches_direct_on_whole_suite(self, suite):
        with BridgeSession(BridgeConfig(command=LOOPBACK, timeout_seconds=30)) as session:
            for theorem in suite.theorems.values():
                direct_env = ToyEnvironment(theorem)
                bridged_env = BridgedEnvironment(session)
                bridged_initial = bridged_env.initial_state(theorem.name)
                assert bridged_initial == direct_env.initial_state(theorem.name)
                seen = {canonical_key(bridged_initial)}
                for state, tactic in differential_pairs(theorem):
                    if canonical_key(state) not in seen:
                        # walk the bridge to this state first so it holds an id
                        continue
                    direct = direct_env.apply_tactic(state, tactic)
                    bridged = bridged_env.apply_tactic(state, tactic)
                    assert bridged == direct, (theorem.name, tactic)
                    if not direct.is_error and not direct.is_qed:
                        seen.add(canonical_key(direct))


class TestTransportFailures:
    def run_adapter_script(self, script):
        return BridgeSession(
            BridgeConfig(command=[sys.executable, "-c", script], timeout_seconds=1.0)
        )

    def test_malformed_response_line_names_it(self):
        script = "print('}{ not json'); import sys; sys.stdout.flush(); sys.stdin.read()"
        session = self.run_adapter_script(script)
        try:
            with pytest.raises(BridgeFailure, match="malformed response line"):
                session.call("init", theorem="imp_self")
        finally:
            session.close()

    def test_timeout(self):
        script = "import time, sys; sys.stdin.readline(); time.sleep(30)"
        session = self.run_adapter_script(script)
        try:
            with pytest.raises(BridgeFailure, match="timed out"):
                session.call("init", theorem="imp_self")
        finally:
            session.close()

    def test_id_mismatch(self):
        script = (
            "import sys; sys.stdin.readline(); "
            "print('{\"id\": 999, \"status\": \"ok\"}'); sys.stdout.flush(); "
            "sys.stdin.read()"
        )
        session = self.run_adapter_script(script)
        try:
            with pytest.raises(BridgeFailure, match="id mismatch"):
                session.call("init", theorem="imp_self")
        finally:
            session.close()

    def test_adapter_crash(self):
        script = "import sys; sys.exit(3)"
        session = self.run_adapter_script(script)
        try:
            with pytest.raises(BridgeFailure):
                session.call("init", theorem="imp_self")
        finally:
            session.close()

    def test_unknown_status(self):
        script = (
            "import sys, json; line = sys.stdin.readline(); "
            "req = json.loads(line); "
            "print(json.dumps({'id': req['id'], 'status': 'weird'})); "
            "sys.stdout.flush(); sys.stdin.read()"
        )
        session = self.run_adapter_script(script)
        try:
            with pytest.raises(BridgeFailure, match="unknown response status"):
                session.call("init", theorem="imp_self")
        finally:
            session.close()

    def test_config_validates_timeout(self):
        with pytest.raises(ValueError):
            BridgeConfig(command=["x"], timeout_seconds=0)
