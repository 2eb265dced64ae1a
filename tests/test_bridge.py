"""Subprocess bridge: wire serialization, protocol conformance of the
loopback adapter, differential equivalence with the in-process toy
environment, and transport-failure handling."""

import io
import json
import select
import subprocess
import sys
import threading
import time

import pytest

from proofsearch import bridge_adapter
from proofsearch.agent import SearchConfig, prove
from proofsearch.bridge import (
    BridgeConfig,
    BridgeFailure,
    BridgeSession,
    obligations_from_wire,
)
from proofsearch.bridge_adapter import obligations_to_wire
from proofsearch.core import GlobalContext, Obligation, ProofState, canonical_key
from proofsearch.toy import ToyEnvironment
from proofsearch.toy.oracle import brute_force_prove, candidate_tactics
from proofsearch.toy.terms import print_term
from proofsearch.trace import REASON_INFRASTRUCTURE

from conftest import SUITE_PATH, SequenceBackend

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
        assert tuple(obligations_from_wire(wire)) == state.obligations

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

    def test_request_that_is_not_an_object_answered_not_fatal(self):
        not_objects = [[1], 3, "init", True, None]
        responses, code = self.raw(
            not_objects + [{"id": 1, "cmd": "init", "theorem": "imp_self"},
                           {"id": 2, "cmd": "shutdown"}]
        )
        malformed = {"id": None, "status": "error", "message": "malformed request line"}
        assert responses[:len(not_objects)] == [malformed] * len(not_objects)
        assert responses[len(not_objects):] == [
            {"id": 1, "status": "ok", "state_id": "s1",
             "obligations": [{"goal": "P -> P", "hypotheses": []}]},
            {"id": 2, "status": "ok"},
        ]
        assert code == 0

    def test_request_that_is_not_utf8_answered_not_fatal(self):
        proc = subprocess.Popen(LOOPBACK, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        stdout, _ = proc.communicate(
            b'{"id": 1, "cmd": "\xff"}\n' + json.dumps({"id": 2, "cmd": "shutdown"}).encode()
            + b"\n", timeout=30)
        responses = [json.loads(line) for line in stdout.splitlines()]
        assert responses == [
            {"id": None, "status": "error", "message": "malformed request line"},
            {"id": 2, "status": "ok"},
        ]
        assert proc.returncode == 0

    def test_unknown_command(self):
        responses, _ = self.raw(
            [{"id": 1, "cmd": "frobnicate"}, {"id": 2, "cmd": "shutdown"}]
        )
        assert responses[0]["status"] == "error"
        assert "unknown command" in responses[0]["message"]

    def test_reset_is_an_unknown_command(self):
        """`init` alone starts an episode; there is no `reset`."""
        responses, code = self.raw([{"id": 1, "cmd": "reset"}, {"id": 2, "cmd": "shutdown"}])
        assert responses == [
            {"id": 1, "status": "error", "message": "unknown command 'reset'"},
            {"id": 2, "status": "ok"},
        ]
        assert code == 0

    def test_init_invalidates_state_ids(self):
        """`init` drops every state issued before it; ids stay unique."""
        responses, _ = self.raw(
            [
                {"id": 1, "cmd": "init", "theorem": "imp_self"},
                {"id": 2, "cmd": "apply", "state_id": "s1", "tactic": "intro h"},
                {"id": 3, "cmd": "init", "theorem": "imp_self"},
                {"id": 4, "cmd": "apply", "state_id": "s1", "tactic": "intro h"},
                {"id": 5, "cmd": "apply", "state_id": "s2", "tactic": "exact h"},
                {"id": 6, "cmd": "apply", "state_id": "s3", "tactic": "intro h"},
                {"id": 7, "cmd": "shutdown"},
            ]
        )
        assert [(r["id"], r["status"], r.get("state_id")) for r in responses] == [
            (1, "ok", "s1"), (2, "ok", "s2"), (3, "ok", "s3"), (4, "error", None),
            (5, "error", None), (6, "ok", "s4"), (7, "ok", None),
        ]
        assert [responses[3]["message"], responses[4]["message"]] == [
            "unknown state id 's1'", "unknown state id 's2'"]

    def test_shutdown_exits_zero(self):
        _, code = self.raw([{"id": 1, "cmd": "shutdown"}])
        assert code == 0

    def test_cli_imports_no_bridge_client(self):
        """Only a bridged run needs the bridge client: `run` imports it when
        it starts the adapter, and nothing else does."""
        code = "import sys, proofsearch.cli; print(' '.join(sys.modules))"
        loaded = set(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                    text=True, check=True).stdout.split())
        assert {"proofsearch.cli", "proofsearch.agent", "proofsearch.bench"} <= loaded
        assert sorted(loaded & {"proofsearch.bridge", "subprocess", "select"}) == []

    def test_adapter_imports_only_the_prover_it_serves(self):
        """Every spawn pays for what the adapter imports: `core` and `toy`,
        not the search, the prompts, the model clients, retrieval, the
        toy oracle or the bridge client with its subprocess and select."""
        code = "import sys, proofsearch.bridge_adapter; print(' '.join(sys.modules))"
        loaded = set(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                    text=True, check=True).stdout.split())
        assert {"proofsearch.core", "proofsearch.toy"} <= loaded
        unused = {"proofsearch.agent", "proofsearch.prompts", "proofsearch.llm",
                  "proofsearch.retrieval", "proofsearch.bridge", "proofsearch.toy.oracle",
                  "subprocess", "queue", "select"}
        assert sorted(loaded & unused) == []


class TestSessionReuse:
    """An adapter serves a whole run: `init` starts every episode, and
    drops every state issued before it."""

    def test_hundred_init_cycles(self, suite):
        theorems = list(suite.theorems.values())
        issued = []
        with BridgeSession(BridgeConfig(command=LOOPBACK, timeout_seconds=30)) as session:
            for cycle in range(100):
                theorem = theorems[cycle % len(theorems)]
                init = session.call("init", theorem=theorem.name)
                assert init["status"] == "ok", cycle
                for stale in issued:
                    response = session.call("apply", state_id=stale, tactic="intro h")
                    assert response == {"id": response["id"], "status": "error",
                                        "message": f"unknown state id {stale!r}"}, cycle
                issued.append(init["state_id"])
                step = session.call("apply", state_id=init["state_id"],
                                    tactic=brute_force_prove(theorem, 4)[0])
                assert step["status"] in ("ok", "qed"), (cycle, step)
                issued.append(step["state_id"])
        assert len(set(issued)) == len(issued) == 200

    def test_state_from_before_init_is_refused_without_a_wire_call(self, session):
        first = session.initial_state("imp_self")
        child = session.apply_tactic(first, "intro h")
        assert session.initial_state("imp_self") == first
        sent = session._next_id
        with pytest.raises(BridgeFailure, match="^state was not issued by this session$"):
            session.apply_tactic(child, "exact h")
        assert session._next_id == sent

    def test_term_table_holds_only_its_theorem_after_init(self, monkeypatch):
        tables = []  # (theorem, a copy of its term table) at each apply

        class RecordingEnvironment(ToyEnvironment):
            def apply_tactic(self, state, tactic):
                tables.append((self.theorem, dict(self._terms)))
                return super().apply_tactic(state, tactic)

        requests = [
            {"id": 1, "cmd": "init", "theorem": "imp_const"},
            {"id": 2, "cmd": "apply", "state_id": "s1", "tactic": "intro h"},
            {"id": 3, "cmd": "apply", "state_id": "s2", "tactic": "intro h1"},
            {"id": 4, "cmd": "init", "theorem": "and_intro"},
            {"id": 5, "cmd": "apply", "state_id": "s4", "tactic": "split"},
        ]
        lines = "".join(json.dumps(request) + "\n" for request in requests)
        monkeypatch.setattr(bridge_adapter, "ToyEnvironment", RecordingEnvironment)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(lines.encode())))
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO()))
        assert bridge_adapter.serve(str(SUITE_PATH)) == 0
        statuses = [json.loads(line)["status"]
                    for line in sys.stdout.buffer.getvalue().splitlines()]
        assert statuses == ["ok"] * 5

        def own_terms(theorem):
            terms = [theorem.goal] + [term for _, term in theorem.hypotheses]
            return {print_term(term): term for term in terms}

        # a theorem's first step finds its own terms, the very objects, and
        # nothing of the theorem served before its `init`
        assert [theorem.name for theorem, _ in tables] == ["imp_const", "imp_const", "and_intro"]
        assert len(tables[1][1]) > len(tables[0][1])
        for theorem, table in (tables[0], tables[2]):
            own = own_terms(theorem)
            assert table.keys() == own.keys()
            assert all(table[text] is term for text, term in own.items())
        assert sorted(tables[2][1]) == ["P", "P /\\ Q", "Q"]


class TestBridgeSession:
    def test_init_and_apply(self, session):
        state = session.initial_state("imp_self")
        assert state == ProofState.of([Obligation.make("P -> P")])
        child = session.apply_tactic(state, "intro h")
        assert child == ProofState.of([Obligation.make("P", {"h": "P"})])
        # a decoded state holds only the view its key needs, none for prompts
        ob, = child.obligations
        assert [key if isinstance(key, str) else key.__name__
                for key in vars(ob)] == ["goal", "hypotheses", "_pair_text"]
        assert "_goals" not in vars(child)

    def test_shutdown_within_timeout(self, session):
        assert session.call("shutdown")["status"] == "ok"
        assert session._proc.wait(timeout=session.config.timeout_seconds) == 0


class TestReadPath:
    """Replies are read on the calling thread, from a binary pipe, with one
    deadline for the whole call."""

    @staticmethod
    def session(script, timeout_seconds=10.0):
        return BridgeSession(BridgeConfig(command=[sys.executable, "-c", script],
                                          timeout_seconds=timeout_seconds))

    @staticmethod
    def writing(*writes):
        """An adapter script that reads one request, then writes `writes`
        to stdout in turn, the reply's id put in place of `ID`, sleeping
        for each number among them."""
        return ("import json, sys, time\n"
                "request = json.loads(sys.stdin.readline())\n"
                f"for part in {writes!r}:\n"
                "    if isinstance(part, str):\n"
                "        sys.stdout.buffer.write(part.replace('ID', str(request['id'])).encode())\n"
                "        sys.stdout.flush()\n"
                "    else:\n"
                "        time.sleep(part)\n"
                "sys.stdin.read()\n")

    def test_a_session_starts_no_thread(self):
        threads = threading.active_count()
        with BridgeSession(BridgeConfig(command=LOOPBACK, timeout_seconds=30)) as session:
            state = session.initial_state("imp_self")
            for _ in range(100):
                assert not session.apply_tactic(state, "intro h").is_error
                assert threading.active_count() == threads
        assert threading.active_count() == threads

    def test_close_closes_the_adapters_output(self, session):
        session.initial_state("imp_self")
        session.close()
        assert session._proc.stdout.closed and session._proc.stdin.closed

    def test_reply_in_two_parts_is_one_reply(self):
        session = self.session(self.writing('{"id": ID, "sta', 0.3, 'tus": "ok"}\n'))
        try:
            assert session.call("shutdown") == {"id": 1, "status": "ok"}
        finally:
            session.close()

    def test_reply_larger_than_the_pipe_buffer_arrives_whole(self):
        # 300 KB: three UTF-8 bytes a character, so reads end inside characters
        script = ("import json, sys\n"
                  "request = json.loads(sys.stdin.readline())\n"
                  "reply = dict(id=request['id'], status='error', message='\\u2190' * 100_000)\n"
                  "sys.stdout.buffer.write(json.dumps(reply, ensure_ascii=False).encode() + b'\\n')\n"
                  "sys.stdout.flush()\n"
                  "sys.stdin.read()\n")
        session = self.session(script)
        try:
            reply = session.call("apply", state_id="s1", tactic="rw h")
            assert reply["message"] == "\u2190" * 100_000
        finally:
            session.close()

    def test_request_larger_than_the_pipe_buffer_is_written_whole(self, session):
        """The adapter reads a 200 KB tactic while the session waits for room
        in the pipe, and its name comes back in the reply."""
        name = "h" * 200_000
        state = session.initial_state("imp_self")
        assert session.apply_tactic(state, f"intro {name}") == ProofState.of(
            [Obligation.make("P", {name: "P"})])

    @pytest.mark.parametrize("writes", [('{"id": ID, "sta', 30),
                                        ('{"id": ID, "st', 0.1, "a", 0.1, "t", 0.1, "u", 0.1,
                                         "s", 0.1, '"', 0.1, ":", 30)],
                             ids=["stall", "trickle"])
    def test_partial_line_times_out_at_the_deadline(self, writes):
        """One deadline covers the call: bytes that keep coming do not
        extend it."""
        session = self.session(self.writing(*writes), timeout_seconds=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(BridgeFailure, match="timed out after 0.5s"):
                session.call("shutdown")
            assert 0.5 <= time.monotonic() - start < 5
        finally:
            session.close()

    def test_adapter_speaks_utf8_whatever_its_locale(self, suite):
        """`rw ← h` and its error text cross the wire as UTF-8 under an
        ASCII locale, and the replies are the in-process ones."""
        command = ["env", "PYTHONIOENCODING=ascii"] + LOOPBACK
        theorem = suite.theorem("eq_symm")
        direct = ToyEnvironment(theorem)
        with BridgeSession(BridgeConfig(command=command, timeout_seconds=30)) as bridged:
            state = bridged.initial_state("eq_symm")
            assert state == direct.initial_state("eq_symm")
            for tactic in ["rw ← h2", "rw ← h"]:
                expected = direct.apply_tactic(state, tactic)
                assert bridged.apply_tactic(state, tactic) == expected, tactic
            assert expected == ProofState.of([Obligation.make("a = a", {"h": "a = b"})])
            assert bridged._proc.poll() is None


class TestBridgedEnvironment:
    """The session is the ProofEnvironment its adapter serves."""

    def test_full_proof_through_bridge(self, session):
        state = session.initial_state("imp_self")
        state = session.apply_tactic(state, "intro h")
        assert state == ProofState.of([Obligation.make("P", {"h": "P"})])
        assert session.apply_tactic(state, "exact h").is_qed

    def test_error_absorbs_locally(self, session):
        state = session.initial_state("imp_self")
        err = session.apply_tactic(state, "refl")
        assert err.is_error
        sent = session._next_id
        assert session.apply_tactic(err, "intro h") == err
        assert session._next_id == sent

    def test_unknown_state_raises_bridge_failure(self, session):
        foreign = ProofState.of([Obligation.make("Z")])
        with pytest.raises(BridgeFailure):
            session.apply_tactic(foreign, "intro h")


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
        with BridgeSession(BridgeConfig(command=LOOPBACK, timeout_seconds=30)) as bridged_env:
            for theorem in suite.theorems.values():
                direct_env = ToyEnvironment(theorem)
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

    def test_request_write_times_out_at_the_deadline(self):
        """A request larger than the pipe buffer, to an adapter that reads
        nothing, fails at the call's deadline instead of blocking. The call
        runs on a thread, so that a write that blocks fails the test."""
        session = self.run_adapter_script("import time; time.sleep(30)")
        raised = []

        def send():
            try:
                session.call("apply", state_id="s1", tactic="x" * 200_000)
            except BridgeFailure as exc:
                raised.append(str(exc))

        sender = threading.Thread(target=send, daemon=True)
        try:
            start = time.monotonic()
            sender.start()
            sender.join(timeout=5)
            assert not sender.is_alive(), "the request write outlived the call's deadline"
            assert 1.0 <= time.monotonic() - start < 5
            assert raised == ["adapter response timed out after 1.0s"]
        finally:
            session.close()  # a blocked write ends with the adapter
            sender.join(timeout=10)

    def test_adapter_that_closed_its_input_is_a_broken_pipe(self):
        """An adapter that closes its stdin and keeps running fails the
        request write, not the wait for a reply."""
        script = ("import os, sys, time; os.close(0); print('closed', flush=True); "
                  "time.sleep(30)")
        session = self.run_adapter_script(script)
        try:
            assert select.select([session._proc.stdout], [], [], 10)[0]  # it has closed
            with pytest.raises(BridgeFailure, match="^adapter pipe broken: "):
                session.call("init", theorem="imp_self")
            assert session._proc.poll() is None
        finally:
            session.close()

    def test_reply_that_is_not_utf8_fails_at_once(self):
        script = ("import sys; sys.stdin.readline(); sys.stdout.buffer.write(b'\\xff\\xfe{}\\n'); "
                  "sys.stdout.flush(); sys.stdin.read()")
        session = BridgeSession(
            BridgeConfig(command=[sys.executable, "-c", script], timeout_seconds=10.0))
        try:
            start = time.monotonic()
            with pytest.raises(BridgeFailure, match=r"malformed response line: b'\\xff\\xfe\{\}'"):
                session.call("init", theorem="imp_self")
            assert time.monotonic() - start < 5
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

    # malformed `ok` replies to `init` or `apply`; none may end the run
    MALFORMED_REPLIES = {
        "no-state-id": {"status": "ok", "obligations": [{"goal": "P", "hypotheses": []}]},
        "no-goal": {"status": "ok", "state_id": "s1", "obligations": [{"hypotheses": []}]},
        "goal-not-a-string": {"status": "ok", "state_id": "s1", "obligations": [{"goal": 5}]},
        "name-not-a-string": {"status": "ok", "state_id": "s1", "obligations": [
            {"goal": "B", "hypotheses": [{"name": 1, "prop": "A"}]}]},
        "repeated-name": {"status": "ok", "state_id": "s1", "obligations": [
            {"goal": "B", "hypotheses": [{"name": "h", "prop": "A"},
                                         {"name": "h", "prop": "B"}]}]},
        "no-obligations": {"status": "ok", "state_id": "s1"},
        "empty-obligations": {"status": "ok", "state_id": "s1", "obligations": []},
        "obligations-not-a-list": {"status": "ok", "state_id": "s1", "obligations": {"goal": "P"}},
    }

    @staticmethod
    def replying(reply, **by_cmd):
        """An adapter script that answers a request with `by_cmd[its cmd]`
        when given, and with `reply` otherwise."""
        return ("import json, sys\n"
                "for line in sys.stdin:\n"
                "    request = json.loads(line)\n"
                f"    reply = {by_cmd!r}.get(request['cmd'], {reply!r})\n"
                "    print(json.dumps(dict(reply, id=request['id'])), flush=True)\n")

    @pytest.mark.parametrize("case", list(MALFORMED_REPLIES))
    def test_malformed_ok_reply_is_a_bridge_failure(self, case):
        session = self.run_adapter_script(self.replying(self.MALFORMED_REPLIES[case]))
        try:
            with pytest.raises(BridgeFailure):
                session.initial_state("imp_self")
        finally:
            session.close()

    @pytest.mark.parametrize("case", list(MALFORMED_REPLIES))
    def test_malformed_ok_reply_to_apply_is_a_bridge_failure(self, case):
        """The same replies to an `apply` fail where they arrive, not at the
        next tactic sent from the state they describe."""
        init = {"status": "ok", "state_id": "s1",
                "obligations": [{"goal": "P -> P", "hypotheses": []}]}
        session = self.run_adapter_script(self.replying(self.MALFORMED_REPLIES[case], init=init))
        try:
            state = session.initial_state("imp_self")
            with pytest.raises(BridgeFailure):
                session.apply_tactic(state, "intro h")
        finally:
            session.close()

    @pytest.mark.parametrize("case", ["no-state-id", "no-goal", "repeated-name"])
    def test_malformed_ok_reply_aborts_the_episode_as_infrastructure(self, case):
        session = self.run_adapter_script(self.replying(self.MALFORMED_REPLIES[case]))
        try:
            outcome, trace = prove("imp_self", session, SequenceBackend([]),
                                   None, GlobalContext("P -> P"), SearchConfig())
        finally:
            session.close()
        assert outcome.failure_reason == REASON_INFRASTRUCTURE and trace.aborted
        assert trace.queries_used == 0

    def test_config_validates_timeout(self):
        with pytest.raises(ValueError):
            BridgeConfig(command=["x"], timeout_seconds=0)
