"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line.

Every criterion is checked at full stated scale against independent
references (hand-written event traces, brute-force evaluators, naive
formula implementations, raw-wire subprocess sessions), never against the
implementation's own helpers alone.
"""

import json
import math
import random
import subprocess
import time
from contextlib import contextmanager

import pytest

from proofsearch.agent import REASON_BUDGET, EpisodeTrace, SearchConfig, prove
from proofsearch.bench import (
    oracle_scripted_backend,
    replay_trace,
    result_from_trace,
    write_report,
)
from proofsearch.core import (
    GlobalContext,
    Obligation,
    ProofState,
    at_least_as_hard,
    canonical_key,
)
from proofsearch.llm import (
    Completion,
    ReplayBackend,
    ScriptedBackend,
    SequenceBackend,
)
from proofsearch.metrics import (
    EpisodeResult,
    pass_at_k_seconds,
    pass_at_k_with_n_queries,
)
from proofsearch.prompts import (
    FormatError,
    LENGTH_CAP,
    NATURAL_STOP,
    ParsedAction,
    check_agent_grammar,
    parse_tactic,
    promptify,
)
from proofsearch.retrieval import LemmaRecord, bm25_score, build_index, tokenize
from proofsearch.toy import ToyEnvironment, brute_force_prove, parse_suite

from conftest import fuzz_bundle, fuzz_tactic, wrap
from test_bridge import LOOPBACK, differential_pairs
from test_core import brute_force_order, random_state
from test_retrieval import naive_bm25


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL")
        raise
    print(f"criterion {number:02d} {name}: PASS")


def plain_config(**overrides):
    defaults = dict(max_queries=60, wall_timeout_seconds=600.0)
    defaults.update(overrides)
    return SearchConfig(**defaults)


def run_plain(theorem, backend, config=None):
    env = ToyEnvironment(theorem)
    gctx = GlobalContext(theorem_statement=theorem.statement())
    return prove(theorem.name, env, backend, None, gctx, config or plain_config())


# --- criterion 1: pseudocode fidelity -------------------------------------

FIDELITY_SUITE = """
theorem pp
  goal P -> P
end

theorem conj
  goal P -> Q -> P /\\ Q
end

theorem hypo
  goal P
  hyp hp : P
end

theorem eq_refl
  goal a = a
end

theorem recover
  goal Q -> Q
end
"""


def key_of(*obligations):
    return canonical_key(ProofState.of(list(obligations)))


def expected_fidelity_episodes():
    """Each episode written out by hand: the scripted tactic responses and
    the full event trace the search procedure must produce, step by step
    (push, promptify, parse, transition, bad on rejection, pop on
    backtrack)."""
    pp0 = key_of(Obligation.make("P -> P"))
    pp1 = key_of(Obligation.make("P", {"h": "P"}))
    c0 = key_of(Obligation.make("P -> Q -> P /\\ Q"))
    c1 = key_of(Obligation.make("Q -> P /\\ Q", {"hp": "P"}))
    c2 = key_of(Obligation.make("P /\\ Q", {"hp": "P", "hq": "Q"}))
    c3 = key_of(
        Obligation.make("P", {"hp": "P", "hq": "Q"}),
        Obligation.make("Q", {"hp": "P", "hq": "Q"}),
    )
    c4 = key_of(Obligation.make("Q", {"hp": "P", "hq": "Q"}))
    h0 = key_of(Obligation.make("P", {"hp": "P"}))
    e0 = key_of(Obligation.make("a = a"))
    r0 = key_of(Obligation.make("Q -> Q"))
    r1 = key_of(Obligation.make("Q", {"h": "Q"}))
    return [
        (
            "pp",
            ["intro h", "exact h"],
            [
                ("push", pp0), ("promptify", pp0), ("parse", "intro h"),
                ("transition", "progressed"),
                ("push", pp1), ("promptify", pp1), ("parse", "exact h"),
                ("transition", "qed"),
            ],
        ),
        (
            "conj",
            ["intro hp", "intro hq", "split", "exact hp", "exact hq"],
            [
                ("push", c0), ("promptify", c0), ("parse", "intro hp"),
                ("transition", "progressed"),
                ("push", c1), ("promptify", c1), ("parse", "intro hq"),
                ("transition", "progressed"),
                ("push", c2), ("promptify", c2), ("parse", "split"),
                ("transition", "progressed"),
                ("push", c3), ("promptify", c3), ("parse", "exact hp"),
                ("transition", "progressed"),
                ("push", c4), ("promptify", c4), ("parse", "exact hq"),
                ("transition", "qed"),
            ],
        ),
        (
            "hypo",
            ["assumption"],
            [
                ("push", h0), ("promptify", h0), ("parse", "assumption"),
                ("transition", "qed"),
            ],
        ),
        (
            "eq_refl",
            ["refl"],
            [
                ("push", e0), ("promptify", e0), ("parse", "refl"),
                ("transition", "qed"),
            ],
        ),
        (
            "recover",
            ["refl", "intro h", "exact h"],
            [
                ("push", r0), ("promptify", r0), ("parse", "refl"),
                ("transition", "error"), ("bad", r0, "refl"),
                ("promptify", r0), ("parse", "intro h"),
                ("transition", "progressed"),
                ("push", r1), ("promptify", r1), ("parse", "exact h"),
                ("transition", "qed"),
            ],
        ),
    ]


def test_criterion_01_pseudocode_fidelity():
    with criterion(1, "pseudocode fidelity"):
        started = time.perf_counter()
        suite = parse_suite(FIDELITY_SUITE)
        episodes = expected_fidelity_episodes()
        assert len(episodes) >= 5
        for name, responses, expected_events in episodes:
            backend = SequenceBackend([wrap(t) for t in responses])
            outcome, trace = run_plain(suite.theorem(name), backend)
            assert outcome.proved, name
            assert trace.events == expected_events, name
        assert time.perf_counter() - started < 1.0


# --- criterion 2: progress guard ------------------------------------------


def test_criterion_02_progress_guard():
    with criterion(2, "progress guard vs brute force"):
        started = time.perf_counter()
        rng = random.Random(20240824)
        states = []
        for _ in range(1000):
            s1, s2 = random_state(rng), random_state(rng)
            assert at_least_as_hard(s1, s2) == brute_force_order(s1, s2)
            states.extend([s1, s2])
        for state in states:
            assert at_least_as_hard(state, state)
        for _ in range(1000):
            s1, s2, s3 = rng.choice(states), rng.choice(states), rng.choice(states)
            if at_least_as_hard(s1, s2) and at_least_as_hard(s2, s3):
                assert at_least_as_hard(s1, s3)
        assert time.perf_counter() - started < 5.0


# --- criterion 3: cycle immunity ------------------------------------------

LOOPY_SUITE = """
theorem loopy
  goal a = b
  hyp h : a = b
  hyp e : a = a
end
"""


class AdversarialBackend:
    """Proposes the identity rewrite half the time, otherwise a random
    tactic from a mixed pool."""

    POOL = ["rw h", "refl", "exact h", "intro x", "split", "assumption"]

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def complete(self, request):
        if self.rng.random() < 0.5:
            tactic = "rw e"
        else:
            tactic = self.rng.choice(self.POOL)
        return Completion(wrap(tactic), NATURAL_STOP, 0.0)


def check_no_dominated_push(trace, env, theorem_name):
    """Reconstruct the stack from the event stream with a fresh environment
    and re-evaluate the guard with the brute-force order."""
    stack = []
    pending = None
    last_tactic = None
    for event in trace.events:
        kind = event[0]
        if kind == "push":
            state = env.initial_state(theorem_name) if not stack else pending
            assert canonical_key(state) == event[1]
            for below in stack:
                assert not brute_force_order(state, below)
            stack.append(state)
        elif kind == "parse":
            last_tactic = event[1]
        elif kind == "transition" and event[1] == "progressed":
            pending = env.apply_tactic(stack[-1], last_tactic)
        elif kind == "pop":
            stack.pop()


def incorrect_steps_section(prompt_text):
    start = prompt_text.find("[INCORRECT STEPS]")
    if start < 0:
        return ""
    end = prompt_text.find("[LAST STEP]", start)
    return prompt_text[start:end] if end >= 0 else prompt_text[start:]


def check_rejections_surfaced(trace):
    for i, record in enumerate(trace.records):
        if record.result_class not in ("error", "no-progress"):
            continue
        following = next(
            (r for r in trace.records[i + 1:] if r.state_key == record.state_key),
            None,
        )
        if following is not None:
            section = incorrect_steps_section(following.prompt_text)
            assert f"[STEP]{record.tactic}" in section


def test_criterion_03_cycle_immunity():
    with criterion(3, "cycle immunity under adversarial rewrites"):
        started = time.perf_counter()
        suite = parse_suite(LOOPY_SUITE)
        theorem = suite.theorem("loopy")
        config = plain_config(per_state_budget=3, max_queries=40)
        for seed in range(100):
            outcome, trace = run_plain(theorem, AdversarialBackend(seed), config)
            assert trace.queries_used <= config.max_queries
            check_no_dominated_push(trace, ToyEnvironment(theorem), "loopy")
            check_rejections_surfaced(trace)
            if outcome.proved:
                assert replay_trace(trace, ToyEnvironment(theorem))
        assert time.perf_counter() - started < 30.0


# --- criteria 4, 5, 8 share one full-suite oracle run ----------------------


@pytest.fixture(scope="module")
def oracle_episodes(suite):
    episodes = []
    for theorem in suite.theorems.values():
        proof = brute_force_prove(theorem, 4)
        backend = oracle_scripted_backend(theorem, max_depth=4)
        assert proof is not None and backend is not None, theorem.name
        outcome, trace = run_plain(theorem, backend)
        episodes.append((theorem, proof, outcome, trace))
    return episodes


def test_criterion_04_proof_soundness(suite, oracle_episodes):
    with criterion(4, "proof soundness by independent replay"):
        replayed = 0
        for theorem, _, outcome, trace in oracle_episodes:
            if outcome.proved:
                assert replay_trace(trace, ToyEnvironment(theorem)), theorem.name
                replayed += 1
        assert replayed == len(suite.theorems)


def test_criterion_05_oracle_parity(suite, oracle_episodes):
    with criterion(5, "oracle parity with exact query counts"):
        assert len(suite.theorems) >= 30
        for theorem, proof, outcome, trace in oracle_episodes:
            assert len(proof) <= 4
            assert outcome.proved, theorem.name
            assert trace.queries_used == len(proof), theorem.name
            assert list(outcome.proof) == proof, theorem.name


def test_criterion_08_budget_accounting(oracle_episodes):
    with criterion(8, "budget accounting"):
        for _, _, _, trace in oracle_episodes:
            assert len(trace.records) <= trace.config["max_queries"]
            assert trace.queries_used == len(trace.records)
        suite = parse_suite(FIDELITY_SUITE)
        theorem = suite.theorem("pp")
        malformed = ScriptedBackend({}, default="I cannot find a tactic.")
        config = plain_config(max_queries=10, per_state_budget=50)
        outcome, trace = run_plain(theorem, malformed, config)
        assert not outcome.proved
        assert outcome.failure_reason == REASON_BUDGET
        assert trace.queries_used == config.max_queries
        assert len(trace.records) == config.max_queries


# --- criterion 6: grammar conformance --------------------------------------


def test_criterion_06_grammar_conformance():
    with criterion(6, "prompt and response grammar conformance"):
        rng = random.Random(20240824)
        for _ in range(10000):
            bundle = fuzz_bundle(rng)
            prompt = promptify(bundle, 4096)
            assert check_agent_grammar(prompt.agent_text)
        for _ in range(10000):
            tactic = fuzz_tactic(rng)
            parsed = parse_tactic(wrap(tactic))
            assert parsed == ParsedAction(tactic.strip())
        assert parse_tactic("[RUN TACTIC] induction c, [END]") == ParsedAction(
            "induction c,"
        )
        assert parse_tactic(
            "[RUN TACTIC] linarith,", stop_reason=LENGTH_CAP
        ) == ParsedAction("linarith,")
        parsed = parse_tactic("Great! The proof is complete.", stop_reason=NATURAL_STOP)
        assert isinstance(parsed, FormatError)
        assert parsed.repair_message == (
            "[ERROR]\n"
            "Invalid response:\n"
            "'Great! The proof is complete.', \n"
            "Stopping Reason: 'stop'.\n"
            " Please respond only in the format specified.[END]"
        )


# --- criterion 7: metric reproduction --------------------------------------


def synthetic_results(total, proved):
    return [
        EpisodeResult(
            theorem=f"t{i}", attempt=1, proved=i < proved,
            queries_used=10, wall_seconds=5.0,
        )
        for i in range(total)
    ]


def test_criterion_07_metric_reproduction():
    with criterion(7, "published metric reproduction"):
        for proved, expected_pp in ((71, 29.09), (73, 29.92), (75, 30.74)):
            value = pass_at_k_with_n_queries(synthetic_results(244, proved), 1, 60)
            assert abs(100.0 * value - expected_pp) <= 0.01
        rng = random.Random(20240824)
        for _ in range(100):
            results = [
                EpisodeResult(
                    theorem=f"t{rng.randint(0, 9)}",
                    attempt=rng.randint(1, 3),
                    proved=rng.random() < 0.5,
                    queries_used=rng.randint(1, 90),
                    wall_seconds=rng.uniform(0.1, 800.0),
                )
                for _ in range(rng.randint(1, 40))
            ]
            for k in (1, 2, 3):
                curve = [
                    pass_at_k_with_n_queries(results, k, n)
                    for n in (1, 10, 30, 60, 120)
                ]
                assert curve == sorted(curve)
            for n in (1, 30, 60):
                curve = [
                    pass_at_k_with_n_queries(results, k, n) for k in (1, 2, 3)
                ]
                assert curve == sorted(curve)
            seconds = [
                pass_at_k_seconds(results, k) for k in (1.0, 60.0, 600.0, 1200.0)
            ]
            assert seconds == sorted(seconds)


# --- criterion 9: BM25 correctness -----------------------------------------


def test_criterion_09_bm25_correctness():
    with criterion(9, "BM25 matches the naive reference"):
        rng = random.Random(20240824)
        vocabulary = [f"tok{i}" for i in range(40)]
        for _ in range(100):
            corpus = [
                LemmaRecord(
                    f"rec{j}", " ".join(rng.choices(vocabulary, k=rng.randint(1, 30)))
                )
                for j in range(rng.randint(1, 50))
            ]
            index = build_index(corpus)
            query = rng.choices(vocabulary, k=rng.randint(1, 8))
            for i in range(len(corpus)):
                assert math.isclose(
                    bm25_score(index, query, i),
                    naive_bm25(corpus, query, i),
                    abs_tol=1e-9,
                )
        corpus = [
            LemmaRecord("d1", "gcd mul lcm"),
            LemmaRecord("d2", "prime factorization"),
        ]
        index = build_index(corpus)
        query = tokenize("gcd x y = lcm y x")
        assert bm25_score(index, query, 0) > 0.0
        assert bm25_score(index, query, 1) == 0.0
        assert math.isclose(
            bm25_score(index, query, 0), naive_bm25(corpus, query, 0), abs_tol=1e-9
        )


# --- criterion 10: bridge differential -------------------------------------


def bridge_conformance_session(requests):
    proc = subprocess.Popen(
        LOOPBACK, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    lines = "".join(
        (r if isinstance(r, str) else json.dumps(r)) + "\n" for r in requests
    )
    stdout, _ = proc.communicate(lines, timeout=60)
    return [json.loads(line) for line in stdout.splitlines()], proc.returncode


def test_criterion_10_bridge_differential(suite):
    with criterion(10, "bridge differential and conformance"):
        from proofsearch.bridge import BridgeConfig, BridgedEnvironment, BridgeSession

        with BridgeSession(BridgeConfig(command=LOOPBACK, timeout_seconds=60)) as session:
            for theorem in suite.theorems.values():
                direct_env = ToyEnvironment(theorem)
                bridged_env = BridgedEnvironment(session)
                assert bridged_env.initial_state(theorem.name) == direct_env.initial_state(
                    theorem.name
                )
                reachable = {canonical_key(direct_env.initial_state(theorem.name))}
                for state, tactic in differential_pairs(theorem):
                    if canonical_key(state) not in reachable:
                        continue
                    direct = direct_env.apply_tactic(state, tactic)
                    bridged = bridged_env.apply_tactic(state, tactic)
                    assert bridged == direct, (theorem.name, tactic)
                    if not direct.is_error and not direct.is_qed:
                        reachable.add(canonical_key(direct))

        responses, code = bridge_conformance_session(
            [
                {"id": 1, "cmd": "init", "theorem": "imp_self"},
                {"id": 2, "cmd": "apply", "state_id": "s1", "tactic": "intro h"},
                {"id": 3, "cmd": "apply", "state_id": "s2", "tactic": "exact h"},
                "not json",
                {"id": 4, "cmd": "frobnicate"},
                {"id": 5, "cmd": "apply", "state_id": "s99", "tactic": "refl"},
                {"id": 6, "cmd": "shutdown"},
            ]
        )
        assert [r["id"] for r in responses] == [1, 2, 3, None, 4, 5, 6]
        assert responses[0]["status"] == "ok"
        assert responses[0]["obligations"] == [{"goal": "P -> P", "hypotheses": []}]
        assert responses[2]["status"] == "qed"
        assert responses[3] == {
            "id": None, "status": "error", "message": "malformed request line"
        }
        assert responses[4]["status"] == "error"
        assert responses[5]["status"] == "error"
        assert responses[6]["status"] == "ok"
        assert code == 0


# --- criterion 11: determinism ---------------------------------------------


def deterministic_run(theorems, backend_for, out_dir):
    results = []
    traces = []
    for theorem in theorems:
        env = ToyEnvironment(theorem)
        gctx = GlobalContext(theorem_statement=theorem.statement())
        outcome, trace = prove(
            theorem.name, env, backend_for(theorem), None, gctx, plain_config()
        )
        trace.category = theorem.category
        results.append(result_from_trace(trace))
        traces.append(trace)
    write_report(results, out_dir)
    return traces


def test_criterion_11_determinism(suite, tmp_path):
    with criterion(11, "record/replay determinism"):
        theorems = list(suite.theorems.values())[:10]
        traces_dir = tmp_path / "traces"

        def oracle(theorem):
            return oracle_scripted_backend(theorem, max_depth=4)

        def replaying(theorem):
            return ReplayBackend(EpisodeTrace.load(traces_dir / f"{theorem.name}.jsonl").records)

        first = deterministic_run(theorems, oracle, tmp_path / "first")
        for trace in first:
            trace.save(traces_dir / f"{trace.theorem}.jsonl")
        second = deterministic_run(theorems, replaying, tmp_path / "second")
        for a, b in zip(first, second):
            assert a.comparable() == b.comparable()
            assert [r.latency_seconds for r in a.records] == [
                r.latency_seconds for r in b.records]
        for name in ("metrics.txt", "metrics.csv"):
            assert (tmp_path / "first" / name).read_bytes() == (
                tmp_path / "second" / name
            ).read_bytes()
