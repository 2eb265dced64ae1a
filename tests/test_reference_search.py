"""A plain reference search, written straight from the algorithm, checked
against `prove` and `ensemble_prove` on seeded random toy theorems.

The reference is a recursive depth-first search with a stack of states, a
failure table per stage, the progress order by brute force, and the depth,
per-state, format-retry and query caps. It keys states with its own
serializer instead of the key stored on a state, compares hypotheses by
building their sets on the spot instead of reading an obligation's stored
contents, and applies each tactic through a fresh `ToyEnvironment`, so no
term table carries over from one step to the next. The backends are
adversarial: malformed and cut-off responses, identity rewrites, tactics
that error, and infrastructure failures at a random query; for some seeds
the environment also fails at a random tactic. The reference records
every event itself, those a query record restates included, so the
comparison also checks the events an `EpisodeTrace` derives from its
records.
"""

import json
import random
from dataclasses import dataclass, field, replace

import pytest

from proofsearch.agent import NO_PROGRESS_MESSAGE, SearchConfig, ensemble_prove, prove
from proofsearch.bridge import BridgeConfig, BridgeFailure, BridgeSession
from proofsearch.core import GlobalContext
from proofsearch.llm import (Completion, CompletionRequest, GuidanceBackend,
                             InfrastructureFailure)
from proofsearch.prompts import (
    LENGTH_CAP,
    NATURAL_STOP,
    ParsedAction,
    PromptBudgetError,
    PromptBundle,
    parse_tactic,
    promptify,
    sketch_prompt,
)
from proofsearch.retrieval import LemmaRecord, build_index, retrieve
from proofsearch.toy import ToyEnvironment, ToyTheorem
from proofsearch.toy.suite import ToySuite, parse_suite
from proofsearch.toy.terms import And, Atom, Eq, Implies, print_term
from proofsearch.trace import (
    REASON_BUDGET,
    REASON_EXHAUSTED,
    REASON_INFRASTRUCTURE,
    STAGE_INFORMAL,
    STAGE_PLAIN,
    STAGE_RETRIEVAL,
    QueryRecord,
    SearchOutcome,
)

from test_bench import serving
from test_toy import write_suite

# --- the reference ------------------------------------------------------------


def reference_key(state) -> str:
    """The failure-table key, serialized from the state's fields alone."""
    obligations = sorted(
        state.obligations,
        key=lambda ob: (ob.goal, sorted((prop, name) for name, prop in ob.hypotheses)),
    )
    payload = {
        "error": state.error_message,
        "obligations": [[ob.goal, sorted(ob.hypotheses)] for ob in obligations],
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


def reference_order(harder, easier) -> bool:
    """`harder` is at least as hard as `easier`: every obligation of
    `easier` has one in `harder` with the same goal and a subset of its
    hypothesis propositions."""
    return all(
        any(
            ob1.goal == ob2.goal
            and {prop for _, prop in ob1.hypotheses} <= {prop for _, prop in ob2.hypotheses}
            for ob1 in harder.obligations
        )
        for ob2 in easier.obligations
    )


@dataclass
class ReferenceTrace:
    """What the reference records of an episode: every event as it happens,
    the ones a query record restates included, and the records apart."""

    events: list = field(default_factory=list)
    records: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    outcome: SearchOutcome | None = None
    queries_used: int = 0
    stage: str = STAGE_PLAIN
    aborted: bool = False

    def event(self, *data):
        self.events.append(tuple(data))


class _Stop(Exception):
    def __init__(self, outcome):
        super().__init__(outcome)
        self.outcome = outcome


class ReferenceSearch:
    """One episode: the stages share the query count, each stage gets a
    fresh failure table."""

    def __init__(self, theorem, backend, config, fail_at=None):
        self.theorem = theorem
        self.backend = backend
        self.config = config
        self.fail_at = fail_at  # the tactic at which the environment fails
        self.trace = ReferenceTrace()
        self.queries = 0
        self.tactics = 0

    def run_stage(self, stage, index, gctx):
        self.trace.stage = stage
        try:
            if stage == STAGE_INFORMAL:
                sketch = self.sketch()
                if sketch is not None:
                    gctx = replace(gctx, informal_hints=sketch)
            if self.queries >= self.config.max_queries:
                raise _Stop(SearchOutcome(proved=False, failure_reason=REASON_BUDGET))
            table = {}
            initial = ToyEnvironment(self.theorem).initial_state(self.theorem.name)
            self.search(initial, 0, [], [], table, stage, index, gctx)
            outcome = SearchOutcome(proved=False, failure_reason=REASON_EXHAUSTED)
        except _Stop as stop:
            outcome = stop.outcome
        except (InfrastructureFailure, BridgeFailure, PromptBudgetError) as exc:
            self.trace.notes.append(f"infrastructure failure: {exc}")
            self.trace.aborted = True
            outcome = SearchOutcome(proved=False, failure_reason=REASON_INFRASTRUCTURE)
        self.trace.outcome = outcome
        self.trace.queries_used = self.queries
        return outcome

    def search(self, state, depth, path, stack, table, stage, index, gctx):
        key = reference_key(state)
        stack.append(state)
        self.trace.event("push", key)
        ranked = None
        if index is not None:
            ranked = retrieve(index, state, self.config.k_retrieve)
            self.trace.event("retrieve", key, [[r.name, score] for r, score in ranked])
        bad = table.setdefault(key, [])
        last_step = last_outcome = None
        for _ in range(self.config.per_state_budget):
            tactic, record = self.ask(state, key, bad, ranked, gctx, path, last_step,
                                      last_outcome, stage)
            if tactic is None:
                continue
            self.tactics += 1
            if self.tactics == self.fail_at:
                raise BridgeFailure(f"environment failure at tactic {self.tactics}")
            new_state = ToyEnvironment(self.theorem).apply_tactic(state, tactic)
            if new_state.is_qed:
                result = "qed"
            elif new_state.is_error:
                result, last_outcome = "error", new_state.error_message
            elif (any(reference_order(new_state, below) for below in stack)
                  or depth + 1 >= self.config.max_depth):
                result, last_outcome = "no-progress", NO_PROGRESS_MESSAGE
            else:
                result, last_outcome = "progressed", "success"
            record.result_class = result
            self.trace.event("transition", result)
            last_step = tactic
            if result == "qed":
                raise _Stop(SearchOutcome(proved=True, proof=tuple(path + [tactic])))
            if result == "progressed":
                self.search(new_state, depth + 1, path + [tactic], stack, table, stage,
                            index, gctx)
            elif tactic not in bad:
                bad.append(tactic)
                self.trace.event("bad", key, tactic)
        stack.pop()
        self.trace.event("pop", key)

    def ask(self, state, key, bad, ranked, gctx, path, last_step, last_outcome, stage):
        """One attempt: a query, then a repair query per format error, up to
        the retry cap. Returns (tactic, record), or (None, None)."""
        notice = None
        for _ in range(self.config.format_retry_cap + 1):
            if self.queries >= self.config.max_queries:
                raise _Stop(SearchOutcome(proved=False, failure_reason=REASON_BUDGET))
            bundle = PromptBundle(state, list(bad), ranked, gctx, list(path), last_step,
                                  last_outcome, notice)
            prompt = promptify(bundle, self.config.token_budget, self.config.prompt_style)
            self.trace.event("promptify", key)
            completion = self.backend.complete(CompletionRequest(
                prompt.system, [("user", prompt.agent_text)],
                {"state_key": key, "stage": stage}))
            self.queries += 1
            record = QueryRecord(self.queries, stage, key, prompt.agent_text,
                                 prompt.token_estimate, completion.text,
                                 completion.stop_reason,
                                 latency_seconds=completion.latency_seconds)
            self.trace.records.append(record)
            parsed = parse_tactic(completion.text, completion.stop_reason)
            if isinstance(parsed, ParsedAction):
                record.tactic = parsed.tactic
                self.trace.event("parse", parsed.tactic)
                return parsed.tactic, record
            record.format_error = parsed.reason
            record.result_class = "format-error"
            self.trace.event("parse-error")
            notice = parsed.repair_message
        return None, None

    def sketch(self):
        if self.queries >= self.config.max_queries:
            self.trace.notes.append(f"skipped: {REASON_BUDGET}")
            return None
        statement = self.theorem.statement()
        request = CompletionRequest(sketch_prompt(), [("user", f"Theorem: {statement}")],
                                    {"state_key": "sketch", "stage": STAGE_INFORMAL})
        completion = self.backend.complete(request)  # a failure aborts the episode
        self.queries += 1
        self.trace.records.append(QueryRecord(
            self.queries, STAGE_INFORMAL, "sketch", f"Theorem: {statement}", 0,
            completion.text, completion.stop_reason, result_class="sketch",
            latency_seconds=completion.latency_seconds))
        self.trace.event("sketch")
        return completion.text


def reference_prove(theorem, backend, index, gctx, config, fail_at=None):
    search = ReferenceSearch(theorem, backend, config, fail_at)
    outcome = search.run_stage(STAGE_PLAIN, index, gctx)
    return outcome, search.trace


def reference_ensemble(theorem, backend, index, gctx, config, fail_at=None):
    search = ReferenceSearch(theorem, backend, config, fail_at)
    stages = [(STAGE_PLAIN, None)]
    if index is not None:
        stages += [(STAGE_RETRIEVAL, index), (STAGE_INFORMAL, index)]
    for stage, stage_index in stages:
        outcome = search.run_stage(stage, stage_index, gctx)
        if outcome.failure_reason != REASON_EXHAUSTED:
            break
    return outcome, search.trace


# --- seeded random theorems and backends --------------------------------------

ATOMS = ["P", "Q", "R", "a", "b", "c"]


def random_prop(rng, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return Atom(rng.choice(ATOMS))
    if roll < 0.55:
        return Eq(Atom(rng.choice(ATOMS)), Atom(rng.choice(ATOMS)))
    if roll < 0.8:
        return And(random_prop(rng, depth - 1), random_prop(rng, depth - 1))
    return Implies(random_prop(rng, depth - 1), random_prop(rng, depth - 1))


def random_theorem(rng, name, lemma_prefix=""):
    """A goal `A1 -> ... -> Ak -> C` whose conclusion often follows from
    the antecedents, hypotheses that include equations (so rewrites can
    cycle) and an identity equation, and a few lemmas, their names
    starting with `lemma_prefix`."""
    antecedents = [random_prop(rng, 1) for _ in range(rng.randint(0, 3))]
    pool = antecedents + [random_prop(rng, 1)]
    roll = rng.random()
    if roll < 0.4:
        conclusion = rng.choice(pool)
    elif roll < 0.7:
        conclusion = And(rng.choice(pool), rng.choice(pool))
    elif roll < 0.85:
        x = Atom(rng.choice(ATOMS))
        conclusion = Eq(x, x)
    else:
        conclusion = random_prop(rng)
    goal = conclusion
    for antecedent in reversed(antecedents):
        goal = Implies(antecedent, goal)
    hypotheses = []
    if rng.random() < 0.6:
        hypotheses.append(("e", Eq(Atom("a"), Atom("a"))))
    if rng.random() < 0.6:
        hypotheses.append(("hab", Eq(Atom("a"), Atom("b"))))
    if rng.random() < 0.4:
        hypotheses.append(("hq", random_prop(rng, 1)))
    lemmas = []
    if rng.random() < 0.5:
        equation = Eq(Atom(rng.choice(ATOMS)), Atom(rng.choice(ATOMS)))
        lemmas.append((f"{lemma_prefix}l_eq", equation))
    if rng.random() < 0.5:
        lemmas.append((f"{lemma_prefix}l_imp", Implies(random_prop(rng, 1), conclusion)))
    return ToyTheorem(name, goal, tuple(hypotheses), tuple(lemmas))


def random_index(rng, theorem):
    records = [LemmaRecord(name, print_term(term)) for name, term in theorem.lemmas]
    for i in range(rng.randint(0, 5)):
        records.append(LemmaRecord(f"extra{i}", print_term(random_prop(rng)),
                                   rng.choice(["lemma", "definition"])))
    return build_index(records)


def focused_names(state_key):
    """Hypothesis names of the focused obligation, read from the key (its
    obligations are in the search's focus order)."""
    obligations = json.loads(state_key)["obligations"]
    return [name for name, _ in obligations[0][1]] if obligations else []


class ChaosBackend(GuidanceBackend):
    """Seeded adversary: mostly a tactic that fits the focused obligation,
    otherwise a malformed or cut-off response, an identity rewrite, a
    tactic outside the language, or, for some seeds, an infrastructure
    failure at one drawn query."""

    def __init__(self, seed, lemma_names):
        self.rng = random.Random(seed)
        self.lemma_names = sorted(lemma_names)
        self.calls = 0
        self.fail_at = None
        if self.rng.random() < 0.15:
            self.fail_at = self.rng.randint(1, 30)
            self.failure = self.rng.choice([InfrastructureFailure, BridgeFailure])

    def complete(self, request):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.failure(f"chaos at call {self.calls}")
        rng = self.rng
        if request.metadata["state_key"] == "sketch":
            return Completion("Introduce, then split and close each side.", NATURAL_STOP, 0.0)
        roll = rng.random()
        if roll < 0.12:
            text = rng.choice(["", "intro h", "[RUN TACTIC] split", "[RUN TACTIC] [END]",
                               "I think refl works."])
            return Completion(text, rng.choice([NATURAL_STOP, LENGTH_CAP]), 0.0)
        if roll < 0.2:
            return Completion("[RUN TACTIC] refl", LENGTH_CAP, 0.0)
        if roll < 0.3:
            tactic = rng.choice(["rw e", "rw ← e", "rw hab", "rw ← hab"])
        elif roll < 0.36:
            tactic = rng.choice(["induction c,", "simp", "exact", "rw"])
        else:
            names = focused_names(request.metadata["state_key"])
            fresh = next(f"h{i}" for i in range(len(names) + 1) if f"h{i}" not in names)
            candidates = [f"intro {fresh}", f"intro {fresh}", "split", "assumption", "refl"]
            candidates += [f"exact {name}" for name in names]
            for name in names + self.lemma_names:
                candidates += [f"rw {name}", f"rw ← {name}"]
            candidates += [f"apply {name}" for name in self.lemma_names]
            tactic = rng.choice(candidates)
        return Completion(f"[RUN TACTIC] {tactic} [END]", NATURAL_STOP, 0.0)


class FailingEnvironment(ToyEnvironment):
    """The toy environment, raising a bridge failure at one tactic."""

    def __init__(self, theorem, fail_at):
        super().__init__(theorem)
        self.fail_at = fail_at
        self.tactics = 0

    def apply_tactic(self, state, tactic):
        self.tactics += 1
        if self.tactics == self.fail_at:
            raise BridgeFailure(f"environment failure at tactic {self.tactics}")
        return super().apply_tactic(state, tactic)


def environment_failure(seed):
    """The tactic at which the environment fails for this seed, or None."""
    rng = random.Random(f"environment {seed}")
    return rng.randint(1, 12) if rng.random() < 0.2 else None


def environment(seed, theorem):
    fail_at = environment_failure(seed)
    return ToyEnvironment(theorem) if fail_at is None else FailingEnvironment(theorem, fail_at)


def random_config(rng):
    return SearchConfig(
        max_queries=rng.randint(1, 40),
        per_state_budget=rng.randint(1, 4),
        max_depth=rng.randint(1, 6),
        format_retry_cap=rng.randint(0, 2),
        token_budget=rng.choice([4096, 4096, 4096, 90]),
        k_retrieve=rng.randint(1, 4),
    )


def case(seed, lemmas_apart=False):
    """The seed's theorem, config, index, context and backend factory.
    With `lemmas_apart`, lemma names carry the theorem's name, so the
    theorems of all seeds fit in one suite file."""
    rng = random.Random(seed)
    name = f"t{seed}"
    theorem = random_theorem(rng, name, f"{name}_" if lemmas_apart else "")
    config = random_config(rng)
    index = random_index(rng, theorem) if rng.random() < 0.6 else None
    gctx = GlobalContext(theorem_statement=theorem.statement())
    backend_seed = rng.randrange(2**32)
    lemma_names = [name for name, _ in theorem.lemmas]

    def backend():
        return ChaosBackend(backend_seed, lemma_names)

    return theorem, config, index, gctx, backend


def assert_same(actual, expected):
    (outcome, trace), (ref_outcome, ref_trace) = actual, expected
    assert list(trace.events) == ref_trace.events
    assert list(trace.records) == ref_trace.records
    for name in ("notes", "outcome", "queries_used", "stage", "aborted"):
        assert getattr(trace, name) == getattr(ref_trace, name), name
    assert outcome == ref_outcome


SEEDS = range(160)


class TestReferenceSearch:
    @pytest.mark.parametrize("chunk", range(4))
    def test_prove_matches_reference(self, chunk):
        for seed in SEEDS[chunk::4]:
            theorem, config, index, gctx, backend = case(seed)
            actual = prove(theorem.name, environment(seed, theorem), backend(), index, gctx,
                           config)
            assert_same(actual, reference_prove(theorem, backend(), index, gctx, config,
                                                environment_failure(seed)))

    @pytest.mark.parametrize("chunk", range(4))
    def test_ensemble_matches_reference(self, chunk):
        for seed in SEEDS[chunk::4]:
            theorem, config, index, gctx, backend = case(seed)
            actual = ensemble_prove(theorem.name, environment(seed, theorem), backend(), index,
                                    gctx, config)
            assert_same(actual, reference_ensemble(theorem, backend(), index, gctx, config,
                                                   environment_failure(seed)))

    def test_sketch_failure_matches_reference(self):
        """No seed's backend fails at the sketch query itself; here every
        one does, which aborts each episode that reaches the sketch."""
        class FailsAtTheSketch(GuidanceBackend):
            def __init__(self, inner):
                self.inner = inner

            def complete(self, request):
                if request.metadata["state_key"] == "sketch":
                    raise InfrastructureFailure("no sketch today")
                return self.inner.complete(request)

        aborted = 0
        for seed in SEEDS:
            theorem, config, index, gctx, backend = case(seed)
            actual = ensemble_prove(theorem.name, environment(seed, theorem),
                                    FailsAtTheSketch(backend()), index, gctx, config)
            expected = reference_ensemble(theorem, FailsAtTheSketch(backend()), index, gctx,
                                          config, environment_failure(seed))
            assert_same(actual, expected)
            aborted += expected[1].notes[-1:] == ["infrastructure failure: no sketch today"]
        assert aborted >= 50  # 57 of the 160 seeds reach the sketch

    def test_cases_reach_every_ending(self):
        """The seeds cover what the comparison must see: proofs, every
        failure reason, backtracks, rejected tactics, format repairs, the
        depth cap, more than one stage, and an environment that raised
        after a tactic parsed."""
        seen = set()
        for seed in SEEDS:
            theorem, config, index, gctx, backend = case(seed)
            outcome, trace = reference_ensemble(theorem, backend(), index, gctx, config,
                                                environment_failure(seed))
            if any(r.tactic is not None and r.result_class is None for r in trace.records):
                seen.add("environment raised")
            seen.add("proved" if outcome.proved else outcome.failure_reason)
            seen.update(event[0] for event in trace.events)
            seen.update(record.stage for record in trace.records)
            seen.update(record.result_class for record in trace.records)
            seen.update(note.split(":")[0] for note in trace.notes)
        assert {
            "proved", REASON_BUDGET, REASON_EXHAUSTED, REASON_INFRASTRUCTURE,
            "pop", "bad", "parse-error", "retrieve", "sketch",
            STAGE_RETRIEVAL, STAGE_INFORMAL, "no-progress", "error", "format-error",
            "skipped", "environment raised",
        } <= seen


class ServedSession(BridgeSession):
    """A session with `bridge_adapter.serve` on a thread of this process."""

    def __init__(self, suite_path, monkeypatch):
        with serving(suite_path, monkeypatch):
            super().__init__(BridgeConfig(command=["served in-process"], timeout_seconds=30))


class TestReferenceSeedsOverTheWire:
    """The seeds' theorems behind `bridge_adapter.serve`, one session for
    all of them with `init` starting each seed, as a run reuses its adapter:
    each episode's `comparable()` equals the in-process one. This runs
    `obligations_to_wire`, `obligations_from_wire` and the error text on
    random states. The adapter cannot fail at a tactic as
    `FailingEnvironment` does, so the seeds with an environment failure
    (37 of the 160) are skipped."""

    def test_ensemble_over_the_wire_matches_in_process(self, tmp_path, monkeypatch):
        cases = [case(seed, lemmas_apart=True) for seed in SEEDS
                 if environment_failure(seed) is None]
        assert len(SEEDS) - len(cases) == 37
        theorems = {theorem.name: theorem for theorem, *_ in cases}
        lemmas = {name: term for theorem in theorems.values() for name, term in theorem.lemmas}
        text = write_suite(ToySuite(lemmas, theorems))
        assert parse_suite(text).theorems == theorems
        suite_path = tmp_path / "seeds.toysuite"
        suite_path.write_text(text, encoding="utf-8")
        session = ServedSession(suite_path, monkeypatch)
        try:
            for theorem, config, index, gctx, backend in cases:
                direct = ensemble_prove(theorem.name, ToyEnvironment(theorem), backend(), index,
                                        gctx, config)
                bridged = ensemble_prove(theorem.name, session, backend(), index, gctx, config)
                assert bridged[0] == direct[0], theorem.name
                assert bridged[1].comparable() == direct[1].comparable(), theorem.name
        finally:
            session.close()
        assert session._proc.poll() == 0
