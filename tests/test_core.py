"""Core state model: obligations, QED, the progress order, canonical keys,
and lifted transitions."""

import json
import random
from functools import cached_property

import pytest

from proofsearch import core
from proofsearch.core import (
    ErrorStateComparison,
    GlobalContext,
    Obligation,
    ProofState,
    at_least_as_hard,
    canonical_key,
    lift_transition,
    normalize_text,
)
from proofsearch.toy import ToyEnvironment
from proofsearch.toy.suite import parse_suite


def state_of(*pairs):
    return ProofState.of(Obligation.make(goal, dict(hyps)) for goal, hyps in pairs)


class TestObligation:
    def test_whitespace_normalized_on_construction(self):
        ob = Obligation.make("P   ->\n Q", {"h": "  a =  b "})
        assert ob.goal == "P -> Q"
        assert ob.hypotheses == (("h", "a = b"),)
        assert ob.hypothesis("h") == "a = b"

    def test_equality_ignores_hypothesis_order(self):
        a = Obligation(goal="G", hypotheses=frozenset([("h1", "P"), ("h2", "Q")]))
        b = Obligation(goal="G", hypotheses=frozenset([("h2", "Q"), ("h1", "P")]))
        assert a == b

    def test_duplicate_hypothesis_names_rejected(self):
        with pytest.raises(ValueError):
            Obligation(goal="G", hypotheses=frozenset([("h", "P"), ("h ", "Q")]))

    def test_identical_pairs_collapse_and_clashing_names_raise(self):
        ob = Obligation("g", [("h", "P"), ("h", "P")])
        assert ob.hypotheses == (("h", "P"),)
        assert ob == Obligation.make("g", {"h": "P"})
        assert hash(ob) == hash(Obligation.make("g", {"h": "P"}))
        # identical once normalized
        assert Obligation("g", [(" h", "P  /\\ Q"), ("h", "P /\\ Q")]).hypotheses == (
            ("h", "P /\\ Q"),)
        with pytest.raises(ValueError):
            Obligation("g", [("h", "P"), ("h", "Q")])

    def test_hypothesis_contents_drop_names(self):
        ob = Obligation.make("G", {"h1": "P", "h2": "P", "h3": "Q"})
        assert ob.propositions == frozenset({"P", "Q"})


class TestStoredOrder:
    def test_identical_obligations_collapse(self):
        a, b = Obligation.make("A"), Obligation.make("B", {"h": "P"})
        state = ProofState.of([b, a, Obligation.make("B", {"h": "P"}), a])
        assert state.obligations == (a, b)
        assert state == ProofState.of([a, b]) and hash(state) == hash(ProofState.of([a, b]))
        assert ProofState.error([b, a, b], "msg").obligations == (a, b)

    def test_with_error_equals_the_public_constructor(self):
        # the stored tuple is kept as it is, not sorted again
        for state in random_states(14, 200):
            made = state.with_error("tactic failed")
            public = ProofState.error(state.obligations, "tactic failed")
            assert made.obligations is state.obligations
            assert made == public and hash(made) == hash(public)
            assert repr(made) == repr(public)
            assert canonical_key(made) == canonical_key(public)
        with pytest.raises(ValueError):
            state.with_error("")

    def test_split_on_a_repeated_conjunct_leaves_one_obligation(self):
        theorem = parse_suite("theorem pp\n  goal P /\\ P\n  hyp h : Q\nend\n").theorem("pp")
        env = ToyEnvironment(theorem)
        state = env.apply_tactic(env.initial_state("pp"), "split")
        assert state.obligations == (Obligation.make("P", {"h": "Q"}),)


class TestQed:
    def test_empty_obligations_is_qed(self):
        assert ProofState.qed().is_qed

    def test_nonempty_is_not_qed(self):
        assert not state_of(("P", {})).is_qed

    def test_error_state_is_not_qed(self):
        err = ProofState.error([Obligation.make("P")], "msg")
        assert not err.is_qed
        assert err.is_error

    def test_error_needs_message(self):
        with pytest.raises(ValueError):
            ProofState.error([], "")


class TestProgressOrder:
    def test_reflexive(self):
        state = state_of(("P", {"h": "Q"}), ("R", {}))
        assert at_least_as_hard(state, state)

    def test_empty_right_side_vacuous(self):
        assert at_least_as_hard(state_of(("P", {})), ProofState.qed())

    def test_fewer_hypotheses_is_harder(self):
        bare = state_of(("g", {}))
        helped = state_of(("g", {"h1": "P"}))
        assert at_least_as_hard(bare, helped)
        assert not at_least_as_hard(helped, bare)

    def test_goal_mismatch(self):
        assert not at_least_as_hard(state_of(("P", {})), state_of(("Q", {})))

    def test_names_ignored_in_inclusion(self):
        left = state_of(("g", {"a": "P"}))
        right = state_of(("g", {"b": "P", "c": "Q"}))
        assert at_least_as_hard(left, right)

    def test_error_states_rejected(self):
        err = ProofState.error([Obligation.make("P")], "boom")
        with pytest.raises(ErrorStateComparison):
            at_least_as_hard(err, state_of(("P", {})))
        with pytest.raises(ErrorStateComparison):
            at_least_as_hard(state_of(("P", {})), err)


def brute_force_order(o1: ProofState, o2: ProofState) -> bool:
    """Direct two-level quantifier evaluation, used as the reference. It
    reads the hypothesis pairs, not the obligations' stored views."""
    for ob2 in o2.obligations:
        contents2 = {prop for _, prop in ob2.hypotheses}
        found = False
        for ob1 in o1.obligations:
            if ob1.goal == ob2.goal and {prop for _, prop in ob1.hypotheses} <= contents2:
                found = True
        if not found:
            return False
    return True


def random_state(rng: random.Random) -> ProofState:
    goals = ["P", "Q", "R", "a = b"]
    props = ["P", "Q", "R", "S", "a = b", "b = c"]
    obligations = []
    for _ in range(rng.randint(0, 4)):
        hyps = {
            f"h{i}": rng.choice(props) for i in range(rng.randint(0, 4))
        }
        obligations.append(Obligation.make(rng.choice(goals), hyps))
    return ProofState.of(obligations)


class TestProgressOrderRandomized:
    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            s1, s2 = random_state(rng), random_state(rng)
            assert at_least_as_hard(s1, s2) == brute_force_order(s1, s2)

    def test_reflexivity_and_transitivity_sampled(self):
        rng = random.Random(7)
        states = [random_state(rng) for _ in range(60)]
        for state in states:
            assert at_least_as_hard(state, state)
        triples = [
            (rng.choice(states), rng.choice(states), rng.choice(states))
            for _ in range(300)
        ]
        for s1, s2, s3 in triples:
            if at_least_as_hard(s1, s2) and at_least_as_hard(s2, s3):
                assert at_least_as_hard(s1, s3)


class TestCanonicalKey:
    def test_order_independence(self):
        a, b = Obligation.make("A"), Obligation.make("B", {"h": "P"})
        assert canonical_key(ProofState.of([a, b])) == canonical_key(ProofState.of([b, a]))

    def test_hypothesis_order_independence(self):
        s1 = ProofState.of([Obligation(goal="G", hypotheses=frozenset([("h1", "P"), ("h2", "Q")]))])
        s2 = ProofState.of([Obligation(goal="G", hypotheses=frozenset([("h2", "Q"), ("h1", "P")]))])
        assert canonical_key(s1) == canonical_key(s2)

    def test_distinct_goals_distinct_keys(self):
        assert canonical_key(state_of(("P", {}))) != canonical_key(state_of(("Q", {})))

    def test_error_flag_in_key(self):
        plain = state_of(("P", {}))
        err = ProofState.error(plain.obligations, "msg")
        assert canonical_key(plain) != canonical_key(err)

    def test_congruence_on_random_states(self):
        rng = random.Random(99)
        states = [random_state(rng) for _ in range(200)]
        for s1 in states:
            for s2 in states:
                assert (canonical_key(s1) == canonical_key(s2)) == (s1 == s2)


def random_states(seed: int, count: int) -> list:
    rng = random.Random(seed)
    states = [random_state(rng) for _ in range(count)]
    return states + [ProofState.error(s.obligations, "tactic failed") for s in states[::4]]


class TestComputedOnce:
    """Keys and obligation views are stored on their objects; none of it
    may show in equality, hashing or repr, or change a value."""

    def test_stored_views_change_nothing(self):
        # equal states, built apart, must agree in repr too
        for state, fresh in zip(random_states(11, 200), random_states(11, 200)):
            key = canonical_key(state)
            order = state.obligations
            assert type(order) is tuple
            direct = sorted(set(state.obligations),
                            key=lambda ob: (ob.goal, sorted((p, n) for n, p in ob.hypotheses)))
            assert order == tuple(direct)
            for ob in state.obligations:
                assert ob.hypotheses == tuple(sorted(set(ob.hypotheses)))
                assert all(ob.hypothesis(n) == p for n, p in ob.hypotheses)
                assert ob.propositions == frozenset(p for _, p in ob.hypotheses)
                assert ob.sort_key == (ob.goal, sorted((p, n) for n, p in ob.hypotheses))
            if not state.is_error:
                assert at_least_as_hard(state, state)
            assert state == fresh
            assert hash(state) == hash(fresh)
            assert repr(state) == repr(fresh)
            assert canonical_key(fresh) == key

    def test_views_are_the_three_of_an_obligation_and_the_key_of_a_state(self):
        views = {cls: sorted(name for name, value in vars(cls).items()
                             if isinstance(value, cached_property))
                 for cls in (Obligation, ProofState)}
        assert views == {Obligation: ["propositions", "sort_key"],
                         ProofState: ["_canonical_key"]}
        # the per-pair views are kept in the instance dict under their
        # render function, built only when read: the key its pair texts
        ob = Obligation.make("P", {"h": "a = b", "g": "Q"})
        assert list(vars(ob)) == ["goal", "hypotheses"]
        canonical_key(ProofState.of([ob]))
        assert vars(ob)[core._pair_text] == ('["g","Q"]', '["h","a = b"]')

        def render(pair):
            return f"{pair[0]}={pair[1]}"

        assert ob.pair_view(render) == ("g=Q", "h=a = b")
        assert ob.pair_view(render) is ob.pair_view(render)
        assert list(vars(ob)) == ["goal", "hypotheses", core._pair_text, render]

    def test_key_is_compact_json_of_the_stored_obligations(self):
        for state in random_states(13, 50):
            payload = {"error": state.error_message,
                       "obligations": [[ob.goal, sorted(ob.hypotheses)]
                                       for ob in state.obligations]}
            assert canonical_key(state) == json.dumps(payload, ensure_ascii=False,
                                                      separators=(",", ":"))

    def test_name_view_is_read_only_and_kept(self):
        # the name-ordered pairs are the stored field, a tuple
        ob = Obligation.make("P", {"h": "a = b", "g": "Q"})
        assert ob.hypotheses is ob.hypotheses
        with pytest.raises(TypeError):
            ob.hypotheses[1] = ("h", "R")
        assert ob.hypotheses == (("g", "Q"), ("h", "a = b"))
        assert [ob.hypothesis(name) for name in ("", "f", "g", "g1", "h", "h ", "i")] == [
            None, None, "Q", None, "a = b", None, None]

    def test_key_serialized_once_per_state(self, monkeypatch):
        # count calls of the function behind the state's stored key
        view = vars(core.ProofState)["_canonical_key"]
        build = view.func
        built = []

        def counting_build(state):
            built.append(state)
            return build(state)

        monkeypatch.setattr(view, "func", counting_build)
        states, fresh_states = random_states(12, 50), random_states(12, 50)
        first = [canonical_key(state) for state in states]
        assert [id(state) for state in built] == [id(state) for state in states]
        assert [canonical_key(state) for state in states] == first  # builds nothing
        assert len(built) == len(states)
        # an equal state builds its own key, once
        assert [canonical_key(state) for state in fresh_states] == first
        assert [canonical_key(state) for state in fresh_states] == first
        assert [id(state) for state in built[len(states):]] == [id(s) for s in fresh_states]


def json_value(rng, depth):
    """A seeded nested value of the kinds the program encodes: dicts, lists
    and tuples over non-ASCII text, floats, ints, booleans and None."""
    kind = rng.randrange(8 if depth else 5)
    if kind == 0:
        return "".join(rng.choices("ab \"\\\n\tλ→∀⊢é😀\x01", k=rng.randint(0, 8)))
    if kind == 1:
        return rng.choice([0.0, -1.5, 1e-300, 1e300, 0.1 + 0.2, rng.random()])
    if kind == 2:
        return rng.randint(-10**20, 10**20)
    if kind == 3:
        return rng.choice([None, True, False])
    if kind == 4:
        return rng.choice(["", "ASCII only", "↔ ∧ ∨"])
    items = [json_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {f"k{i}é": item for i, item in enumerate(items)}


class TestEncoders:
    """The shared encoder writes what `json.dumps` writes, and so does the
    fallback to `JSONEncoder.encode` built where the C encoder is missing."""

    @staticmethod
    def encoders(monkeypatch) -> list:
        # the patch stays for the test: the fallback consults it at each call
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        fallback = core.make_json_encoder()
        assert isinstance(getattr(fallback, "__self__", None), json.JSONEncoder)
        return [core.encode_json, fallback]

    def test_same_text_as_json_dumps(self, monkeypatch):
        rng = random.Random(19)
        values = [json_value(rng, 4) for _ in range(500)]
        expected = [json.dumps(value, ensure_ascii=False) for value in values]
        for encode in self.encoders(monkeypatch):
            assert [encode(value) for value in values] == expected

    def test_a_list_that_holds_itself_raises(self, monkeypatch):
        loop = [1]
        loop.append(loop)
        for encode in self.encoders(monkeypatch):
            with pytest.raises((ValueError, RecursionError)):
                encode(loop)
            with pytest.raises((ValueError, RecursionError)):
                encode({"state": [loop]})

    def test_a_call_builds_no_encoder(self, monkeypatch):
        def refused(*args):
            raise AssertionError("an encoder was built at call time")

        value = {"type": "query", "text": "λ → ∀", "n": [1, 2.5, None]}
        expected = json.dumps(value, ensure_ascii=False)
        monkeypatch.setattr(json.encoder, "c_make_encoder", refused)
        assert core.encode_json(value) == expected


SUITE_TEXT = """
theorem pp
  goal P -> P
end
"""


class TestLiftTransition:
    @pytest.fixture()
    def env(self):
        return ToyEnvironment(parse_suite(SUITE_TEXT).theorem("pp"))

    def test_empty_sequence_is_identity(self, env):
        start = env.initial_state("pp")
        assert lift_transition(env, start, []) == start

    def test_single_tactic_matches_apply(self, env):
        start = env.initial_state("pp")
        assert lift_transition(env, start, ["intro h"]) == env.apply_tactic(start, "intro h")

    def test_two_step_proof_reaches_qed(self, env):
        start = env.initial_state("pp")
        assert lift_transition(env, start, ["intro h", "exact h"]).is_qed

    def test_fold_associativity(self, env):
        start = env.initial_state("pp")
        seqs = [
            (["intro h"], ["exact h"]),
            ([], ["intro h", "exact h"]),
            (["intro h", "exact h"], []),
            (["split"], ["intro h"]),
        ]
        for alpha, beta in seqs:
            assert lift_transition(env, start, alpha + beta) == lift_transition(
                env, lift_transition(env, start, alpha), beta
            )

    def test_error_absorbs_suffix(self, env):
        start = env.initial_state("pp")
        err = env.apply_tactic(start, "split")
        assert err.is_error
        assert lift_transition(env, err, ["intro h", "exact h"]) == err


class TestGlobalContext:
    def test_statement_required(self):
        with pytest.raises(ValueError):
            GlobalContext(theorem_statement="   ")

    def test_hints_optional(self):
        gctx = GlobalContext(theorem_statement="P -> P")
        assert gctx.informal_hints is None


def test_normalize_text_collapses_runs():
    assert normalize_text("  a  \n\t b ") == "a b"


def test_obligations_stored_by_goal_then_hypotheses():
    a = Obligation.make("B")
    b = Obligation.make("A", {"h": "P"})
    c = Obligation.make("A")
    assert ProofState.of([a, b, c]).obligations == (c, b, a)
