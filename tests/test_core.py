"""Core state model: obligations, QED, the progress order, canonical keys,
and lifted transitions."""

import random

import pytest

from proofsearch.core import (
    ErrorStateComparison,
    GlobalContext,
    Obligation,
    ProofState,
    at_least_as_hard,
    canonical_key,
    lift_transition,
    normalize_text,
    ordered_obligations,
)
from proofsearch.toy import ToyEnvironment, parse_suite


def state_of(*pairs):
    return ProofState.of(Obligation.make(goal, dict(hyps)) for goal, hyps in pairs)


class TestObligation:
    def test_whitespace_normalized_on_construction(self):
        ob = Obligation.make("P   ->\n Q", {"h": "  a =  b "})
        assert ob.goal == "P -> Q"
        assert ob.hypothesis_map() == {"h": "a = b"}

    def test_equality_ignores_hypothesis_order(self):
        a = Obligation(goal="G", hypotheses=frozenset([("h1", "P"), ("h2", "Q")]))
        b = Obligation(goal="G", hypotheses=frozenset([("h2", "Q"), ("h1", "P")]))
        assert a == b

    def test_duplicate_hypothesis_names_rejected(self):
        with pytest.raises(ValueError):
            Obligation(goal="G", hypotheses=frozenset([("h", "P"), ("h ", "Q")]))

    def test_hypothesis_contents_drop_names(self):
        ob = Obligation.make("G", {"h1": "P", "h2": "P", "h3": "Q"})
        assert ob.hypothesis_contents() == frozenset({"P", "Q"})


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
    """Direct two-level quantifier evaluation, used as the reference."""
    for ob2 in o2.obligations:
        found = False
        for ob1 in o1.obligations:
            if ob1.goal == ob2.goal and ob1.hypothesis_contents() <= ob2.hypothesis_contents():
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


def test_ordered_obligations_sorted_by_goal_then_hypotheses():
    a = Obligation.make("B")
    b = Obligation.make("A", {"h": "P"})
    c = Obligation.make("A")
    assert ordered_obligations(ProofState.of([a, b, c])) == [c, b, a]
