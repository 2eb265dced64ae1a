"""Toy prover: term grammar, tactic surface syntax, kernel semantics, the
brute-force oracle, and the suite file format."""

import pytest

from proofsearch.core import Obligation, ProofState, lift_transition
from proofsearch.toy import (
    ToyEnvironment,
    ToyTacticParseError,
    brute_force_prove,
    candidate_tactics,
    load_suite,
    parse_suite,
    parse_toy_tactic,
    print_toy_tactic,
    write_suite,
)
from proofsearch.toy.kernel import ToyTheorem, apply_toy_tactic
from proofsearch.toy.suite import SuiteFormatError
from proofsearch.toy.tactics import Apply, Assumption, Exact, Intro, Refl, Rw, Split
from proofsearch.toy.terms import (
    And,
    Atom,
    Eq,
    Implies,
    TermParseError,
    parse_term,
    print_term,
)

from conftest import SUITE_PATH


class TestTerms:
    def test_parse_implication_right_associative(self):
        assert parse_term("P -> Q -> R") == Implies(Atom("P"), Implies(Atom("Q"), Atom("R")))

    def test_parse_conjunction_left_associative(self):
        assert parse_term("P /\\ Q /\\ R") == And(And(Atom("P"), Atom("Q")), Atom("R"))

    def test_precedence_eq_binds_tightest(self):
        term = parse_term("a = b /\\ P -> Q")
        assert term == Implies(And(Eq(Atom("a"), Atom("b")), Atom("P")), Atom("Q"))

    def test_parentheses_override(self):
        assert parse_term("(P -> Q) -> R") == Implies(Implies(Atom("P"), Atom("Q")), Atom("R"))

    def test_print_minimal_parentheses(self):
        assert print_term(parse_term("(P -> Q) -> R")) == "(P -> Q) -> R"
        assert print_term(parse_term("P -> (Q -> R)")) == "P -> Q -> R"
        assert print_term(parse_term("(P /\\ Q) /\\ R")) == "P /\\ Q /\\ R"
        assert print_term(parse_term("P /\\ (Q /\\ R)")) == "P /\\ (Q /\\ R)"

    @pytest.mark.parametrize(
        "text",
        [
            "P",
            "P -> Q",
            "P -> Q -> R",
            "(P -> Q) -> R",
            "P /\\ Q",
            "P /\\ Q /\\ R",
            "P /\\ (Q /\\ R)",
            "a = b",
            "a = b -> b = a",
            "P /\\ a = b -> Q",
            "(P /\\ Q -> R) -> P",
        ],
    )
    def test_round_trip(self, text):
        term = parse_term(text)
        assert parse_term(print_term(term)) == term

    def test_parse_error_has_position(self):
        with pytest.raises(TermParseError) as info:
            parse_term("P -> ")
        assert info.value.position == 5

    def test_unexpected_character(self):
        with pytest.raises(TermParseError):
            parse_term("P + Q")


class TestTacticSyntax:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("intro h", Intro("h")),
            ("split", Split()),
            ("assumption", Assumption()),
            ("exact hp", Exact("hp")),
            ("refl", Refl()),
            ("rw h1", Rw("h1")),
            ("rw <- h1", Rw("h1", reverse=True)),
            ("rw ← h1", Rw("h1", reverse=True)),
            ("apply lem", Apply("lem")),
            ("  intro h ,", Intro("h")),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_toy_tactic(text) == expected

    def test_unknown_tactic_message(self):
        with pytest.raises(ToyTacticParseError) as info:
            parse_toy_tactic("linarith")
        assert "unknown tactic 'linarith'" in str(info.value)
        assert "expected one of" in str(info.value)

    @pytest.mark.parametrize("text", ["", "intro", "intro a b", "split now", "rw", "rw <-"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ToyTacticParseError):
            parse_toy_tactic(text)

    def test_print_round_trip(self):
        for tactic in (Intro("h"), Split(), Assumption(), Exact("hp"), Refl(),
                       Rw("e"), Rw("e", reverse=True), Apply("l")):
            assert parse_toy_tactic(print_toy_tactic(tactic)) == tactic


def theorem_of(goal, hyps=(), lemmas=(), name="t"):
    return ToyTheorem(
        name=name,
        goal=parse_term(goal),
        hypotheses=tuple((n, parse_term(t)) for n, t in hyps),
        lemmas=tuple((n, parse_term(t)) for n, t in lemmas),
    )


def run(theorem, *tactics):
    state = theorem.initial_state()
    for tactic in tactics:
        state = apply_toy_tactic(state, tactic, dict(theorem.lemmas))
    return state


class TestKernel:
    def test_intro_moves_antecedent(self):
        state = run(theorem_of("P -> Q"), "intro h")
        assert state == ProofState.of([Obligation.make("Q", {"h": "P"})])

    def test_intro_rejects_non_implication(self):
        state = run(theorem_of("P"), "intro h")
        assert state.is_error
        assert state.error_message == "intro failed: goal is not an implication"

    def test_intro_rejects_used_name(self):
        state = run(theorem_of("P -> Q", hyps=[("h", "R")]), "intro h")
        assert state.error_message == "intro failed: hypothesis name 'h' already in use"

    def test_exact_discharges(self):
        assert run(theorem_of("P", hyps=[("h", "P")]), "exact h").is_qed

    def test_exact_wrong_hypothesis(self):
        state = run(theorem_of("P", hyps=[("h", "Q")]), "exact h")
        assert state.error_message == "exact failed: hypothesis 'h' does not match the goal"

    def test_assumption(self):
        assert run(theorem_of("Q", hyps=[("a", "P"), ("b", "Q")]), "assumption").is_qed
        state = run(theorem_of("Q", hyps=[("a", "P")]), "assumption")
        assert state.error_message == "assumption failed: no hypothesis matches the goal"

    def test_split_creates_two_obligations(self):
        state = run(theorem_of("P /\\ Q", hyps=[("h", "R")]), "split")
        assert state == ProofState.of(
            [Obligation.make("P", {"h": "R"}), Obligation.make("Q", {"h": "R"})]
        )

    def test_split_requires_conjunction(self):
        state = run(theorem_of("P -> Q"), "split")
        assert state.error_message == "split failed: goal is not a conjunction"

    def test_refl(self):
        assert run(theorem_of("a = a"), "refl").is_qed

    def test_refl_requires_syntactic_equality(self):
        state = run(theorem_of("a = b", hyps=[("h", "a = b")]), "refl")
        assert state.is_error
        assert "refl failed" in state.error_message
        assert state.error_message == "refl failed: sides of the equality are not syntactically equal"

    def test_rw_forward_rewrites_all_occurrences(self):
        state = run(theorem_of("a = a", hyps=[("h", "a = b")]), "rw h")
        assert state == ProofState.of([Obligation.make("b = b", {"h": "a = b"})])

    def test_rw_reverse(self):
        state = run(theorem_of("b = b", hyps=[("h", "a = b")]), "rw ← h")
        assert state == ProofState.of([Obligation.make("a = a", {"h": "a = b"})])

    def test_rw_zero_occurrences_fails(self):
        state = run(theorem_of("c = c", hyps=[("h", "a = b")]), "rw h")
        assert state.error_message == "rw failed: no occurrences of 'a' in the goal"

    def test_rw_uses_lemma_equations(self):
        state = run(theorem_of("a = b", lemmas=[("l_ab", "a = b")]), "rw l_ab")
        assert state == ProofState.of([Obligation.make("b = b")])

    def test_rw_rejects_non_equation(self):
        state = run(theorem_of("a = b", hyps=[("h", "P")]), "rw h")
        assert state.error_message == "rw failed: 'h' is not an equation"

    def test_apply_backward_chains_lemma(self):
        state = run(theorem_of("Q", hyps=[("hp", "P")], lemmas=[("l", "P -> Q")]), "apply l")
        assert state == ProofState.of([Obligation.make("P", {"hp": "P"})])

    def test_apply_fact_lemma_acts_like_exact(self):
        assert run(theorem_of("P", lemmas=[("l", "P")]), "apply l").is_qed

    def test_apply_is_scoped_to_lemmas(self):
        state = run(theorem_of("Q", hyps=[("h", "P -> Q")]), "apply h")
        assert state.error_message == "apply failed: no lemma named 'h'"

    def test_apply_conclusion_mismatch(self):
        state = run(theorem_of("R", lemmas=[("l", "P -> Q")]), "apply l")
        assert state.error_message == "apply failed: conclusion of 'l' does not match the goal"

    def test_parse_failure_becomes_error_state(self):
        state = run(theorem_of("P"), "linarith")
        assert state.is_error
        assert "unknown tactic 'linarith'" in state.error_message

    def test_error_states_absorb(self):
        err = run(theorem_of("P"), "split")
        assert err.is_error
        for tactic in ("intro h", "refl", "nonsense"):
            assert apply_toy_tactic(err, tactic, {}) == err

    def test_qed_state_rejects_further_tactics(self):
        qed = run(theorem_of("a = a"), "refl")
        after = apply_toy_tactic(qed, "refl", {})
        assert after.error_message == "no goals: the proof is already complete"

    def test_tactics_focus_first_obligation(self):
        # after split the obligations order as (P, {}) then (Q, {})
        theorem = theorem_of("P /\\ Q", hyps=[("hp", "P"), ("hq", "Q")])
        state = run(theorem, "split", "exact hp")
        assert state == ProofState.of([Obligation.make("Q", {"hp": "P", "hq": "Q"})])

    def test_determinism(self):
        theorem = theorem_of("P -> Q -> P")
        a = run(theorem, "intro h", "intro h1")
        b = run(theorem, "intro h", "intro h1")
        assert a == b


class TestEnvironment:
    def test_bound_to_one_theorem(self):
        env = ToyEnvironment(theorem_of("P -> P", name="pp"))
        assert env.initial_state("pp") == theorem_of("P -> P").initial_state()
        with pytest.raises(KeyError):
            env.initial_state("other")

    def test_statement_renders_turnstile(self):
        assert theorem_of("Q", hyps=[("hp", "P")]).statement() == "hp : P ⊢ Q"
        assert theorem_of("P -> P").statement() == "P -> P"


class TestOracle:
    def test_imp_self_shortest_proof(self):
        assert brute_force_prove(theorem_of("P -> P"), 3) == ["intro h", "exact h"]

    def test_refl_one_step(self):
        assert brute_force_prove(theorem_of("a = a"), 1) == ["refl"]

    def test_unprovable_atom(self):
        assert brute_force_prove(theorem_of("Q"), 3) is None

    def test_max_depth_validated(self):
        with pytest.raises(ValueError):
            brute_force_prove(theorem_of("P -> P"), 0)

    def test_candidates_canonical_order(self):
        theorem = theorem_of("P", hyps=[("h", "P")], lemmas=[("l", "P")])
        state = theorem.initial_state()
        assert candidate_tactics(state, dict(theorem.lemmas)) == [
            "intro h1",
            "split",
            "exact h",
            "assumption",
            "refl",
            "rw h",
            "rw ← h",
            "rw l",
            "rw ← l",
            "apply l",
        ]

    def test_fresh_intro_name_skips_taken(self):
        theorem = theorem_of("P -> Q", hyps=[("h", "R")])
        candidates = candidate_tactics(theorem.initial_state(), {})
        assert "intro h1" in candidates

    def test_soundness_and_minimality_on_bundled_suite(self, suite):
        for theorem in suite.theorems.values():
            proof = brute_force_prove(theorem, 4)
            assert proof is not None, theorem.name
            env = ToyEnvironment(theorem)
            assert lift_transition(env, theorem.initial_state(), proof).is_qed
            if len(proof) > 1:
                assert brute_force_prove(theorem, len(proof) - 1) is None, theorem.name


class TestSuiteFormat:
    def test_bundled_suite_loads(self, suite):
        assert len(suite.theorems) >= 30
        assert set(suite.lemmas) == {"l_p", "l_pq", "l_qr", "l_ab", "l_bc"}

    def test_round_trip(self, suite):
        assert parse_suite(write_suite(suite)).theorems == suite.theorems

    def test_round_trip_is_canonical(self, suite):
        once = write_suite(suite)
        assert write_suite(parse_suite(once)) == once

    def test_categories_parsed(self, suite):
        assert suite.theorem("imp_self").category == "implication"
        assert suite.theorem("lemma_apply").category == "lemma"

    def test_use_references_resolve(self, suite):
        theorem = suite.theorem("lemma_chain")
        assert [name for name, _ in theorem.lemmas] == ["l_pq", "l_qr"]

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("theorem t\n  goal P\n", "missing 'end'"),
            ("theorem t\nend\n", "has no goal"),
            ("theorem t\n  goal P\n  goal Q\nend\n", "already has a goal"),
            ("theorem t\n  use nope\n  goal P\nend\n", "unknown lemma"),
            ("lemma a : P\nlemma a : Q\n", "duplicate lemma"),
            ("theorem t\n  goal P\nend\ntheorem t\n  goal Q\nend\n", "duplicate theorem"),
            ("garbage line\n", "unexpected keyword"),
            ("theorem t\n  goal P\n  hyp h : P\n  hyp h : Q\nend\n", "duplicate hypothesis"),
        ],
    )
    def test_format_errors(self, text, fragment):
        with pytest.raises(SuiteFormatError) as info:
            parse_suite(text)
        assert fragment in str(info.value)

    def test_comments_and_blanks_ignored(self):
        suite = parse_suite("# header\n\nlemma l : P\n\ntheorem t\n  goal P\n  use l\nend\n")
        assert list(suite.theorems) == ["t"]

    def test_load_suite_from_path(self):
        assert load_suite(SUITE_PATH).theorems
