"""Toy prover: term grammar, tactic surface syntax, kernel semantics, the
brute-force oracle, and the suite file format."""

import json
from dataclasses import replace

import pytest

import proofsearch.core
import proofsearch.toy.kernel
import proofsearch.toy.oracle
import proofsearch.toy.terms
from proofsearch.core import (
    Obligation,
    ProofState,
    canonical_key,
    lift_transition,
    normalize_text,
)
from proofsearch.prompts import _goals
from proofsearch.toy import ToyEnvironment, load_suite
from proofsearch.toy.kernel import ToyTheorem
from proofsearch.toy.oracle import brute_force_prove, candidate_tactics
from proofsearch.toy.suite import SuiteFormatError, parse_suite
from proofsearch.toy.terms import (
    And,
    Atom,
    Eq,
    Implies,
    Term,
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

    @pytest.mark.parametrize("text, char, position", [
        ("p -> q % r", "%", 7),
        ("%", "%", 0),
        ("  ! P", "!", 2),
        ("P ->   \t+ Q", "+", 8),
    ])
    def test_unexpected_character_is_named_where_it_stands(self, text, char, position):
        with pytest.raises(TermParseError) as info:
            parse_term(text)
        assert str(info.value) == f"unexpected character {char!r} at position {position}"
        assert info.value.position == position and text[position] == char


class TestTacticSyntax:
    """Tactic text reaches the kernel through `ToyEnvironment.apply_tactic`.
    Each accepted form steps it, a variant steps like its canonical form,
    and malformed text gives an error state whose message reaches prompts
    and traces byte for byte."""

    KNOWN = "expected one of: apply, assumption, exact, intro, refl, rw, split"
    MALFORMED = {
        "": f"empty tactic at position 0; {KNOWN}",
        "  ,": f"empty tactic at position 0; {KNOWN}",
        "linarith": f"unknown tactic 'linarith' at position 0; {KNOWN}",
        "intro": "expected exactly one name after 'intro' at position 6",
        "  intro": "expected exactly one name after 'intro' at position 6",
        "intro a b": "expected exactly one name after 'intro' at position 6",
        "split now": "'split' takes no argument at position 6",
        "refl x": "'refl' takes no argument at position 5",
        "rw": "expected an equation name after 'rw' at position 3",
        "rw <-": "expected an equation name after 'rw <-' at position 3",
        "rw ← a b": "expected an equation name after 'rw ←' at position 3",
        "exact": "expected exactly one name after 'exact' at position 6",
        "apply a b": "expected exactly one name after 'apply' at position 6",
    }

    # each accepted form, with a goal it applies to and the goals it leaves
    @pytest.mark.parametrize("text, expected", [
        ("intro h", ("P -> Q", ["Q"])),
        ("split", ("P /\\ Q", ["P", "Q"])),
        ("assumption", ("P", [])),
        ("exact hp", ("P", [])),
        ("refl", ("a = a", [])),
        ("rw h1", ("a = c", ["b = c"])),
        ("rw <- h1", ("b = c", ["a = c"])),
        ("rw ← h1", ("b = c", ["a = c"])),
        ("apply lem", ("Q", ["P"])),
        ("  intro h ,", ("P -> Q", ["Q"])),
    ])
    def test_parse(self, text, expected):
        goal, left = expected
        theorem = theorem_of(goal, hyps=[("hp", "P"), ("h1", "a = b")], lemmas=[("lem", "P -> Q")])
        state = run(theorem, text)
        assert not state.is_error
        assert sorted(obligation.goal for obligation in state.obligations) == left

    @pytest.mark.parametrize("variant, canonical, goal, hyps", [
        ("rw <- h1", "rw ← h1", "b = b", [("h1", "a = b")]),
        ("  intro h ,", "intro h", "P -> Q", []),
    ], ids=["rw-arrow", "whitespace-and-comma"])
    def test_variant_steps_like_canonical_form(self, variant, canonical, goal, hyps):
        theorem = theorem_of(goal, hyps=hyps)
        expected = run(theorem, canonical)
        assert not expected.is_error
        assert run(theorem, variant) == expected

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_malformed_rejected(self, text):
        theorem = theorem_of("P -> P")
        state = run(theorem, text)
        assert state == ProofState.error(initial(theorem).obligations,
                                         self.MALFORMED[text])

    def test_unknown_tactic_message(self):
        state = run(theorem_of("P"), "  nlinarith h1 h2,")
        assert state.error_message == f"unknown tactic 'nlinarith' at position 0; {self.KNOWN}"


def theorem_of(goal, hyps=(), lemmas=(), name="t"):
    return ToyTheorem(
        name=name,
        goal=parse_term(goal),
        hypotheses=tuple((n, parse_term(t)) for n, t in hyps),
        lemmas=tuple((n, parse_term(t)) for n, t in lemmas),
    )


def initial(theorem):
    return ToyEnvironment(theorem).initial_state(theorem.name)


def step(theorem, state, tactic):
    """One tactic through a fresh environment: the kernel with no term
    table carried over from an earlier step."""
    return ToyEnvironment(theorem).apply_tactic(state, tactic)


def run(theorem, *tactics):
    state = initial(theorem)
    for tactic in tactics:
        state = step(theorem, state, tactic)
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
            assert step(theorem_of("P"), err, tactic) == err

    def test_qed_state_rejects_further_tactics(self):
        qed = run(theorem_of("a = a"), "refl")
        after = step(theorem_of("a = a"), qed, "refl")
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
        assert env.initial_state("pp") == ProofState.of([Obligation.make("P -> P")])
        with pytest.raises(KeyError):
            env.initial_state("other")

    def test_initial_state_is_built_once_per_environment(self):
        theorem = theorem_of("P -> Q -> P", hyps=[("hq", "Q")], name="pqp")
        env = ToyEnvironment(theorem)
        first = env.initial_state("pqp")
        assert env.initial_state("pqp") is first
        with pytest.raises(KeyError):
            env.initial_state("other")
        fresh = ToyEnvironment(theorem).initial_state("pqp")
        assert fresh == first and fresh is not first
        assert canonical_key(fresh) == canonical_key(first)

    def test_statement_renders_turnstile(self):
        assert theorem_of("Q", hyps=[("hp", "P")]).statement() == "hp : P ⊢ Q"
        assert theorem_of("P -> P").statement() == "P -> P"


def walk(env, lemmas, depth=4):
    """Every (state, tactic, result) of a breadth-first walk over the
    candidate tactics, `depth` steps deep, each reached state expanded once."""
    frontier = [env.initial_state(env.theorem.name)]
    seen = {canonical_key(frontier[0])}
    for _ in range(depth):
        reached = []
        for state in frontier:
            for tactic in candidate_tactics(state, lemmas):
                result = env.apply_tactic(state, tactic)
                yield state, tactic, result
                if not (result.is_error or result.is_qed):
                    key = canonical_key(result)
                    if key not in seen:
                        seen.add(key)
                        reached.append(result)
        frontier = reached


def term_nodes(term):
    yield term
    for child in vars(term).values():
        if isinstance(child, Term):
            yield from term_nodes(child)


class TestTermTable:
    """The environment's term table changes no transition, holds each
    text's own parse and each term's own print, and the obligations the
    kernel builds from it are those public construction would build."""

    def test_reachable_states_match_the_kernel_without_a_table(self, suite):
        checked = 0
        for theorem in suite.theorems.values():
            env = ToyEnvironment(theorem)
            for state, tactic, result in walk(env, dict(theorem.lemmas)):
                assert result == step(theorem, state, tactic)
                checked += 1
            assert env._terms, theorem.name
            for text, term in env._terms.items():
                assert parse_term(text) == term
        assert checked > 500

    def test_steps_build_no_hypothesis_dict(self, suite):
        """A step looks names up in the obligation's name-ordered pairs by
        bisection: it never walks the hypotheses, in any view, to build a
        dict per tactic, and renders only an `intro` child's new pair into
        the per-pair views it inherits."""

        def refused(*args):
            raise AssertionError("a step walked an obligation's hypotheses")

        class SealedPairs(tuple):  # indexing, slicing, hashing and == only
            __iter__ = __reversed__ = __contains__ = index = count = refused

        class SealedSet(frozenset):
            __iter__ = refused

        rendered = []

        def render(pair):
            rendered.append(pair)
            return pair

        steps = [(theorem, list(walk(ToyEnvironment(theorem), dict(theorem.lemmas))))
                 for theorem in suite.theorems.values()]
        for _, walked in steps:
            for state, _, _ in walked:
                for ob in state.obligations:
                    if not isinstance(ob.hypotheses, SealedPairs):
                        ob.pair_view(render)
                        ob.__dict__.update(
                            propositions=SealedSet(ob.propositions),
                            sort_key=ob.sort_key,
                            hypotheses=SealedPairs(ob.hypotheses))
        intros = 0
        for theorem, walked in steps:
            env = ToyEnvironment(theorem)
            for state, tactic, result in walked:
                rendered.clear()
                assert env.apply_tactic(state, tactic) == result
                if tactic.startswith("intro") and not result.is_error:
                    name = tactic.split()[1]
                    assert len(rendered) == 1
                    assert rendered[0] in [(name, ob.hypothesis(name)) for ob in result.obligations]
                    intros += 1
                else:
                    assert rendered == []
        assert intros > 10

    def test_kernel_obligations_equal_their_public_construction(self, suite):
        checked = memoized = 0
        for theorem in suite.theorems.values():
            env = ToyEnvironment(theorem)
            for _, _, result in walk(env, dict(theorem.lemmas)):
                if result.is_error:
                    continue
                made = []
                for ob in result.obligations:
                    public = Obligation.make(ob.goal, dict(ob.hypotheses))
                    assert ob == public and hash(ob) == hash(public)
                    assert (canonical_key(ProofState.of([ob]))
                            == canonical_key(ProofState.of([public])))
                    assert normalize_text(ob.goal) == ob.goal
                    for _, prop in ob.hypotheses:
                        assert normalize_text(prop) == prop
                    made.append(public)
                    checked += 1
                assert canonical_key(result) == canonical_key(ProofState.of(made))

            # the table's reverse direction prints as plain `print_term` does
            for term in env._terms.values():
                assert print_term(term, env._texts) == print_term(term)
            for term, text in env._texts.values():
                assert text == print_term(term)
            memoized += len(env._texts)
        assert checked > 100 and memoized > 50

    def test_an_episode_stores_nothing_on_suite_terms_or_modules(self, suite):
        # the bundled suite with every atom renamed: terms no other test has
        # printed, and texts no other test has made
        def renamed(term):
            if isinstance(term, Atom):
                return Atom(f"unseen_{term.name}")
            return type(term)(renamed(term.lhs), renamed(term.rhs))

        theorems = [
            replace(theorem, goal=renamed(theorem.goal),
                    hypotheses=tuple((name, renamed(t)) for name, t in theorem.hypotheses),
                    lemmas=tuple((name, renamed(t)) for name, t in theorem.lemmas))
            for theorem in suite.theorems.values()
        ]

        def suite_term_state():
            return [(node, dict(vars(node)))
                    for theorem in theorems
                    for _, term in (("goal", theorem.goal), *theorem.hypotheses, *theorem.lemmas)
                    for node in term_nodes(term)]

        modules = (proofsearch.core, proofsearch.toy.kernel, proofsearch.toy.oracle,
                   proofsearch.toy.terms)

        def module_state():
            return {(module.__name__, name): len(value)
                    for module in modules for name, value in vars(module).items()
                    if not name.startswith("__") and isinstance(value, (dict, list, set))}

        terms_before, modules_before = suite_term_state(), module_state()
        for theorem in theorems:
            env = ToyEnvironment(theorem)
            for _ in walk(env, dict(theorem.lemmas)):
                pass
            proof = brute_force_prove(theorem, 4)
            assert lift_transition(env, env.initial_state(theorem.name), proof).is_qed
        assert suite_term_state() == terms_before
        assert module_state() == modules_before

    def test_table_is_the_environments_own(self):
        theorem = theorem_of("P -> Q -> P")
        first, second = ToyEnvironment(theorem), ToyEnvironment(theorem)
        first.apply_tactic(initial(theorem), "intro h")
        assert first._terms and not second._terms


def compact_json(value) -> str:
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


class TestDerivedViews:
    """A kernel child derives its name-ordered pairs and every per-pair
    view from its parent's (`with_hypothesis` for `intro`, `with_goal` for
    `split`, `rw` and `apply`); each equals the one built from scratch, as
    does every other view, the goals block and the key."""

    # names with quotes around which `intro h` and `intro h1` insert, and
    # propositions whose `/\` JSON escapes
    QUOTED = theorem_of(
        "P /\\ Q -> R /\\ a = c -> (R /\\ a = c) /\\ Q",
        hyps=[("a'b", "S /\\ T"), ("e'", "a = b"), ("h'", "T"), ("z'", "b = c")],
        lemmas=[("l'", "Q -> R"), ("m'", "P /\\ Q -> Q")], name="quoted")

    @staticmethod
    def build_views(state):
        """The per-pair views a search builds at a state it expands: the
        key's pair texts and the goals block's hypothesis lines."""
        canonical_key(state)
        _goals(state)

    def test_children_views_equal_views_built_from_scratch(self, suite):
        derived = {}
        for theorem in [*suite.theorems.values(), self.QUOTED]:
            env = ToyEnvironment(theorem)
            self.build_views(env.initial_state(theorem.name))
            for state, tactic, result in walk(env, dict(theorem.lemmas)):
                if result.is_error or result.is_qed:
                    continue
                head = tactic.split()[0]
                fresh = ProofState.of(Obligation(ob.goal, ob.hypotheses)
                                      for ob in result.obligations)
                assert result.obligations == fresh.obligations
                new_obligations = set(result.obligations) - set(state.obligations)
                for ob, new in zip(result.obligations, fresh.obligations):
                    inherited = dict(vars(ob))  # before any view is read here
                    for key, view in inherited.items():
                        if isinstance(key, str):  # a field or a cached_property
                            assert view == getattr(new, key), (theorem.name, tactic, key)
                            continue
                        assert view == new.pair_view(key), (theorem.name, tactic)
                        if ob in new_obligations:  # derived by this step
                            derived[head, key.__name__] = derived.get((head, key.__name__), 0) + 1
                    pairs = tuple(sorted(set(ob.hypotheses)))
                    assert ob.hypotheses == pairs
                    assert ob.pair_view(proofsearch.core._pair_text) == tuple(
                        compact_json(pair) for pair in pairs)
                    assert all(ob.hypothesis(n) == p for n, p in ob.hypotheses)
                    assert ob.propositions == frozenset(p for _, p in ob.hypotheses)
                    assert ob.sort_key == (ob.goal, sorted((p, n) for n, p in ob.hypotheses))
                order = sorted(set(result.obligations),
                               key=lambda ob: (ob.goal, sorted((p, n) for n, p in ob.hypotheses)))
                assert result.obligations == tuple(order)
                assert _goals(result) == _goals(fresh)
                payload = {"error": None,
                           "obligations": [[ob.goal, sorted(ob.hypotheses)]
                                           for ob in result.obligations]}
                assert canonical_key(result) == canonical_key(fresh) == compact_json(payload)
                self.build_views(result)
        for view in ("_pair_text", "_hypothesis_line"):
            assert {"intro", "split", "rw", "apply"} <= {h for h, v in derived if v == view}, view
        assert derived["intro", "_pair_text"] > 20
        assert derived["intro", "_hypothesis_line"] > 15

    def test_quoted_names_and_escaped_props_reach_the_key(self):
        env = ToyEnvironment(self.QUOTED)
        state = env.initial_state("quoted")
        canonical_key(state)
        child = env.apply_tactic(state, "intro h")
        ob, = child.obligations
        assert [name for name, _ in ob.hypotheses] == ["a'b", "e'", "h", "h'", "z'"]
        assert '["a\'b","S /\\\\ T"]' in canonical_key(child)


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
        state = initial(theorem)
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
        candidates = candidate_tactics(initial(theorem), {})
        assert "intro h1" in candidates

    def test_soundness_and_minimality_on_bundled_suite(self, suite):
        for theorem in suite.theorems.values():
            proof = brute_force_prove(theorem, 4)
            assert proof is not None, theorem.name
            env = ToyEnvironment(theorem)
            assert lift_transition(env, env.initial_state(theorem.name), proof).is_qed
            if len(proof) > 1:
                assert brute_force_prove(theorem, len(proof) - 1) is None, theorem.name


def write_suite(suite):
    lines = []
    for name, term in suite.lemmas.items():
        lines.append(f"lemma {name} : {print_term(term)}")
    if suite.lemmas:
        lines.append("")
    for theorem in suite.theorems.values():
        lines.append(f"theorem {theorem.name}")
        lines.append(f"  goal {print_term(theorem.goal)}")
        for hyp_name, term in theorem.hypotheses:
            lines.append(f"  hyp {hyp_name} : {print_term(term)}")
        for lemma_name, _ in theorem.lemmas:
            lines.append(f"  use {lemma_name}")
        if theorem.category:
            lines.append(f"  category {theorem.category}")
        lines.append("end")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


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
            ("lemma l : P\n\ntheorem t\n  goal P\n", "line 3: theorem 't' is missing 'end'"),
            ("lemma l : P Q\n", "line 1: unexpected token 'Q'"),
            ("theorem t\n  goal P ->\nend\n", "line 2: unexpected end of input"),
            ("theorem t\n  goal P\n  hyp h : (P\nend\n", "line 3: expected ')'"),
        ],
    )
    def test_format_errors(self, text, fragment):
        with pytest.raises(SuiteFormatError) as info:
            parse_suite(text)
        assert fragment in str(info.value)

    @pytest.mark.parametrize("name", ["a/b", "../x", "/abs"])
    def test_theorem_name_with_a_slash_rejected(self, name):
        # the name is a trace file's name: a '/' would put the trace out of
        # reach of `report`, or outside `--out`
        with pytest.raises(SuiteFormatError) as info:
            parse_suite(f"theorem ok\n  goal P -> P\nend\n\ntheorem {name}\n  goal P\nend\n")
        assert str(info.value) == (f"line 5: theorem name {name!r} contains '/'; "
                                   "it must be a file name")

    def test_comments_and_blanks_ignored(self):
        suite = parse_suite("# header\n\nlemma l : P\n\ntheorem t\n  goal P\n  use l\nend\n")
        assert list(suite.theorems) == ["t"]

    def test_load_suite_from_path(self):
        assert load_suite(SUITE_PATH).theorems
