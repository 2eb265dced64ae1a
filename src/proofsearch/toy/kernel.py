"""Tactic semantics of the toy prover.

Every tactic acts on a state's first obligation, in the deterministic
order in which `ProofState.obligations` is stored. Failures never raise:
they come back as absorbing error states whose message is a stable
string (golden tests on prompt rendering rely on that).

Obligations carry text, so a step needs the focused goal (and for `rw`
a hypothesis) as a `Term`. A `ToyEnvironment` owns a term table that
maps both ways. Text to `Term`: a step looks the text up before it
parses, and records every goal or hypothesis it prints from a `Term`.
`initial_state` seeds the table with the theorem's own goal and
hypotheses, so an episode parses no text at all. `Term` to text, keyed
by the term's `id` and holding the term so the id is not reused:
`print_term` consults it at every node, so the subterms an `intro` chain
keeps printing are printed once. That is exact because printed text is
already whitespace-normalized and `parse_term(print_term(t)) == t`.
Children are built from that printed text and the focused obligation,
whose hypotheses are normalized already: `Obligation.with_hypothesis`
for `intro`, which adds one pair, and `Obligation.with_goal` for the
other tactics, which keep the hypotheses as they are.
The table belongs to one environment, which means one episode; nothing
is cached at module level or stored on a `Term` or a `ToyTheorem`, and a
fresh environment steps exactly as a long-lived one does.

A step reads the tactic's text itself. Accepted forms:

    intro NAME
    split
    assumption
    exact NAME
    refl
    rw NAME          rewrite left-to-right with equation NAME
    rw <- NAME       rewrite right-to-left ("←" is accepted too)
    apply NAME

A single trailing comma is tolerated (Lean habit). Anything else is a
parse error whose message doubles as environment feedback.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Obligation, ProofEnvironment, ProofState
from .terms import And, Eq, Implies, Term, parse_term, print_term

KNOWN_TACTICS = ("apply", "assumption", "exact", "intro", "refl", "rw", "split")
_EXPECTED = "expected one of: " + ", ".join(KNOWN_TACTICS)


@dataclass(frozen=True)
class ToyTheorem:
    """A named initial obligation plus the lemmas its proof may use."""

    name: str
    goal: Term
    hypotheses: tuple = ()  # (name, Term) pairs
    lemmas: tuple = ()  # (name, Term) pairs
    category: str | None = None

    def statement(self) -> str:
        parts = [f"{name} : {print_term(term)}" for name, term in self.hypotheses]
        parts.append(print_term(self.goal))
        return " ⊢ ".join([", ".join(parts[:-1]), parts[-1]]) if len(parts) > 1 else parts[-1]


def _rewrite(term: Term, old: Term, new: Term) -> tuple:
    """Replace every occurrence of `old` in `term` by `new`; returns the
    rewritten term and the occurrence count."""
    if term == old:
        return new, 1
    if isinstance(term, (Implies, And, Eq)):
        lhs, n1 = _rewrite(term.lhs, old, new)
        rhs, n2 = _rewrite(term.rhs, old, new)
        return type(term)(lhs, rhs), n1 + n2
    return term, 0


def _read_tactic(text: str) -> tuple | str:
    """`(head, name, reverse)` of a tactic's text, or the parse-error
    message. `name` is None for a tactic that takes none; `reverse` is
    True only for `rw <-` and `rw ←`."""
    raw = text.strip()
    if raw.endswith(","):
        raw = raw[:-1].rstrip()
    if not raw:
        return f"empty tactic at position 0; {_EXPECTED}"
    head, *args = raw.split()
    if head not in KNOWN_TACTICS:
        return f"unknown tactic {head!r} at position 0; {_EXPECTED}"
    at = f"at position {len(head) + 1}"
    if head in ("split", "assumption", "refl"):
        return f"{head!r} takes no argument {at}" if args else (head, None, False)
    if head != "rw":
        if len(args) != 1:
            return f"expected exactly one name after {head!r} {at}"
        return head, args[0], False
    written = "rw"
    if args and args[0] in ("<-", "←"):
        written = f"rw {args.pop(0)}"
    if len(args) != 1:
        return f"expected an equation name after '{written}' {at}"
    return head, args[0], written != "rw"


class ToyEnvironment(ProofEnvironment):
    """ProofEnvironment over a single toy theorem (one episode, one env),
    with the episode's term table."""

    def __init__(self, theorem: ToyTheorem):
        self.theorem = theorem
        self._lemmas = dict(theorem.lemmas)
        self._terms: dict = {}  # goal or hypothesis text -> its Term
        self._texts: dict = {}  # id(term) -> (term, its printed text)
        self._initial: ProofState | None = None

    def initial_state(self, theorem_id: str) -> ProofState:
        """The theorem's one obligation, its goal and hypotheses printed
        through the table. Built at the first call and returned as the
        same object at every later one, so the stages of an episode share
        its root and the views the root has built (key, goals block)."""
        if theorem_id != self.theorem.name:
            raise KeyError(f"environment is bound to {self.theorem.name!r}, not {theorem_id!r}")
        if self._initial is None:
            hyps = {name: self._printed(term) for name, term in self.theorem.hypotheses}
            self._initial = ProofState.of([Obligation.make(self._printed(self.theorem.goal), hyps)])
        return self._initial

    def apply_tactic(self, state: ProofState, tactic: str) -> ProofState:
        """Error states absorb every tactic; all failures (including tactic
        parse errors) return an error state carrying the input obligations."""
        if state.is_error:
            return state
        if state.is_qed:
            return state.with_error("no goals: the proof is already complete")
        read = _read_tactic(tactic)
        if isinstance(read, str):
            return state.with_error(read)
        focused, *rest = state.obligations
        result = self._step(focused, *read)
        if isinstance(result, str):
            return state.with_error(result)
        return ProofState.of(result + rest)

    def _parsed(self, text: str) -> Term:
        """The term of a goal or hypothesis text; parsed only if the table
        lacks it."""
        term = self._terms.get(text)
        if term is None:
            term = self._terms[text] = parse_term(text)
        return term

    def _printed(self, term: Term) -> str:
        """`term`'s text, printed through the table and recorded in it."""
        text = print_term(term, self._texts)
        self._terms[text] = term
        return text

    def _step(self, focused: Obligation, head: str, name: str | None, reverse: bool) -> list | str:
        """Apply a read tactic to one obligation.

        Returns the replacement obligations on success, or an error message.
        """

        def child(term: Term) -> Obligation:
            return focused.with_goal(self._printed(term))

        goal = self._parsed(focused.goal)
        if head == "intro":
            if not isinstance(goal, Implies):
                return "intro failed: goal is not an implication"
            if focused.hypothesis(name) is not None:
                return f"intro failed: hypothesis name '{name}' already in use"
            new_hyp = (name, self._printed(goal.lhs))
            return [focused.with_hypothesis(self._printed(goal.rhs), new_hyp)]

        if head == "split":
            if not isinstance(goal, And):
                return "split failed: goal is not a conjunction"
            return [child(goal.lhs), child(goal.rhs)]

        if head == "assumption":
            if focused.goal in focused.propositions:
                return []
            return "assumption failed: no hypothesis matches the goal"

        if head == "exact":
            prop = focused.hypothesis(name)
            if prop is None:
                return f"exact failed: no hypothesis named '{name}'"
            if prop != focused.goal:
                return f"exact failed: hypothesis '{name}' does not match the goal"
            return []

        if head == "refl":
            if not isinstance(goal, Eq):
                return "refl failed: goal is not an equality"
            if goal.lhs != goal.rhs:
                return "refl failed: sides of the equality are not syntactically equal"
            return []

        if head == "rw":
            prop = focused.hypothesis(name)
            equation = self._parsed(prop) if prop is not None else self._lemmas.get(name)
            if equation is None:
                return f"rw failed: no equation named '{name}'"
            if not isinstance(equation, Eq):
                return f"rw failed: '{name}' is not an equation"
            old, new = (equation.rhs, equation.lhs) if reverse else (equation.lhs, equation.rhs)
            rewritten, count = _rewrite(goal, old, new)
            if count == 0:
                return f"rw failed: no occurrences of '{print_term(old, self._texts)}' in the goal"
            return [child(rewritten)]

        # apply NAME
        lemma = self._lemmas.get(name)
        if lemma is None:
            return f"apply failed: no lemma named '{name}'"
        if isinstance(lemma, Implies):
            if print_term(lemma.rhs, self._texts) != focused.goal:
                return f"apply failed: conclusion of '{name}' does not match the goal"
            return [child(lemma.lhs)]
        if print_term(lemma, self._texts) != focused.goal:
            return f"apply failed: '{name}' does not match the goal"
        return []
