"""Self-contained toy prover: term language, tactics, kernel, brute-force
oracle, and the theorem-suite file format."""

from .kernel import ToyEnvironment, ToyTheorem, apply_toy_tactic
from .oracle import brute_force_prove, candidate_tactics
from .suite import ToySuite, load_suite, parse_suite
from .tactics import ToyTactic, ToyTacticParseError, parse_toy_tactic
from .terms import And, Atom, Eq, Implies, Term, TermParseError, parse_term, print_term

__all__ = [
    "And",
    "Atom",
    "Eq",
    "Implies",
    "Term",
    "TermParseError",
    "ToyEnvironment",
    "ToySuite",
    "ToyTactic",
    "ToyTacticParseError",
    "ToyTheorem",
    "apply_toy_tactic",
    "brute_force_prove",
    "candidate_tactics",
    "load_suite",
    "parse_suite",
    "parse_term",
    "parse_toy_tactic",
    "print_term",
]
