"""Self-contained toy prover: term language, kernel (tactic syntax and
semantics), brute-force oracle, and the theorem-suite file format."""

from .kernel import ToyEnvironment, ToyTheorem
from .oracle import brute_force_prove
from .suite import ToySuite, load_suite

__all__ = [
    "ToyEnvironment",
    "ToySuite",
    "ToyTheorem",
    "brute_force_prove",
    "load_suite",
]
