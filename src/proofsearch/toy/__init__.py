"""Self-contained toy prover: term language, kernel (tactic syntax and
semantics), brute-force oracle, and the theorem-suite file format.

The package imports the kernel and the suite format only; the oracle is
imported from `proofsearch.toy.oracle` where it is used, so the loopback
adapter, which serves the kernel, does not load it at every spawn."""

from .kernel import ToyEnvironment, ToyTheorem
from .suite import ToySuite, load_suite

__all__ = [
    "ToyEnvironment",
    "ToySuite",
    "ToyTheorem",
    "load_suite",
]
