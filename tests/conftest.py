"""Shared fixtures: the bundled theorem suite, corpus, and small helpers."""

import os
from pathlib import Path

import pytest

from proofsearch.llm import Completion, GuidanceBackend
from proofsearch.prompts import NATURAL_STOP
from proofsearch.retrieval import build_index, load_corpus
from proofsearch.toy import load_suite

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
DATA_DIR = SRC_DIR / "proofsearch" / "data"
SUITE_PATH = DATA_DIR / "basic.toysuite"
CORPUS_PATH = DATA_DIR / "basic.corpus.tsv"

# loopback adapters run as `python -m proofsearch.bridge_adapter` in a child
# process, which finds the package only through PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def suite():
    return load_suite(SUITE_PATH)


@pytest.fixture(scope="session")
def corpus():
    return load_corpus(CORPUS_PATH)


@pytest.fixture(scope="session")
def corpus_index(corpus):
    return build_index(corpus)


class SequenceBackend(GuidanceBackend):
    """Replies with a fixed response sequence, then with the default."""

    def __init__(self, responses, default=""):
        self.responses = list(responses)
        self.default = default
        self._cursor = 0

    def complete(self, request):
        if self._cursor < len(self.responses):
            text = self.responses[self._cursor]
            self._cursor += 1
        else:
            text = self.default
        return Completion(text, NATURAL_STOP, 0.0)


def wrap(tactic: str) -> str:
    """Render a tactic in the response grammar."""
    return f"[RUN TACTIC] {tactic} [END]"


_WORDS = [
    "P", "Q", "R", "S", "gcd", "lcm", "succ", "zero", "x", "y", "n", "k",
    "a = b", "b = c", "n + 0 = n", "x * y = y * x", "P -> Q", "P /\\ Q",
]
_TACTIC_WORDS = [
    "intro h", "exact h", "refl", "split", "rw h1", "rw ← h1", "apply l_pq",
    "assumption", "induction c,", "simp [nat.add_comm]", "linarith,",
]


def fuzz_text(rng, words=_WORDS, max_words=4):
    return " ".join(rng.choices(words, k=rng.randint(1, max_words)))


def fuzz_tactic(rng):
    return fuzz_text(rng, _TACTIC_WORDS, 2)


def fuzz_bundle(rng):
    """A random but grammar-safe PromptBundle for fuzz tests."""
    from proofsearch.core import GlobalContext, Obligation, ProofState
    from proofsearch.prompts import PromptBundle, repair_message
    from proofsearch.retrieval import LemmaRecord

    obligations = []
    for i in range(rng.randint(1, 4)):
        hyps = {f"h{j}": fuzz_text(rng) for j in range(rng.randint(0, 4))}
        obligations.append(Obligation.make(f"{fuzz_text(rng)} {i}", hyps))
    state = ProofState.of(obligations)
    retrieved = None
    if rng.random() < 0.6:
        ranked = [
            (LemmaRecord(f"lem{i}", fuzz_text(rng), rng.choice(["lemma", "definition"])),
             round(rng.random() * 5, 3))
            for i in range(rng.randint(1, 5))
        ]
        ranked.sort(key=lambda pair: -pair[1])
        retrieved = ranked
    context = None
    if rng.random() < 0.5:
        hints = fuzz_text(rng) if rng.random() < 0.5 else None
        context = GlobalContext(theorem_statement=fuzz_text(rng), informal_hints=hints)
    bad = []
    for _ in range(rng.randint(0, 3)):
        tactic = fuzz_tactic(rng)
        if tactic not in bad:
            bad.append(tactic)
    steps = [fuzz_tactic(rng) for _ in range(rng.randint(0, 4))]
    last_step = fuzz_tactic(rng) if rng.random() < 0.6 else None
    last_outcome = None
    if last_step is not None:
        last_outcome = "success" if rng.random() < 0.4 else f"tactic failed: {fuzz_text(rng)}"
    notice = None
    if rng.random() < 0.3:
        notice = repair_message(fuzz_text(rng), rng.choice(["natural-stop", "length-cap"]))
    return PromptBundle(
        state=state,
        bad_tactics=bad,
        retrieved=retrieved,
        context=context,
        steps=steps,
        last_step=last_step,
        last_outcome=last_outcome,
        format_error_notice=notice,
    )
