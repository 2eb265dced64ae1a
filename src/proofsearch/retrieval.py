"""BM25 retrieval over an external lemma/definition corpus.

The query for a proof state is the concatenation of its goal texts and
hypothesis propositions. Scoring uses the standard BM25 formula with
idf = ln(1 + (N - df + 0.5) / (df + 0.5)) and defaults k1 = 1.2, b = 0.75.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .core import ProofState, ordered_obligations

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list:
    """Lowercased tokens split on punctuation/whitespace."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class LemmaRecord:
    name: str
    statement: str
    kind: str = "lemma"  # "lemma" | "definition"

    def __post_init__(self):
        if self.kind not in ("lemma", "definition"):
            raise ValueError(f"unknown record kind {self.kind!r}")


@dataclass
class RetrievalIndex:
    records: tuple
    doc_tokens: tuple  # token list per record
    doc_lengths: tuple
    avg_doc_length: float
    doc_freq: dict  # term -> number of documents containing it
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class RetrievalResult:
    """Ranked (record, score) pairs, scores non-increasing."""

    ranked: list = field(default_factory=list)

    def records(self) -> list:
        return [record for record, _ in self.ranked]

    def __len__(self) -> int:
        return len(self.ranked)

    def __iter__(self):
        return iter(self.ranked)


def build_index(
    corpus: Iterable[LemmaRecord], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> RetrievalIndex:
    records = tuple(corpus)
    names = [record.name for record in records]
    if len(names) != len(set(names)):
        raise ValueError("duplicate record names in corpus")
    doc_tokens = tuple(tokenize(f"{r.name} {r.statement}") for r in records)
    doc_lengths = tuple(len(tokens) for tokens in doc_tokens)
    doc_freq: dict = {}
    for tokens in doc_tokens:
        for term in set(tokens):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    avg = sum(doc_lengths) / len(records) if records else 0.0
    return RetrievalIndex(records, doc_tokens, doc_lengths, avg, doc_freq, k1, b)


def bm25_score(index: RetrievalIndex, query_tokens: Sequence[str], doc_index: int) -> float:
    n_docs = len(index.records)
    tokens = index.doc_tokens[doc_index]
    length = index.doc_lengths[doc_index]
    score = 0.0
    for term in query_tokens:
        tf = tokens.count(term)
        if tf == 0:
            continue
        df = index.doc_freq[term]
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        score += idf * tf * (index.k1 + 1.0) / (
            tf + index.k1 * (1.0 - index.b + index.b * length / index.avg_doc_length)
        )
    return score


def state_query(state: ProofState) -> str:
    parts = []
    for obligation in ordered_obligations(state):
        parts.append(obligation.goal)
        parts.extend(prop for _, prop in sorted(obligation.hypotheses))
    return " ".join(parts)


def retrieve(index: RetrievalIndex, state: ProofState, k_retrieve: int) -> RetrievalResult:
    """Top k_retrieve records for the state; ties broken by name ascending."""
    if state.is_error:
        raise ValueError("retrieval query requires a non-error state")
    if not index.records or k_retrieve <= 0:
        return RetrievalResult([])
    query_tokens = tokenize(state_query(state))
    scored = [
        (record, bm25_score(index, query_tokens, i))
        for i, record in enumerate(index.records)
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0].name))
    return RetrievalResult(scored[:k_retrieve])


def parse_corpus(text: str) -> list:
    """Corpus file: one record per line, `name<TAB>kind<TAB>statement`.

    Blank lines and `#` comments are ignored; names must be unique.
    """
    records = []
    seen = set()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(
                f"line {line_number}: expected 'name<TAB>kind<TAB>statement'"
            )
        name, kind, statement = (f.strip() for f in fields)
        if name in seen:
            raise ValueError(f"line {line_number}: duplicate record name {name!r}")
        seen.add(name)
        records.append(LemmaRecord(name=name, statement=statement, kind=kind))
    return records


def load_corpus(path: str | Path) -> list:
    return parse_corpus(Path(path).read_text(encoding="utf-8"))


def write_corpus(records: Iterable[LemmaRecord]) -> str:
    return "".join(f"{r.name}\t{r.kind}\t{r.statement}\n" for r in records)
