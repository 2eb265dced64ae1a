"""BM25 retrieval over an external lemma/definition corpus.

The query for a proof state is the concatenation of its goal texts and
hypothesis propositions. Scoring uses the standard BM25 formula with
idf = ln(1 + (N - df + 0.5) / (df + 0.5)) and k1 = 1.2, b = 0.75.

The index is inverted: each term maps to its postings, the indices of the
records that contain it. A query scores only the postings of its own
terms, so its cost grows with the length of those postings, not with the
size of the corpus; records outside them score zero. A query that
scores fewer than k records fills the ranking with zero-score records
taken in name order from the index's `by_name`, so the fill costs O(k).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable

from .core import ProofState

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list:
    """Lowercased tokens split on punctuation/whitespace."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True, slots=True)
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
    postings: dict  # term -> record indices, one entry per occurrence, ascending
    doc_lengths: tuple
    avg_doc_length: float
    doc_freq: dict  # term -> number of documents containing it
    by_name: tuple  # record indices in name order


def build_index(corpus: Iterable[LemmaRecord]) -> RetrievalIndex:
    records = tuple(corpus)
    names = [record.name for record in records]
    if len(names) != len(set(names)):
        raise ValueError("duplicate record names in corpus")
    postings: dict = {}
    repeats = []  # one entry per occurrence of a term after its first in a record
    doc_lengths = []
    for i, record in enumerate(records):
        tokens = tokenize(f"{record.name} {record.statement}")
        doc_lengths.append(len(tokens))
        for term in tokens:
            posting = postings.get(term)
            if posting is None:
                postings[term] = [i]
            else:
                if posting[-1] == i:
                    repeats.append(term)
                posting.append(i)
    doc_freq = {term: len(posting) for term, posting in postings.items()}
    for term in repeats:
        doc_freq[term] -= 1
    avg = sum(doc_lengths) / len(records) if records else 0.0
    by_name = tuple(sorted(range(len(records)), key=names.__getitem__))
    return RetrievalIndex(records, postings, tuple(doc_lengths), avg, doc_freq, by_name)


def _idf(index: RetrievalIndex, term: str) -> float:
    df = index.doc_freq[term]
    return math.log(1.0 + (len(index.records) - df + 0.5) / (df + 0.5))


def _weight(index: RetrievalIndex, idf: float, tf: int, length: int) -> float:
    """One query term's contribution to the score of a record of `length`
    tokens that holds it `tf` times."""
    return idf * tf * (DEFAULT_K1 + 1.0) / (
        tf + DEFAULT_K1 * (1.0 - DEFAULT_B + DEFAULT_B * length / index.avg_doc_length)
    )


def state_query(state: ProofState) -> str:
    parts = []
    for obligation in state.obligations:
        parts.append(obligation.goal)
        parts.extend(prop for _, prop in obligation.hypotheses)
    return " ".join(parts)


def retrieve(index: RetrievalIndex, state: ProofState, k_retrieve: int) -> list:
    """Top k_retrieve (record, score) pairs for the state, scores
    non-increasing; ties broken by name ascending.

    Each query token, duplicates included, adds its weight to the records
    in its postings, in query order, so every score is the same sum as the
    record-by-record `bm25_score` in tests/test_retrieval.py gives. A
    record's entries in a posting are adjacent, so the length of each run
    is the record's count of the term, and the runs come in record order.
    Fewer than k_retrieve scored records are followed by zero-score
    records in name order."""
    if state.is_error:
        raise ValueError("retrieval query requires a non-error state")
    if not index.records or k_retrieve <= 0:
        return []
    records, lengths = index.records, index.doc_lengths
    scores: dict = {}
    for term in tokenize(state_query(state)):
        posting = index.postings.get(term)
        if posting is None:
            continue
        idf = _idf(index, term)
        i, tf = posting[0], 0
        for j in posting:  # each record's run of entries, in posting order
            if j != i:
                scores[i] = scores.get(i, 0.0) + _weight(index, idf, tf, lengths[i])
                i, tf = j, 0
            tf += 1
        scores[i] = scores.get(i, 0.0) + _weight(index, idf, tf, lengths[i])
    ranked = sorted(scores.items(), key=lambda item: (-item[1], records[item[0]].name))
    ranked = [(records[i], score) for i, score in ranked[:k_retrieve]]
    if len(ranked) < k_retrieve:
        unscored = (i for i in index.by_name if i not in scores)
        ranked += [(records[i], 0.0) for i in islice(unscored, k_retrieve - len(ranked))]
    return ranked


def parse_corpus(text: str) -> list:
    """Corpus file: one record per line, `name<TAB>kind<TAB>statement`.

    Blank lines and `#` comments are ignored; names must be unique. A line
    is split at its tabs before each field is stripped, so a statement
    may be empty but a name may not.
    """
    records = []
    seen = set()
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = line.split("\t")  # before stripping, so a statement may be empty
        if len(fields) != 3:
            raise ValueError(
                f"line {line_number}: expected 'name<TAB>kind<TAB>statement'"
            )
        name, kind, statement = fields
        name, kind, statement = name.strip(), kind.strip(), statement.strip()
        if not name:
            raise ValueError(f"line {line_number}: empty record name")
        if name in seen:
            raise ValueError(f"line {line_number}: duplicate record name {name!r}")
        seen.add(name)
        try:
            records.append(LemmaRecord(name, statement, kind))
        except ValueError as exc:  # an unknown kind
            raise ValueError(f"line {line_number}: {exc}") from None
    return records


def load_corpus(path: str | Path) -> list:
    return parse_corpus(Path(path).read_text(encoding="utf-8"))
