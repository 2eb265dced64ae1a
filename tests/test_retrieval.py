"""BM25 retrieval: index construction, scoring against a naive reference,
ranking determinism, and the corpus file format."""

import dataclasses
import math
import random
import re

import pytest

from proofsearch.core import Obligation, ProofState
from proofsearch.retrieval import (
    LemmaRecord,
    _idf,
    _weight,
    build_index,
    parse_corpus,
    retrieve,
    state_query,
    tokenize,
)


def naive_bm25(corpus, query_tokens, doc_index, k1=1.2, b=0.75):
    """Independent BM25 computation straight from the formula."""
    docs = [tokenize(f"{r.name} {r.statement}") for r in corpus]
    n = len(docs)
    avg_len = sum(len(d) for d in docs) / n
    doc = docs[doc_index]
    score = 0.0
    for term in query_tokens:
        tf = doc.count(term)
        if tf == 0:
            continue
        df = sum(1 for d in docs if term in d)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        score += idf * (tf * (k1 + 1.0)) / (
            tf + k1 * (1.0 - b + b * len(doc) / avg_len)
        )
    return score


def bm25_score(index, query_tokens, doc_index):
    """One record's BM25 score, computed from the index record by record;
    `retrieve` must give the same sums from the postings."""
    length = index.doc_lengths[doc_index]
    score = 0.0
    for term in query_tokens:
        tf = index.postings.get(term, []).count(doc_index)
        if tf:
            score += _weight(index, _idf(index, term), tf, length)
    return score


def write_corpus(records):
    return "".join(f"{r.name}\t{r.kind}\t{r.statement}\n" for r in records)


def goal_state(goal, hyps=None):
    return ProofState.of([Obligation.make(goal, hyps or {})])


class TestTokenize:
    def test_lowercase_punctuation_split(self):
        assert tokenize("Nat.gcd_comm (a, b) = GCD b a") == [
            "nat", "gcd", "comm", "a", "b", "gcd", "b", "a"
        ]

    def test_empty(self):
        assert tokenize("  ->  ") == []


class TestBuildIndex:
    def test_empty_corpus(self):
        index = build_index([])
        assert len(index.records) == 0
        assert retrieve(index, goal_state("P"), 5) == []

    def test_single_record_df(self):
        index = build_index([LemmaRecord("l", "gcd a b")])
        assert all(df == 1 for df in index.doc_freq.values())

    def test_shared_token_df(self):
        index = build_index(
            [
                LemmaRecord("l1", "gcd comm"),
                LemmaRecord("l2", "gcd mul"),
                LemmaRecord("l3", "prime"),
            ]
        )
        assert index.doc_freq["gcd"] == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            build_index([LemmaRecord("l", "a"), LemmaRecord("l", "b")])


class TestScoring:
    def test_two_document_hand_example(self):
        corpus = [
            LemmaRecord("d1", "gcd mul lcm"),
            LemmaRecord("d2", "prime factorization"),
        ]
        index = build_index(corpus)
        state = goal_state("gcd x y = lcm y x")
        query = tokenize(state_query(state))
        s1 = bm25_score(index, query, 0)
        s2 = bm25_score(index, query, 1)
        assert s1 == pytest.approx(naive_bm25(corpus, query, 0), abs=1e-12)
        assert s2 == 0.0
        result = retrieve(index, state, 2)
        assert result[0][0].name == "d1"
        assert s1 > s2

    def test_absent_token_contributes_zero(self):
        corpus = [LemmaRecord("d1", "alpha beta"), LemmaRecord("d2", "alpha gamma")]
        index = build_index(corpus)
        with_term = bm25_score(index, ["alpha"], 0)
        with_noise = bm25_score(index, ["alpha", "zeta"], 0)
        assert with_term == pytest.approx(with_noise)

    def test_duplicate_top_document_ties_broken_by_name(self):
        corpus = [
            LemmaRecord("b_copy", "gcd mul lcm"),
            LemmaRecord("a_copy", "gcd mul lcm"),
            LemmaRecord("other", "prime factorization"),
        ]
        index = build_index(corpus)
        result = retrieve(index, goal_state("gcd lcm"), 3)
        assert [r.name for r, _ in result] == ["a_copy", "b_copy", "other"]
        assert result[0][1] == pytest.approx(result[1][1])

    def test_matches_naive_reference_on_random_corpora(self):
        rng = random.Random(20240818)
        vocabulary = [f"tok{i}" for i in range(40)]
        for _ in range(100):
            corpus = [
                LemmaRecord(
                    f"rec{j}",
                    " ".join(rng.choices(vocabulary, k=rng.randint(1, 30))),
                    kind=rng.choice(["lemma", "definition"]),
                )
                for j in range(rng.randint(1, 50))
            ]
            index = build_index(corpus)
            query = rng.choices(vocabulary, k=rng.randint(1, 8))
            for i in range(len(corpus)):
                assert bm25_score(index, query, i) == pytest.approx(
                    naive_bm25(corpus, query, i), abs=1e-9
                )


class TestRetrieveSumsLikeBm25Score:
    """`retrieve` adds one weight per record and query token, with the
    record's count of the term, in query order; so its scores are the
    very floats `bm25_score` sums, not merely close to them."""

    def test_repeated_terms_at_every_place_in_a_posting(self):
        rng = random.Random(19)
        for layout in ([3, 0, 1, 2, 0, 1], [1, 2, 3, 1, 0, 2], [2, 1, 0, 1, 1, 3],
                       [3, 2, 1, 0, 2, 3]):
            corpus = [
                LemmaRecord(f"r{i}", " ".join(["gcd"] * tf + rng.choices(["lcm", "mul", "one"],
                                                                       k=rng.randint(0, 4))))
                for i, tf in enumerate(layout)
            ]
            index = build_index(corpus)
            assert [index.postings["gcd"].count(i) for i in range(len(corpus))] == layout
            state = goal_state("gcd a = lcm (gcd b)", {"h": "mul gcd = one"})
            query = tokenize(state_query(state))
            by_name = {record.name: i for i, record in enumerate(corpus)}
            for record, score in retrieve(index, state, len(corpus)):
                assert score == bm25_score(index, query, by_name[record.name]), record.name


class TestRetrieve:
    def test_never_exceeds_k(self, corpus_index):
        assert len(retrieve(corpus_index, goal_state("P -> Q"), 3)) == 3

    def test_scores_non_increasing(self, corpus_index):
        result = retrieve(corpus_index, goal_state("P -> Q", {"h": "a = b"}), 8)
        scores = [score for _, score in result]
        assert scores == sorted(scores, reverse=True)

    def test_zero_score_documents_still_returned(self, corpus_index):
        result = retrieve(corpus_index, goal_state("nothing_matches_this"), 4)
        assert len(result) == 4
        assert all(score == 0.0 for _, score in result)

    def test_positive_scores_outrank_zero(self, corpus_index):
        result = retrieve(corpus_index, goal_state("Q", {"hp": "P"}), len(corpus_index.records))
        scores = [score for _, score in result]
        assert scores[0] > 0.0
        first_zero = next(i for i, s in enumerate(scores) if s == 0.0)
        assert all(s == 0.0 for s in scores[first_zero:])

    def test_error_state_rejected(self, corpus_index):
        err = ProofState.error([Obligation.make("P")], "boom")
        with pytest.raises(ValueError):
            retrieve(corpus_index, err, 3)

    def test_query_includes_hypotheses(self):
        corpus = [LemmaRecord("hyp_hit", "zeta"), LemmaRecord("goal_hit", "alpha")]
        index = build_index(corpus)
        state = goal_state("alpha", {"h": "zeta"})
        query = state_query(state)
        assert "alpha" in query and "zeta" in query
        result = retrieve(index, state, 2)
        assert {r.name for r, _ in result} == {"hyp_hit", "goal_hit"}

    def test_zero_fill_reads_only_k_records(self):
        corpus = [LemmaRecord(f"r{i:03d}", f"alpha{i}") for i in reversed(range(200))]
        index = build_index(corpus)
        index.records = CountingRecords(index.records)
        result = retrieve(index, goal_state("nowhere"), 3)
        assert [(r.name, score) for r, score in result] == [
            ("r000", 0.0), ("r001", 0.0), ("r002", 0.0)
        ]
        assert index.records.reads <= 3

    def test_deterministic(self, corpus_index):
        state = goal_state("P -> Q")
        first = retrieve(corpus_index, state, 5)
        second = retrieve(corpus_index, state, 5)
        assert first == second


class CountingRecords(tuple):
    """A record tuple that counts the records read from it."""

    def __new__(cls, records):
        self = super().__new__(cls, records)
        self.reads = 0
        return self

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for record in super().__iter__():
            self.reads += 1
            yield record


def full_scan(index, state, k):
    """Reference ranking: every record scored with `bm25_score`, sorted by
    (-score, name), cut to k."""
    query = tokenize(state_query(state))
    scored = [(record, bm25_score(index, query, i)) for i, record in enumerate(index.records)]
    scored.sort(key=lambda pair: (-pair[1], pair[0].name))
    return scored[:k]


def random_corpus(rng, vocabulary):
    """Records in shuffled name order; some repeat a term, some have a
    statement with no tokens, some carry a vocabulary word in the name."""
    size = rng.randint(1, 40)
    serials = rng.sample(range(1000), size)
    corpus = []
    for serial in serials:
        shape = rng.random()
        if shape < 0.1:
            statement = rng.choice(["", "->", "( ) = /\\"])
        elif shape < 0.3:
            term = rng.choice(vocabulary)
            statement = " ".join([term] * rng.randint(2, 4) + rng.choices(vocabulary, k=3))
        else:
            statement = " ".join(rng.choices(vocabulary, k=rng.randint(1, 12)))
        name = f"{rng.choice(vocabulary)}_r{serial}" if rng.random() < 0.3 else f"r{serial}"
        corpus.append(LemmaRecord(name, statement, rng.choice(["lemma", "definition"])))
    return corpus


class TestRankingMatchesFullScan:
    """`retrieve` must give exactly (==, not approx) the ranking of a full
    scan that scores every record with `bm25_score`."""

    VOCABULARY = [f"tok{i}" for i in range(25)]
    ABSENT = ["nowhere", "missing"]

    def assert_matches(self, index, state, k):
        assert retrieve(index, state, k) == full_scan(index, state, k)

    def test_random_corpora(self):
        rng = random.Random(5)
        seen = set()
        for _ in range(300):
            corpus = random_corpus(rng, self.VOCABULARY)
            index = build_index(corpus)
            words = rng.choices(self.VOCABULARY + self.ABSENT, k=rng.randint(1, 10))
            words += rng.sample(words, rng.randint(0, len(words)))  # duplicates
            state = goal_state(" ".join(words), {"h": rng.choice(self.VOCABULARY)})
            query = tokenize(state_query(state))
            matching = sum(
                1 for i in range(len(corpus)) if bm25_score(index, query, i) > 0.0
            )
            for k in {0, 1, matching, matching + 1, rng.randint(0, 45), len(corpus), 45}:
                self.assert_matches(index, state, k)
            statements = [tokenize(record.statement) for record in corpus]
            cases = {
                "duplicate query tokens": len(set(query)) < len(query),
                "absent query term": bool(set(query) & set(self.ABSENT)),
                "zero fill": matching < len(corpus),
                "no statement tokens": not all(statements),
                "tf > 1": any(len(set(tokens)) < len(tokens) for tokens in statements),
            }
            seen.update(case for case, happened in cases.items() if happened)
        assert seen == {
            "duplicate query tokens", "absent query term", "zero fill",
            "no statement tokens", "tf > 1",
        }

    def test_k_zero_larger_than_corpus_and_empty_corpus(self):
        corpus = [
            LemmaRecord("b", "alpha alpha beta"),
            LemmaRecord("a", "->"),
            LemmaRecord("c", "gamma"),
        ]
        index = build_index(corpus)
        state = goal_state("alpha alpha nowhere")
        for k in (0, 1, 2, 3, 4, 100):
            self.assert_matches(index, state, k)
        assert [r.name for r, _ in retrieve(index, state, 3)] == ["b", "a", "c"]
        empty = build_index([])
        for k in (0, 1, 5):
            self.assert_matches(empty, state, k)


def reference_index(records):
    """The index fields `build_index` must give, from a plain loop: each
    record's lower-cased name and statement split on non-alphanumerics."""
    docs = [re.findall(r"[a-z0-9]+", f"{r.name} {r.statement}".lower()) for r in records]
    postings = {}
    for i, doc in enumerate(docs):
        for term in doc:
            postings.setdefault(term, []).append(i)
    lengths = [len(doc) for doc in docs]
    return {
        "records": tuple(records),
        "postings": postings,
        "doc_lengths": tuple(lengths),
        "avg_doc_length": sum(lengths) / len(records) if records else 0.0,
        "doc_freq": {term: len(set(posting)) for term, posting in postings.items()},
        "by_name": tuple(sorted(range(len(records)), key=lambda i: records[i].name)),
    }


NAME_PARTS = ["Nat", "gcd", "Comm", "LIST", "app", "x1", "Mul"]
STATEMENT_WORDS = ["a", "B", "gcd", "Gcd", "(x", "y)", "->", "=", "/\\", "x*Y", "f(a,b)", "0"]


def corpus_text(rng):
    """A generated corpus file and the records it holds. Names join parts
    with punctuation (so one name gives several terms), statements mix case
    and punctuation and may repeat a word, fields may carry padding, and
    comment and blank lines fall between records."""
    records, lines, features = [], [], set()
    for serial in range(rng.randint(0, 30)):
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "   ", "# a comment", "  # gcd\tlemma\ta"]))
            features.add("comment or blank line")
        parts = rng.sample(NAME_PARTS, rng.randint(1, 3))
        name = rng.choice([".", "_", "'"]).join(parts) + f"_{serial}"
        words = rng.choices(STATEMENT_WORDS, k=rng.randint(1, 8))
        if rng.random() < 0.3:
            words.append(rng.choice(words))
        statement = " ".join(words)
        kind = rng.choice(["lemma", "definition"])
        pad = rng.choice(["", " ", "  "])
        lines.append(f"{name}{pad}\t{pad}{kind}\t{pad}{statement}")
        records.append(LemmaRecord(name, statement, kind))
        terms = re.findall(r"[a-z0-9]+", f"{name} {statement}".lower())
        features.update(
            feature for feature, seen in [
                ("name of several terms", len(re.findall(r"[a-z0-9]+", name.lower())) > 1),
                ("mixed case", statement != statement.lower()),
                ("punctuation", bool(re.search(r"[^a-zA-Z0-9 ]", statement))),
                ("term repeated in a record", len(set(terms)) < len(terms)),
            ] if seen
        )
    return "\n".join(lines) + "\n", records, features


class TestIndexMatchesReference:
    def test_generated_corpora(self):
        rng = random.Random(18)
        seen = set()
        for _ in range(200):
            text, records, features = corpus_text(rng)
            seen |= features
            index = build_index(parse_corpus(text))
            expected = reference_index(records)
            for field, value in expected.items():
                assert getattr(index, field) == value, field
            assert list(index.postings) == list(expected["postings"])  # first-seen order
        assert seen == {"comment or blank line", "name of several terms", "mixed case",
                        "punctuation", "term repeated in a record"}


class TestLemmaRecord:
    def test_frozen_hashable_and_without_instance_dict(self):
        record = LemmaRecord("Nat.gcd_comm", "gcd a b = gcd b a", "definition")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.name = "other"
        same = LemmaRecord("Nat.gcd_comm", "gcd a b = gcd b a", "definition")
        assert record == same and hash(record) == hash(same) and len({record, same}) == 1
        assert record != LemmaRecord("Nat.gcd_comm", "gcd a b = gcd b a")
        assert not hasattr(record, "__dict__")
        assert (record.name, record.statement, record.kind) == (
            "Nat.gcd_comm", "gcd a b = gcd b a", "definition")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown record kind 'axiom'$"):
            LemmaRecord("l", "a", "axiom")


class TestCorpusFormat:
    def test_bundled_corpus_loads(self, corpus):
        assert len(corpus) == 10
        names = [r.name for r in corpus]
        assert "l_pq" in names and len(names) == len(set(names))

    def test_round_trip(self, corpus):
        assert parse_corpus(write_corpus(corpus)) == corpus

    def test_empty_statement_round_trips(self):
        records = [LemmaRecord("x", ""), LemmaRecord("d", "", "definition"),
                   LemmaRecord("y", "a = b")]
        assert parse_corpus(write_corpus(records)) == records
        assert parse_corpus("x\tlemma\t  \n") == [LemmaRecord("x", "")]

    def test_tabs_separate_fields_before_they_are_stripped(self):
        with pytest.raises(ValueError, match=r"^line 1: empty record name$"):
            parse_corpus(" \tlemma\ta\n")
        with pytest.raises(ValueError, match=r"^line 2: expected 'name<TAB>kind<TAB>statement'$"):
            parse_corpus("x\tlemma\ta\ny\tlemma\tb\t\n")

    def test_comments_and_blank_lines(self):
        records = parse_corpus("# comment\n\nfoo\tlemma\ta = b\n")
        assert records == [LemmaRecord("foo", "a = b", "lemma")]

    def test_bad_field_count(self):
        with pytest.raises(ValueError, match=r"^line 3: expected 'name<TAB>kind<TAB>statement'$"):
            parse_corpus("# comment\n\nfoo\tlemma\n")

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match=r"^line 3: duplicate record name 'foo'$"):
            parse_corpus("foo\tlemma\ta\n\n foo \tlemma\tb\n")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            parse_corpus("foo\taxiom\ta\n")

    def test_bad_kind_names_its_line(self):
        with pytest.raises(ValueError, match=r"^line 2: unknown record kind 'axiom'$"):
            parse_corpus("foo\tlemma\ta\nbar\taxiom\tb\n")
