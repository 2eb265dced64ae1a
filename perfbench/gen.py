"""Seeded input generators: toy theorem suites and a lemma corpus.

Every generator is a pure function of its arguments: the same seed gives
byte-identical files. The seed changes atom names, the vocabulary words
of noise hypotheses and corpus statements, and the corpus order; it never
changes the shape of a proof, so every seed gives the same number of
tactics, queries and backtracks per theorem (see README.md, "Workloads").

Atom names have a fixed width, so text lengths do not depend on the seed
either.
"""

from __future__ import annotations

import random


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{label}:{seed}")


class _Atoms:
    """Distinct fixed-width atom names drawn from one random stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set = set()

    def new(self, prefix: str) -> str:
        while True:
            name = f"{prefix}{self.rng.randrange(100000):05d}"
            if name not in self.used:
                self.used.add(name)
                return name


def search_theorem(name: str, atoms: _Atoms, depth: int, noise: int) -> list:
    """One intro-chain theorem ending in two equalities.

    Shape: `A1 -> ... -> Ad -> x0 = y0 /\\ x1 = y1` with hypotheses
    t0 : x0 = y0, t1 : x1 = y1 (the facts that close the goal),
    e0 : y0 = z0, e1 : y1 = z1 (rewrites that lead into dead ends), and
    `noise` unrelated hypotheses n{k} (an atom for even k, a conjunction
    for odd k). Premise j is an atom, or a conjunction when j % 3 == 1.
    The prefixes k0/k1 keep the first equality first under the prover's
    obligation order, before and after a rewrite, so the search takes the
    same path for every seed.
    """
    x = [atoms.new(f"k{i}x") for i in range(2)]
    y = [atoms.new(f"k{i}y") for i in range(2)]
    z = [atoms.new(f"k{i}z") for i in range(2)]
    premises = []
    for j in range(depth):
        if j % 3 == 1:
            premises.append(f"{atoms.new('a')} /\\ {atoms.new('a')}")
        else:
            premises.append(atoms.new("a"))
    goal = " -> ".join(premises + [f"{x[0]} = {y[0]} /\\ {x[1]} = {y[1]}"])
    lines = [f"theorem {name}", f"  goal {goal}"]
    for i in range(2):
        lines.append(f"  hyp t{i} : {x[i]} = {y[i]}")
        lines.append(f"  hyp e{i} : {y[i]} = {z[i]}")
    for k in range(noise):
        prop = atoms.new("b") if k % 2 == 0 else f"{atoms.new('b')} /\\ {atoms.new('b')}"
        lines.append(f"  hyp n{k:02d} : {prop}")
    lines += ["  category search", "end", ""]
    return lines


def search_suite(seed: int, theorems: int, depth: int, noise: int) -> str:
    """Suite of `theorems` intro-chain theorems (see `search_theorem`)."""
    if depth % 3:
        # the stand-in model tries (seed + steps) % 3 decoys at an
        # implication: over a multiple of 3 levels they add up to `depth`
        # whatever the seed
        raise ValueError("depth must be a multiple of 3")
    atoms = _Atoms(_rng(seed, f"search-{depth}-{noise}"))
    lines = [f"# generated: seed {seed}, {theorems} theorems, depth {depth}, noise {noise}", ""]
    for i in range(theorems):
        lines += search_theorem(f"s{i:03d}", atoms, depth, noise)
    return "\n".join(lines)


VOCABULARY = 2000  # shared words of corpus statements and noise hypotheses
CORPUS_SHAPES = ("{0} -> {1}", "{0} /\\ {1} -> {2}", "{0} = {1}", "{0} /\\ {1}", "{0} -> {1} -> {2}")


def _word(rng: random.Random) -> str:
    return f"v{rng.randrange(VOCABULARY):04d}"


def retrieval_inputs(seed: int, theorems: int, records: int, noise: int) -> tuple:
    """(suite text, corpus text) for the retrieval workload.

    Theorem i has goal g_i and hypotheses hp : p_i plus `noise` vocabulary
    atoms; its proof is `apply l_i; exact hp` with l_i : p_i -> g_i. The
    suite declares l_i so the prover can check `apply`; the stand-in model
    can only learn the name from the retrieved theorems. The corpus holds
    the l_i among `records` records in all, the rest random statements
    over the shared vocabulary (one in ten a definition).
    """
    rng = _rng(seed, f"retrieval-{records}-{noise}")
    atoms = _Atoms(rng)
    suite = [f"# generated: seed {seed}, {theorems} theorems, corpus of {records}", ""]
    lemmas = []
    bodies = []
    for i in range(theorems):
        p, g = atoms.new("p"), atoms.new("g")
        lemma = f"l{i:03d}{atoms.new('q')}"
        suite.append(f"lemma {lemma} : {p} -> {g}")
        lemmas.append((lemma, "lemma", f"{p} -> {g}"))
        body = [f"theorem r{i:03d}", f"  goal {g}", f"  hyp hp : {p}"]
        words: set = set()
        while len(words) < noise:
            words.add(_word(rng))
        body += [f"  hyp n{k:02d} : {w}" for k, w in enumerate(sorted(words))]
        body += [f"  use {lemma}", "  category retrieval", "end", ""]
        bodies += body
    suite.append("")
    suite += bodies
    corpus = []
    for j in range(records - theorems):
        shape = CORPUS_SHAPES[rng.randrange(len(CORPUS_SHAPES))]
        statement = shape.format(*(_word(rng) for _ in range(3)))
        kind = "definition" if rng.randrange(10) == 0 else "lemma"
        corpus.append((f"c{j:05d}{atoms.new('c')}", kind, statement))
    for record in lemmas:
        corpus.insert(rng.randrange(len(corpus) + 1), record)
    corpus_text = "".join(f"{n}\t{k}\t{s}\n" for n, k, s in corpus)
    return "\n".join(suite), corpus_text
