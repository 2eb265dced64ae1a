"""Line-oriented theorem-suite file format for the toy prover.

    # comment and blank lines are ignored
    lemma NAME : TERM            file-level lemma, usable via `use`
    theorem NAME                 opens a theorem record; NAME, which
                                 names trace files, holds no '/'
      goal TERM                  exactly one per theorem
      hyp NAME : TERM            zero or more
      use LEMMA_NAME             zero or more references to file lemmas
      category TAG               optional free-form label
    end                          closes the record

`write_suite` in tests/test_toy.py emits this canonical layout;
round-tripping a suite through write + parse yields an equal suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .kernel import ToyTheorem
from .terms import TermParseError, parse_term


class SuiteFormatError(ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass
class ToySuite:
    lemmas: dict  # name -> Term
    theorems: dict  # name -> ToyTheorem, insertion ordered

    def theorem(self, name: str) -> ToyTheorem:
        return self.theorems[name]


def _term(text: str, line_number: int):
    try:
        return parse_term(text)
    except TermParseError as exc:
        raise SuiteFormatError(str(exc), line_number) from None


def _split_named_term(body: str, line_number: int):
    name, sep, term_text = body.partition(":")
    if not sep:
        raise SuiteFormatError("expected 'NAME : TERM'", line_number)
    name = name.strip()
    if not name:
        raise SuiteFormatError("missing name before ':'", line_number)
    return name, _term(term_text, line_number)


def parse_suite(text: str) -> ToySuite:
    lemmas: dict = {}
    theorems: dict = {}
    current: dict | None = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, body = line.partition(" ")
        body = body.strip()
        if current is None:
            if keyword == "lemma":
                name, term = _split_named_term(body, line_number)
                if name in lemmas:
                    raise SuiteFormatError(f"duplicate lemma {name!r}", line_number)
                lemmas[name] = term
            elif keyword == "theorem":
                if not body:
                    raise SuiteFormatError("theorem needs a name", line_number)
                if "/" in body:
                    raise SuiteFormatError(f"theorem name {body!r} contains '/'; "
                                           "it must be a file name", line_number)
                if body in theorems:
                    raise SuiteFormatError(f"duplicate theorem {body!r}", line_number)
                current = {"name": body, "line": line_number, "goal": None, "hyps": [],
                           "use": [], "category": None}
            else:
                raise SuiteFormatError(f"unexpected keyword {keyword!r}", line_number)
            continue
        if keyword == "goal":
            if current["goal"] is not None:
                raise SuiteFormatError("theorem already has a goal", line_number)
            current["goal"] = _term(body, line_number)
        elif keyword == "hyp":
            name, term = _split_named_term(body, line_number)
            if any(name == existing for existing, _ in current["hyps"]):
                raise SuiteFormatError(f"duplicate hypothesis {name!r}", line_number)
            current["hyps"].append((name, term))
        elif keyword == "use":
            if body not in lemmas:
                raise SuiteFormatError(f"unknown lemma {body!r}", line_number)
            if body not in current["use"]:
                current["use"].append(body)
        elif keyword == "category":
            current["category"] = body or None
        elif keyword == "end" and not body:
            if current["goal"] is None:
                raise SuiteFormatError(f"theorem {current['name']!r} has no goal", line_number)
            theorems[current["name"]] = ToyTheorem(
                name=current["name"],
                goal=current["goal"],
                hypotheses=tuple(current["hyps"]),
                lemmas=tuple((n, lemmas[n]) for n in current["use"]),
                category=current["category"],
            )
            current = None
        else:
            raise SuiteFormatError(f"unexpected keyword {keyword!r} inside theorem", line_number)
    if current is not None:
        raise SuiteFormatError(f"theorem {current['name']!r} is missing 'end'", current["line"])
    return ToySuite(lemmas=lemmas, theorems=theorems)


def load_suite(path: str | Path) -> ToySuite:
    return parse_suite(Path(path).read_text(encoding="utf-8"))
