"""Every top-level function and class under src/ is used by code under
src/, or is an entry point: a package `__all__` or a `[project.scripts]`
target names it. What only tests call lives in tests/, beside them.

Only code refers: a name in a docstring, a comment or an import line does
not count.
"""

import ast
import re
from pathlib import Path

from test_unused_imports import exported_names, used_names

ROOT = Path(__file__).resolve().parents[1]


def script_targets(pyproject: str) -> set:
    """The function names that `[project.scripts]` points at."""
    section = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', section))


def unreferenced(sources: dict, entry_points: set) -> list:
    """`path: name` of each top-level def or class in `sources` (path ->
    text) that no code in them refers to and that is no entry point."""
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    referenced = set(entry_points)
    for path, tree in trees.items():
        referenced |= used_names(tree)
        referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if path.endswith("__init__.py"):
            referenced |= exported_names(tree)
    return [
        f"{path}: {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in referenced
    ]


def test_src_defines_nothing_that_only_tests_use():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    entry_points = script_targets((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert len(sources) > 10 and entry_points == {"main"}
    assert unreferenced(sources, entry_points) == []


def test_the_guard_sees_only_code():
    sources = {
        "pkg/__init__.py": '__all__ = ["exported"]\n',
        "pkg/a.py": (
            "def used(): pass\n"
            "def exported(): pass\n"
            "def entry(): pass\n"
            "def in_a_docstring(): pass\n"
            "def imported_only(): pass\n"
            "class Attribute: pass\n"
        ),
        "pkg/b.py": (
            '"""in_a_docstring"""\n'
            "from .a import imported_only, used  # in_a_docstring\n"
            "import pkg\n"
            "used(pkg.Attribute)\n"
        ),
    }
    assert unreferenced(sources, {"entry"}) == [
        "pkg/a.py: in_a_docstring", "pkg/a.py: imported_only"]
    assert script_targets('[project.scripts]\nx = "pkg.a:entry"\n\n[tool.x]\ny = "m:f"\n') == {
        "entry"}
