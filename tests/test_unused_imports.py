"""No module under src/, tests/ or perfbench/ (its out/ directory of run
outputs aside) imports a name it never uses.

A package `__init__.py` may import a name only to re-export it, if the name
is listed in its `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_names(tree):
    """(bound name, line) for each module-level or nested import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # quoted annotations name types too
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= used_names(ast.parse(annotation.value, mode="eval"))
    return names


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list:
    """(line, name) for each imported name the module never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    allowed = used_names(tree)
    if path.name == "__init__.py":
        allowed |= exported_names(tree)
    return [(line, name) for name, line in imported_names(tree) if name not in allowed]


def test_no_unused_imports():
    paths = [path for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))
             if (ROOT / "perfbench" / "out") not in path.parents]
    assert len(paths) > 20 and any(path.parent.name == "perfbench" for path in paths)
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in unused_imports(path)
    ]
    assert not unused


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Mapping, Sequence as Seq\n"
        "def f(x: 'Mapping') -> int:\n"
        "    return sys.maxsize\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [(2, "os"), (3, "Seq")]
