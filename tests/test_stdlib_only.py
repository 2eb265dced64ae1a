"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "proofsearch"


def test_package_imports_only_the_stdlib():
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(paths) > 10
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"proofsearch"}
            ]
    assert not foreign
