"""The package imports nothing outside the Python standard library, and
its modules import each other only as its layout says."""

import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "proofsearch"


def imported_modules(path: Path):
    """(line, module name) for each import in the package module at `path`,
    a relative import resolved to its absolute name."""
    package = ["proofsearch", *path.parent.relative_to(PACKAGE_DIR).parts]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) + 1 - node.level] if node.level else []
            if node.module is None:  # `from . import bridge`
                for alias in node.names:
                    yield node.lineno, ".".join(base + [alias.name])
            else:
                yield node.lineno, ".".join(base + [node.module])


def test_package_imports_only_the_stdlib():
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(paths) > 10
    foreign = [
        f"{path.relative_to(PACKAGE_DIR)}:{line}: {name}"
        for path in paths
        for line, name in imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"proofsearch"}
    ]
    assert not foreign


def test_the_search_leaves_the_trace_file_to_the_trace_module():
    """`agent` runs the search and only appends to a trace: the trace's
    file format, writer and readers are in `trace`, which needs nothing of
    the package but `core`."""
    agent = {name.split(".")[0] for _, name in imported_modules(PACKAGE_DIR / "agent.py")}
    assert sorted(agent & {"json", "os", "zlib", "pathlib"}) == []
    trace = {name for _, name in imported_modules(PACKAGE_DIR / "trace.py")}
    assert {"json", "zlib", "proofsearch.core"} <= trace
    assert sorted(name for name in trace if name.split(".")[0] == "proofsearch") == [
        "proofsearch.core"]


def test_the_search_takes_only_the_backend_interface_from_llm():
    """The search builds a request and reads a backend's `timeout_at`; a
    backend's own errors and classes stay in `llm`."""
    tree = ast.parse((PACKAGE_DIR / "agent.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "llm"
             for alias in node.names]
    assert sorted(names) == ["CompletionRequest", "GuidanceBackend"]
