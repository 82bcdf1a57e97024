"""The import graph of the library under ``src/``, read with ``ast`` only.

Modules read each other's private names at most ``MAX_PRIVATE_READS``
times, so a new read must be paid for by removing another.  A read is
``from .m import _x`` or ``m._x`` for a sibling module ``m`` bound by
``from . import m``.  The checker of the JSON inputs (``schema``) needs no
package module, and the exact DRO solvers need no trainer module.  The
package root binds no library name, so a fresh interpreter that imports
one module loads only the modules that it imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reweightopt"
MAX_PRIVATE_READS = 22
TRAINER = {"experiment", "optim", "datagen", "models", "sweep", "cli"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from ... import`` reads ("" for the package
    itself), or None for a module outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module.split(".")[0] == "reweightopt":
        return node.module.partition(".")[2]
    return None


def private_reads(tree: ast.Module) -> list[tuple[str, str]]:
    """The (module, name) pair of each private name that ``tree`` reads from a sibling."""
    siblings = {}  # bound name -> module, of each ``from . import m``
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node) == "":
            siblings.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and _package_module(node):
            reads += [(_package_module(node), a.name) for a in node.names if _private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            reads.append((siblings[node.value.id], node.attr))
    return sorted(reads)


def imports(tree: ast.Module) -> set[str]:
    """The package modules that ``tree`` imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node) == "":
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and _package_module(node):
            found.add(_package_module(node))
    return found


def _graph() -> dict[str, set[str]]:
    return {path.stem: imports(ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))}


def _reached(graph: dict[str, set[str]], start: str) -> set[str]:
    """Every module that importing ``start`` imports, directly or through another."""
    seen, todo = set(), [start]
    while todo:
        for module in graph[todo.pop()] - seen:
            seen.add(module)
            todo.append(module)
    return seen


@pytest.mark.parametrize("source, reads", [
    ("from .a import _x, y\nfrom . import b as c\nc._z, c.w, d._q, c.__doc__",
     [("a", "_x"), ("b", "_z")]),
    ("from reweightopt.a import _x\nfrom reweightopt import b\nb._z\nfrom numpy import _q",
     [("a", "_x"), ("b", "_z")]),
])
def test_private_reads_are_counted_in_both_forms(source, reads):
    assert private_reads(ast.parse(source)) == reads


def test_private_reads_between_modules_stay_at_the_ceiling():
    reads = {path.stem: private_reads(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    total = sum(map(len, reads.values()))
    assert total <= MAX_PRIVATE_READS, {module: r for module, r in reads.items() if r}


def test_schema_imports_no_package_module():
    assert _graph()["schema"] == set()


def test_dro_imports_no_trainer_module():
    graph = _graph()
    assert not _reached(graph, "dro") & TRAINER, sorted(_reached(graph, "dro"))


@pytest.mark.parametrize("module, loaded", [
    ("dro", {"dro", "numerics", "schema", "weighting"}),
    ("schema", {"schema"}),
])
def test_importing_a_module_loads_only_what_it_imports(module, loaded):
    script = (f"import sys, reweightopt.{module}\n"
              "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'reweightopt'))")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent) + (os.pathsep + path if path else "")}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == sorted({"reweightopt"} | {f"reweightopt.{m}" for m in loaded})


def test_the_package_root_binds_only_its_modules():
    import reweightopt
    from reweightopt import sweep

    assert sweep is sys.modules["reweightopt.sweep"]
    bound = {name: type(value).__name__ for name, value in vars(reweightopt).items()
             if not name.startswith("_")}
    assert set(bound.values()) <= {"module"}, bound
