"""Importing one module loads only what it imports.

For each module under `src/ncpbound`, a fresh interpreter that imports
`ncpbound.<module>` must load exactly the package, that module and the
transitive closure of the module-level `from .x import` statements read
from its source; importing the package itself loads nothing else.  A
package `__init__` that imports its modules (a facade of re-exports) makes
every module load them all, and fails here."""

import ast
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "ncpbound").glob("*.py") if p.stem != "__init__")

# one interpreter for every module: forget the package between imports
_PROBE = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
loaded = {}
for module in sys.argv[2:]:
    importlib.import_module(module)
    names = sorted(n for n in sys.modules if n == "ncpbound" or n.startswith("ncpbound."))
    loaded[module] = names
    for name in names:
        del sys.modules[name]
print(json.dumps(loaded))
"""


@functools.cache
def _direct(module: str) -> set:
    """The sibling modules `module` imports at module level."""
    tree = ast.parse((SRC / "ncpbound" / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


def _closure(module: str) -> set:
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_direct(name))
    return seen


@pytest.fixture(scope="module")
def loaded() -> dict:
    # -S: no site, so nothing but the probe and the package is imported
    names = ["ncpbound", *(f"ncpbound.{m}" for m in MODULES)]
    run = subprocess.run([sys.executable, "-S", "-c", _PROBE, str(SRC), *names],
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


@pytest.mark.parametrize("module", MODULES)
def test_import_loads_only_its_closure(module, loaded):
    expected = {"ncpbound", *(f"ncpbound.{m}" for m in _closure(module))}
    assert loaded[f"ncpbound.{module}"] == sorted(expected)


def test_package_loads_no_module(loaded):
    assert loaded["ncpbound"] == ["ncpbound"]


def test_groupext_loads_arith_and_errors_only(loaded):
    assert loaded["ncpbound.groupext"] == ["ncpbound", "ncpbound.arith", "ncpbound.errors",
                                           "ncpbound.groupext"]
