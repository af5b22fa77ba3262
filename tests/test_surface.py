"""Gate against regrowth of the callerless surface.

Every top-level function and method in `src/ncpbound` must be referenced
somewhere in `src/` outside its own definition: by a verb, another module
or a worked example.  The benchmark's tracer (perfbench/tracing.py,
BOUNDARY) may name a function that nothing else calls, so BOUNDARY counts
as a caller.  Tests are not callers: a function only the tests use belongs
in the tests.  References are matched by name (a Name or an attribute),
so dunder methods, which the language calls, and functions registered with
a dispatcher are exempt.  Every module import must be used as well.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ncpbound"
TRACING = ROOT / "perfbench" / "tracing.py"


def _boundary() -> set:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{layer}.{path}" for layer, kinds in module.BOUNDARY.items()
            for paths in kinds.values() for path in paths}


TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def _names(node) -> Counter:
    """How often each identifier is read or looked up as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions():
    """(module.qualified name, def node) for top-level functions and methods."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, funcs):
                yield f"{module}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, funcs):
                        yield f"{module}.{node.name}.{sub.name}", sub


def _registered(node) -> bool:
    return any(isinstance(d, ast.Attribute) and d.attr == "register"
               for d in node.decorator_list)


def test_every_function_has_a_caller():
    everywhere = sum((_names(tree) for tree in TREES.values()), Counter())
    boundary = _boundary()
    callerless = []
    for qualname, node in _definitions():
        name = node.name
        if name.startswith("__") and name.endswith("__") or _registered(node):
            continue
        if qualname in boundary:
            continue
        if everywhere[name] - _names(node)[name] <= 0:
            callerless.append(qualname)
    assert callerless == [], f"no caller in src/ and not in BOUNDARY: {callerless}"


def test_every_import_is_used():
    unused = []
    for module, tree in TREES.items():
        if module == "__init__":  # its imports are the package's surface
            continue
        used = _names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if not used[bound]:
                        unused.append(f"{module}: {bound}")
    assert unused == [], f"unused imports: {unused}"
