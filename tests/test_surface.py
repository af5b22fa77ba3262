"""Gate against regrowth of the callerless surface.

Every top-level function and method in `src/ncpbound` must be referenced
somewhere in `src/` outside its own definition: by a verb, another module
or a worked example.  The benchmark's tracer (perfbench/tracing.py,
BOUNDARY) may name a function that nothing else calls, so BOUNDARY counts
as a caller.  So do the strings of the JSON encoder's attribute table
(jsonio, _ATTRIBUTES), which reads each property it names by getattr; every
name there must resolve on its type.  Tests are not callers: a function
only the tests use belongs in the tests.  References are matched by name
(a Name or an attribute, or a string of that one table), so dunder
methods, which the language calls, and functions registered with a
dispatcher are exempt.  Every module import must be used as well, in
`__init__` too: the package re-exports nothing, so a name imported there
only to be re-exported fails.

Every option must have a caller too: some call in `src/` or `perfbench/`
must pass each defaulted parameter of a function or method in
`src/ncpbound`, by position or by keyword.  Calls are matched by name as
above; a call with `*` or `**` counts as passing every parameter.
"""

import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

from helpers import PERFBENCH, perfbench_module

SRC = Path(__file__).resolve().parent.parent / "src" / "ncpbound"


def _boundary() -> set:
    return {f"{layer}.{path}" for layer, kinds in perfbench_module("tracing").BOUNDARY.items()
            for paths in kinds.values() for path in paths}


TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def _names(node) -> Counter:
    """How often each identifier is read or looked up as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def _table_names() -> Counter:
    """The strings in jsonio's _ATTRIBUTES, the one table of names the
    encoder reads by getattr."""
    table = next(node.value for node in TREES["jsonio"].body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_ATTRIBUTES" for t in node.targets))
    return Counter(n.value for n in ast.walk(table)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str))


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
    everywhere = sum((_names(tree) for tree in TREES.values()), _table_names())
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


def test_every_table_name_resolves():
    # a field or property, so a misspelt or deleted attribute fails here
    from ncpbound.jsonio import _ATTRIBUTES

    unresolved = []
    for cls, names in _ATTRIBUTES.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        for name in names:
            attr = inspect.getattr_static(cls, name, None)
            if name not in fields and not isinstance(attr, property):
                unresolved.append(f"{cls.__name__}.{name}")
    assert unresolved == [], f"_ATTRIBUTES names no field or property: {unresolved}"


def test_every_import_is_used():
    unused = []
    for module, tree in TREES.items():
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


def _calls():
    """name -> [(positional count, keyword names, has * or **)] over every
    call in src/ and perfbench/, matched by a Name or an attribute."""
    trees = [*TREES.values(), *(ast.parse(path.read_text(encoding="utf-8"))
                                for path in sorted(PERFBENCH.glob("*.py")))]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, starred))
    return calls


def _defaulted(qualname, node):
    """(position as the caller counts it, name) of each defaulted parameter;
    a method's caller does not pass self or cls."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = (qualname.count(".") == 2 and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list))
    first = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def test_every_option_has_a_caller():
    calls = _calls()
    unpassed = []
    for qualname, node in _definitions():
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        for position, name in _defaulted(qualname, node):
            if not any(starred or name in keywords
                       or position is not None and position < count
                       for count, keywords, starred in calls.get(node.name, ())):
                unpassed.append(f"{qualname}({name})")
    assert unpassed == [], f"defaulted parameters no call passes: {unpassed}"
