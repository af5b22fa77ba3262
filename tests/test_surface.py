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

Every dataclass field must be read: as an attribute somewhere in `src/`, or
through a string of `_ATTRIBUTES`.  A field nothing reads is data computed
for no one.

Every option must have a caller too: some call in `src/` or `perfbench/`
must pass each defaulted parameter of a function or method in
`src/ncpbound`, by position or by keyword.  Calls are matched by name as
above; a call with `*` or `**` counts as passing every parameter.

Every process-wide memo is documented: each function decorated with
`lru_cache` or `functools.cache`, and each module-level name that a function
stores into (`x[key] = ...` or `x.attr = ...`), has a row in README's
"Process-wide memos" table giving its key and what bounds its size, and
every row names such a memo.

Every work ceiling is documented the same way: each module-level `MAX_*`
constant has a row in README's "Work ceilings" table giving its value, and
every row names such a constant.

A Brauer class has one validation point: `brauer.make_class` is the only
code in `src/` that calls `BrauerClass(...)`.

Member lists stay where a small group is listed on purpose: only
`extensions.span_squarefree` and `covers.quadratic_cover_scan` call
`span_members`.
"""

import ast
import dataclasses
import importlib
import inspect
from collections import Counter
from functools import cached_property

from helpers import PERFBENCH, SRC, perfbench_module, src_definitions, src_trees

README = SRC.parent.parent / "README.md"


def _boundary() -> set:
    return {f"{layer}.{path}" for layer, kinds in perfbench_module("tracing").BOUNDARY.items()
            for paths in kinds.values() for path in paths}


TREES = src_trees()


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


def _registered(node) -> bool:
    return any(isinstance(d, ast.Attribute) and d.attr == "register"
               for d in node.decorator_list)


def test_every_function_has_a_caller():
    everywhere = sum((_names(tree) for tree in TREES.values()), _table_names())
    boundary = _boundary()
    callerless = []
    for qualname, node in src_definitions():
        name = node.name
        if name.startswith("__") and name.endswith("__") or _registered(node):
            continue
        if qualname in boundary:
            continue
        if everywhere[name] - _names(node)[name] <= 0:
            callerless.append(qualname)
    assert callerless == [], f"no caller in src/ and not in BOUNDARY: {callerless}"


def _dataclass_fields():
    """(module.class.field, field name) of every annotated field of a class
    decorated with @dataclass, in any spelling."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                        yield f"{module}.{node.name}.{sub.target.id}", sub.target.id


def test_every_dataclass_field_is_read():
    # read as an attribute somewhere in src/, or emitted through the table
    read = Counter(n.attr for tree in TREES.values() for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    read += _table_names()
    unread = [qualname for qualname, name in _dataclass_fields() if not read[name]]
    assert unread == [], f"dataclass fields nothing in src/ reads: {unread}"


def test_every_table_name_resolves():
    # a field or property (cached or not), so a misspelt or deleted
    # attribute fails here
    from ncpbound.jsonio import _ATTRIBUTES

    unresolved = []
    for cls, names in _ATTRIBUTES.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        for name in names:
            attr = inspect.getattr_static(cls, name, None)
            if name not in fields and not isinstance(attr, (property, cached_property)):
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
    for qualname, node in src_definitions():
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        for position, name in _defaulted(qualname, node):
            if not any(starred or name in keywords
                       or position is not None and position < count
                       for count, keywords, starred in calls.get(node.name, ())):
                unpassed.append(f"{qualname}({name})")
    assert unpassed == [], f"defaulted parameters no call passes: {unpassed}"


def _memoised(node) -> bool:
    """Decorated with lru_cache(...) or functools.cache, in any spelling."""
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
        if name in ("lru_cache", "cache"):
            return True
    return False


def _memos() -> set:
    """module.name of every memoised function and every module-level name a
    function of the same module stores into."""
    out = {qualname for qualname, node in src_definitions() if _memoised(node)}
    for module, tree in TREES.items():
        top = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
               for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
               if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Subscript, ast.Attribute))
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id in top):
                out.add(f"{module}.{node.value.id}")
    return out


def _readme_table(marker: str) -> dict:
    """First cell (`module.name`) -> the other cells, of the table after the
    first README line holding marker."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if marker in line)
    header = next(i for i in range(start, len(lines)) if lines[i].startswith("|"))
    rows = {}
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        first, *rest = [cell.strip() for cell in line.strip("|").split("|")]
        rows[first.strip("`")] = rest
    return rows


def test_every_memo_is_documented():
    rows = _readme_table("Process-wide memos")
    memos = _memos()
    assert {"fields._irreducible_cache", "isolation.isolation_report"} <= memos
    assert sorted(memos - set(rows)) == [], "memos missing from README's table"
    assert sorted(set(rows) - memos) == [], "README rows that name no memo"
    assert [name for name, cells in rows.items() if len(cells) != 2 or not all(cells)] == []


def _ceilings() -> set:
    """module.name of every module-level MAX_* constant."""
    return {f"{module}.{t.id}" for module, tree in TREES.items() for node in tree.body
            if isinstance(node, ast.Assign) for t in node.targets
            if isinstance(t, ast.Name) and t.id.startswith("MAX_")}


def test_every_ceiling_is_documented():
    rows = _readme_table("**Work ceilings.**")
    ceilings = _ceilings()
    assert {"fields.MAX_SIEVE", "arith.MAX_TRIAL"} <= ceilings
    assert sorted(ceilings - set(rows)) == [], "ceilings missing from README's table"
    assert sorted(set(rows) - ceilings) == [], "README rows that name no ceiling"
    for name, cells in rows.items():
        assert len(cells) == 2 and all(cells), name
        module, attr = name.split(".")
        base, _, exp = cells[0].partition("^")
        value = getattr(importlib.import_module(f"ncpbound.{module}"), attr)
        assert value == int(base) ** int(exp or 1), (name, cells[0])


def _calls_to(node, name: str) -> int:
    return sum(isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None))
               == name for n in ast.walk(node))


def test_only_make_class_builds_a_brauer_class():
    builders = [qualname for qualname, node in src_definitions()
                if _calls_to(node, "BrauerClass")]
    assert builders == ["brauer.make_class"]
    assert sum(_calls_to(tree, "BrauerClass") for tree in TREES.values()) == 1, \
        "BrauerClass(...) called outside every function"


def test_only_two_readers_list_span_members():
    callers = [qualname for qualname, node in src_definitions() if _calls_to(node, "span_members")]
    assert sorted(callers) == ["covers.quadratic_cover_scan", "extensions.span_squarefree"]
    assert sum(_calls_to(tree, "span_members") for tree in TREES.values()) == 2, \
        "span_members(...) called outside those two functions"
