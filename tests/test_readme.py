"""README's verb table describes `cli.VERBS`: one row per verb path, and
each row names every flag of its verb and no flag the parser lacks.  A
row writes alternatives as `--p/--a`; the global flags (`cli.GLOBALS`) may
appear in any row and need appear in none.  README's `## Library` example
runs, and each of its expressions gives what its comment states."""

import ast
import re
from pathlib import Path

from ncpbound import cli
from ncpbound.fields import prime_place

README = Path(__file__).resolve().parent.parent / "README.md"

# `--flag` or `-m`, not a dash inside a word such as local-degree
_FLAG = re.compile(r"(?<![\w-])--?[a-z][a-z-]*")


def _rows() -> list:
    """The backticked first cell of each row of the table headed `| verb | does |`."""
    lines = README.read_text().splitlines()
    start = lines.index("| verb | does |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(re.match(r"\| `([^`]*)` \|", line).group(1))
    return rows


def _path(row: str) -> tuple:
    words = row.split()
    return next(p for p in (tuple(words[:2]), tuple(words[:1])) if p in cli.VERBS)


def _verb_flags(path) -> set:
    return {flags[0] for flags, _ in cli.VERBS[path][1] if flags[0].startswith("-")}


def test_one_row_per_verb():
    paths = [_path(row) for row in _rows()]
    assert sorted(paths) == sorted(cli.VERBS)


def test_rows_name_exactly_the_flags():
    wrong = {}
    for row in _rows():
        path = _path(row)
        named = set(_FLAG.findall(row))
        missing = _verb_flags(path) - named
        unknown = named - _verb_flags(path) - set(cli.GLOBALS)
        if missing or unknown:
            wrong[row] = (sorted(missing), sorted(unknown))
    assert wrong == {}


def _library_values() -> list:
    """Run the python block under `## Library` statement by statement; the
    value of each bare expression, in order."""
    text = README.read_text()
    block = text[text.index("## Library"):].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    return values


def test_library_example_states_its_values():
    isolated, restricted, fiber, passed, hits = _library_values()
    assert isolated == [(prime_place(2), 2)]
    assert (restricted, fiber) == (8, 16)
    assert passed is True
    assert hits and {E.kernel_order for E in hits} == {2}
