"""Named invariant errors: raised explicitly, mapped to exit 1 by the CLI,
and still raised when Python runs with assertions disabled (-O)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from ncpbound import covers, extensions, fields, groupext
from ncpbound.cli import main
from ncpbound.covers import Cover, build_cover, cover_local_degree
from ncpbound.errors import InvariantError
from ncpbound.extensions import AbExt, LocalClassGroup, _splitting
from ncpbound.fields import QQ, FqtElt, fqt_const, prime_place
from ncpbound.groupext import prop32_scan
from ncpbound.isolation import IsolationReport

SRC = Path(__file__).resolve().parents[1] / "src"

# the image {0, 1, 2, 3} of a real-like place of exponent 4 has only its
# trivial class unramified, an index of 4; a row builder that drops every
# entry makes the inertia group, built from the image's columns, trivial
BAD_SPLIT = LocalClassGroup(4, ((1,),), None)


def test_splitting_raises_named_error(monkeypatch):
    monkeypatch.setattr(extensions, "image_row", lambda coords: {})
    with pytest.raises(InvariantError, match="inertia of order 1, but the unramified classes"
                                             " have index 4 in the local image"):
        _splitting(BAD_SPLIT)


def test_class_order_raises_named_error(monkeypatch):
    monkeypatch.setattr(FqtElt, "is_nth_power", lambda self, n: False)
    with pytest.raises(InvariantError, match="class order must divide n"):
        fqt_const(7, 3).class_order(3)


def test_cli_maps_invariant_error_to_exit_1(monkeypatch, capsys, tmp_path):
    def broken(*args):
        raise InvariantError("inertia of order 1, but the unramified classes have index 4")

    path = tmp_path / "q.json"
    path.write_text(json.dumps({"base": "Q", "n": 2, "radicands": [-1, 2]}))
    monkeypatch.setattr(extensions, "_splitting", broken)
    extensions.local_data.cache_clear()
    try:
        code = main(["local-degree", "--ext", str(path), "5"])
    finally:
        extensions.local_data.cache_clear()
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["error"] == "invariant-violated"
    assert "inertia of order 1" in payload["detail"]


def test_build_cover_raises_named_error(monkeypatch):
    M = AbExt(QQ, 2, (-1,))
    # a cover whose first radicand changed order, then one whose degree is
    # not the product of the extra orders
    for orders, degree, match in (((4, 2), 8, "class orders"), ((2, 2), 8, "extra orders")):
        fake = SimpleNamespace(orders=orders, degree=degree)
        monkeypatch.setattr(covers, "AbExt", lambda *args: fake)
        with pytest.raises(InvariantError, match=match):
            build_cover(M, (2,), 2)


def test_cover_local_degree_raises_named_error(monkeypatch):
    M = AbExt(QQ, 2, (-1,))
    C = Cover(M, AbExt(QQ, 2, (-1, 3)))
    real_order = extensions.span_order

    def broken(n, basis):
        # M's image at 3 has order 2; what it grows into gets 3 in place of 4
        order = real_order(n, basis)
        return 3 if order == 4 else order

    monkeypatch.setattr(extensions, "span_order", broken)
    with pytest.raises(InvariantError, match="span of size 2 does not divide the size 3"):
        cover_local_degree(C, prime_place(3))


def test_irreducible_sieve_checks_gauss_count(monkeypatch):
    # without t + 1 among the linear irreducibles, (t + 1)^2 = t^2 + 1 over
    # F_2 is never struck out
    monkeypatch.setattr(fields, "_irreducible_cache", {(2, 1): ((0, 1),)})
    with pytest.raises(InvariantError, match="sieved 2 monic irreducibles of degree 2 over F_2; "
                                             "Gauss's formula gives 1"):
        fields.monic_irreducibles(2, 2)


def test_frobenius_reader_raises_named_error(monkeypatch):
    # a conductor without the factor 3 files the ramified prime 3 under a class
    monkeypatch.setattr(extensions, "_conductor", lambda M: 28)
    extensions._frobenius_reader.cache_clear()
    try:
        read = extensions._frobenius_reader(AbExt(QQ, 2, (3, -7)))
        with pytest.raises(InvariantError, match="3 is prime to the conductor 28 .* but ramified"):
            read(prime_place(3))
    finally:
        extensions._frobenius_reader.cache_clear()


def test_isolation_report_raises_named_error():
    with pytest.raises(InvariantError, match="gap"):
        IsolationReport(2, 1, 3, 5, None)
    with pytest.raises(InvariantError, match="isolated place"):
        IsolationReport(2, 3, 1, 2, None)


def test_prop32_scan_raises_named_errors(monkeypatch):
    # the fiber test disagreeing with the prefilter
    monkeypatch.setattr(groupext, "fiber_is_cyclic", lambda E, x: False)
    with pytest.raises(InvariantError, match="disagree"):
        prop32_scan(2, 1, (2, 2))
    # a survivor whose kernel is not of order 2
    monkeypatch.setattr(groupext, "fiber_is_cyclic", lambda E, x: True)
    # the only profile is (3, 3): two t and one c coefficient, here all 1
    monkeypatch.setattr(groupext, "_power_form", lambda p, a, orders, x, n: (1, 1, 1))
    with pytest.raises(InvariantError, match="kernel order 3"):
        prop32_scan(3, 1, (3, 3))


def test_cli_maps_scan_invariant_to_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(groupext, "fiber_is_cyclic", lambda E, x: False)
    code = main(["groupext", "scan", "--p", "2", "--a-max", "1", "--profile-max", "2,2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["error"] == "invariant-violated"
    assert "disagree" in payload["detail"]


def test_src_has_no_assert():
    # an assert vanishes under python -O; invariants raise InvariantError
    found = []
    for path in sorted((SRC / "ncpbound").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                isinstance(exc, ast.Name) and exc.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_invariants_fire_under_python_O():
    script = """
import ncpbound.fields as fields
from ncpbound.errors import InvariantError
import ncpbound.extensions as extensions
from ncpbound.extensions import LocalClassGroup, _splitting
assert not __debug__
caught = []
real_row = extensions.image_row
extensions.image_row = lambda coords: {}
try:
    _splitting(LocalClassGroup(4, ((1,),), None))
except InvariantError as exc:
    if str(exc).startswith("inertia of order 1, but the unramified classes have index 4"):
        caught.append("splitting")
extensions.image_row = real_row
fields.FqtElt.is_nth_power = lambda self, n: False
try:
    fields.fqt_const(7, 3).class_order(3)
except InvariantError:
    caught.append("class_order")
from ncpbound.isolation import IsolationReport
try:
    IsolationReport(2, 1, 3, 5, None)
except InvariantError:
    caught.append("isolation_report")
import ncpbound.brauer as brauer
brauer.isolation_report = lambda M, p: IsolationReport(p, 0, 0, 0, None)
try:
    brauer.construct_class(extensions.AbExt(fields.QQ, 2, (3, -7)), 2, {fields.prime_place(5)})
except InvariantError as exc:
    if str(exc).startswith("partial sum 1/4 has order above"):
        caught.append("construct_class")
import ncpbound.groupext as groupext
groupext.fiber_is_cyclic = lambda E, x: False
try:
    groupext.prop32_scan(2, 1, (2, 2))
except InvariantError:
    caught.append("prop32_scan")
fields._irreducible_cache[2, 1] = ((0, 1),)
try:
    fields.monic_irreducibles(2, 2)
except InvariantError:
    caught.append("monic_irreducibles")
extensions._conductor = lambda M: 28
try:
    extensions._frobenius_reader(extensions.AbExt(fields.QQ, 2, (3, -7)))(fields.prime_place(3))
except InvariantError:
    caught.append("frobenius_reader")
print(",".join(caught))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == ("splitting,class_order,isolation_report,construct_class,"
                                  "prop32_scan,monic_irreducibles,frobenius_reader")
