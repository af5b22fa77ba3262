"""Named invariant errors: raised explicitly, mapped to exit 1 by the CLI,
and still raised when Python runs with assertions disabled (-O)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncpbound import extensions
from ncpbound.cli import main
from ncpbound.errors import InvariantError
from ncpbound.extensions import LocalClassGroup, _splitting
from ncpbound.fields import FqtElt, fqt_const

SRC = Path(__file__).resolve().parents[1] / "src"

# Galois orders (3,) are inconsistent with n = 4: the annihilator of the
# kernel {0, 2} has 2 elements, and 2 * 2 != 3 exponent tuples
BAD_SPLIT = (4, (3,), LocalClassGroup((2,), ((1,),), (), None))


def test_splitting_raises_named_error():
    with pytest.raises(InvariantError, match="annihilator size mismatch"):
        _splitting(*BAD_SPLIT)


def test_class_order_raises_named_error(monkeypatch):
    monkeypatch.setattr(FqtElt, "is_nth_power", lambda self, n: False)
    with pytest.raises(InvariantError, match="class order must divide n"):
        fqt_const(7, 3).class_order(3)


def test_cli_maps_invariant_error_to_exit_1(monkeypatch, capsys, tmp_path):
    def broken(*args):
        raise InvariantError("residue symbols define no character of D")

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
    assert "no character" in payload["detail"]


def test_invariants_fire_under_python_O():
    script = """
import ncpbound.fields as fields
from ncpbound.errors import InvariantError
from ncpbound.extensions import LocalClassGroup, _splitting
assert not __debug__
caught = []
try:
    _splitting(4, (3,), LocalClassGroup((2,), ((1,),), (), None))
except InvariantError:
    caught.append("splitting")
fields.FqtElt.is_nth_power = lambda self, n: False
try:
    fields.fqt_const(7, 3).class_order(3)
except InvariantError:
    caught.append("class_order")
print(",".join(caught))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "splitting,class_order"
