"""JSON encoding and decoding for the library's value types.

Encoding (`to_json`) is total on the public report and value types and
produces plain dict/list/scalar trees ready for json.dumps.  Most report
types are encoded from one table, `_ATTRIBUTES`: the attributes each type
emits, in output order, each value encoded by `to_json` in turn.  Places,
rationals, base fields, function-field elements, Brauer classes and
worked-example reports keep hand-written encoders.  The command line's
writer, `cli._indented`, lays out containers, scalars and the common place
kinds itself and hands every other value to `to_json`.

Decoding covers exactly the shapes the command line accepts as input: base
fields, places, abelian extensions, Brauer classes, and central
extensions.  Derived fields emitted by the encoders ("degree", "index",
"str", ...) are ignored on the way back in.
"""

from __future__ import annotations

import json
import re
from functools import singledispatch

from .arith import QZ
from .brauer import BrauerClass, index, make_class
from .covers import BoundReport, CertReport, Cover
from .errors import ValidationError
from .extensions import AbExt, LocalData, build_extension
from .fields import (
    BaseField,
    FqtElt,
    Place,
    QQ,
    _require_sieve_fits,
    fqt_from_factors,
    infinite_place,
    poly_place,
    prime_place,
    rational_function_field,
    real_place,
)
from .groupext import CentralExt, Lemma35Report, ext_build
from .isolation import IsolationReport
from .worked import PaperReport, SuiteReport


# ---------------------------------------------------------------- encoding


@singledispatch
def to_json(obj):
    """Convert a library value to a JSON-ready tree.

    Scalars pass through; tuples and lists map elementwise; unknown types
    are rejected rather than silently stringified.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_json(v) for k, v in obj.items()}
    raise TypeError(f"no JSON encoding for {type(obj).__name__}")


@to_json.register
def _(obj: QZ):
    return str(obj)


@to_json.register
def _(obj: BaseField):
    if obj.is_rationals():
        return {"kind": "Q"}
    return {"kind": "Fq", "q": obj.q}


@to_json.register
def _(obj: Place):
    if obj.kind == "prime":
        return {"kind": "prime", "p": obj.p, "str": str(obj)}
    if obj.kind == "real":
        return {"kind": "real", "str": "real"}
    if obj.kind == "poly":
        return {"kind": "poly", "q": obj.base.q, "coeffs": list(obj.coeffs), "str": str(obj)}
    return {"kind": "inf", "q": obj.base.q, "str": "inf"}


@to_json.register
def _(obj: FqtElt):
    return {
        "c": obj.c,
        "factors": [[list(coeffs), e] for coeffs, e in obj.factors],
        "str": str(obj),
    }


@to_json.register
def _(obj: BrauerClass):
    out = {"invariants": [[to_json(P), str(v)] for P, v in obj.invariants]}
    if obj.invariants:
        out["base"] = to_json(obj.invariants[0][0].base)
    out["index"] = index(obj)
    return out


@to_json.register
def _(obj: PaperReport):
    return {
        "example": obj.example,
        "params": {k: to_json(v) for k, v in obj.params},
        "checks": [[name, ok, detail] for name, ok, detail in obj.checks],
        "verdict": obj.verdict,
    }


# each report type -> the attributes it emits, in output order; every value
# is encoded by to_json in turn
_ATTRIBUTES = {
    AbExt: ("base", "n", "radicands", "orders", "degree"),
    Cover: ("M", "L", "rel_degree", "kernel_profile"),
    LocalData: ("place", "degree", "ram_index", "res_degree", "unramified", "frobenius"),
    CertReport: ("condition", "m", "p", "n", "S", "witness", "checks", "passed"),
    BoundReport: ("p", "chi_order", "s", "r", "t_degree", "sylow_noncyclic", "ceiling",
                  "exact", "interval", "notes"),
    IsolationReport: ("p", "u1", "u2", "gap", "isolated_place"),
    CentralExt: ("p", "a", "orders", "t", "c", "kernel_order", "order"),
    Lemma35Report: ("p", "homomorphism", "criterion", "consistent"),
    SuiteReport: ("seed", "mutation", "batteries", "failed", "passed"),
}


def _attributes(obj) -> dict:
    return {name: to_json(getattr(obj, name)) for name in _ATTRIBUTES[type(obj)]}


for _type in _ATTRIBUTES:
    to_json.register(_type, _attributes)


@to_json.register  # replaces the encoder the loop gave AbExt
def _(obj: AbExt):
    return {**_attributes(obj), "str": obj.describe()}


# ---------------------------------------------------------------- decoding


def _int(value, what: str) -> int:
    """A JSON integer (not a bool, string or float), else ValidationError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _ints(values, what: str) -> tuple:
    """A JSON list of integers as a tuple, else ValidationError."""
    if not isinstance(values, list):
        raise ValidationError(f"{what} must be a list of integers, got {values!r}")
    return tuple(_int(v, what) for v in values)


def base_from_json(obj) -> BaseField:
    """Accepts {"kind": "Q"}, {"kind": "Fq", "q": 7}, "Q", or "F7(t)"."""
    if isinstance(obj, str):
        s = obj.strip()
        if s == "Q":
            return QQ
        m = re.fullmatch(r"F_?(\d+)\(t\)", s)
        if m:
            return rational_function_field(int(m.group(1)))
        raise ValidationError(f"unknown base field {obj!r}")
    if isinstance(obj, dict):
        kind = obj.get("kind")
        if kind == "Q":
            return QQ
        if kind == "Fq":
            return rational_function_field(_int(obj.get("q", 0), "q"))
        if "q" in obj and kind is None:
            return rational_function_field(_int(obj["q"], "q"))
    raise ValidationError(f"cannot read a base field from {obj!r}")


_TERM = re.compile(r"^(\d+)?\*?(?:t(?:\^(\d+))?)?$")


def parse_poly_text(text: str, q: int) -> tuple:
    """Coefficient tuple (constant first) from text like "t^2+2*t-1"."""
    s = "".join(text.split())  # any whitespace, not only spaces
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ValidationError("empty polynomial")
    pieces = re.findall(r"[+-]?[^+-]+", s)
    if "".join(pieces) != s:  # a sign with no term after it
        raise ValidationError(f"cannot read polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for piece in pieces:
        sign = -1 if piece.startswith("-") else 1
        body = piece.lstrip("+-")
        m = _TERM.fullmatch(body)
        if not m or (m.group(1) is None and "t" not in body):
            raise ValidationError(f"cannot read polynomial term {piece!r} in {text!r}")
        coeff = int(m.group(1)) if m.group(1) is not None else 1
        if "t" in body:
            deg = int(m.group(2)) if m.group(2) is not None else 1
        else:
            deg = 0
        coeffs[deg] = (coeffs.get(deg, 0) + sign * coeff) % q
    top = max(coeffs)
    _require_sieve_fits(q, top)  # before a tuple of top + 1 coefficients is built
    return tuple(coeffs.get(i, 0) for i in range(top + 1))


def parse_fqt_text(text: str, q: int) -> FqtElt:
    """Factored element from text: "3*t*(t+1)^2", chunks joined by "*".

    Each parenthesized or bare chunk must itself be irreducible; composite
    chunks are rejected by the element constructor, not factored here.
    """
    s = "".join(text.split())  # any whitespace, not only spaces
    chunks = re.findall(r"\((?:[^()]+)\)(?:\^\d+)?|[^*()]+", s)
    if "*".join(chunks).replace("*", "") != s.replace("*", ""):
        raise ValidationError(f"cannot read factored element {text!r}")
    c = 1
    factors = []
    for chunk in chunks:
        if re.fullmatch(r"\d+", chunk):
            c = c * int(chunk) % q
            continue
        m = re.fullmatch(r"\((.+)\)\^(\d+)|\((.+)\)|(.+)\^(\d+)|(.+)", chunk)
        poly_text = m.group(1) or m.group(3) or m.group(6)
        if poly_text is None and m.group(4) is not None:
            poly_text, exp = m.group(4), int(m.group(5))
        else:
            exp = int(m.group(2)) if m.group(2) else 1
        factors.append((parse_poly_text(poly_text, q), exp))
    return fqt_from_factors(q, c, factors)


def fqt_from_json(obj, q: int) -> FqtElt:
    if isinstance(obj, str):
        return parse_fqt_text(obj, q)
    if isinstance(obj, dict):
        rows = obj.get("factors", [])
        if not isinstance(rows, list):
            raise ValidationError(f"factors must be a list of rows, got {rows!r}")
        factors = []
        for row in rows:
            if not isinstance(row, list) or len(row) != 2:
                raise ValidationError(f"factor rows are [coeffs, exponent], got {row!r}")
            coeffs, e = row
            factors.append((_ints(coeffs, "coefficients"), _int(e, "an exponent")))
        return fqt_from_factors(q, _int(obj.get("c", 1), "c"), factors)
    raise ValidationError(f"cannot read a function-field element from {obj!r}")


def parse_place_text(base: BaseField, text: str) -> Place:
    """Place from command-line text: "5" or "real" over Q, "inf" or a
    monic irreducible like "t+4" (parentheses optional) over F_q(t)."""
    s = text.strip()
    if base.is_rationals():
        if s == "real":
            return real_place()
        try:
            p = int(s)
        except ValueError:
            raise ValidationError(f"not a place of Q: {text!r}") from None
        return prime_place(p)
    if s == "inf":
        return infinite_place(base.q)
    return poly_place(base.q, parse_poly_text(s, base.q))


def place_from_json(obj, base: BaseField | None = None) -> Place:
    if isinstance(obj, (str, int)):
        if base is None:
            raise ValidationError(f"place {obj!r} given as text needs a base field")
        return parse_place_text(base, str(obj))
    if not isinstance(obj, dict):
        raise ValidationError(f"cannot read a place from {obj!r}")
    kind = obj.get("kind")
    if kind == "prime":
        return prime_place(_int(obj.get("p", 0), "p"))
    if kind == "real":
        return real_place()
    if kind == "poly":
        q = _int(obj.get("q", 0), "q")
        return poly_place(q, _ints(obj.get("coeffs", []), "coefficients"))
    if kind == "inf":
        return infinite_place(_int(obj.get("q", 0), "q"))
    raise ValidationError(f"unknown place kind {kind!r}")


def ext_from_json(obj) -> AbExt:
    """Extension from {"base": ..., "n": ..., "radicands": [...]}."""
    if not isinstance(obj, dict):
        raise ValidationError(f"cannot read an extension from {obj!r}")
    for key in ("base", "n", "radicands"):
        if key not in obj:
            raise ValidationError(f"extension JSON lacks {key!r}")
    base = base_from_json(obj["base"])
    n = _int(obj["n"], "n")
    if not isinstance(obj["radicands"], list):
        raise ValidationError(f"radicands must be a list, got {obj['radicands']!r}")
    if base.is_rationals():
        radicands = []
        for r in obj["radicands"]:
            if not isinstance(r, int):
                raise ValidationError(f"radicands over Q are integers, got {r!r}")
            radicands.append(r)
    else:
        radicands = [fqt_from_json(r, base.q) for r in obj["radicands"]]
    return build_extension(base, n, radicands)


def class_from_json(obj) -> BrauerClass:
    """Brauer class from {"invariants": [[place, "a/b"], ...], "base": ...}."""
    if not isinstance(obj, dict) or not isinstance(obj.get("invariants"), list):
        raise ValidationError("Brauer class JSON needs an 'invariants' list")
    base = base_from_json(obj["base"]) if "base" in obj else None
    pairs = []
    for row in obj["invariants"]:
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise ValidationError(f"invariant rows are [place, value], got {row!r}")
        place = place_from_json(row[0], base)
        pairs.append((place, QZ.parse(str(row[1]))))
    return make_class(pairs)


def central_from_json(obj) -> CentralExt:
    if not isinstance(obj, dict):
        raise ValidationError(f"cannot read a central extension from {obj!r}")
    for key in ("p", "a", "orders", "t", "c"):
        if key not in obj:
            raise ValidationError(f"central extension JSON lacks {key!r}")
    return ext_build(_int(obj["p"], "p"), _int(obj["a"], "a"), _ints(obj["orders"], "orders"),
                     _ints(obj["t"], "t"), _ints(obj["c"], "c"))


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def load_extension(path: str) -> AbExt:
    return ext_from_json(load_json(path))


def load_class(path: str) -> BrauerClass:
    return class_from_json(load_json(path))
