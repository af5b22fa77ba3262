"""Spans over Z/n in Howell form against the frozenset oracle.

`extensions.howell` turns rows of (Z/n)^w into a Howell basis, and the
order, the least member of a coset (with membership), the members and the
relative index are read off it.  The oracle is `helpers.grow`, which builds
the whole subgroup as a frozenset.  The readers built on the basis (the
dependent-family message, the generators of a target span's preimage,
the squarefree span, the roots of unity, the constant field, the
cyclotomic part, the generators of Gal(M/T) that `s0_search` looks for)
are compared with enumeration of every exponent tuple or Galois element,
and a rank-20 extension and a function field with n = 50001 run their
verbs with that enumeration refused.
"""

import hashlib
import itertools
import json
from math import prod

import pytest
from hypothesis import given, reject, settings, strategies as st

from helpers import (
    assert_generators_match_oracles,
    combine,
    greedy_generators,
    grow,
    tuple_adder,
    w_exponents,
)
from ncpbound import extensions
from ncpbound.arith import is_squarefree
from ncpbound.cli import main
from ncpbound.errors import ValidationError
from ncpbound.extensions import (
    AbExt,
    _coset_least,
    howell,
    r_value,
    relative_degree,
    roots_of_unity_s,
    s0_search,
    span_members,
    span_order,
    span_squarefree,
)
from ncpbound.fields import (
    QQ,
    fqt_const,
    fqt_from_factors,
    monic_irreducibles,
    rational_function_field,
)

MODULI = (2, 3, 4, 6, 8, 9, 12)


@st.composite
def _rows(draw):
    n = draw(st.sampled_from(MODULI))
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * width), max_size=5))
    return n, width, rows


def _row(coords):
    return {k: x for k, x in enumerate(coords) if x}


def _coords(row, width):
    return tuple(row.get(k, 0) for k in range(width))


class TestHowellAgainstGrow:
    @given(_rows(), st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_order_membership_index_and_members(self, drawn, split):
        n, width, rows = drawn
        add, zero = tuple_adder(n), (0,) * width
        want = grow(frozenset((zero,)), rows, add)
        basis = howell(n, [_row(r) for r in rows])
        assert span_order(n, basis) == len(want)
        for v in itertools.product(range(n), repeat=width):
            assert (not _coset_least(n, basis, _row(v))) == (v in want), v
        assert sorted(_coords(x, width) for x in span_members(n, basis)) == sorted(want)
        below = grow(frozenset((zero,)), rows[:split], add)
        got = relative_degree(n, howell(n, [_row(r) for r in rows[:split]]),
                              [_row(r) for r in rows[split:]])
        assert got == len(want) // len(below)

    @given(_rows(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_coset_least_is_the_least_member_of_the_coset(self, drawn, data):
        n, width, rows = drawn
        add = tuple_adder(n)
        want = grow(frozenset(((0,) * width,)), rows, add)
        basis = howell(n, [_row(r) for r in rows])
        vectors = st.tuples(*[st.integers(0, n - 1)] * width) | st.sampled_from(sorted(want))
        for v in data.draw(st.lists(vectors, min_size=1, max_size=6)):
            got = _coset_least(n, basis, _row(v))
            assert _coords(got, width) == min(add(v, m) for m in want), v
            assert (got == {}) == (v in want), v

    @given(_rows())
    @settings(max_examples=100, deadline=None)
    def test_pivots_divide_n_and_rows_stay_reduced(self, drawn):
        n, _, rows = drawn
        for j, row in howell(n, [_row(r) for r in rows]).items():
            assert j == min(row) and n % row[j] == 0
            assert all(0 < x < n for x in row.values())

    def test_refuses_n_below_1(self):
        # n = 0 would divide by zero, and a negative n would return a basis
        for n in (0, -3):
            with pytest.raises(ValidationError, match=f"^n must be at least 1, got {n}$"):
                howell(n, [{0: 1}])

    def test_grown_basis_leaves_the_given_one_as_it_was(self):
        basis = howell(4, [{0: 2}])
        frozen = {j: dict(row) for j, row in basis.items()}
        # <(2, 0), (1, 3)> = <(1, 3), (0, 2)>, of order 8
        assert span_order(4, howell(4, [{0: 1, 1: 3}], basis)) == 8
        assert basis == frozen


# ------------------------------------------------------------ readers over W


def _first_dependent(M_n, vectors, orders):
    """The first nonzero exponent tuple of trivial class, in product order."""
    return next((e for e in itertools.product(*[range(o) for o in orders])
                 if any(e) and not combine(M_n, vectors, e)), None)


def _generators(M, p):
    """The generators s0_search looks for, in its order, with the place walk
    patched out: every search returns at once."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extensions, "first_places", lambda found, count, bound, what: [None])
        return list(s0_search(M, p, 0))


def _radicand_vectors(base, n, radicands):
    vectors, orders = [], []
    for f in radicands:
        vec = extensions._class_vector(base, n, f)
        vectors.append(vec)
        orders.append(extensions._vector_order(n, vec))
    return vectors, orders


SQUAREFREE = [a for a in range(-70, 71) if a not in (0, 1) and is_squarefree(a)]


@given(st.lists(st.sampled_from(SQUAREFREE), min_size=1, max_size=8, unique=True))
@settings(max_examples=150, deadline=None)
def test_rationals_match_enumeration(radicands):
    vectors, orders = _radicand_vectors(QQ, 2, radicands)
    e = _first_dependent(2, vectors, orders)
    try:
        M = AbExt(QQ, 2, tuple(radicands))
    except ValidationError as exc:
        assert e is not None and str(exc) == f"radicand classes are dependent at exponents {e}"
        return
    assert e is None
    span = {prod(combine(2, M.vectors, x)) for x in w_exponents(M)}
    assert span_squarefree(M) == span
    for p in (2, 3, 5, 7, 11):
        assert _generators(M, p) == (greedy_generators(M, p) or [(0,) * len(M.orders)]), p
    assert_generators_match_oracles(M, (2, 3, 5, 7, 11))
    s2 = 1 + (-1 in span) + (-1 in span and 2 in span)
    assert roots_of_unity_s(M, 2) == s2 and roots_of_unity_s(M, 3) == (-3 in span)
    assert r_value(M) == (3 if 2 in span or -2 in span else 2)


def _fq_pool(q, n):
    """Constants, linear polynomials and a few products with exponents, so
    the classes have mixed orders dividing n."""
    consts = [fqt_const(q, c) for c in range(2, q)]
    linear = monic_irreducibles(q, 1)[:4]
    polys = [fqt_from_factors(q, 1, [(p, e)]) for p in linear for e in (1, 2, 3) if e < n]
    pairs = [fqt_from_factors(q, c, [(linear[0], 1), (linear[1], n - 1)]) for c in (1, 2)]
    return consts + polys + pairs


@pytest.mark.parametrize("q, n", [(7, 6), (13, 4), (13, 12), (17, 8)])
def test_function_fields_match_enumeration(q, n):
    base = rational_function_field(q)

    @given(st.lists(st.sampled_from(_fq_pool(q, n)), min_size=1, max_size=3, unique=True))
    @settings(max_examples=40, deadline=None)
    def check(radicands):
        vectors, orders = _radicand_vectors(base, n, radicands)
        if 1 in orders:
            reject()
        e = _first_dependent(n, vectors, orders)
        try:
            M = AbExt(base, n, tuple(radicands))
        except ValidationError as exc:
            assert e is not None
            assert str(exc) == f"radicand classes are dependent at exponents {e}"
            return
        assert e is None
        for p in (2, 3, 5):
            assert _generators(M, p) == (greedy_generators(M, p) or [(0,) * len(M.orders)]), p
        assert_generators_match_oracles(M, (2, 3, 5, 7, q))

    check()


# ------------------------------------------------------------ no enumeration


PRIMES = [p for p in range(2, 70) if all(p % d for d in range(2, p))]
RANK_20 = (-1, *PRIMES[:19])  # -1, 2, 3, ..., 67


@pytest.fixture
def no_enumeration(monkeypatch):
    """Galois elements refused, and member lists refused past 16 members:
    what src/ keeps of enumeration."""
    real_members = extensions.span_members

    def refuse(*args):
        raise AssertionError("a group was enumerated")

    def small_members(n, basis):
        if span_order(n, basis) > 16:
            refuse()
        return real_members(n, basis)

    monkeypatch.setattr(extensions, "_gal_elements", refuse)
    monkeypatch.setattr(extensions, "span_members", small_members)
    extensions.local_data.cache_clear()
    extensions._splitting.cache_clear()
    yield
    extensions.local_data.cache_clear()
    extensions._splitting.cache_clear()


def _run(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_rank_20_runs_without_listing_w(no_enumeration, capsys, tmp_path):
    path = tmp_path / "q20.json"
    path.write_text(json.dumps({"base": "Q", "n": 2, "radicands": list(RANK_20)}))
    assert AbExt(QQ, 2, RANK_20).degree == 2**20
    code, field = _run(capsys, "field", "--ext", str(path))
    assert code == 0 and field["degree"] == 2**20 and field["real"] is False
    assert [P["p"] for P in field["ramified"]] == PRIMES[:19]
    code, isolated = _run(capsys, "isolated", "--ext", str(path))
    assert code == 0
    code, report = _run(capsys, "bound-report", "--p", "2", "--chi-order", "2", "--ext", str(path))
    assert code == 0 and (report["s"], report["r"], report["t_degree"]) == (3, 3, 4)


def test_rank_20_dependent_family_exits_2(no_enumeration, capsys, tmp_path):
    # 30 = 2 * 3 * 5 replaces 67: the least nonzero kernel element has the
    # exponent 1 at 2, 3, 5 and at 30
    path = tmp_path / "dep20.json"
    path.write_text(json.dumps({"base": "Q", "n": 2, "radicands": [*RANK_20[:19], 30]}))
    code, payload = _run(capsys, "field", "--ext", str(path))
    e = (0, 1, 1, 1) + (0,) * 15 + (1,)
    assert code == 2
    assert payload == {"error": "invalid-input",
                       "detail": f"radicand classes are dependent at exponents {e}"}


def test_rank_20_s0_search_reads_its_generators_off_a_basis(no_enumeration, capsys, tmp_path):
    # T = Q(sqrt -3), so Gal(M/T) = {s : s_0 = s_2} has order 2^19; its 19
    # greedy generators come off a basis, and none has a place below norm 200
    path = tmp_path / "q20.json"
    path.write_text(json.dumps({"base": "Q", "n": 2, "radicands": list(RANK_20)}))
    code, payload = _run(capsys, "search", "s0", "--p", "3", "--power", "0",
                         "--bound", "200", "--ext", str(path))
    units = [tuple(int(i == k) for i in range(20)) for k in (*range(19, 2, -1), 1)]
    gens = [*units, (1, 0, 1) + (0,) * 17]
    assert code == 3
    assert payload == {"error": "search-exhausted",
                       "detail": f"no qualifying place below norm 200 for generators {gens}"}


@pytest.mark.parametrize("argv, code, sha", [
    (("bound-report", "--p", "3", "--chi-order", "50001"), 0,
     "1e1ef3755897ee981a2e5b60c91691c3cc99908648f24beeca7dc879ccc99bc5"),
    (("search", "qsigma", "--p", "3", "--sigma", "0,0"), 3,
     "d3913688086540551bbd04e1b7f8dd54e436f9fcabb8afff2df0ed2cf10f4497"),
    (("search", "s0", "--p", "3", "--power", "0"), 3,
     "4cabfd789fa6f361ec51c81239d96fc299b80df96fd251d15e9789a02ff99d4f"),
], ids=["bound-report", "qsigma", "s0"])
def test_constant_field_and_cyclotomic_part_list_no_group(no_enumeration, capsys, tmp_path,
                                                          argv, code, sha):
    # over F_100003(t)[50001-th roots of 2, t] the constant W-elements form a
    # group of order 50001 and T one of order 3; each verb prints the report
    # it printed when it listed them (sha256 of stdout)
    path = tmp_path / "f100003.json"
    path.write_text(json.dumps({"base": "F100003(t)", "n": 50001, "radicands": ["2", "t"]}))
    got = main([*argv, "--ext", str(path)])
    out = capsys.readouterr()
    assert (got, out.err, hashlib.sha256(out.out.encode()).hexdigest()) == (code, "", sha)
