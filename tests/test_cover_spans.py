"""Cover degrees from radicand images against covers built from scratch.

The oracle is the route the package took before the span test: build L as
a fresh, fully validated AbExt (M's radicands re-powered, then the extras)
and read [L:M]_P as local_degree(L, P) // local_degree(M, P).  The package
reads [L:M]_P as the index of the span of M's local images in the span
grown by the extras' images (`relative_degree`), and builds a cover
(`build_cover`) only for a witness.
"""

from itertools import combinations

import pytest

from helpers import check, ff7_cubic, oracle_cover, oracle_local_degree, q_ext
from ncpbound.covers import (
    build_cover,
    candidate_radicands,
    cover_local_degree,
    quadratic_cover_scan,
)
from ncpbound.errors import ValidationError
from ncpbound.extensions import (
    _class_vector,
    _coset_least,
    _local_image,
    build_extension,
    class_row,
    image_row,
    local_class_group,
    local_degree,
    relative_degree,
    span_order,
)
from ncpbound.fields import (
    QQ,
    enumerate_places,
    fqt_from_factors,
    prime_place,
    rational_function_field,
    real_place,
)
from ncpbound.worked import run_ex41


def span_route(M, extra, n_prime=None):
    try:
        return build_cover(M, extra, M.n if n_prime is None else n_prime)
    except ValidationError as exc:
        return str(exc)


def ff13_quartic():
    t = fqt_from_factors(13, 1, [((0, 1), 1)])
    g = fqt_from_factors(13, 1, [((12, 1), 1), ((11, 1), 1)])  # (t-1)(t-2)
    return build_extension(rational_function_field(13), 4, (t, g))


def _extras(pool):
    return [(d,) for d in pool] + list(combinations(pool, 2))


def _compare(M, extras, places, n_prime=None):
    """Check both routes on every extra tuple at every place; return the
    counts of (covers, moving (cover, place) pairs, fixed pairs)."""
    covers = moving = fixed = 0
    groups = [local_class_group(M, P) for P in places]
    for extra in extras:
        want, got = oracle_cover(M, extra, n_prime), span_route(M, extra, n_prime)
        assert got == want, extra
        if isinstance(got, str):
            continue
        covers += 1
        # the stored class vectors are the ones a fresh AbExt computes
        assert got.L.vectors == want.L.vectors, extra
        for P, G in zip(places, groups):
            degree = oracle_local_degree(want, P)
            assert cover_local_degree(got, P) == degree, (extra, str(P))
            if n_prime is None:
                images = [image_row(_local_image(M.base, M.n, f, P)) for f in extra]
                assert relative_degree(G.n, G.span(), images) == degree, (extra, str(P))
            moving += degree > 1
            fixed += degree == 1
    return covers, moving, fixed


RATIONAL_PLACES = [prime_place(2), real_place()] + [
    prime_place(p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29)]


class TestSpanRouteOverQ:
    @pytest.mark.parametrize("radicands", [(-1, 2), (3, -7), (11,)],
                             ids=["Q(sqrt-1,sqrt2)", "Q(sqrt3,sqrt-7)", "Q(sqrt11)"])
    def test_every_single_and_pair_to_30(self, radicands):
        M = q_ext(*radicands)
        covers, moving, fixed = _compare(M, _extras(candidate_radicands(QQ, 30)),
                                         RATIONAL_PLACES)
        assert covers > 500 and moving > 1000 and fixed > 1000

    def test_ex41_pair_moves_away_from_l(self):
        # Q(sqrt 3, sqrt -7) is the ex41 field of (l, q) = (7, 3): its degree
        # at 7 is already 4 and never moves there, nor at the real place,
        # where M is complex; it moves elsewhere
        M = q_ext(3, -7)
        G = local_class_group(M, prime_place(7))
        assert span_order(2, G.span()) == local_degree(M, prime_place(7)) == 4
        covers = [C for C in (oracle_cover(M, (d,)) for d in candidate_radicands(QQ, 30))
                  if not isinstance(C, str)]
        moved = {str(P) for P in RATIONAL_PLACES for C in covers
                 if oracle_local_degree(C, P) > 1}
        assert not {"7", "real"} & moved and {"2", "5", "11"} <= moved


class TestSpanRouteOverFunctionFields:
    # every place of degree <= 2 and inf; over F_13(t) the pool is the
    # constant generator and the first five linear polynomials
    @pytest.mark.parametrize("make, size", [(ff7_cubic, 8), (ff13_quartic, 6)],
                             ids=["F7(t) cubic", "F13(t) quartic"])
    def test_linear_pool_singles_and_pairs(self, make, size):
        M = make()
        places = list(enumerate_places(M.base, M.base.q**2))
        assert sum(P.kind == "inf" for P in places) == 1
        pool = candidate_radicands(M.base, 1)[:size]
        covers, moving, fixed = _compare(M, _extras(pool), places)
        assert covers > 10 and moving > 100 and fixed > 100

    @pytest.mark.parametrize("make, n_prime", [(ff7_cubic, 6), (ff13_quartic, 12)],
                             ids=["F7(t) 3 -> 6", "F13(t) 4 -> 12"])
    def test_raised_exponent(self, make, n_prime):
        M = make()
        places = list(enumerate_places(M.base, M.base.q))
        extras = [()] + [(d,) for d in candidate_radicands(M.base, 1)]
        covers, moving, _ = _compare(M, extras, places, n_prime)
        assert covers > len(extras) // 2 and moving > 0
        # re-powering multiplies the stored vectors by n' / n
        L = build_cover(M, (), n_prime).L
        assert L.vectors == tuple(_class_vector(M.base, n_prime, f) for f in L.radicands)


T3 = fqt_from_factors(7, 1, [((0, 1), 3)])  # t^3, a cube


@pytest.mark.parametrize("make, extra, n_prime, text", [
    (lambda: q_ext(11), (3,), 0, "n must be at least 2"),
    (lambda: q_ext(11), (3,), 4, "over Q only square roots are supported"),
    (ff7_cubic, (), 9, "n = 9 does not divide q - 1 = 6"),
    (lambda: q_ext(11), (0,), 2, "bad radicand over Q: 0"),
    (lambda: q_ext(11), ("3",), 2, "bad radicand over Q: '3'"),
    (lambda: q_ext(11), (12,), 2, "radicand 12 is not squarefree"),
    (ff7_cubic, (T3,), 3, "radicand (t)^3 is already an n-th power"),
    (lambda: q_ext(3, -7), (5, -21), 2, "radicand classes are dependent at exponents (1, 1, 0, 1)"),
    (ff7_cubic, (T3.pow(0),), 6, "radicand 1 is already an n-th power"),
])
def test_rejections_keep_their_text(make, extra, n_prime, text):
    M = make()
    assert span_route(M, extra, n_prime) == oracle_cover(M, extra, n_prime) == text


class TestStoredVectors:
    def test_vectors_stay_out_of_equality_hash_and_repr(self):
        M = q_ext(3, -7)
        assert M.vectors == ({3: 1}, {-1: 1, 7: 1})
        assert "vectors" not in repr(M)
        fresh = build_cover(q_ext(3), (-7,), 2).L
        assert fresh == M and hash(fresh) == hash(M)

    def test_span_is_w(self):
        # the stored Howell basis over M's atom index holds 3, -7 and -21
        # and nothing else of their atoms
        M = q_ext(3, -7)
        assert span_order(2, M.span) == 4
        for d, member in ((3, True), (-7, True), (-21, True), (-1, False), (21, False)):
            row = class_row(dict(M.columns), _class_vector(QQ, 2, d))
            assert (not _coset_least(2, M.span, row)) == member, d


def _scan_oracle(M, P, bound):
    """(blocked, built) of the ex41 cover scan the old way: build every
    M(sqrt d) and compare local degrees at P."""
    built = 0
    for d in candidate_radicands(QQ, bound):
        C = oracle_cover(M, (d,))
        if isinstance(C, str):
            continue
        built += 1
        if oracle_local_degree(C, P) != 1:
            return False, built
    return True, built


EX41_PAIRS = [
    (l, q) for l in range(3, 60) for q in range(3, 60)
    if l != q and all(l % d for d in range(2, l)) and all(q % d for d in range(2, q))
    and q % 4 == 3 and (q + l) % 8 and pow(q, (l - 1) // 2, l) == l - 1
]


@pytest.mark.parametrize("P", RATIONAL_PLACES, ids=str)
def test_quadratic_scan_matches_build_oracle_where_degrees_move(P):
    # at l no valid ex41 pair ever moves the degree, so the scan is checked
    # on the same fields at every place of the grid, where most do
    moved = 0
    for l, q in EX41_PAIRS:
        got = quadratic_cover_scan(q_ext(q, -l), P, 60)
        assert got == _scan_oracle(q_ext(q, -l), P, 60), (l, q)
        moved += not got[0]
    assert moved > 0 if str(P) != "real" else moved == 0


@pytest.mark.parametrize("l, q", EX41_PAIRS)
def test_ex41_report_matches_build_oracle(l, q):
    # the report passes, and its scan row is the one the oracle gives
    rep = run_ex41(l, q, bound=1000)
    blocked, built = _scan_oracle(q_ext(q, -l), prime_place(l), 1000)
    assert rep.verdict and blocked
    assert check(rep, "cover-scan") == (
        "cover-scan", blocked,
        f"no M(sqrt d), squarefree |d| <= 1000, moves the degree at {l} ({built} covers built)",
    )


def test_ex41_pairs_are_the_workload_pairs():
    assert len(EX41_PAIRS) == 53
