"""Valuation gaps, isolated places, and the local divisor function.

The u-value pairs asserted here were recomputed by hand from the local
degree tables in test_extensions.
"""

import itertools
from types import SimpleNamespace

import pytest

from helpers import ff3_quad, ff7_cubic, q_ext, sigma_order
from ncpbound.arith import factorize, vp
from ncpbound.errors import ValidationError
from ncpbound.extensions import (
    AbExt,
    build_extension,
    gal_exponent,
    galois_group,
    local_degree,
    ramified_places,
)
from ncpbound.fields import (
    enumerate_places,
    fqt_from_factors,
    poly_place,
    prime_place,
    rational_function_field,
    real_place,
)
from ncpbound.isolation import (
    IsolationReport,
    d_value,
    isolated_places,
    isolation_report,
    u_values,
)


class TestUValues:
    def test_biquadratic_no_gap(self):
        # both 3 and 7 carry local degree 4
        assert u_values(q_ext(3, -7), 2) == (2, 2)

    def test_totally_ramified_gap(self):
        M = q_ext(-1, 2)
        assert u_values(M, 2) == (2, 1)
        rep = isolation_report(M, 2)
        assert rep.gap == 1
        assert rep.isolated_place == prime_place(2)
        assert rep.isolated_place is not None

    def test_cyclic_never_gaps(self):
        assert u_values(q_ext(11), 2) == (1, 1)
        assert isolation_report(q_ext(11), 2).isolated_place is None

    def test_function_field_two_attainers(self):
        # (t) and (t-2) both reach local degree 9
        M = ff7_cubic()
        assert u_values(M, 3) == (2, 2)
        assert isolation_report(M, 3).isolated_place is None

    def test_wild_prime_rejected(self):
        with pytest.raises(ValidationError):
            u_values(ff7_cubic(), 7)
        with pytest.raises(ValidationError):
            isolation_report(ff3_quad(), 3)

    def test_report_shape(self):
        rep = isolation_report(q_ext(-1, 2), 2)
        assert isinstance(rep, IsolationReport)
        assert (rep.p, rep.u1, rep.u2) == (2, 2, 1)


class TestReportMemo:
    def test_repeat_is_a_hit_on_the_same_report(self):
        M = q_ext(-1, 2)
        first = isolation_report(M, 2)
        before = isolation_report.cache_info()
        assert isolation_report(M, 2) is first
        after = isolation_report.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_wild_prime_raises_on_every_call_and_is_not_stored(self):
        M = ff7_cubic()
        size = isolation_report.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValidationError, match="equals the field characteristic"):
                isolation_report(M, 7)
        assert isolation_report.cache_info().currsize == size


def _report_by_enumeration(M, p):
    """(u1, u2, isolated place) with the Frobenius values read from the
    order of every element of the Galois group."""
    frob = {vp(sigma_order(M, s), p) for s in galois_group(M)}
    ram = {P: vp(local_degree(M, P), p) for P in ramified_places(M)}
    u1 = max(frob | set(ram.values()))
    holders = [P for P, v in ram.items() if v == u1]
    if u1 in frob or len(holders) != 1:
        return u1, u1, None
    return u1, max(frob | {v for v in ram.values() if v != u1}), holders[0]


def _mixed_order_extensions():
    t = fqt_from_factors(13, 1, [((0, 1), 1)])
    t1_cubed = fqt_from_factors(13, 1, [((12, 1), 3)])  # class of order 4
    u = fqt_from_factors(7, 1, [((0, 1), 1)])
    u1_squared = fqt_from_factors(7, 1, [((6, 1), 2)])  # class of order 3
    three = fqt_from_factors(7, 3, [])  # a primitive root mod 7: order 6
    return [AbExt(rational_function_field(13), 12, (t, t1_cubed)),
            AbExt(rational_function_field(7), 6, (u, u1_squared, three))]


class TestFrobeniusValues:
    def test_closed_form_matches_enumeration(self):
        # in prod Z/o_i the p-valuations of the element orders are exactly
        # 0, ..., v_p(exponent)
        for n in (2, 3, 4, 6, 8, 9, 12):
            divisors = [d for d in range(2, n + 1) if n % d == 0]
            for r in range(1, 4):
                for orders in itertools.combinations_with_replacement(divisors, r):
                    G = SimpleNamespace(n=n, orders=orders)
                    for p in (2, 3, 5):
                        values = {vp(sigma_order(G, s), p) for s in galois_group(G)}
                        assert values == set(range(vp(gal_exponent(G), p) + 1)), (orders, p)

    @pytest.mark.parametrize("M", [
        q_ext(3, -7), q_ext(-1, 2), q_ext(-1, 5), q_ext(-1, 10), q_ext(11),
        ff7_cubic(), ff3_quad(), *_mixed_order_extensions(),
    ], ids=lambda M: M.describe())
    def test_report_matches_enumeration(self, M):
        for p in factorize(gal_exponent(M)):
            if p == M.base.char:
                continue
            rep = isolation_report(M, p)
            assert (rep.u1, rep.u2, rep.isolated_place) == _report_by_enumeration(M, p)


class TestIsolatedPlaces:
    def test_gap_fixture(self):
        assert isolated_places(q_ext(-1, 2)) == [(prime_place(2), 2)]

    def test_further_gap_fixtures(self):
        # 2 is totally or mixed ramified of degree 4, 5 stays at degree 2
        assert isolated_places(q_ext(-1, 5)) == [(prime_place(2), 2)]
        assert isolated_places(q_ext(-1, 10)) == [(prime_place(2), 2)]

    def test_no_gap_fixtures(self):
        assert isolated_places(q_ext(3, -7)) == []
        assert isolated_places(ff7_cubic()) == []
        assert isolated_places(ff3_quad()) == []

    def test_cyclic_fixtures(self):
        assert isolated_places(q_ext(11)) == []
        assert isolated_places(q_ext(-1)) == []
        t = fqt_from_factors(7, 1, [((0, 1), 1)])
        assert isolated_places(build_extension(rational_function_field(7), 3, (t,))) == []

    def test_unramified_places_stay_at_u2(self):
        # any value attained off the ramified set recurs; sample 500 places
        M = q_ext(-1, 2)
        u2 = u_values(M, 2)[1]
        sampled = 0
        for P in enumerate_places(M.base, 3600):
            if P == prime_place(2):
                continue
            assert vp(local_degree(M, P), 2) <= u2
            sampled += 1
            if sampled >= 500:
                break
        assert sampled >= 500


class TestDValue:
    def test_gap_reduces_requirement(self):
        assert d_value(prime_place(2), 4, q_ext(-1, 2)) == 2

    def test_real_place(self):
        assert d_value(real_place(), 6, q_ext(11)) == 2
        assert d_value(real_place(), 6, q_ext(3, -7)) == 1
        assert d_value(real_place(), 9, q_ext(11)) == 1

    def test_non_isolated_keeps_full_part(self):
        assert d_value(prime_place(3), 8, q_ext(3, -7)) == 8

    def test_characteristic_part_passes_through(self):
        M = ff7_cubic()
        assert d_value(poly_place(7, (0, 1)), 21, M) == 21

    def test_divides_m(self):
        M = q_ext(-1, 2)
        for m in range(1, 25):
            for P in (prime_place(2), prime_place(3), prime_place(5), real_place()):
                assert m % d_value(P, m, M) == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            d_value(prime_place(2), 0, q_ext(11))
        with pytest.raises(ValidationError):
            d_value(poly_place(3, (0, 1)), 2, q_ext(11))
