"""Valuation gaps, isolated places, and the local divisor function.

The u-value pairs asserted here were recomputed by hand from the local
degree tables in test_extensions.
"""

import pytest

from helpers import ff3_quad, ff7_cubic, q_ext
from ncpbound.arith import vp
from ncpbound.errors import ValidationError
from ncpbound.extensions import build_extension, local_degree
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
