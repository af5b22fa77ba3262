from itertools import combinations

import pytest

from ncpbound import extensions
from ncpbound.covers import (
    BoundReport,
    bound_report,
    build_cover,
    candidate_radicands,
    check_Bm,
    check_cor210,
    cover_local_degree,
    full_local_degree,
)
from ncpbound.errors import ValidationError
from ncpbound.extensions import build_extension, local_degree
from ncpbound.fields import (
    QQ,
    enumerate_places,
    fqt_const,
    fqt_from_factors,
    prime_place,
    rational_function_field,
    real_place,
)
from ncpbound.jsonio import parse_place_text

from helpers import ff3_quad, ff7_cubic, oracle_cover, oracle_local_degree, q_ext


def poly7(*coeffs):
    return fqt_from_factors(7, 1, ((tuple(coeffs), 1),))


class TestBuildCover:
    def test_quadratic_compositum(self):
        M = q_ext(3, -7)
        C = build_cover(M, (5,), 2)
        assert C.rel_degree == 2
        assert C.L.degree == 8
        assert C.L.radicands == (3, -7, 5)
        assert C.kernel_profile == (2,)

    def test_dependent_radicand_rejected(self):
        with pytest.raises(ValidationError):
            build_cover(q_ext(3, -7), (3,), 2)
        with pytest.raises(ValidationError):
            build_cover(q_ext(3, -7), (-21,), 2)

    def test_exponent_must_extend(self):
        with pytest.raises(ValidationError):
            build_cover(q_ext(11), (2,), 3)

    def test_empty_cover_is_trivial(self):
        C = build_cover(q_ext(11), (), 2)
        assert C.rel_degree == 1
        assert C.kernel_profile == ()

    def test_cubic_function_field_cover(self):
        M = ff7_cubic()
        C = build_cover(M, (poly7(4, 1),), 3)
        assert C.rel_degree == 3
        assert C.L.orders == (3, 3, 3)
        assert C.kernel_profile == (3,)

    def test_exponent_raise_preserves_orders(self):
        M = ff7_cubic()
        C = build_cover(M, (), 6)
        assert C.rel_degree == 1
        assert C.L.orders == M.orders

    def test_mixed_order_cover(self):
        M = ff7_cubic()
        C = build_cover(M, (fqt_const(7, 3),), 6)
        assert C.rel_degree == 6
        assert C.kernel_profile == (6,)
        assert C.L.orders[:2] == M.orders


class TestLocalDegrees:
    def test_saturated_at_3(self):
        # the three radicand classes span only 4 of the local square classes
        C = build_cover(q_ext(3, -7), (5,), 2)
        assert cover_local_degree(C, prime_place(3)) == 1
        assert not full_local_degree(C, prime_place(3))

    def test_doubling_at_3(self):
        C = build_cover(q_ext(11), (3,), 2)
        assert cover_local_degree(C, prime_place(3)) == 2
        assert full_local_degree(C, prime_place(3))

    def test_quotient_law(self):
        cases = [
            build_cover(q_ext(3, -7), (5,), 2),
            build_cover(q_ext(11), (-1, 2), 2),
            build_cover(ff7_cubic(), (poly7(4, 1),), 3),
        ]
        for C in cases:
            places = list(enumerate_places(C.M.base, 25))
            if C.M.base.is_rationals():
                places.append(real_place())
            for P in places:
                assert (
                    cover_local_degree(C, P) * local_degree(C.M, P)
                    == local_degree(C.L, P)
                )

    def test_real_place_full_when_base_turns_complex(self):
        M = q_ext(3, 17)
        assert full_local_degree(build_cover(M, (-1,), 2), real_place())
        assert not full_local_degree(build_cover(M, (5,), 2), real_place())

    def test_real_place_trivial_over_complex_field(self):
        C = build_cover(q_ext(-1), (2,), 2)
        assert full_local_degree(C, real_place())


class TestCandidateRadicands:
    def test_rational_pool_order(self):
        pool = candidate_radicands(q_ext(11).base, 7)
        assert pool == [-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7]

    def test_rational_pool_squarefree(self):
        pool = candidate_radicands(q_ext(11).base, 50)
        assert 4 not in pool and -8 not in pool and 9 not in pool
        assert 10 in pool and -10 in pool

    def test_function_field_pool_order(self):
        pool = candidate_radicands(ff3_quad().base, 1)
        assert pool[0] == fqt_const(3, 2)
        assert [str(f) for f in pool[1:]] == ["(t)", "(t+1)", "(t+2)"]


class TestCheckBm:
    def test_m_one_trivial_witness(self):
        report = check_Bm(q_ext(11), 1, [prime_place(3)])
        assert report.passed
        assert report.witness.rel_degree == 1

    def test_quadratic_witness_at_3(self):
        report = check_Bm(q_ext(11), 2, [prime_place(3)])
        assert report.passed
        assert report.witness.L.radicands == (11, 3)
        name, ok, detail = report.checks[0]
        assert ok and "required 2" in detail

    def test_degree_four_witness_at_2(self):
        report = check_Bm(q_ext(11), 4, [prime_place(2)])
        assert report.passed
        assert report.witness.L.radicands == (11, -1, 2)
        assert report.witness.rel_degree == 4

    def test_no_witness_when_local_group_saturated(self):
        report = check_Bm(q_ext(3, -7), 2, [prime_place(3)], radicand_bound=30)
        assert not report.passed
        assert report.witness is None
        name, ok, detail = report.checks[0]
        assert name == "witness" and not ok
        assert "no abelian witness" in detail

    def test_function_field_witness(self):
        report = check_Bm(ff3_quad(), 2, [])
        assert report.passed
        assert report.witness.rel_degree == 2
        assert report.witness.kernel_profile == (2,)

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValidationError):
            check_Bm(q_ext(11), 0, [])

    @pytest.mark.parametrize("kwargs, detail", [
        ({"max_extra": -1}, "max_extra must be at least 0, got -1"),
        ({"radicand_bound": -3}, "radicand bound must be at least 0, got -3"),
    ])
    def test_rejects_negative_bounds(self, kwargs, detail):
        with pytest.raises(ValidationError, match=detail):
            check_Bm(q_ext(11), 2, [prime_place(3)], **kwargs)

    def test_zero_bounds_are_valid(self):
        assert check_Bm(q_ext(11), 1, [prime_place(3)], max_extra=0).passed
        # the pool at bound 0 over Q is just -1
        report = check_Bm(q_ext(11), 2, [prime_place(3)], radicand_bound=0)
        assert not report.passed
        assert report.checks[0][2] == ("no abelian witness of relative degree 2 over 1"
                                       " radicands (1 candidates had the right degree)")

    @pytest.mark.parametrize("M, m, places, witnesses", [
        (q_ext(11), 2, ("3",), 1),
        (q_ext(11), 4, ("2",), 1),
        (q_ext(3, -7), 2, ("3",), 0),
        (q_ext(3, -7), 4, ("5", "11"), 0),
        (q_ext(3, -7), 4, ("real",), 1),
    ])
    def test_only_the_witness_is_built(self, monkeypatch, M, m, places, witnesses):
        from ncpbound import covers

        built = []
        real_build = covers.build_cover
        monkeypatch.setattr(covers, "build_cover",
                            lambda *args: built.append(args) or real_build(*args))
        S = [parse_place_text(QQ, text) for text in places]
        report = check_Bm(M, m, S, radicand_bound=30)
        assert len(built) == witnesses == (report.witness is not None)

    def test_sub_cover_certificates_pass(self):
        # one extra radicand of an m-witness builds an m'-cover whose
        # certificate passes
        report = check_Bm(q_ext(11), 4, [prime_place(2)])
        sub = build_cover(q_ext(11), report.witness.L.radicands[1:2], 2)
        assert sub.rel_degree == 2
        cert = check_cor210(sub, [prime_place(2)])
        assert cert.passed

    def test_sub_cover_absent(self):
        # subsets of a 4-witness's extra radicands build covers of degree
        # 1, 2 or 4 over M, never 8; all of them rebuild the witness
        report = check_Bm(q_ext(11), 4, [prime_place(2)])
        M = report.witness.M
        extras = report.witness.L.radicands[len(M.radicands):]
        degrees = set()
        for k in range(len(extras) + 1):
            for combo in combinations(extras, k):
                try:
                    degrees.add(build_cover(M, combo, report.witness.L.n).rel_degree)
                except ValidationError:
                    pass
        assert 8 not in degrees and 4 in degrees
        full = build_cover(M, extras, report.witness.L.n)
        assert full.rel_degree == 4 and full.L.degree == report.witness.L.degree


def _unfiltered_check_Bm(M, m, S, radicand_bound=None, max_extra=2):
    """check_Bm as it was before the order prefilter and the span test:
    build every combo of the pool from scratch (oracle_cover), keep the
    ones whose relative degree is m, and read each local degree as the
    quotient of two local degrees."""
    from ncpbound.covers import CertReport
    from ncpbound.isolation import d_value

    if radicand_bound is None:
        radicand_bound = 100 if M.base.is_rationals() else 3
    places = tuple(sorted(set(S), key=lambda P: P.sort_key()))
    pool = candidate_radicands(M.base, radicand_bound)
    tried = 0
    for k in range(max_extra + 1):
        for combo in combinations(pool, k):
            C = oracle_cover(M, combo)
            if isinstance(C, str) or C.rel_degree != m:
                continue
            tried += 1
            checks = []
            for P in places:
                need, got = d_value(P, m, M), oracle_local_degree(C, P)
                checks.append((f"divisor at {P}", got % need == 0,
                               f"required {need}, local degree {got}"))
            if all(ok for _, ok, _ in checks):
                return CertReport("Bm", m, places, C, tuple(checks))
    detail = (
        f"no abelian witness of relative degree {m} over {len(pool)} radicands"
        f" ({tried} candidates had the right degree)"
    )
    return CertReport("Bm", m, places, None, (("witness", False, detail),))


class TestCheckBmPrefilter:
    """check_Bm skips every combo whose product of radicand orders is not m
    before it builds a cover; the reports must equal the unfiltered scan's,
    witness, checks and detail text included."""

    @pytest.mark.parametrize("radicands, places", [
        ((-1, 2), ("2",)),
        ((-1, 2), ("3", "5", "7", "real")),
        ((3, -7), ("2",)),
        ((3, -7), ("5", "11", "real")),
    ])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8])
    def test_rational_reports_match_unfiltered_scan(self, radicands, places, m):
        M = q_ext(*radicands)
        S = [parse_place_text(QQ, text) for text in places]
        got = check_Bm(M, m, S, radicand_bound=30)
        assert got == _unfiltered_check_Bm(M, m, S, radicand_bound=30)
        assert got.passed == (m == 1 or (m == 2 and places != ("3", "5", "7", "real"))
                              or (m == 4 and places == ("2",)))

    @pytest.mark.parametrize("places", [("t+1",), ("t+3", "inf"), ("t^2+1",),
                                        ("t", "t+1", "t+2", "t^2+1")])
    @pytest.mark.parametrize("bound", [1, 2])
    @pytest.mark.parametrize("m", [1, 3, 9])
    def test_function_field_reports_match_unfiltered_scan(self, m, bound, places):
        M = ff7_cubic()
        S = [parse_place_text(M.base, text) for text in places]
        got = check_Bm(M, m, S, radicand_bound=bound)
        assert got == _unfiltered_check_Bm(M, m, S, radicand_bound=bound)

    def test_no_cover_is_built_when_no_order_product_is_m(self, monkeypatch):
        from ncpbound import covers

        def refuse(*args):
            raise AssertionError("built a cover of the wrong degree")

        monkeypatch.setattr(covers, "build_cover", refuse)
        report = check_Bm(q_ext(3, -7), 3, [prime_place(7)])
        assert report.witness is None
        assert report.checks[0][2].endswith("(0 candidates had the right degree)")


class TestCor210:
    def test_passing_quadratic_certificate(self):
        C = build_cover(q_ext(11), (3,), 2)
        cert = check_cor210(C, [prime_place(3)])
        assert cert.passed
        names = [name for name, _, _ in cert.checks]
        assert names == ["divisor at 3", "kernel-rank", "trivial-action"]

    def test_divisor_failure(self):
        C = build_cover(q_ext(11), (-2,), 2)
        cert = check_cor210(C, [prime_place(3)])
        assert not cert.passed
        outcomes = {name: ok for name, ok, _ in cert.checks}
        assert not outcomes["divisor at 3"]
        assert outcomes["kernel-rank"] and outcomes["trivial-action"]

    def test_rank_three_kernel_fails(self):
        C = build_cover(q_ext(11), (-1, 2, 3), 2)
        assert C.rel_degree == 8
        cert = check_cor210(C, [prime_place(3)])
        assert (cert.p, cert.n, cert.m) == (2, 3, 8)
        assert not cert.passed
        outcomes = {name: ok for name, ok, _ in cert.checks}
        assert not outcomes["kernel-rank"]

    def test_rank_at_most_two_never_fails_structural_checks(self):
        M = q_ext(11)
        for extras in [(-1,), (2,), (-1, 2), (3, 5)]:
            C = build_cover(M, extras, 2)
            cert = check_cor210(C, [])
            outcomes = {name: ok for name, ok, _ in cert.checks}
            assert outcomes["kernel-rank"] and outcomes["trivial-action"]

    def test_prime_power_is_read_from_the_cover(self):
        C = build_cover(q_ext(11), (-1, 2), 2)
        cert = check_cor210(C, [])
        assert (cert.p, cert.n, cert.m) == (2, 2, 4)
        assert cert.passed

    def test_odd_prime_power_is_read_from_the_cover(self):
        # F_7(t)(t^(1/3)) with (t-1)^(1/3) adjoined: a 3^1-cover
        M = build_extension(rational_function_field(7), 3, (poly7(0, 1),))
        C = build_cover(M, (poly7(6, 1),), 3)
        cert = check_cor210(C, [])
        assert (cert.p, cert.n, cert.m) == (3, 1, 3)

    def test_degree_not_a_prime_power(self):
        M = build_extension(rational_function_field(7), 6, (poly7(0, 1),))
        C = build_cover(M, (poly7(1, 1),), 6)
        assert C.rel_degree == 6
        with pytest.raises(ValidationError, match="relative degree 6 is not a prime power"):
            check_cor210(C, [])


class TestBoundReport:
    def test_biquadratic_ceiling(self):
        report = bound_report(q_ext(3, -7), 2, 4)
        assert report.sylow_noncyclic
        assert (report.s, report.r) == (1, 2)
        assert report.ceiling == 8
        assert report.exact is None
        assert report.interval == (0, 8)
        assert report.t_degree == 1

    def test_cyclic_no_ceiling(self):
        report = bound_report(q_ext(11), 2, 2)
        assert not report.sylow_noncyclic
        assert report.ceiling is None and report.exact is None
        assert report.interval == (0, None)
        assert any("cyclic" in note for note in report.notes)

    def test_function_field_ceiling(self):
        report = bound_report(ff7_cubic(), 3, 9)
        assert report.sylow_noncyclic
        assert report.s == 1
        assert report.ceiling == 2

    def test_wild_prime_rejected(self):
        with pytest.raises(ValidationError):
            bound_report(ff7_cubic(), 7, 21)

    def test_incompatible_character_order(self):
        with pytest.raises(ValidationError):
            bound_report(q_ext(3, -7), 2, 3)


class TestS0Home:
    def test_lives_in_extensions_only(self):
        import ncpbound
        from ncpbound import covers

        assert not hasattr(covers, "s0_search")
        assert not hasattr(ncpbound, "s0_search")
        assert callable(extensions.s0_search)
