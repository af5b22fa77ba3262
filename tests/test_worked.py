"""Worked example runners and the seeded property suite."""

import random
from collections import Counter
from math import prod

import pytest

from helpers import check
from ncpbound import worked
from ncpbound.arith import is_prime, legendre
from ncpbound.errors import SearchExhausted, ValidationError
from ncpbound.fields import poly_place, prime_place, real_place
from ncpbound.groupext import beta
from ncpbound.worked import (
    DEFAULT_SEED,
    MUTATIONS,
    run_ex41,
    run_ex43,
    run_prop42,
    run_property_suite,
)

EX41_NAMES = [
    "hypothesis",
    "degree-at-l",
    "degree-case-split",
    "no-isolated",
    "real-subfield",
    "minus-one-nonsquare",
    "cover-scan",
    "witness-class",
]

EX43_NAMES = [
    "roots-of-unity",
    "t-a-inert-in-K1",
    "t-ramified-in-K1",
    "t-1-split-in-K1",
    "t-a-ramified-in-K2",
    "t-inert-in-K2",
    "t-1-ramified-in-K2",
    "full-degree-at-pivots",
    "no-isolated",
    "b-p-zero",
]

SUITE_NAMES = [
    "qz-arithmetic",
    "lemma21",
    "constructor-divisor",
    "fiber-index-law",
    "cover-quotient",
    "bm-certificate-divisor",
    "beta-bilinear",
    "lemma34-fiber",
    "lemma35-consistency",
    "isolated-frozen",
    "frobenius-liveness",
]


class TestEx41:
    @pytest.mark.parametrize("l,q", [(3, 11), (5, 7), (7, 3)])
    def test_documented_pairs_pass(self, l, q):
        rep = run_ex41(l, q, bound=200)
        assert rep.verdict
        assert [name for name, _, _ in rep.checks] == EX41_NAMES
        assert rep.params == (("l", l), ("q", q), ("bound", 200))

    def test_case_split_direction(self):
        # l = 3 mod 4 forces degree 4 at q, l = 1 mod 4 forces it at 2
        assert "at 11 is 4" in check(run_ex41(3, 11, bound=40), "degree-case-split")[2]
        assert "at 2 is 4" in check(run_ex41(5, 7, bound=40), "degree-case-split")[2]

    def test_witness_detail_frozen(self):
        rep = run_ex41(7, 3, bound=40)
        assert check(rep, "witness-class")[2] == (
            "ind 8, ind at 7 = 8, restricted 2, fiber 8"
        )

    @pytest.mark.parametrize("l,q", [(3, 5), (13, 3), (3, 7)])
    def test_hypothesis_violations_reported_not_raised(self, l, q):
        rep = run_ex41(l, q, bound=10)
        assert not rep.verdict
        assert len(rep.checks) == 1
        assert rep.checks[0][0] == "hypothesis"
        assert "violated" in rep.checks[0][2]

    @pytest.mark.parametrize("l,q", [(2, 7), (7, 2), (3, 3), (9, 7), (3, 15)])
    def test_rejects_non_odd_prime_pairs(self, l, q):
        with pytest.raises(ValidationError):
            run_ex41(l, q)

    def test_rejects_negative_bound(self):
        with pytest.raises(ValidationError, match="bound must be at least 0, got -1"):
            run_ex41(5, 23, bound=-1)

    def test_zero_bound_scans_only_minus_one(self):
        rep = run_ex41(5, 23, bound=0)
        assert rep.verdict
        assert check(rep, "cover-scan")[2].endswith("(1 covers built)")

    def test_reports_are_reproducible(self):
        assert run_ex41(3, 11, bound=50) == run_ex41(3, 11, bound=50)

    def test_verdict_agrees_with_hypotheses_below_50(self):
        primes = [p for p in range(3, 50) if is_prime(p)]
        for l in primes:
            for q in primes:
                if l == q:
                    continue
                expected = (
                    q % 4 == 3 and (q + l) % 8 != 0 and legendre(q, l) == -1
                )
                assert run_ex41(l, q, bound=60).verdict == expected, (l, q)


class TestEx43:
    def test_cubic_case(self):
        rep = run_ex43(3, 7, 2)
        assert rep.verdict
        assert [name for name, _, _ in rep.checks] == EX43_NAMES
        assert "s = 1" in check(rep, "roots-of-unity")[2]
        assert "[M:K] = 9" in check(rep, "roots-of-unity")[2]
        assert "index 27" in check(rep, "b-p-zero")[2]

    def test_quadratic_case(self):
        rep = run_ex43(2, 3, 2)
        assert rep.verdict
        assert "s = 1" in check(rep, "roots-of-unity")[2]
        assert "index 8" in check(rep, "b-p-zero")[2]

    def test_degree_five_case(self):
        assert run_ex43(5, 11, 2).verdict

    def test_a_is_reduced_mod_q(self):
        assert run_ex43(2, 3, 5) == run_ex43(2, 3, 2)

    @pytest.mark.parametrize(
        "p,q,a",
        [
            (3, 5, 2),   # 5 != 1 mod 3
            (3, 7, 1),   # a = 1
            (3, 7, 6),   # 6 is a cube in F_7
            (2, 3, 4),   # a = 1 after reduction
            (4, 7, 2),   # p not prime
            (3, 9, 2),   # q not prime
        ],
    )
    def test_parameter_violations_raise(self, p, q, a):
        with pytest.raises(ValidationError):
            run_ex43(p, q, a)


class TestProp42:
    def test_rational_case_frozen(self):
        rep = run_prop42(2, prime_place(5))
        assert rep.verdict
        assert "q1 = 3, q2 = 7" in check(rep, "auxiliary-places")[2]
        assert check(rep, "k1-realization")[2].startswith("radicand -3:")
        assert check(rep, "k2-realization")[2].startswith("radicand 35:")
        assert "[M:K] at 5 is 4" in check(rep, "full-degree-at-pivots")[2]

    def test_function_field_case_frozen(self):
        rep = run_prop42(3, poly_place(7, (4, 1)))
        assert rep.verdict
        assert "q1 = (t), q2 = (t+1)" in check(rep, "auxiliary-places")[2]
        assert check(rep, "k1-realization")[2].startswith("radicand (t):")
        assert check(rep, "k2-realization")[2].startswith("radicand (t+1)*(t+4):")
        assert "is 9" in check(rep, "full-degree-at-pivots")[2]

    @pytest.mark.parametrize("kwargs, detail", [
        ({"bound": -1}, "bound must be at least 0, got -1"),
        ({"radicand_bound": -1}, "radicand bound must be at least 0, got -1"),
    ])
    def test_rejects_negative_bounds(self, kwargs, detail):
        with pytest.raises(ValidationError, match=detail):
            run_prop42(2, prime_place(5), **kwargs)

    def test_zero_bounds_exhaust_the_searches(self):
        with pytest.raises(SearchExhausted, match="found 0/2 places"):
            run_prop42(2, prime_place(5), bound=0)
        with pytest.raises(SearchExhausted):
            run_prop42(2, prime_place(5), radicand_bound=0)

    def test_reports_are_reproducible(self):
        assert run_prop42(2, prime_place(5)) == run_prop42(2, prime_place(5))

    def test_p_dividing_norm_raises(self):
        with pytest.raises(ValidationError):
            run_prop42(2, prime_place(2))

    def test_base_without_roots_of_unity_raises(self):
        with pytest.raises(ValidationError):
            run_prop42(3, prime_place(7))

    def test_real_place_raises(self):
        with pytest.raises(ValidationError):
            run_prop42(2, real_place())

    def test_auxiliary_search_shortfall(self):
        with pytest.raises(SearchExhausted):
            run_prop42(2, prime_place(5), bound=2)

    def test_realization_search_shortfall(self):
        with pytest.raises(SearchExhausted):
            run_prop42(2, prime_place(5), radicand_bound=2)


class TestPropertySuite:
    def test_green_by_default(self):
        rep = run_property_suite(DEFAULT_SEED)
        assert rep.passed
        assert rep.failed == ()
        assert [name for name, _, _ in rep.batteries] == SUITE_NAMES

    def test_deterministic_for_fixed_seed(self):
        assert run_property_suite(11) == run_property_suite(11)

    def test_green_under_other_seeds(self):
        for seed in (1, 2, 3):
            assert run_property_suite(seed).passed

    def test_mutation_names_documented(self):
        assert sorted(MUTATIONS) == ["beta-flip", "d-value-no-gap"]

    def test_d_value_mutation_is_detected(self):
        rep = run_property_suite(DEFAULT_SEED, mutation="d-value-no-gap")
        assert not rep.passed
        assert "constructor-divisor" in rep.failed
        assert "bm-certificate-divisor" in rep.failed

    def test_beta_mutation_is_detected(self):
        rep = run_property_suite(DEFAULT_SEED, mutation="beta-flip")
        assert not rep.passed
        assert "beta-bilinear" in rep.failed

    def test_beta_battery_work_is_linear_in_the_pairs(self, monkeypatch):
        # one inverse per vector and three products per pair, on the collection route
        calls = Counter()
        for name in ("ext_mul", "ext_inv"):
            def counted(*args, _name=name, _f=getattr(worked, name)):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(worked, name, counted)
        passed, detail = worked._battery_beta(random.Random(DEFAULT_SEED), {"beta": beta})
        sizes = [prod(E.orders) for _, E in worked._sample_exts()]
        vectors, pairs = sum(sizes), sum(size * size for size in sizes)
        assert passed and detail == "1162 pairs across 6 extensions" and pairs == 1162
        assert calls["ext_inv"] <= vectors
        assert calls["ext_mul"] <= 3 * pairs

    def test_unknown_mutation_raises(self):
        with pytest.raises(ValidationError):
            run_property_suite(DEFAULT_SEED, mutation="nonsense")
