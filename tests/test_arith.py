"""Exact rational-torsion and prime-field arithmetic."""

import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import divisors, primerange

from helpers import oracle_dlog_in_mu
from ncpbound import arith
from ncpbound.arith import (
    MAX_TRIAL,
    QZ,
    QZ_ZERO,
    PrimeField,
    factorize,
    is_prime,
    is_squarefree,
    legendre,
    mul_order_mod,
    power_class_order,
    primes_upto,
    squarefree_part,
    vp,
)
from ncpbound.errors import ValidationError


class TestQZ:
    def test_normalization(self):
        assert QZ(5, 3) == QZ(2, 3)
        assert QZ(-1, 3) == QZ(2, 3)
        assert QZ(4, 6) == QZ(2, 3)
        assert QZ(7, 7) == QZ_ZERO

    def test_zero_and_order(self):
        assert QZ_ZERO.is_zero()
        assert QZ_ZERO.order == 1
        assert QZ(3, 8).order == 8
        assert QZ(2, 8).order == 4

    def test_add_sub_neg(self):
        assert QZ(1, 2) + QZ(1, 3) == QZ(5, 6)
        assert QZ(1, 2) + QZ(1, 2) == QZ_ZERO
        assert -QZ(1, 3) == QZ(2, 3)
        assert QZ(1, 4) + -QZ(3, 4) == QZ(1, 2)

    def test_scale(self):
        assert QZ(1, 8).scale(4) == QZ(1, 2)
        assert QZ(1, 8).scale(8).is_zero()
        assert QZ(2, 9).scale(-1) == QZ(7, 9)

    def test_parse_and_str(self):
        assert QZ.parse("5/12") == QZ(5, 12)
        assert QZ.parse("3") == QZ_ZERO
        assert str(QZ(5, 12)) == "5/12"
        assert str(QZ_ZERO) == "0/1"
        with pytest.raises(ValidationError):
            QZ.parse("x/y")

    def test_total_order(self):
        assert sorted([QZ(2, 3), QZ(1, 3), QZ_ZERO]) == [QZ_ZERO, QZ(1, 3), QZ(2, 3)]

    @given(st.integers(-50, 50), st.integers(1, 40), st.integers(-50, 50), st.integers(1, 40))
    def test_group_laws(self, a, b, c, d):
        x, y = QZ(a, b), QZ(c, d)
        assert x + y == y + x
        assert (x + y) + -y == x
        assert x + (-x) == QZ_ZERO

    @given(st.integers(-50, 50), st.integers(1, 40))
    def test_order_kills(self, a, b):
        x = QZ(a, b)
        assert x.scale(x.order).is_zero()
        for k in range(1, x.order):
            assert not x.scale(k).is_zero()


class TestIntegerHelpers:
    def test_vp(self):
        assert vp(48, 2) == 4
        assert vp(48, 3) == 1
        assert vp(7, 5) == 0
        with pytest.raises(ValidationError):
            vp(0, 2)

    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(1) == {}
        assert factorize(97) == {97: 1}
        assert factorize(-12) == {2: 2, 3: 1}
        # past the ceiling, but smooth or with a prime cofactor below d^2
        assert factorize(2**40) == {2: 40}
        assert factorize(MAX_TRIAL + 1) == {73: 1, 137: 1, 99990001: 1}
        assert factorize(-2 * 999999999989) == {2: 1, 999999999989: 1}

    def test_is_prime(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert not is_prime(7919 * 7907)
        assert is_prime(7919)

    def test_trial_division_refuses_past_the_ceiling(self):
        # refused once the divisors pass 10^6 with a cofactor of at least d^2
        # left: (10^6+3)(10^6+33) has no factor below 10^6+3, and
        # 99999999999999999989, the largest prime below 10^20, would take
        # minutes to prove
        big = (10**6 + 3) * (10**6 + 33)
        ceiling = f"exceeds the trial-division ceiling {MAX_TRIAL}"
        for n in (big, -big, 99999999999999999989):
            with pytest.raises(ValidationError, match=f"{abs(n)} {ceiling}"):
                factorize(n)
        for n in (big, 99999999999999999989):
            with pytest.raises(ValidationError, match=ceiling):
                is_prime(n)
        assert not is_prime(-big)  # below 2: no division

    def test_primes_upto(self):
        assert list(primes_upto(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert list(primes_upto(1)) == []

    def test_primes_upto_is_a_generator_function(self):
        assert inspect.isgeneratorfunction(arith.primes_upto)

    @pytest.mark.parametrize("bound", range(201))
    def test_primes_upto_matches_sympy(self, bound):
        assert list(primes_upto(bound)) == list(primerange(0, bound + 1))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**5))
    def test_primes_upto_matches_sympy_on_drawn_bounds(self, bound):
        assert list(primes_upto(bound)) == list(primerange(0, bound + 1))

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), bound=st.integers(-5, 3000))
    def test_primes_past_a_lower_end_match_sympy(self, data, bound):
        after = data.draw(st.one_of(st.integers(-50, -1), st.integers(0, 1), st.just(bound),
                                    st.integers(bound + 1, bound + 50),
                                    st.integers(-50, bound + 50)), label="after")
        assert list(primes_upto(bound, after)) == list(primerange(after + 1, bound + 1))

    def test_squarefree(self):
        assert squarefree_part(12) == 3
        assert squarefree_part(-12) == -3
        assert squarefree_part(1) == 1
        assert squarefree_part(-1) == -1
        assert is_squarefree(30)
        assert not is_squarefree(12)

    def test_mul_order_mod(self):
        from ncpbound.arith import mul_order_mod

        assert mul_order_mod(11, 16) == 4
        assert mul_order_mod(3, 32) == 8
        assert mul_order_mod(7, 9) == 3
        assert mul_order_mod(5, 1) == 1
        with pytest.raises(ValidationError):
            mul_order_mod(6, 9)

    def test_legendre(self):
        # quadratic residues mod 7 are 1, 2, 4
        assert [legendre(a, 7) for a in range(1, 7)] == [1, 1, -1, 1, -1, -1]
        assert legendre(7, 7) == 0
        assert legendre(-1, 5) == 1
        assert legendre(-1, 7) == -1
        with pytest.raises(ValidationError):
            legendre(3, 2)


class TestPrimeField:
    def test_mul_order(self):
        assert [mul_order_mod(a, 7) for a in range(1, 7)] == [1, 3, 6, 3, 6, 2]

    def test_primitive_root(self):
        assert PrimeField(7).primitive_root() == 3
        assert PrimeField(11).primitive_root() == 2
        assert PrimeField(2).primitive_root() == 1

    def test_nth_root_of_unity(self):
        F = PrimeField(7)
        z = F.nth_root_of_unity(3)
        assert mul_order_mod(z, 7) == 3
        with pytest.raises(ValidationError):
            F.nth_root_of_unity(5)

    def test_dlog_in_mu(self):
        F = PrimeField(7)
        z = F.nth_root_of_unity(3)
        for k in range(3):
            assert F.dlog_in_mu(pow(z, k, 7), 3) == k
        with pytest.raises(ValidationError):
            F.dlog_in_mu(3, 3)  # 3 has order 6, not in mu_3

    def test_dlog_in_mu_refuses_n_below_1(self):
        F = PrimeField(7)
        for n in (0, -3):
            with pytest.raises(ValidationError, match=f"^n must be at least 1, got {n}$"):
                F.dlog_in_mu(1, n)
            with pytest.raises(ValidationError, match=f"^n must be at least 1, got {n}$"):
                F.nth_root_of_unity(n)

    @pytest.mark.parametrize("q", list(primes_upto(60)))
    def test_dlog_in_mu_matches_the_walk_on_every_residue(self, q):
        # every n | q - 1 (1, 2 and q - 1 among them) and every x mod q:
        # the same log, or the same refusal
        F = PrimeField(q)
        for n in (d for d in range(1, q) if (q - 1) % d == 0):
            for x in range(-1, q + 1):
                try:
                    want = oracle_dlog_in_mu(q, x, n)
                except ValidationError as exc:
                    with pytest.raises(ValidationError, match=f"^{exc}$"):
                        F.dlog_in_mu(x, n)
                else:
                    assert F.dlog_in_mu(x, n) == want

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), q=st.sampled_from(tuple(primes_upto(20000))))
    def test_dlog_in_mu_matches_the_walk_on_drawn_fields(self, data, q):
        n = data.draw(st.sampled_from(divisors(q - 1)), label="n")
        F = PrimeField(q)
        k = data.draw(st.integers(0, n - 1), label="k")
        x = pow(F.nth_root_of_unity(n), k, q) + q * data.draw(st.integers(-2, 2), label="lift")
        assert F.dlog_in_mu(x, n) == oracle_dlog_in_mu(q, x, n) == k
        y = data.draw(st.integers(0, q - 1), label="y")
        if y == 0 or pow(y, n, q) != 1:
            with pytest.raises(ValidationError, match=f"^{y} is not an n-th root of unity in F_{q}$"):
                F.dlog_in_mu(y, n)

    def test_dlog_in_mu_at_a_large_n(self):
        # n = 500001 divides 1000003 - 1; the walk would take up to n steps
        F = PrimeField(1000003)
        z = F.nth_root_of_unity(500001)
        for k in (0, 1, 706, 707, 500000):
            assert F.dlog_in_mu(pow(z, k, 1000003), 500001) == k
        with pytest.raises(ValidationError, match="^2 is not an n-th root of unity"):
            F.dlog_in_mu(2, 500001)

    def test_power_class_order(self):
        # cubes in F_7* are {1, 6}; 2 has residue class of order 3
        assert power_class_order(2, 7, 3) == 3
        assert power_class_order(6, 7, 3) == 1
        assert power_class_order(3, 7, 6) == 6
        assert power_class_order(1, 7, 6) == 1
        # q prime first, then n | q - 1, then a != 0 mod q
        with pytest.raises(ValidationError, match="^8 is not prime$"):
            power_class_order(0, 8, 4)
        with pytest.raises(ValidationError, match="^n = 4 does not divide q - 1 = 6$"):
            power_class_order(0, 7, 4)
        with pytest.raises(ValidationError, match="^0 has no power class$"):
            power_class_order(14, 7, 3)

    def test_power_class_order_refuses_n_below_1(self):
        # n = 0 would divide by zero, and -3 divides q - 1 = 6; q comes first
        for n in (0, -3):
            with pytest.raises(ValidationError, match=f"^n must be at least 1, got {n}$"):
                power_class_order(2, 7, n)
        with pytest.raises(ValidationError, match="^8 is not prime$"):
            power_class_order(2, 8, 0)

    @pytest.mark.parametrize("q", list(primes_upto(200)))
    def test_power_class_order_matches_the_walk(self, q):
        # the order of a^((q-1)/n) in F_q*, walked power by power
        for n in divisors(q - 1):
            for a in range(1, q):
                want = mul_order_mod(pow(a, (q - 1) // n, q), q)
                assert power_class_order(a, q, n) == want, (a, n)

    @given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 30))
    def test_order_divides_group(self, p, a):
        if a % p == 0:
            a += 1
        assert (p - 1) % mul_order_mod(a, p) == 0


class TestSympyOracle:
    """factorize, is_squarefree, legendre, is_prime, primitive roots and
    multiplicative orders against sympy, which the tests use as an
    independent oracle (it is no runtime dependency)."""

    def test_is_prime(self):
        from sympy import isprime

        for n in range(-10, 20001):
            assert is_prime(n) == isprime(n), n

    def test_primitive_root_is_the_least(self):
        from sympy import is_primitive_root, primerange, primitive_root

        for p in primerange(2, 2000):
            g = PrimeField(p).primitive_root()
            assert is_primitive_root(g, p) and g == primitive_root(p), p

    def test_mul_order_mod(self):
        from math import gcd

        from sympy import n_order

        # every unit class mod m twice: once as a negative representative
        for m in range(2, 200):
            for a in range(-m, m):
                if gcd(a, m) == 1:
                    assert mul_order_mod(a, m) == n_order(a, m), (a, m)

    def test_factorize_and_squarefree(self):
        from sympy import factorint

        for a in range(-20000, 20001):
            if a == 0:
                assert not is_squarefree(0)
                continue
            want = factorint(abs(a))
            assert factorize(a) == want, a
            assert is_squarefree(a) == all(e == 1 for e in want.values()), a

    def test_factorize_past_the_ceiling(self):
        from sympy import factorint, nextprime, primerange

        # smooth n up to 10^30, some times a prime cofactor near 10^10, factor
        # as sympy does; a product of two primes just above 10^6 is refused
        rng = random.Random(2)
        small = list(primerange(2, 1000))
        for i in range(200):
            n = 1
            while n * 1000 < 10**30 and rng.random() < 0.95:
                n *= rng.choice(small)
            if i % 20 == 0:
                n *= nextprime(rng.randint(10**9, 10**10))
            assert factorize(n) == factorint(n), n
        for _ in range(3):
            p = nextprime(10**6 + rng.randint(0, 10**4))
            q = nextprime(p + rng.randint(0, 10**4))
            with pytest.raises(ValidationError, match=f"^{p * q} exceeds the trial-division"):
                factorize(p * q)

    def test_legendre(self):
        from sympy import primerange
        from sympy.functions.combinatorial.numbers import legendre_symbol

        # every residue class directly, then a spread out to |a| = 2 * 10^4
        sample = sorted(set(range(-400, 401)) | set(range(-20000, 20001, 7)))
        for p in primerange(3, 200):
            table = [int(legendre_symbol(r, p)) for r in range(p)]
            for a in sample:
                assert legendre(a, p) == table[a % p], (a, p)
