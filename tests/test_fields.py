"""Places, polynomial arithmetic over F_q, and factored rational functions."""

import itertools
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    fqt_mul,
    oracle_monic_irreducibles,
    oracle_residue_symbol_dlog,
    poly_divmod,
    poly_mul,
    poly_pow_mod,
    trusted_fqt,
    unit_residue,
)
from ncpbound import fields
from ncpbound.errors import ValidationError
from ncpbound.fields import (
    QQ,
    FqtElt,
    Place,
    _poly_mod,
    enumerate_places,
    fqt_const,
    fqt_from_factors,
    infinite_place,
    monic_irreducibles,
    poly_is_irreducible,
    poly_place,
    poly_str,
    prime_place,
    rational_function_field,
    real_place,
)

F3 = rational_function_field(3)
F7 = rational_function_field(7)


class TestBaseField:
    def test_constructors(self):
        assert QQ.is_rationals() and QQ.char == 0
        assert F7.char == 7 and not F7.is_rationals()
        assert str(F7) == "F_7(t)"
        with pytest.raises(ValidationError):
            rational_function_field(6)

    def test_q_forbidden_on_rationals(self):
        from ncpbound.fields import BaseField

        with pytest.raises(ValidationError):
            BaseField("Q", q=5)


class TestPolynomials:
    def test_mul(self):
        # (t+1)(t+2) = t^2 + 3t + 2 = t^2 + 2 over F_3
        assert poly_mul((1, 1), (2, 1), 3) == (2, 0, 1)

    def test_divmod(self):
        q, r = poly_divmod((2, 0, 1), (1, 1), 3)
        assert poly_mul (q, (1, 1), 3) == (2, 0, 1) if not r else True
        assert r == ()
        q2, r2 = poly_divmod((1, 0, 1), (1, 1), 3)
        assert r2 != ()

    def test_pow_mod(self):
        # t^3 mod (t^2+1) over F_3: t*t^2 = -t = 2t
        assert poly_pow_mod((0, 1), 3, (1, 0, 1), 3) == (0, 2)

    def test_irreducibility(self):
        assert poly_is_irreducible((1, 0, 1), 3)  # t^2+1 over F_3
        assert not poly_is_irreducible((2, 0, 1), 3)  # (t+1)(t+2)
        assert not poly_is_irreducible((1,), 3)
        assert poly_is_irreducible((3, 1), 7)

    def test_monic_irreducibles_frozen(self):
        # degree 1 over F_3, lexicographic by ascending coefficients
        assert monic_irreducibles(3, 1) == ((0, 1), (1, 1), (2, 1))
        # the three monic irreducible quadratics over F_3
        assert monic_irreducibles(3, 2) == ((1, 0, 1), (2, 1, 1), (2, 2, 1))
        assert len(monic_irreducibles(7, 2)) == (49 - 7) // 2

    def test_poly_str(self):
        assert poly_str((2, 0, 1)) == "t^2+2"
        assert poly_str((0, 1)) == "t"
        assert poly_str((4, 1)) == "t+4"
        assert poly_str(()) == "0"

    @given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    def test_divmod_reconstructs(self, a0, a1, a2, b0):
        a = (a0, a1, a2, 1)
        b = (b0, 1)
        q, r = poly_divmod(a, b, 3)
        from ncpbound.fields import poly_trim

        lhs = [c % 3 for c in poly_mul(q, b, 3)] + [0] * 4
        for i, c in enumerate(r):
            lhs[i] = (lhs[i] + c) % 3
        assert poly_trim(lhs) == a
        assert _poly_mod(a, b, 3) == r


class TestSieve:
    """monic_irreducibles sieves; trial division and sympy are the oracles."""

    # at (11, 4) and (101, 2) a packed product digit may reach 300 and
    # 20000: past one byte
    @pytest.mark.parametrize("q, top", [(2, 8), (3, 5), (5, 4), (7, 4), (13, 2), (11, 4),
                                        (101, 2)])
    def test_matches_trial_division(self, q, top):
        for d in range(1, top + 1):
            assert monic_irreducibles(q, d) == oracle_monic_irreducibles(q, d)

    def test_refuses_a_q_that_is_not_prime(self, monkeypatch):
        # sieving over Z/4 would read as a failed count check, not bad input
        monkeypatch.setattr(fields, "_irreducible_cache", {})
        with pytest.raises(ValidationError, match="^4 is not prime$"):
            monic_irreducibles(4, 2)
        assert fields._irreducible_cache == {}

    def test_refuses_a_degree_below_1(self, monkeypatch):
        monkeypatch.setattr(fields, "_irreducible_cache", {})
        for d in (0, -1):
            with pytest.raises(ValidationError, match=f"^degree must be at least 1, got {d}$"):
                monic_irreducibles(7, d)
        assert fields._irreducible_cache == {}

    def test_irreducibility_refuses_a_q_that_is_not_prime(self):
        # t + 1 has no divisor to try, so only the check on q refuses it
        for a in ((1, 1), (1,), (1, 0, 1)):
            with pytest.raises(ValidationError, match="^4 is not prime$"):
                poly_is_irreducible(a, 4)

    def test_sympy_agrees_on_members_and_non_members(self):
        from itertools import product

        from sympy import Poly, symbols

        t = symbols("t")
        members = set(monic_irreducibles(7, 3))
        for lower in product(range(7), repeat=3):
            c = lower + (1,)
            assert Poly(list(reversed(c)), t, modulus=7).is_irreducible == (c in members)

    def test_trial_division_reads_the_sieve(self):
        for d in range(1, 5):
            for c in monic_irreducibles(7, d):
                assert poly_is_irreducible(c, 7)
        assert not poly_is_irreducible(poly_mul((1, 0, 1), (2, 1), 3), 3)


def _sympy_resultant(a, b, q):
    """Res(a, b) mod q from sympy.  sympy 1.14's resultant drops the sign
    (-1)^(deg a * deg b) when deg a < deg b and the product of the degrees
    is odd (seen at degrees (1, 3), (1, 5), (3, 5)), so that case reads the
    determinant of the Sylvester matrix instead."""
    from sympy import resultant, symbols
    from sympy.polys.subresultants_qq_zz import sylvester

    t = symbols("t")
    f, g = (sum(c * t**i for i, c in enumerate(p)) for p in (a, b))
    if len(a) >= len(b):
        return int(resultant(f, g, t, modulus=q)) % q
    return int(sylvester(f, g, t).det()) % q


class TestResidueSymbol:
    """residue_symbol_dlog reads the symbol as a norm (resultants in F_q);
    the unit residue raised to (N - 1)/n in F_q[t]/(P) is the oracle."""

    @staticmethod
    def _elements(q):
        lin, quad, cub = (monic_irreducibles(q, d) for d in (1, 2, 3))
        return [
            fqt_const(q, q - 1),
            fqt_const(q, 2),  # not a square mod 5, 7 or 13
            fqt_from_factors(q, 3, [(lin[0], 1), (lin[-1], -2), (quad[0], 1)]),
            fqt_from_factors(q, 1, [(quad[-1], -1), (cub[0], 2), (cub[-1], -3)]),
        ]

    @pytest.mark.parametrize("q, ns", [(7, (2, 3, 6)), (13, (2, 3, 4, 6, 12)), (5, (2, 4))])
    def test_matches_unit_residue_power(self, q, ns):
        places = list(enumerate_places(rational_function_field(q), q**3))
        assert sum(P.kind == "inf" for P in places) == 1
        for x in self._elements(q):
            for P in places:
                for n in ns:
                    assert x.residue_symbol_dlog(P, n) == oracle_residue_symbol_dlog(x, P, n)

    def test_constant_reads_its_power_of_the_degree(self):
        # 3 is not a square mod 7, but 3^2 is: the norm of the constant 3
        # from F_49 is 9
        three = fqt_const(7, 3)
        assert three.residue_symbol_dlog(poly_place(7, (6, 1)), 2) == 1
        assert three.residue_symbol_dlog(poly_place(7, (1, 0, 1)), 2) == 0
        assert three.residue_symbol_dlog(infinite_place(7), 2) == 1

    def test_the_place_factor_is_skipped(self):
        P = poly_place(7, (1, 0, 1))
        for e in (-2, -1, 1, 3):
            x = fqt_from_factors(7, 3, [((1, 0, 1), e), ((0, 1), 1)])
            for n in (2, 3, 6):
                assert x.residue_symbol_dlog(P, n) == oracle_residue_symbol_dlog(x, P, n)

    def test_mu_n_must_inject(self):
        with pytest.raises(ValidationError, match="mu_n does not inject into the residue field"):
            fqt_const(7, 3).residue_symbol_dlog(poly_place(7, (0, 1)), 4)

    def test_resultant_matches_sympy(self):
        from ncpbound.fields import _resultant

        polys = [c for d in (1, 2, 3) for c in monic_irreducibles(5, d)[:4]]
        polys += [(3,), (0, 2), (1, 0, 4), (2, 3, 0, 1), (4, 1, 1, 0, 3)]
        for a in polys:
            for b in polys:
                assert _resultant(a, b, 5) == _sympy_resultant(a, b, 5), (a, b)
        assert _resultant((1, 1), (2, 2), 5) == 0  # a common root at t = -1

    @given(st.sampled_from([2, 3, 7, 13]), st.lists(st.integers(0, 12), min_size=1, max_size=6),
           st.lists(st.integers(0, 12), min_size=1, max_size=6))
    def test_resultant_matches_sympy_on_random_pairs(self, q, a, b):
        from ncpbound.fields import _poly_normalize, _resultant

        a, b = _poly_normalize(a, q), _poly_normalize(b, q)
        if a and b:
            assert _resultant(a, b, q) == _sympy_resultant(a, b, q)


@st.composite
def _poly_and_field(draw):
    """q in {2, 3, 5, 7, 13} and a polynomial over F_q of degree 0 to 8."""
    q = draw(st.sampled_from([2, 3, 5, 7, 13]))
    lower = draw(st.lists(st.integers(0, q - 1), max_size=8))
    return q, (*lower, draw(st.integers(1, q - 1)))


@settings(deadline=None)
@given(_poly_and_field())
def test_resultant_at_a_monic_linear_factor_matches_sympy(qa):
    # Res(a, t + b0) = (-1)^(deg a) * a(-b0), at every b0
    from ncpbound.fields import _resultant

    q, a = qa
    for b0 in range(q):
        assert _resultant(a, (b0, 1), q) == _sympy_resultant(a, (b0, 1), q), (a, b0)


class TestPlaces:
    def test_rational_places(self):
        assert prime_place(7).norm() == 7
        assert str(real_place()) == "real"
        with pytest.raises(ValidationError):
            prime_place(6)
        with pytest.raises(ValidationError):
            real_place().norm()

    def test_function_field_places(self):
        P = poly_place(3, (0, 1))
        assert P.norm() == 3 and P.degree == 1
        assert infinite_place(3).norm() == 3
        assert poly_place(3, (1, 0, 1)).norm() == 9
        with pytest.raises(ValidationError):
            poly_place(3, (2, 0, 1))  # reducible
        with pytest.raises(ValidationError):
            poly_place(3, (0, 2))  # not monic

    def test_place_coeff_normalization(self):
        assert poly_place(3, (4, 1)) == poly_place(3, (1, 1))

    def test_residue_norm(self):
        assert poly_place(7, (4, 1)).norm() == 7
        assert infinite_place(7).norm() == 7

    def test_enumerate_places_rationals(self):
        ps = list(enumerate_places(QQ, 10))
        assert [p.p for p in ps] == [2, 3, 5, 7]
        assert all(P.kind == "prime" for P in enumerate_places(QQ, 3))

    def test_enumerate_places_function_field(self):
        ps = list(enumerate_places(F3, 3))
        assert [str(p) for p in ps] == ["(t)", "(t+1)", "(t+2)", "inf"]
        ps9 = list(enumerate_places(F3, 9))
        assert len(ps9) == 4 + 3  # three quadratics join
        assert ps9[:4] == ps

    def test_enumerate_places_emits_in_sort_key_order(self):
        for base, bound in ((QQ, 30), (F3, 27), (F7, 49)):
            keys = [P.sort_key() for P in enumerate_places(base, bound)]
            assert keys == sorted(keys)


class TestFqtElt:
    def test_normalization(self):
        x = FqtElt(3, 5, (((0, 1), 2),))
        assert x.c == 2
        y = fqt_from_factors(7, 1, [((0, 1), 1), ((6, 1), 0)])
        assert y.factors == (((0, 1), 1),)
        with pytest.raises(ValidationError):
            FqtElt(3, 3, ())
        with pytest.raises(ValidationError):
            fqt_from_factors(3, 1, [((2, 0, 1), 1)])  # reducible factor

    def test_valuations(self):
        # x = 2 * t^2 * (t+1)^-1 over F_3
        x = fqt_from_factors(3, 2, [((0, 1), 2), ((1, 1), -1)])
        assert x.valuation(poly_place(3, (0, 1))) == 2
        assert x.valuation(poly_place(3, (1, 1))) == -1
        assert x.valuation(poly_place(3, (2, 1))) == 0
        assert x.valuation(infinite_place(3)) == -1  # deg = 2 - 1

    def test_mul_pow(self):
        t = fqt_from_factors(3, 1, [((0, 1), 1)])
        t2 = fqt_mul(t, t)
        assert t2.valuation(poly_place(3, (0, 1))) == 2
        assert t.pow(2) == t2
        assert t.pow(-1).valuation(infinite_place(3)) == 1
        inv = fqt_mul(t, t.pow(-1))
        assert inv == fqt_const(3, 1)

    def test_unit_residue_finite(self):
        # (t-1)(t-2) at (t): residue is (-1)(-2) = 2 over F_7
        x = fqt_from_factors(7, 1, [((6, 1), 1), ((5, 1), 1)])
        assert unit_residue(x, poly_place(7, (0, 1))) == (2,)
        # t at (t): unit part is 1 w.r.t. uniformizer t
        t = fqt_from_factors(7, 1, [((0, 1), 1)])
        assert unit_residue(t, poly_place(7, (0, 1))) == (1,)

    def test_unit_residue_infinity(self):
        x = fqt_from_factors(7, 3, [((0, 1), 2)])
        assert unit_residue(x, infinite_place(7)) == 3

    def test_residue_symbol_dlog(self):
        # cubes in F_7* are {1,6}; smallest primitive root is 3, zeta_3 = 3^2 = 2
        t = fqt_from_factors(7, 1, [((0, 1), 1)])
        P = poly_place(7, (4, 1))  # t+4, i.e. t = -4 = 3, a non-cube
        d = t.residue_symbol_dlog(P, 3)
        assert d in (1, 2)
        # 3^((7-1)/3) = 9 = 2 = zeta^1
        assert d == 1
        six = fqt_const(7, 6)
        assert six.residue_symbol_dlog(P, 3) == 0  # 6 is a cube mod 7

    def test_is_nth_power(self):
        t = fqt_from_factors(7, 1, [((0, 1), 1)])
        assert not t.is_nth_power(3)
        assert t.pow(3).is_nth_power(3)
        assert fqt_const(7, 6).is_nth_power(3)
        assert not fqt_const(7, 2).is_nth_power(3)

    def test_class_order(self):
        t = fqt_from_factors(7, 1, [((0, 1), 1)])
        assert t.class_order(3) == 3
        assert fqt_const(7, 6).class_order(3) == 1
        assert fqt_const(7, 2).class_order(3) == 3
        x = fqt_from_factors(7, 1, [((0, 1), 3)])
        assert x.class_order(3) == 1

    def test_str(self):
        assert str(fqt_const(3, 2)) == "2"
        assert str(fqt_from_factors(3, 1, [((0, 1), 2)])) == "(t)^2"


class TestResidueRep:
    def test_function_field(self):
        x = fqt_from_factors(7, 1, [((6, 1), 1)])  # t - 1
        assert x.valuation(poly_place(7, (5, 1))) == 0
        assert unit_residue(x, poly_place(7, (5, 1))) == (1,)  # at t=-5=2: 2-1=1
        assert x.valuation(poly_place(7, (6, 1))) == 1  # zero at t=1
        assert x.pow(-1).valuation(poly_place(7, (6, 1))) == -1  # pole at t=1


class TestTrustedPlaces:
    """enumerate_places builds its places without re-validation; each must
    equal the validated place a user would name, and an independent oracle
    (sympy) must agree that it is a place at all."""

    def test_rational_places_match_validated_twins(self):
        from sympy import isprime, primerange

        finite = list(enumerate_places(QQ, 10**4))
        assert [P.p for P in finite] == list(primerange(2, 10**4 + 1))
        for P in finite:
            twin = prime_place(P.p)
            assert P == twin and hash(P) == hash(twin)
            assert isprime(P.p)

    def test_function_field_places_match_validated_twins(self):
        from itertools import product

        from sympy import Poly, symbols

        t = symbols("t")

        def sympy_irreducible(coeffs):
            return Poly(list(reversed(coeffs)), t, modulus=7).is_irreducible

        places = list(enumerate_places(F7, 7**3))
        assert places[7] == infinite_place(7) and hash(places[7]) == hash(infinite_place(7))
        polys = [P for P in places if P.kind == "poly"]
        assert len(polys) == len(places) - 1
        for P in polys:
            twin = poly_place(7, P.coeffs)
            assert P == twin and hash(P) == hash(twin)
            assert sympy_irreducible(P.coeffs)
        # and no monic irreducible of degree <= 3 is missing
        expected = {
            lower + (1,)
            for d in (1, 2, 3)
            for lower in product(range(7), repeat=d)
            if sympy_irreducible(lower + (1,))
        }
        assert {P.coeffs for P in polys} == expected

    def test_batch_built_places_match_validated_twins(self, fresh_places):
        walked = list(enumerate_places(QQ, 600)) + list(enumerate_places(F7, 7**2))
        twins = [prime_place(P.p) if P.kind == "prime" else
                 infinite_place(7) if P.kind == "inf" else poly_place(7, P.coeffs)
                 for P in walked]
        assert len(walked) == 109 + 7 + 1 + 21
        for P, twin in zip(walked, twins):
            assert P == twin and hash(P) == hash(twin) and repr(P) == repr(twin)

    def test_batch_built_places_share_their_dict_keys(self):
        # fields set one by one, in field order, keep the key-sharing
        # instance dict of a fresh class; a dict filled by update() holds its
        # own keys and took 1.75 times the memory.  sys.getsizeof cannot tell
        # the two apart: it reports the split dict as the larger one.
        from sympy import primerange

        primes = list(primerange(2, 4000))

        class Fresh:
            pass

        def fresh_places():
            out = []
            for p in primes:
                place = Fresh()
                place.base, place.kind, place.p, place.coeffs = QQ, "prime", p, None
                place._hash = hash((QQ, "prime", p, None))
                out.append(place)
            return out

        def live_bytes(build):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                built = build()
                return tracemalloc.get_traced_memory()[0] - before, built
            finally:
                tracemalloc.stop()

        trusted, places = live_bytes(lambda: fields._trusted_places(QQ, "prime", primes))
        shared, _ = live_bytes(fresh_places)
        assert [P.p for P in places] == primes
        assert trusted <= 1.1 * shared

    def test_user_places_are_still_validated(self):
        from ncpbound.jsonio import parse_place_text, place_from_json

        with pytest.raises(ValidationError):
            prime_place(91)  # 7 * 13
        with pytest.raises(ValidationError):
            poly_place(7, (6, 0, 1))  # t^2 - 1 = (t - 1)(t + 1)
        with pytest.raises(ValidationError):
            parse_place_text(QQ, "91")
        with pytest.raises(ValidationError):
            parse_place_text(F7, "t^2+6")
        with pytest.raises(ValidationError):
            place_from_json({"kind": "prime", "p": 91})
        with pytest.raises(ValidationError):
            place_from_json({"kind": "poly", "q": 7, "coeffs": [6, 0, 1]})
        with pytest.raises(ValidationError):
            Place(F7, "poly", coeffs=(6, 0, 1))


class TestStoredPlaceHash:
    """Place hashes once, in both constructors; the stored hash is invisible
    to equality, the repr and the JSON encoding."""

    @staticmethod
    def _twins():
        """(validated, trusted) pairs of each kind of place."""
        trusted = {(P.kind, P.p, P.coeffs): P
                   for base, bound in ((QQ, 50), (F7, 49)) for P in enumerate_places(base, bound)}
        validated = [prime_place(2), prime_place(47), poly_place(7, (0, 1)),
                     poly_place(7, monic_irreducibles(7, 2)[-1]), infinite_place(7)]
        return [(P, trusted[P.kind, P.p, P.coeffs]) for P in validated]

    def test_both_constructors_compare_and_hash_equal(self):
        for P, twin in self._twins() + [(real_place(), real_place())]:
            assert P is not twin and P == twin and hash(P) == hash(twin)
            assert hash(P) == hash((P.base, P.kind, P.p, P.coeffs))
            assert hash(twin) == hash((twin.base, twin.kind, twin.p, twin.coeffs))

    def test_different_places_differ(self):
        assert prime_place(3) != prime_place(5) and prime_place(3) != real_place()
        assert poly_place(7, (0, 1)) != poly_place(7, (1, 1)) != infinite_place(7)

    def test_stored_hash_is_not_compared_shown_or_encoded(self):
        import dataclasses

        from ncpbound.jsonio import to_json

        for P, twin in self._twins():
            object.__setattr__(twin, "_hash", P._hash + 1)
            try:
                assert P == twin
                assert "_hash" not in repr(P) and str(P._hash) not in repr(P)
                encoded = to_json(P)
                assert "_hash" not in encoded and P._hash not in encoded.values()
            finally:
                object.__setattr__(twin, "_hash", P._hash)  # a shared place
        stored = next(f for f in dataclasses.fields(Place) if f.name == "_hash")
        assert not (stored.init or stored.compare or stored.repr)


@pytest.fixture
def fresh_places(monkeypatch):
    """Empty shared place lists, as in a new process; restored afterwards."""
    monkeypatch.setattr(fields, "_primes", SimpleNamespace(places=[], end=1))
    monkeypatch.setattr(fields, "_degree_places", {})


def _walk_with_inner(outer_base, outer_bound, inner_base, inner_bound, at):
    """Walk to outer_bound; after `at` places, run a whole inner walk."""
    outer, inner = [], None
    for P in enumerate_places(outer_base, outer_bound):
        outer.append(P)
        if len(outer) == at:
            inner = list(enumerate_places(inner_base, inner_bound))
    return outer, inner


def _expected_fqt(q, bound):
    out, d = [], 1
    while q**d <= bound:
        out += [("poly", c) for c in oracle_monic_irreducibles(q, d)]
        if d == 1:
            out.append(("inf", None))
        d += 1
    return out


class TestSharedPlaces:
    """Every walk in a process yields from the same place lists: in order,
    without duplicates, however the walks nest or interleave."""

    @pytest.mark.parametrize("outer, inner", [(5_000, 20_000), (20_000, 5_000)])
    def test_nested_walks_over_q(self, fresh_places, outer, inner):
        from sympy import primerange

        fresh = list(enumerate_places(QQ, outer))
        assert [P.p for P in fresh] == list(primerange(2, outer + 1))
        fields._primes.places.clear()
        fields._primes.end = 1
        got_outer, got_inner = _walk_with_inner(QQ, outer, QQ, inner, len(fresh) // 2)
        assert [P.p for P in got_outer] == list(primerange(2, outer + 1))
        assert [P.p for P in got_inner] == list(primerange(2, inner + 1))
        assert [P.p for P in fields._primes.places] == list(primerange(2, fields._primes.end + 1))

    def test_growing_walks_over_q(self, fresh_places):
        from sympy import primerange

        # prime bounds end the list on a prime, which the next chunk must not repeat
        for bound in (2, 3, 13, 127, 1_009, 7_919, 20_000, 10):
            assert [P.p for P in enumerate_places(QQ, bound)] == list(primerange(2, bound + 1))
        assert [P.p for P in fields._primes.places] == list(primerange(2, 20_001))

    def test_lockstep_walks_over_q(self, fresh_places):
        from itertools import zip_longest

        from sympy import primerange

        a, b = [], []
        for P, R in zip_longest(enumerate_places(QQ, 3_000), enumerate_places(QQ, 9_000)):
            a += [P] if P else []
            b.append(R)
        assert [P.p for P in a] == list(primerange(2, 3_001))
        assert [P.p for P in b] == list(primerange(2, 9_001))

    @pytest.mark.parametrize("outer, inner", [(7**3, 7**4), (7**4, 7**3)])
    def test_nested_walks_over_function_field(self, fresh_places, outer, inner):
        def kinds(places):
            return [(P.kind, P.coeffs) for P in places]

        got_outer, got_inner = _walk_with_inner(F7, outer, rational_function_field(7), inner, 30)
        assert kinds(got_outer) == _expected_fqt(7, outer)
        assert kinds(got_inner) == _expected_fqt(7, inner)

    @pytest.mark.parametrize("q, bound", [(None, 2_000), (7, 7**3)])
    def test_walks_yield_the_same_objects(self, q, bound):
        # a second, equal base object reads the same lists
        bases = (QQ, QQ) if q is None else (rational_function_field(q), rational_function_field(q))
        first, again = (list(enumerate_places(base, bound)) for base in bases)
        assert len(first) == len(again) and all(P is R for P, R in zip(first, again))

    def test_cached_places_equal_validated_twins(self, fresh_places):
        list(enumerate_places(QQ, 3_000))
        list(enumerate_places(F3, 3**4))
        assert fields._primes.places
        for P in fields._primes.places:
            twin = prime_place(P.p)
            assert P == twin and hash(P) == hash(twin)
        for (q, _), places in fields._degree_places.items():
            for P in places:
                twin = infinite_place(q) if P.kind == "inf" else poly_place(q, P.coeffs)
                assert P == twin and hash(P) == hash(twin)

    @pytest.mark.parametrize("stop", [2, 61, 1_000, 4_099])
    def test_early_stop_bounds_the_q_list(self, fresh_places, stop):
        # the bound has no cap; only the places a walk reaches are built
        for P in enumerate_places(QQ, 10**12):
            if P.p >= stop:
                break
        ceiling = max(2 * P.p, fields._FIRST_PRIME_CHUNK)
        assert fields._primes.end <= ceiling
        assert fields._primes.places[-1].p <= ceiling

    def test_early_stop_builds_no_higher_degree(self, fresh_places):
        for P in enumerate_places(F7, 7**9):
            if P.degree == 2:
                break
        assert set(fields._degree_places) == {(7, 1), (7, 2)}


class TestSieveCeiling:
    """Validating a polynomial sieves q^(deg/2) monics; past MAX_SIEVE the
    input is refused before any sieve or coefficient tuple is built."""

    def test_inside_the_ceiling_is_validated(self):
        assert poly_place(7, (3, 2) + (0,) * 8 + (1,)).degree == 10  # 7^5 monics
        with pytest.raises(ValidationError, match="not a monic irreducible"):
            poly_place(7, (3,) + (0,) * 9 + (1,))

    @pytest.mark.parametrize("q, degree", [(7, 12), (2, 40), (317, 4), (100_003, 2), (10**9 + 7, 3)])
    def test_past_the_ceiling_is_refused(self, q, degree):
        with pytest.raises(ValidationError, match="out of range"):
            poly_place(q, (1,) * degree + (1,))
        with pytest.raises(ValidationError, match="out of range"):
            fqt_from_factors(q, 1, [((1,) * degree + (1,), 1)])

    def test_text_with_a_huge_degree_is_refused_before_it_is_built(self):
        from ncpbound.jsonio import parse_place_text

        with pytest.raises(ValidationError, match="out of range"):
            parse_place_text(F7, "t^999999999999+1")


class TestTrustedElements:
    """The fqt_mul helper builds its products without re-validation; each,
    and each power FqtElt.pow builds through the validating constructor,
    must equal the validated element a user would name, and elements a user
    names are still validated on every entry point."""

    @staticmethod
    def _pool(q):
        t, t1 = fqt_from_factors(q, 1, [((0, 1), 1)]), fqt_from_factors(q, 1, [((1, 1), 1)])
        quad = fqt_from_factors(q, 2, [(monic_irreducibles(q, 2)[0], 2), ((0, 1), -1)])
        return [fqt_const(q, 1), fqt_const(q, q - 1), t, t1, t.pow(-2), quad, fqt_mul(quad, t1)]

    @pytest.mark.parametrize("q", [3, 7])
    def test_products_and_powers_match_validated_twins(self, q):
        pool = self._pool(q)
        products = [fqt_mul(a, b) for a in pool for b in pool]
        results = [a.pow(k) for a in products for k in range(-3, 4)]
        for r in results:
            twin = FqtElt(r.q, r.c, r.factors)
            assert r == twin and hash(r) == hash(twin)
        # powers agree with repeated products, and with the inverse at k = -1
        for a in pool:
            acc = fqt_const(q, 1)
            for k in range(4):
                assert a.pow(k) == acc
                assert fqt_mul(a.pow(-k), acc) == fqt_const(q, 1)
                acc = fqt_mul(acc, a)

    @pytest.mark.parametrize("q", [3, 7])
    def test_helper_products_match_the_validating_constructor(self, q):
        pool = self._pool(q)
        for a, b in itertools.product(pool, repeat=2):
            exps = dict(a.factors)
            for poly, e in b.factors:
                exps[poly] = exps.get(poly, 0) + e
            twin = FqtElt(q, a.c * b.c, tuple(exps.items()))
            product = fqt_mul(a, b)
            assert product == twin and 0 < product.c < q
            assert all(e for _, e in product.factors)
            assert list(product.factors) == sorted(product.factors)
        # a factor the helper has not seen is still proved irreducible
        bad = trusted_fqt(7, 1, (((6, 0, 1), 1),))  # (t - 1)(t + 1)
        with pytest.raises(ValidationError):
            fqt_mul(bad, fqt_const(7, 1))

    def test_user_factors_are_still_validated(self):
        from ncpbound.jsonio import ext_from_json, fqt_from_json, parse_fqt_text

        reducible, non_monic = (6, 0, 1), (2, 2)  # (t - 1)(t + 1) and 2(t + 1)
        for coeffs, text in ((reducible, "(t^2+6)"), (non_monic, "(2t+2)")):
            rows = [[list(coeffs), 1]]
            with pytest.raises(ValidationError):
                FqtElt(7, 1, ((coeffs, 1),))
            with pytest.raises(ValidationError):
                fqt_from_factors(7, 1, [(coeffs, 1)])
            with pytest.raises(ValidationError):
                parse_fqt_text(text, 7)
            with pytest.raises(ValidationError):
                fqt_from_json(text, 7)
            with pytest.raises(ValidationError):
                fqt_from_json({"c": 1, "factors": rows}, 7)
            with pytest.raises(ValidationError):
                ext_from_json({"base": {"kind": "Fq", "q": 7}, "n": 3,
                               "radicands": [{"factors": rows}]})
        with pytest.raises(ValidationError):
            fqt_const(7, 14)  # not a unit
        with pytest.raises(ValidationError):
            fqt_const(9, 1)  # 9 is not prime
