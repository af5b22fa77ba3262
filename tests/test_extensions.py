"""Radical extensions: construction, local splitting data, place searches.

Local degrees, ramification, and Frobenius values asserted here were computed
by hand from quadratic residue symbols and valuation/unit-class images of the
radicands in the local square (or n-th power) class groups.
"""

import itertools
import operator
from math import lcm, prod

import pytest
from hypothesis import given, reject, settings, strategies as st

from helpers import fqt_mul, sigma_order
from ncpbound import brauer, covers, extensions, worked
from ncpbound.arith import factorize, is_squarefree, prime_field, squarefree_part, vp
from ncpbound.errors import SearchExhausted, ValidationError
from ncpbound.extensions import (
    AbExt,
    _frobenius_reader,
    build_extension,
    constant_classes,
    constant_field_degree,
    cyclotomic_degree,
    cyclotomic_members,
    find_places_with_frobenius,
    gal_exponent,
    gal_fixing_cyclotomic,
    gal_identity,
    galois_group,
    is_real_field,
    local_data,
    local_degree,
    pairing,
    qsigma_search,
    r_value,
    radicand_class,
    ramified_places,
    require_chi_order,
    restriction_order_to_cyclotomic,
    roots_of_unity_s,
    s0_search,
    span_squarefree,
    validate_sigma,
    w_exponents,
)
from ncpbound.fields import (
    QQ,
    FqtElt,
    enumerate_places,
    first_places,
    fqt_const,
    fqt_from_factors,
    infinite_place,
    monic_irreducibles,
    poly_place,
    prime_place,
    rational_function_field,
    real_place,
)
from ncpbound.worked import run_prop42

F3 = rational_function_field(3)
F7 = rational_function_field(7)

T_ = (0, 1)  # the polynomial t, ascending coefficients


def q_ext(*radicands):
    return build_extension(QQ, 2, radicands)


def ff7_cubic():
    t = fqt_from_factors(7, 1, [(T_, 1)])
    g = fqt_from_factors(7, 1, [((6, 1), 1), ((5, 1), 1)])  # (t-1)(t-2)
    return build_extension(F7, 3, (t, g))


def ff3_quad():
    t = fqt_from_factors(3, 1, [(T_, 1)])
    g = fqt_from_factors(3, 1, [((2, 1), 1), ((1, 1), 1)])  # (t-1)(t-2)
    return build_extension(F3, 2, (t, g))


class TestConstruction:
    def test_basic(self):
        M = q_ext(3, -7)
        assert M.degree == 4
        assert M.orders == (2, 2)
        assert "Q" in M.describe()

    def test_orders_are_not_an_argument(self):
        # computed from the radicands; a passed value used to be dropped silently
        with pytest.raises(TypeError):
            AbExt(QQ, 2, (3,), (9,))
        with pytest.raises(TypeError):
            AbExt(QQ, 2, (3,), orders=(9,))

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValidationError):
            q_ext(3, 12)

    def test_rejects_dependent(self):
        with pytest.raises(ValidationError):
            q_ext(3, -7, -21)
        with pytest.raises(ValidationError):
            q_ext(2, 3, 6)

    def test_rejects_trivial(self):
        with pytest.raises(ValidationError):
            q_ext(1)
        with pytest.raises(ValidationError):
            q_ext(0)

    def test_rejects_higher_n_over_q(self):
        with pytest.raises(ValidationError):
            build_extension(QQ, 3, (2,))

    def test_function_field(self):
        M = ff7_cubic()
        assert M.degree == 9
        assert M.orders == (3, 3)

    def test_rejects_bad_n_over_fq(self):
        t = fqt_from_factors(7, 1, [(T_, 1)])
        with pytest.raises(ValidationError):
            build_extension(F7, 4, (t,))  # 4 does not divide 6

    def test_rejects_nth_power_radicand(self):
        cube = fqt_from_factors(7, 1, [(T_, 3)])
        with pytest.raises(ValidationError):
            build_extension(F7, 3, (cube,))
        with pytest.raises(ValidationError):
            build_extension(F7, 3, (fqt_const(7, 6),))  # 6 is a cube mod 7

    def test_rejects_dependent_fq(self):
        t = fqt_from_factors(7, 1, [(T_, 1)])
        t2 = fqt_from_factors(7, 1, [(T_, 2)])
        with pytest.raises(ValidationError):
            build_extension(F7, 3, (t, t2))

    def test_build_requires_full_order(self):
        # constant 2 has class order 3 in F_7*/(F_7*)^6, not 6
        with pytest.raises(ValidationError):
            build_extension(F7, 6, (fqt_const(7, 2),))

    def test_mixed_orders_via_abext(self):
        t = fqt_from_factors(7, 1, [(T_, 1)])
        M = AbExt(F7, 6, (t, fqt_const(7, 2)))
        assert M.orders == (6, 3)
        assert M.degree == 18
        assert gal_exponent(M) == 6


def _validation_oracle(base, n, radicands):
    """What AbExt validation decided before class vectors, by brute force.

    The per-radicand checks use is_squarefree over Q and FqtElt.class_order
    over F_q(t); independence multiplies the radicands out for every nonzero
    exponent tuple, in enumeration order, and asks whether the product is an
    n-th power.  Returns the orders, or the ValidationError message.
    """
    try:
        if n < 2:
            raise ValidationError("n must be at least 2")
        if base.is_rationals():
            if n != 2:
                raise ValidationError("over Q only square roots are supported")
            for f in radicands:
                if not isinstance(f, int) or f in (0, 1):
                    raise ValidationError(f"bad radicand over Q: {f!r}")
                if not is_squarefree(f):
                    raise ValidationError(f"radicand {f} is not squarefree")
            orders = tuple(2 for _ in radicands)
            one, is_power = 1, lambda w: squarefree_part(w) == 1
            mul = operator.mul
        else:
            q = base.q
            if (q - 1) % n != 0:
                raise ValidationError(f"n = {n} does not divide q - 1 = {q - 1}")
            orders = []
            for f in radicands:
                if not isinstance(f, FqtElt) or f.q != q:
                    raise ValidationError(f"bad radicand over {base}: {f!r}")
                o = f.class_order(n)
                if o == 1:
                    raise ValidationError(f"radicand {f} is already an n-th power")
                orders.append(o)
            orders = tuple(orders)
            one, is_power = fqt_const(q, 1), lambda w: w.is_nth_power(n)
            mul = fqt_mul

        def first_power(i, acc, prefix):
            # depth-first in itertools.product order, carrying the product:
            # acc * r_i^e is one mul from acc * r_i^(e-1)
            if i == len(orders):
                return prefix if any(prefix) and is_power(acc) else None
            for e in range(orders[i]):
                if e:
                    acc = mul(acc, radicands[i])
                hit = first_power(i + 1, acc, prefix + (e,))
                if hit is not None:
                    return hit
            return None

        e = first_power(0, one, ())
        if e is not None:
            raise ValidationError(f"radicand classes are dependent at exponents {e}")
    except ValidationError as exc:
        return str(exc)
    return orders


def _validation_outcome(base, n, radicands):
    try:
        return AbExt(base, n, tuple(radicands)).orders
    except ValidationError as exc:
        return str(exc)


def _subsets(pool, size):
    return [c for k in range(size + 1) for c in itertools.combinations(pool, k)]


class TestClassVectorValidation:
    """AbExt decides independence from per-radicand class vectors; the
    brute-force oracle above must reach the same outcome, orders and
    message on every subset of size <= 4 of each pool."""

    def test_rationals_match_oracle(self):
        pool = [-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 21, -21]
        outcomes = set()
        for rads in _subsets(pool, 4):
            got = _validation_outcome(QQ, 2, rads)
            assert got == _validation_oracle(QQ, 2, rads), rads
            outcomes.add(type(got))
        assert outcomes == {tuple, str}

    def test_rationals_bad_radicands_match_oracle(self):
        pool = [3, -1, 0, 1, 12, -8, "5", 2.0, 6]
        for rads in _subsets(pool, 3):
            assert _validation_outcome(QQ, 2, rads) == _validation_oracle(QQ, 2, rads), rads
        for n in (1, 3):
            assert _validation_outcome(QQ, n, (2,)) == _validation_oracle(QQ, n, (2,))

    @staticmethod
    def _fq_pool(q, constants, irreducibles):
        consts = [fqt_const(q, c) for c in constants]
        polys = [fqt_from_factors(q, 1, [(p, 1)]) for p in irreducibles]
        return consts + polys + [fqt_from_factors(q, 1, [(T_, 3)])]

    def _match_oracle(self, base, n, pool, size):
        outcomes = set()
        for rads in _subsets(pool, size):
            got = _validation_outcome(base, n, rads)
            assert got == _validation_oracle(base, n, rads), (n, rads)
            outcomes.add(got if isinstance(got, str) else "ok")
        assert "ok" in outcomes
        assert any("dependent" in o for o in outcomes)
        trivial = any(f.class_order(n) == 1 for f in pool)
        assert any("already an n-th power" in o for o in outcomes) == trivial

    @pytest.mark.parametrize("q, ns, constants, quadratics", [
        (7, (2, 3, 6), (2, 3, 6), 2),
        (13, (4, 12), (2, 4, 5, 12), 1),
    ])
    def test_function_fields_match_oracle(self, q, ns, constants, quadratics):
        # every subset of size <= 4 of a pool with three linear and a few
        # quadratic irreducibles; the full degree-2 pool is tested in pairs
        base = rational_function_field(q)
        irreducibles = monic_irreducibles(q, 1)[:3] + monic_irreducibles(q, 2)[:quadratics]
        pool = self._fq_pool(q, constants, irreducibles)
        for n in ns:
            for f in pool:
                assert radicand_class(base, n, f)[1] == f.class_order(n)
            self._match_oracle(base, n, pool, 4)

    def test_all_irreducibles_to_degree_two_match_oracle_in_pairs(self):
        pool = self._fq_pool(7, range(1, 7), monic_irreducibles(7, 1) + monic_irreducibles(7, 2))
        for n in (2, 3, 6):
            for f in pool:
                assert radicand_class(F7, n, f)[1] == f.class_order(n)
            self._match_oracle(F7, n, pool, 2)

    def test_function_field_bad_inputs_match_oracle(self):
        t = fqt_from_factors(7, 1, [(T_, 1)])
        for base, n, rads in [
            (F7, 4, (t,)),
            (F7, 1, (t,)),
            (F7, 3, (t, 5)),
            (F7, 3, (t, fqt_from_factors(3, 1, [(T_, 1)]))),
            (F7, 3, (fqt_const(7, 6), "t")),
            (F3, 2, (fqt_const(3, 2), t)),
        ]:
            assert _validation_outcome(base, n, rads) == _validation_oracle(base, n, rads)


def _w_products(M):
    """Every element of W multiplied out, keyed by its exponent tuple: how
    W was read before class vectors, kept as the oracle."""
    out = {}
    for e in w_exponents(M):
        if M.base.is_rationals():
            out[e] = prod(f**k for f, k in zip(M.radicands, e))
        else:
            w = fqt_const(M.base.q, 1)
            for f, k in zip(M.radicands, e):
                w = fqt_mul(w, f.pow(k))
            out[e] = w
    return out


def _extensions(base, n, pool, size):
    for rads in _subsets(pool, size):
        try:
            yield AbExt(base, n, rads)
        except ValidationError:
            pass


class TestWFromClassVectors:
    """span_squarefree, constant_classes and cyclotomic_members read W from
    the radicands' class vectors; multiplying the radicands out and
    refactoring the products must give the same answers."""

    def test_rationals_match_products(self):
        pool = [-1, 2, -2, 3, -3, 5, -5, 6, 7, -7, 21]
        built = 0
        for M in _extensions(QQ, 2, pool, 3):
            w = {e: squarefree_part(v) for e, v in _w_products(M).items()}
            assert span_squarefree(M) == frozenset(w.values()), M
            for p in (2, 3, 5, 7):
                targets = {1, -1, 2, -2} if p == 2 else {1, p if p % 4 == 1 else -p}
                want = tuple(e for e, v in w.items() if v in targets)
                assert cyclotomic_members(M, p) == want, (M, p)
            built += 1
        assert built > 100

    @pytest.mark.parametrize("q, ns, constants", [
        (7, (2, 3, 6), (2, 3, 6)),
        (13, (4, 12), (2, 4, 12)),
    ])
    def test_function_fields_match_products(self, q, ns, constants):
        base = rational_function_field(q)
        pool = TestClassVectorValidation._fq_pool(q, constants, monic_irreducibles(q, 1)[:3])
        F = prime_field(q)
        built = 0
        for n in ns:
            for M in _extensions(base, n, pool, 3):
                want = {
                    e: F.power_class_order(v.c, n)
                    for e, v in _w_products(M).items()
                    if all(k % n == 0 for _, k in v.factors)
                }
                assert constant_classes(M) == want, M
                assert constant_field_degree(M) == lcm(*want.values()), M
                for p in factorize(n):
                    members = tuple(e for e, o in want.items() if o == p ** vp(o, p))
                    assert cyclotomic_members(M, p) == members, (M, p)
                built += 1
        assert built > 50


class TestGaloisGroup:
    def test_group_and_pairing(self):
        M = q_ext(3, -7)
        G = galois_group(M)
        assert len(G) == 4
        assert gal_identity(M) in G
        assert pairing(M, (1, 1), (1, 0)) == 1
        assert pairing(M, (1, 1), (1, 1)) == 0

    def test_sigma_order(self):
        M = ff7_cubic()
        assert sigma_order(M, (0, 0)) == 1
        assert sigma_order(M, (1, 2)) == 3
        t = fqt_from_factors(7, 1, [(T_, 1)])
        M6 = AbExt(F7, 6, (t,))
        assert sigma_order(M6, (2,)) == 3
        assert sigma_order(M6, (1,)) == 6

    def test_validate_sigma(self):
        t = fqt_from_factors(7, 1, [(T_, 1)])
        M = AbExt(F7, 6, (t, fqt_const(7, 2)))
        assert validate_sigma(M, (1, 2)) == (1, 2)
        with pytest.raises(ValidationError):
            validate_sigma(M, (1, 1))  # second component must be even
        with pytest.raises(ValidationError):
            validate_sigma(M, (1,))

    def test_w_exponents(self):
        assert len(w_exponents(ff7_cubic())) == 9


class TestRequireChiOrder:
    """One check of a character order for every caller that takes one."""

    @staticmethod
    def mixed():
        # Gal(M/K) = Z/6 x Z/3, of exponent 6
        return AbExt(F7, 6, (fqt_from_factors(7, 1, [(T_, 1)]), fqt_const(7, 2)))

    def test_multiples_of_the_exponent_pass(self):
        M = self.mixed()
        for chi_order in (6, 12, 18):
            assert require_chi_order(M, chi_order) is None

    @pytest.mark.parametrize("chi_order", [0, -6, 3, 4])
    def test_other_orders_are_rejected(self, chi_order):
        with pytest.raises(ValidationError) as info:
            require_chi_order(self.mixed(), chi_order)
        assert str(info.value) == (
            f"character order {chi_order} is incompatible with the Galois exponent")

    def test_callers_share_the_check(self):
        M = q_ext(3, -7)
        caught = []
        for call in (lambda: brauer.fiber_index(brauer.make_class({}), M, 3),
                     lambda: covers.bound_report(M, 2, 3)):
            with pytest.raises(ValidationError) as info:
                call()
            caught.append(str(info.value))
        assert caught == ["character order 3 is incompatible with the Galois exponent"] * 2


class TestLocalDataRationals:
    def test_dyadic_split_square(self):
        # -7 = 1 mod 8 is a dyadic square, so only sqrt(3) matters at 2
        ld = local_data(q_ext(3, -7), prime_place(2))
        assert (ld.degree, ld.ram_index, ld.res_degree) == (2, 2, 1)

    def test_odd_ramified(self):
        M = q_ext(3, -7)
        ld3 = local_data(M, prime_place(3))
        assert (ld3.degree, ld3.ram_index, ld3.res_degree) == (4, 2, 2)
        ld7 = local_data(M, prime_place(7))
        assert (ld7.degree, ld7.ram_index, ld7.res_degree) == (4, 2, 2)

    def test_unramified_inert(self):
        M = q_ext(3, -7)
        ld5 = local_data(M, prime_place(5))
        assert (ld5.degree, ld5.ram_index) == (2, 1)
        assert ld5.frobenius == (1, 1)
        assert ld5.decomposition == ((0, 0), (1, 1))

    def test_split(self):
        M = q_ext(3, -7)
        ld11 = local_data(M, prime_place(11))
        assert ld11.degree == 1
        assert ld11.frobenius == (0, 0)

    def test_real_place(self):
        M = q_ext(3, -7)
        ld = local_data(M, real_place())
        assert ld.degree == 2
        assert ld.inertia == ld.decomposition
        assert ld.frobenius == (0, 0)
        assert not is_real_field(M)
        assert is_real_field(q_ext(3))

    def test_dyadic_table(self):
        # 11 = 3 mod 8: ramified at 2; 17 = 1 mod 8: dyadic square, split
        assert local_data(q_ext(11), prime_place(2)).ram_index == 2
        assert local_degree(q_ext(17), prime_place(2)) == 1
        # 5 mod 8 generates the unramified quadratic
        ld5 = local_data(q_ext(5), prime_place(2))
        assert (ld5.degree, ld5.ram_index, ld5.res_degree) == (2, 1, 2)
        assert ld5.frobenius == (1,)

    def test_biquadratic_degree_profiles(self):
        # degree at (2, l, q) for the fields Q(sqrt q, sqrt -l) used later
        profiles = {
            (3, 11): (4, 4, 4),
            (5, 7): (4, 4, 2),
            (7, 3): (2, 4, 4),
        }
        for (l, q), (d2, dl, dq) in profiles.items():
            M = q_ext(q, -l)
            assert local_degree(M, prime_place(2)) == d2
            assert local_degree(M, prime_place(l)) == dl
            assert local_degree(M, prime_place(q)) == dq

    def test_unramified_degree_is_frobenius_order(self):
        M = q_ext(-1, 10)
        for p in (3, 7, 11, 13, 17, 19, 23):
            ld = local_data(M, prime_place(p))
            if ld.unramified:
                assert ld.degree == sigma_order(M, ld.frobenius)

    def test_ramified_places(self):
        M = q_ext(3, -7)
        assert tuple(P.p for P in ramified_places(M)) == (2, 3, 7)
        assert tuple(P.p for P in ramified_places(q_ext(11))) == (2, 11)
        assert tuple(P.p for P in ramified_places(q_ext(17))) == (17,)
        assert tuple(P.p for P in ramified_places(q_ext(-1, 5))) == (2, 5)


class TestLocalDataFunctionField:
    def test_ex43_degrees(self):
        M = ff7_cubic()
        expect = {
            (0, 1): (9, 3, 3),
            (6, 1): (3, 3, 1),
            (5, 1): (9, 3, 3),
        }
        for coeffs, (deg, e, f) in expect.items():
            ld = local_data(M, poly_place(7, coeffs))
            assert (ld.degree, ld.ram_index, ld.res_degree) == (deg, e, f)
        ldi = local_data(M, infinite_place(7))
        assert (ldi.degree, ldi.ram_index, ldi.res_degree) == (3, 3, 1)

    def test_ramified_places(self):
        M = ff7_cubic()
        names = [str(P) for P in ramified_places(M)]
        assert names == ["(t)", "(t+5)", "(t+6)", "inf"]

    def test_frozen_frobenius(self):
        # at t = 3 both radicands are units; residue symbols give (1, 2)
        ld = local_data(ff7_cubic(), poly_place(7, (4, 1)))
        assert ld.unramified
        assert ld.frobenius == (1, 2)
        assert ld.degree == 3

    def test_unramified_degree_is_frobenius_order(self):
        M = ff3_quad()
        from ncpbound.fields import enumerate_places

        for P in enumerate_places(F3, 27):
            ld = local_data(M, P)
            if ld.unramified:
                assert ld.degree == sigma_order(M, ld.frobenius)
            assert ld.degree == ld.ram_index * ld.res_degree


class TestRootsOfUnity:
    def test_span(self):
        assert span_squarefree(q_ext(3, -7)) == frozenset({1, 3, -7, -21})

    def test_s2_ladder(self):
        assert roots_of_unity_s(q_ext(3, -7), 2) == 1
        assert roots_of_unity_s(q_ext(-1, 5), 2) == 2
        assert roots_of_unity_s(q_ext(-1, 2), 2) == 3
        assert roots_of_unity_s(q_ext(2, -2), 2) == 3  # -1 = 2 * -2 in the span

    def test_s3(self):
        assert roots_of_unity_s(q_ext(-3), 3) == 1
        assert roots_of_unity_s(q_ext(3), 3) == 0
        assert roots_of_unity_s(q_ext(3, -7), 5) == 0

    def test_r_value_rationals(self):
        assert r_value(q_ext(3, -7)) == 2
        assert r_value(q_ext(-1, 2)) == 3
        assert r_value(q_ext(-2)) == 3
        assert r_value(q_ext(-1, 5)) == 2

    def test_constant_field(self):
        assert constant_field_degree(ff7_cubic()) == 1
        assert constant_field_degree(ff3_quad()) == 1
        M = build_extension(F7, 3, (fqt_const(7, 3),))
        assert constant_field_degree(M) == 3
        t = fqt_from_factors(7, 1, [(T_, 1)])
        tc = fqt_from_factors(7, 3, [(T_, 3)])  # 3 t^3: constant class of 3
        M2 = build_extension(F7, 3, (t, tc))
        assert constant_classes(M2) == {(0, 0): 1, (0, 1): 3, (0, 2): 3}
        assert constant_field_degree(M2) == 3

    def test_s_function_field(self):
        assert roots_of_unity_s(ff7_cubic(), 3) == 1
        M = build_extension(F7, 3, (fqt_const(7, 3),))
        assert roots_of_unity_s(M, 3) == 2  # mu_9 lives in F_343
        assert roots_of_unity_s(ff3_quad(), 2) == 1
        assert roots_of_unity_s(ff7_cubic(), 7) == 0

    def test_r_value_function_field(self):
        # 7 = 3 mod 4, constants F_7: adjoining i doubles to F_49, v_2(48) = 4
        assert r_value(ff7_cubic()) == 4
        assert r_value(ff3_quad()) == 3  # v_2(3^2 - 1)


class TestCyclotomicPart:
    def test_rationals_p2(self):
        M = q_ext(-1, 2)
        assert cyclotomic_degree(M, 2) == 4
        assert gal_fixing_cyclotomic(M, 2) == ((0, 0),)
        M2 = q_ext(3, -7)
        assert cyclotomic_degree(M2, 2) == 1
        assert len(gal_fixing_cyclotomic(M2, 2)) == 4

    def test_rationals_p_odd(self):
        assert cyclotomic_degree(q_ext(-3), 3) == 2
        assert cyclotomic_degree(q_ext(3), 3) == 1
        assert cyclotomic_degree(q_ext(5), 5) == 2  # 5 = 1 mod 4
        assert cyclotomic_degree(q_ext(-5), 5) == 1

    def test_mixed(self):
        M = q_ext(-1, 3)
        assert cyclotomic_degree(M, 2) == 2
        assert cyclotomic_members(M, 2) == ((0, 0), (1, 0))

    def test_function_field(self):
        M = build_extension(F7, 3, (fqt_const(7, 3),))
        assert cyclotomic_degree(M, 3) == 3
        assert cyclotomic_degree(ff7_cubic(), 3) == 1

    def test_restriction_order(self):
        M = q_ext(-1, 2)
        assert restriction_order_to_cyclotomic(M, 2, (0, 0)) == 1
        assert restriction_order_to_cyclotomic(M, 2, (1, 0)) == 2
        assert restriction_order_to_cyclotomic(q_ext(3, -7), 2, (1, 1)) == 1


class TestSearches:
    def test_split_primes(self):
        M = q_ext(3, -7)
        hits = find_places_with_frobenius(M, (0, 0), count=1, bound=20)
        assert [P.p for P in hits] == [11]

    def test_congruence_filter(self):
        # s0_search keeps, per generator, the first place with its Frobenius
        # whose norm is 1 mod p^power: 13 and 29 are 5 mod 8
        M = q_ext(3, -7)
        out = s0_search(M, 2, 3, bound=200)
        assert {s: P.p for s, P in out.items()} == {(0, 1): 73, (1, 0): 113}
        for sigma, P in out.items():
            walk = find_places_with_frobenius(M, sigma, count=6, bound=200)
            assert P == next(Q for Q in walk if Q.p % 8 == 1)
        # a congruence mod p^0 = 1 always holds
        out = s0_search(M, 2, 0, bound=200)
        assert {s: P.p for s, P in out.items()} == {(0, 1): 13, (1, 0): 29}

    def test_exhaustion_carries_partial(self):
        M = q_ext(3, -7)
        with pytest.raises(SearchExhausted) as exc:
            find_places_with_frobenius(M, (0, 0), count=5, bound=20)
        assert [P.p for P in exc.value.partial] == [11]
        assert str(exc.value) == (
            "found 1/5 places with the requested Frobenius below norm 20")

    def test_function_field_frobenius_search(self):
        hits = find_places_with_frobenius(ff7_cubic(), (1, 2), count=1, bound=7)
        assert [str(P) for P in hits] == ["(t+4)"]

    def test_qsigma(self):
        M = q_ext(3, -7)
        hits = qsigma_search(M, 2, (0, 0), count=1, bound=20)
        assert [P.p for P in hits] == [11]

    def test_qsigma_skips_small_order_norms(self):
        # at p = 2 the modulus is 16; 17 = 1 mod 16 has order 1, never valid
        M = q_ext(17)
        for P in qsigma_search(M, 2, (0,), count=3, bound=200):
            from ncpbound.arith import mul_order_mod

            assert mul_order_mod(P.p, 16) > 1

    def test_s0_search(self):
        M = q_ext(3, -7)
        out = s0_search(M, 2, 2, bound=50)
        assert set(out) == {(0, 1), (1, 0)}
        assert out[(1, 0)].p == 29
        assert out[(0, 1)].p == 13
        for sigma, P in out.items():
            assert P.p % 4 == 1
            assert local_data(M, P).frobenius == sigma

    def test_s0_search_trivial_group(self):
        # T = M forces only the identity generator
        M = q_ext(-1, 2)
        out = s0_search(M, 2, 2, bound=100)
        assert set(out) == {(0, 0)}
        assert local_degree(M, out[(0, 0)]) == 1

    def test_s0_exhaustion(self):
        M = q_ext(3, -7)
        with pytest.raises(SearchExhausted) as exc:
            s0_search(M, 2, 6, bound=60)  # needs p = 1 mod 64
        assert isinstance(exc.value.partial, dict)


# ---------------------------------------------------------------------------
# the one bounded walk behind every place search


def _unwalked(*args):
    """Stands in for enumerate_places.  Like it, this is a generator
    function, so a search may call it to build its walk; the body, which
    would yield the first place, must not run."""
    raise AssertionError("a place was enumerated for a malformed request")
    yield


# the five place searches; the last three ask for a fixed number of places
_SEARCHES = {
    "frobenius": lambda count, bound: find_places_with_frobenius(
        q_ext(3, -7), (0, 0), count, bound),
    "qsigma": lambda count, bound: qsigma_search(q_ext(3, -7), 2, (0, 0), count, bound),
    "s0": lambda count, bound: s0_search(q_ext(3, -7), 2, 2, bound),
    "prop42": lambda count, bound: run_prop42(2, prime_place(5), bound=bound),
    "witness": lambda count, bound: brauer._find_witness(q_ext(3, -7), 2, 1, set(), ()),
}


class TestBoundedWalk:
    @pytest.fixture
    def unwalked(self, monkeypatch):
        for module in (extensions, brauer, worked):
            monkeypatch.setattr(module, "enumerate_places", _unwalked)

    @pytest.mark.parametrize("name", sorted(_SEARCHES))
    def test_negative_bound_rejected_before_walking(self, unwalked, monkeypatch, name):
        monkeypatch.setattr(brauer, "_WITNESS_BOUND", -1)
        with pytest.raises(ValidationError, match="bound must be at least 0, got -1"):
            _SEARCHES[name](1, -1)

    @pytest.mark.parametrize("name", ["frobenius", "qsigma"])
    @pytest.mark.parametrize("count", [0, -2])
    def test_empty_count_rejected_before_walking(self, unwalked, name, count):
        with pytest.raises(ValidationError, match=f"count must be at least 1, got {count}"):
            _SEARCHES[name](count, 10)

    @pytest.mark.parametrize("count", [0, -2])
    def test_fixed_count_searches_share_the_check(self, count):
        # s0, prop42 and the witness search pass their count to the same walk
        with pytest.raises(ValidationError, match=f"count must be at least 1, got {count}"):
            first_places(_unwalked(), count, 10, "places")

    def test_stops_at_the_count(self):
        def walk():
            yield from (prime_place(2), prime_place(3))
            raise AssertionError("drew a place past the count")

        assert first_places(walk(), 2, 10, "places") == [prime_place(2), prime_place(3)]

    @pytest.mark.parametrize("name, bound, partial, message", [
        ("qsigma", 20, [11],
         "found 1/3 places meeting the norm-order condition below norm 20"),
        ("prop42", 5, [3],
         "found 1/2 places with norm 1 mod 2 but not mod 4 below norm 5"),
    ])
    def test_exhaustion_message_and_partial(self, name, bound, partial, message):
        with pytest.raises(SearchExhausted) as exc:
            _SEARCHES[name](3, bound)
        assert str(exc.value) == message
        assert [P.p for P in exc.value.partial] == partial

    def test_witness_exhaustion(self):
        # no place of Q(sqrt 3, sqrt -7) has local degree 2^5
        with pytest.raises(SearchExhausted) as exc:
            brauer._find_witness(q_ext(3, -7), 2, 5, set(), ())
        assert str(exc.value) == "found 0/1 places with v_2(local degree) = 5 below norm 1000"

    def test_witness_prefers_the_given_places(self):
        # 3 and 7 ramify with local degree 4 = 2^2; the preferred 7 comes first
        M = q_ext(3, -7)
        assert brauer._find_witness(M, 2, 2, set(), (prime_place(7),)) == prime_place(7)
        assert brauer._find_witness(M, 2, 2, set(), ()) == prime_place(3)
        assert brauer._find_witness(M, 2, 2, {prime_place(3)}, ()) == prime_place(7)

    def test_qsigma_tests_the_norm_first(self):
        # the only place up to norm 2 is 2 itself, which divides the conductor
        # 84; p = 2 divides its norm, so it never reaches the Frobenius and
        # local_data is never consulted
        M = q_ext(3, -7)
        before = local_data.cache_info()
        with pytest.raises(SearchExhausted) as exc:
            qsigma_search(M, 2, (0, 0), count=1, bound=2)
        after = local_data.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits)
        assert exc.value.partial == []


# ---------------------------------------------------------------------------
# the two-level local-data memo against a per-place brute force


def _local_data_oracle(M, place):
    """local_data computed from scratch at one place, with no memo: the
    local class-group image, its kernels, their annihilators in the Galois
    group and the Frobenius character, all through the public helpers.  The
    unramified subgroup is grown from its generators: none at a real place,
    the class of 5 at 2, and the unit classes at a tame place."""
    from ncpbound.extensions import LocalData, _grow, local_class_group

    G = local_class_group(M, place)
    exps = w_exponents(M)
    zero = (0,) * len(G.moduli)
    if place.kind == "real":
        gens = ()
    elif len(G.moduli) == 3:  # at 2: coordinates (e_-1, e_5, v_2)
        gens = ((0, 1, 0),)
    else:  # (valuation, unit class)
        gens = ((0, 1),)
    unram = _grow(G.trivial(), gens, G.add)
    ker_d = [e for e in exps if G.image_of(e) == zero]
    ker_i = [e for e in exps if G.image_of(e) in unram]
    gal = galois_group(M)
    D = tuple(s for s in gal if all(pairing(M, s, e) == 0 for e in ker_d))
    I = tuple(s for s in D if all(pairing(M, s, e) == 0 for e in ker_i))
    assert len(D) * len(ker_d) == len(exps)
    sym = {e: G.symbol(G.image_of(e)) for e in ker_i}
    frob = next(s for s in D if all(pairing(M, s, e) == sym[e] for e in ker_i))
    e_idx = len(exps) // len(ker_i)
    assert e_idx == len(I)
    return LocalData(place, len(D), e_idx, len(D) // e_idx, D, I, frob)


class TestLocalDataMemo:
    @pytest.mark.parametrize(
        "M, bound",
        [
            (q_ext(3, -7), 3000),
            (q_ext(-1, 2), 3000),
            (ff7_cubic(), 7**3),
        ],
        ids=["Q(sqrt3,sqrt-7)", "Q(sqrt-1,sqrt2)", "F7(t) cubic"],
    )
    def test_matches_per_place_oracle(self, M, bound):
        places = list(enumerate_places(M.base, bound))
        if M.base.is_rationals():
            places.append(real_place())
        # the dyadic, real and ramified places are all in the sweep
        assert set(ramified_places(M)) <= set(places)
        if M.base.is_rationals():
            assert prime_place(2) in places and real_place() in places
        for P in places:
            assert local_data(M, P) == _local_data_oracle(M, P), str(P)

    def test_splitting_memo_is_bounded_by_local_images(self):
        from ncpbound.extensions import _splitting, local_class_group

        M = q_ext(3, -7)
        local_data.cache_clear()
        _splitting.cache_clear()
        images = set()
        for P in enumerate_places(QQ, 10**5):
            local_data(M, P)
            images.add(local_class_group(M, P))
        # 2 (dyadic), 3 and 7 (ramified) and four Frobenius classes
        assert _splitting.cache_info().currsize == len(images) == 7
        local_data.cache_clear()


# ---------------------------------------------------------------------------
# the Frobenius read from its Artin class mod the conductor, against local_data


@pytest.fixture
def fresh_memos():
    """Empty local_data and Frobenius-reader memos, as in a new process."""
    local_data.cache_clear()
    _frobenius_reader.cache_clear()
    yield
    local_data.cache_clear()
    _frobenius_reader.cache_clear()


def _assert_reader_matches_local_data(M, bound):
    read = _frobenius_reader(M)
    for P in enumerate_places(M.base, bound):
        ld = local_data(M, P)
        assert read(P) == (ld.frobenius if ld.unramified else None), str(P)


# radicands -> conductor.  (5, -3): every radicand is 1 mod 4, so 2 is
# unramified and keyed like the odd primes; (-1, -5) and (-5,) need the sign
# of a, since -5 = 3 mod 4 but 5 = 1 mod 4
ARTIN_CASES = {(3, -7): 84, (-1, 2): 8, (5, -3): 15, (-1, -5): 20, (-5,): 20}


class TestArtinClasses:
    """Over Q the Frobenius at a prime p prime to the conductor f is read
    from a memo keyed by p mod f and filled from local_data once per class;
    it must equal local_data's at every prime."""

    @pytest.mark.parametrize("radicands", list(ARTIN_CASES), ids=str)
    def test_matches_local_data_to_5e4(self, fresh_memos, radicands):
        _assert_reader_matches_local_data(q_ext(*radicands), 5 * 10**4)

    @given(st.lists(st.integers(-60, 60).filter(lambda a: a not in (0, 1) and is_squarefree(a)),
                    min_size=1, max_size=3, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_matches_local_data_for_squarefree_sets(self, radicands):
        try:
            M = AbExt(QQ, 2, tuple(radicands))
        except ValidationError:
            reject()  # dependent classes
        _assert_reader_matches_local_data(M, 3000)

    def test_conductor(self):
        from ncpbound.extensions import _conductor

        assert {r: _conductor(q_ext(*r)) for r in ARTIN_CASES} == ARTIN_CASES

    def test_one_local_data_miss_per_class(self, fresh_memos):
        M = q_ext(3, -7)
        with pytest.raises(SearchExhausted):
            find_places_with_frobenius(M, (0, 0), count=10**4, bound=5 * 10**4)
        # phi(84) = 24 Artin classes, and the ramified primes 2, 3 and 7
        assert local_data.cache_info().misses <= 24 + 3

    def test_function_field_reads_local_data_per_place(self, fresh_memos):
        _assert_reader_matches_local_data(ff7_cubic(), 7**3)
        assert local_data.cache_info().misses == len(list(enumerate_places(F7, 7**3)))


class TestStoredHash:
    """AbExt hashes once, at construction; the stored hash is invisible to
    equality, the repr and the JSON encoding."""

    @pytest.mark.parametrize("build", [lambda: q_ext(3, -7), ff7_cubic],
                             ids=["Q(sqrt3,sqrt-7)", "F7(t) cubic"])
    def test_separate_builds_compare_and_hash_equal(self, build):
        M, N = build(), build()
        assert M is not N and M == N and hash(M) == hash(N)
        assert hash(M) == hash((M.base, M.n, M.radicands, M.orders))
        P = next(enumerate_places(M.base, 7))
        assert local_data(M, P) is local_data(N, P)  # one memo entry serves both

    def test_different_extensions_differ(self):
        assert q_ext(3, -7) != q_ext(-7, 3) and q_ext(3) != q_ext(3, -7)

    def test_stored_hash_is_not_compared_shown_or_encoded(self):
        import dataclasses

        from ncpbound.jsonio import to_json

        M, N = q_ext(3, -7), q_ext(3, -7)
        object.__setattr__(N, "_hash", M._hash + 1)
        assert M == N
        assert "_hash" not in repr(M) and str(M._hash) not in repr(M)
        encoded = to_json(M)
        assert "_hash" not in encoded and M._hash not in encoded.values()
        stored = next(f for f in dataclasses.fields(AbExt) if f.name == "_hash")
        assert not (stored.init or stored.compare or stored.repr)
