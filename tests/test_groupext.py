import random
from collections import Counter
from itertools import combinations, product
from math import gcd, lcm, prod

import pytest
from helpers import ext_pow, identity, oracle_fiber, oracle_lemma_35, oracle_lines_for
from hypothesis import example, given, settings, strategies as st

from ncpbound import groupext
from ncpbound.errors import ValidationError
from ncpbound.groupext import (
    MAX_GROUP_ORDER,
    CentralExt,
    _lines_for,
    beta,
    ext_build,
    ext_inv,
    ext_mul,
    fiber,
    fiber_cyclicity,
    fiber_is_cyclic,
    gamma,
    lift,
    power_criterion,
    prop32_scan,
    verify_lemma_34,
    verify_lemma_35,
)

# The closed forms (the power form through helpers.ext_pow, beta, the
# prefilter's _power_form) are checked against the collection route:
# products and inverses built with ext_mul.
# fiber and _lines_for are checked against the closure and the element sweep
# of tests/helpers.py.


def elements(E):
    """Every element of E in normal form."""
    for alpha in range(E.kernel_order):
        for exps in product(*(range(o) for o in E.orders)):
            yield (alpha, exps)


def ext_order(E, g):
    """The order of g, by repeated ext_mul."""
    n, h = 1, g
    while h != identity(E):
        h = ext_mul(E, h, g)
        n += 1
    return n


def collected_power(E, g, n):
    """g^n as n products by ext_mul."""
    acc = identity(E)
    for _ in range(n):
        acc = ext_mul(E, acc, g)
    return acc


def collected_commutator(E, g, h):
    """[g, h] = g^-1 h^-1 g h, by ext_mul."""
    return ext_mul(E, ext_mul(E, ext_inv(E, g), ext_inv(E, h)), ext_mul(E, g, h))


def q8():
    return ext_build(2, 1, (2, 2), (1, 1), (1,))


def d4():
    return ext_build(2, 1, (2, 2), (0, 1), (1,))


def split_c4_c2():
    return ext_build(2, 2, (2,), (0,), ())


def heis3():
    return ext_build(3, 1, (3, 3), (0, 0), (1,))


def order_stats(E):
    return Counter(ext_order(E, g) for g in elements(E))


def _forbidden(*args):
    raise AssertionError("work started before the input was checked")


class TestBuild:
    def test_q8_order_statistics(self):
        assert order_stats(q8()) == {1: 1, 2: 1, 4: 6}

    def test_d4_order_statistics(self):
        assert order_stats(d4()) == {1: 1, 2: 5, 4: 2}

    def test_split_matches_direct_product(self):
        assert order_stats(split_c4_c2()) == {1: 1, 2: 3, 4: 4}

    def test_heisenberg_exponent_three(self):
        assert order_stats(heis3()) == {1: 1, 3: 26}

    def test_group_order(self):
        for E in (q8(), d4(), split_c4_c2(), heis3()):
            assert len(set(elements(E))) == E.order

    def test_commutator_order_constraint(self):
        with pytest.raises(ValidationError):
            ext_build(2, 2, (2, 2), (0, 0), (1,))

    def test_t_length(self):
        with pytest.raises(ValidationError):
            ext_build(2, 1, (2, 2), (0,), (0,))

    def test_non_p_power_order(self):
        with pytest.raises(ValidationError):
            ext_build(2, 1, (6,), (0,), ())

    def test_nonpositive_order_rejected(self):
        # 0 is divisible by every p: peeling factors of p off it never ends
        for o in (0, -2, -4):
            with pytest.raises(ValidationError, match=f"quotient factor {o} "):
                ext_build(2, 1, (o, 2), (0, 0), (0,))

    def test_ceiling_covers_the_largest_scan_tested(self):
        assert 5 * 25**3 <= MAX_GROUP_ORDER

    @pytest.mark.parametrize("p,a,orders", [
        (2, 15, (2, 2)), (2, 10**9, (2, 2)), (2, 1, (2,) * 17), (5, 1, (25, 25, 25, 5)),
        (1, 2, (10**6,)),
    ])
    def test_past_the_ceiling_rejected_before_any_work(self, monkeypatch, p, a, orders):
        monkeypatch.setattr(groupext, "is_prime", _forbidden)
        k = len(orders)
        with pytest.raises(ValidationError, match=f"ceiling {MAX_GROUP_ORDER} "):
            ext_build(p, a, orders, (0,) * k, (0,) * (k * (k - 1) // 2))

    def test_associativity_on_random_triples(self):
        rng = random.Random(7)
        for E in (q8(), d4(), split_c4_c2(), heis3()):
            pool = list(elements(E))
            for _ in range(60):
                g, h, k = (rng.choice(pool) for _ in range(3))
                assert ext_mul(E, ext_mul(E, g, h), k) == ext_mul(E, g, ext_mul(E, h, k))

    def test_inverses(self):
        for E in (q8(), d4(), heis3()):
            for g in elements(E):
                assert ext_mul(E, g, ext_inv(E, g)) == identity(E)

    def test_pow_matches_iteration(self):
        E = q8()
        g = lift(E, (1, 1))
        acc = identity(E)
        for n in range(1, 6):
            acc = ext_mul(E, acc, g)
            assert ext_pow(E, g, n) == acc

    def test_pairs_computed_once(self):
        E = ext_build(2, 2, (4, 4, 2), (1, 2, 1), (2, 0, 2))
        assert E.pairs is E.pairs
        assert E.pairs == (((0, 1), 2), ((0, 2), 0), ((1, 2), 2))


class TestFiber:
    def test_q8_fibers_all_cyclic(self):
        E = q8()
        for x in ((1, 0), (0, 1), (1, 1)):
            assert len(fiber(E, x)) == 4
            assert fiber_is_cyclic(E, x)

    def test_trivial_x_gives_kernel(self):
        for E in (q8(), split_c4_c2()):
            F = fiber(E, (0,) * len(E.orders))
            assert len(F) == E.kernel_order
            assert fiber_is_cyclic(E, (0,) * len(E.orders))

    def test_d4_reflection_fiber_noncyclic(self):
        E = d4()
        assert not fiber_is_cyclic(E, (1, 0))
        assert fiber_is_cyclic(E, (0, 1))

    def test_split_fiber_noncyclic(self):
        assert not fiber_is_cyclic(split_c4_c2(), (1,))

    def test_matches_closure_oracle_at_every_x(self):
        # the named extensions, the power-form data and the scan grids of
        # TestFiberCyclicityByCount, at every quotient element
        exts = [q8(), d4(), split_c4_c2(), heis3(), *(ext_build(*d) for d in POWER_DATA)]
        for grid in SMALL_GRIDS:
            exts.extend(_scan_space(*grid))
        for E in exts:
            for x in product(*(range(o) for o in E.orders)):
                assert fiber(E, x) == oracle_fiber(E, x), (E, x)

    def test_collects_n_minus_one_products(self, monkeypatch):
        # n - 1 ext_mul for x of order n in the quotient, none for x = 0
        calls = []
        monkeypatch.setattr(
            groupext, "ext_mul", lambda E, g, h: calls.append(g) or ext_mul(E, g, h)
        )
        for E in (q8(), heis3(), ext_build(*POWER_DATA[3]), ext_build(*POWER_DATA[4])):
            for x in product(*(range(o) for o in E.orders)):
                calls.clear()
                fiber(E, x)
                n = lcm(*(o // gcd(o, v) for v, o in zip(x, E.orders)))
                assert len(calls) == n - 1, (E, x)

    @pytest.mark.parametrize("p,a,orders", [
        (2, 6, (2, 2)), (3, 3, (3, 3)), (2, 4, (4, 2)), (2, 14, (2, 2)),
    ])
    def test_cyclicity_collects_p_minus_one_products_per_quotient_part(
            self, monkeypatch, p, a, orders):
        # the n - 1 products of the powers of a lift, then p - 1 per
        # p-torsion quotient part of <x>, which has at most p of them: at
        # most (n - 1) + (p - 1) p for x of order n, whatever p^a is.  The
        # verdict is power_criterion's, the kernel of order 2^14 included
        calls = []
        monkeypatch.setattr(
            groupext, "ext_mul", lambda E, g, h: calls.append(g) or ext_mul(E, g, h)
        )
        tight = 0
        for E in _seeded_exts(p, a, [orders], 6, f"work{p}{a}{orders}"):
            for x in product(*(range(o) for o in E.orders)):
                calls.clear()
                cyclic = fiber_is_cyclic(E, x)
                n = lcm(*(o // gcd(o, v) for v, o in zip(x, E.orders)))
                assert len(calls) <= (n - 1) + (p - 1) * p, (E, x)
                tight += len(calls) == (n - 1) + (p - 1) * p
                if any(x):
                    assert cyclic == power_criterion(E, x), (E, x)
        assert tight > 0

    def test_cyclicity_per_subgroup_matches_each_closure(self):
        for E in (q8(), d4(), split_c4_c2(), heis3(), ext_build(2, 2, (4, 2), (1, 2), (2,))):
            want = {
                x: fiber_is_cyclic(E, x)
                for x in product(*(range(o) for o in E.orders))
                if any(x)
            }
            cyclic, law_holds = fiber_cyclicity(E)
            assert cyclic == want, E
            assert law_holds == all(v == power_criterion(E, x) for x, v in want.items()), E


def _line_shapes(p):
    """Every orders tuple of rank 0 to 4 with factors p, p^2 and p^3, in
    any order, of product at most 7^4, so rank 4 is reached for every p."""
    for rank in range(5):
        for orders in product((p, p * p, p**3), repeat=rank):
            if prod(orders) <= 7**4:
                yield orders


class TestLinesFor:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_sweep_oracle(self, p):
        # equal lists: the same least generators, in the same order
        shapes = list(_line_shapes(p))
        assert any(list(o) != sorted(o) for o in shapes)
        for orders in shapes:
            assert _lines_for(p, orders) == oracle_lines_for(orders), orders


class TestBeta:
    def test_q8_value(self):
        assert beta(q8(), (1, 0), (0, 1)) == 1

    def test_too_many_coordinates_rejected(self):
        # a rank-2 extension: the third coordinate must not be dropped
        with pytest.raises(ValidationError):
            lift(q8(), (1, 0, 5))
        with pytest.raises(ValidationError):
            beta(q8(), (1, 0, 5), (0, 1, 7))

    def test_alternating(self):
        for E in (q8(), d4(), heis3()):
            for x in product(*(range(o) for o in E.orders)):
                assert beta(E, x, x) == 0

    def test_lift_independent(self):
        # the commutator of any two preimages, not just the section values
        for E in (q8(), d4()):
            for x in product(*(range(o) for o in E.orders)):
                for y in product(*(range(o) for o in E.orders)):
                    expected = beta(E, x, y)
                    for a1 in range(E.kernel_order):
                        for a2 in range(E.kernel_order):
                            g, h = (a1, x), (a2, y)
                            comm = ext_mul(
                                E,
                                ext_mul(E, ext_inv(E, g), ext_inv(E, h)),
                                ext_mul(E, g, h),
                            )
                            assert comm == (expected, (0,) * len(E.orders))

    def test_bilinear_formula(self):
        # the alternating form against the collected commutator of two lifts
        # with nonzero kernel parts
        exts = [
            q8(),
            d4(),
            heis3(),
            ext_build(2, 2, (4, 4), (1, 2), (2,)),
            ext_build(3, 2, (9, 3), (4, 1), (3,)),
            ext_build(2, 2, (4, 4, 2), (1, 2, 1), (2, 2, 2)),
        ]
        for E in exts:
            zero = (0,) * len(E.orders)
            top = E.kernel_order - 1
            for x in product(*(range(o) for o in E.orders)):
                for y in product(*(range(o) for o in E.orders)):
                    comm = collected_commutator(E, (1 % E.kernel_order, x), (top, y))
                    assert comm == (beta(E, x, y), zero), (E, x, y)

    def test_split_beta_trivial(self):
        E = split_c4_c2()
        assert beta(E, (1,), (1,)) == 0


class TestGamma:
    def test_q8_never_vanishes(self):
        E = q8()
        for x in ((1, 0), (0, 1), (1, 1)):
            assert gamma(E, x) == 1

    def test_d4_vanishes_on_reflections_only(self):
        E = d4()
        assert gamma(E, (1, 0)) == 0
        assert gamma(E, (1, 1)) == 0
        assert gamma(E, (0, 1)) == 1

    def test_split_trivial(self):
        assert gamma(split_c4_c2(), (1,)) == 0

    def test_section_independent(self):
        for E in (q8(), d4(), split_c4_c2()):
            steps = [range(0, o, o // E.p) for o in E.orders]
            for x in product(*steps):
                expected = gamma(E, x)
                for a in range(E.kernel_order):
                    alpha, _ = ext_pow(E, (a, x), E.p)
                    assert alpha % E.p == expected

    def test_rejects_non_torsion(self):
        E = ext_build(2, 1, (4,), (1,), ())
        with pytest.raises(ValidationError):
            gamma(E, (1,))

    def test_too_many_coordinates_rejected(self):
        # a rank-2 extension: the third coordinate must not be dropped
        with pytest.raises(ValidationError, match="^wrong number of coordinates$"):
            gamma(q8(), (1, 0, 1))


class TestLemma34:
    def test_equivalence_on_named_extensions(self):
        for E in (q8(), d4(), split_c4_c2(), heis3()):
            for x in product(*(range(o) for o in E.orders)):
                if any(x):
                    assert verify_lemma_34(E, x)

    def test_rejects_trivial_x(self):
        with pytest.raises(ValidationError):
            verify_lemma_34(q8(), (0, 0))

    def test_power_criterion_too_many_coordinates_rejected(self):
        # a rank-2 extension: the third coordinate must not be dropped
        with pytest.raises(ValidationError, match="^wrong number of coordinates$"):
            power_criterion(q8(), (1, 0, 7))


@st.composite
def _line_criterion_exts(draw):
    """p in {2, 3, 5}, a in 0..3, rank 1 to 3 with factors p, p^2 or p^3
    (at most 5^4 quotient elements), and any valid data."""
    p = draw(st.sampled_from((2, 3, 5)))
    a = draw(st.integers(0, 3))
    orders = tuple(draw(st.lists(st.sampled_from((p, p * p, p**3)), min_size=1, max_size=3)
                        .filter(lambda os: prod(os) <= 5**4)))
    pa = p**a
    t = tuple(draw(st.integers(0, pa - 1)) for _ in orders)
    c = tuple(
        pa // gcd(orders[i], orders[j], pa) * draw(st.integers(0, pa - 1)) % pa
        for i, j in combinations(range(len(orders)), 2)
    )
    return CentralExt(p, a, orders, t, c)


class TestPowerCriterionPerLine:
    @settings(deadline=None, max_examples=60)
    @given(E=_line_criterion_exts())
    # a = 0; p = 2 with lines of order 2 and commutators; a kernel part
    # nonzero mod p^a but 0 mod p, at p = 2 and at p = 3 on a line of order 9
    @example(E=ext_build(2, 0, (2, 4), (0, 0), (0,)))
    @example(E=ext_build(2, 1, (2, 2, 2), (1, 0, 1), (1, 0, 1)))
    @example(E=ext_build(2, 2, (2, 2), (2, 0), (0,)))
    @example(E=ext_build(3, 3, (9, 3), (3, 9), (9,)))
    def test_one_criterion_per_line_decides_every_generator(self, E):
        cyclic, law_holds = fiber_cyclicity(E)
        assert law_holds == all(v == power_criterion(E, x) for x, v in cyclic.items())
        for n, x in _lines_for(E.p, E.orders):
            want = power_criterion(E, x)
            for m in range(2, n):
                if gcd(m, n) == 1:
                    y = tuple(m * v % o for v, o in zip(x, E.orders))
                    assert power_criterion(E, y) == want, (E, x, m)

    @pytest.mark.parametrize("p,a,orders,t,c", [
        (2, 2, (4, 4, 2), (1, 2, 1), (2, 0, 2)), (3, 2, (9, 3), (4, 1), (3,)),
        (5, 1, (5, 5), (0, 0), (1,)), (2, 3, (4, 2, 2), (2, 4, 0), (4, 0, 0)),
    ])
    def test_verify_evaluates_the_power_form_per_line_and_basis_pair(
            self, monkeypatch, capsys, p, a, orders, t, c):
        from ncpbound.cli import main
        from ncpbound.groupext import _power_form

        calls = []
        monkeypatch.setattr(
            groupext, "_power_form", lambda *args: calls.append(args) or _power_form(*args)
        )
        argv = ["groupext", "verify", "--p", str(p), "--a", str(a)] + [
            flag for name, vals in (("--orders", orders), ("--t", t), ("--c", c))
            for flag in (name, ",".join(map(str, vals)))
        ]
        main(argv)
        capsys.readouterr()
        k = len(orders)
        assert len(calls) == len(_lines_for(p, orders)) + k + k * (k - 1) // 2


ZERO_DATUM_SHAPES = [
    (2, (2,) * 9), (2, (4,) + (2,) * 8), (3, (3,) * 6), (5, (5,) * 4), (7, (7,) * 3),
]


def _count_lemma_35_calls(monkeypatch):
    """Wrap groupext.gamma and groupext.beta; the returned Counter counts
    their calls by name."""
    calls = Counter()
    for name in ("gamma", "beta"):
        def counted(*args, _name=name, _f=getattr(groupext, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(groupext, name, counted)
    return calls


def _lemma_35_fixtures():
    """The named extensions, the power-form data and the scan grids."""
    exts = [q8(), d4(), split_c4_c2(), heis3(), *(ext_build(*d) for d in POWER_DATA)]
    for grid in SMALL_GRIDS:
        exts.extend(_scan_space(*grid))
    return exts


@st.composite
def _lemma_35_exts(draw):
    """p in {2, 3, 5}, rank 1 to 4, quotient factors p or p^2, and any
    valid data for a kernel of order up to p^2."""
    p = draw(st.sampled_from((2, 3, 5)))
    a = draw(st.integers(0, 2))
    orders = tuple(draw(st.sampled_from((p, p * p))) for _ in range(draw(st.integers(1, 4))))
    pa = p**a
    t = tuple(draw(st.integers(0, pa - 1)) for _ in orders)
    c = tuple(
        pa // gcd(orders[i], orders[j], pa) * draw(st.integers(0, pa - 1)) % pa
        for i, j in combinations(range(len(orders)), 2)
    )
    return CentralExt(p, a, orders, t, c)


class TestLemma35:
    def test_q8_not_homomorphism_consistently(self):
        report = verify_lemma_35(q8())
        assert not report.homomorphism and not report.criterion
        assert report.consistent

    def test_d4_not_homomorphism_consistently(self):
        report = verify_lemma_35(d4())
        assert not report.homomorphism and not report.criterion
        assert report.consistent

    def test_split_homomorphism(self):
        report = verify_lemma_35(split_c4_c2())
        assert report.homomorphism and report.criterion and report.consistent

    def test_odd_p_always_homomorphism(self):
        report = verify_lemma_35(heis3())
        assert report.homomorphism and report.criterion and report.consistent

    @pytest.mark.parametrize("p,orders", ZERO_DATUM_SHAPES)
    def test_zero_datum_shapes_of_high_rank_are_homomorphisms(self, monkeypatch, p, orders):
        k = len(orders)
        E = ext_build(p, 1, orders, (0,) * k, (0,) * (k * (k - 1) // 2))
        calls = _count_lemma_35_calls(monkeypatch)
        report = verify_lemma_35(E)
        assert report.homomorphism and report.criterion and report.consistent
        assert calls["gamma"] <= k + k * (k - 1) // 2 and calls["beta"] <= k * (k - 1) // 2

    def test_basis_checks_match_the_all_pairs_oracle(self):
        verdicts = set()
        for E in _lemma_35_fixtures():
            report = verify_lemma_35(E)
            assert report == oracle_lemma_35(E), E
            verdicts.add((report.homomorphism, report.criterion))
        assert verdicts == {(True, True), (False, False)}

    @settings(deadline=None, max_examples=30)
    @given(E=_lemma_35_exts())
    def test_basis_checks_match_the_all_pairs_oracle_on_drawn_data(self, E):
        assert verify_lemma_35(E) == oracle_lemma_35(E)

    def test_work_is_linear_in_the_torsion(self, monkeypatch):
        # one evaluation of gamma per basis element and per basis pair, one
        # beta per basis pair and none for odd p
        calls = _count_lemma_35_calls(monkeypatch)
        for E in _lemma_35_fixtures():
            calls.clear()
            verify_lemma_35(E)
            k = len(E.orders)
            assert calls["gamma"] <= k + k * (k - 1) // 2, E
            assert calls["beta"] <= (k * (k - 1) // 2 if E.p == 2 else 0), E

    def test_even_square_commutators_give_homomorphism(self):
        report = verify_lemma_35(ext_build(2, 2, (4, 4), (0, 0), (2,)))
        assert report.homomorphism and report.criterion and report.consistent

    def test_sweep_small_range(self):
        count = 0
        for p, a_range, orders in ((2, (1, 2), (2, 2)), (3, (1, 2), (3, 3))):
            for a in a_range:
                pa = p**a
                t_space = [range(gcd(o, pa)) for o in orders]
                m = gcd(orders[0], orders[1], pa)
                for t in product(*t_space):
                    for c in range(0, pa, pa // m):
                        E = CentralExt(p, a, orders, t, (c,))
                        count += 1
                        assert verify_lemma_35(E).consistent
                        for x in product(*(range(o) for o in orders)):
                            if any(x):
                                assert verify_lemma_34(E, x)
        assert count >= 70


POWER_DATA = [
    (2, 1, (2, 2), (1, 1), (1,)),
    (2, 1, (2, 2), (0, 1), (1,)),
    (2, 2, (4, 4), (1, 2), (2,)),
    (2, 3, (4, 4, 2), (2, 5, 1), (2, 0, 4)),
    (3, 2, (9, 3), (4, 1), (3,)),
    (3, 1, (3, 3, 3), (1, 2, 0), (1, 2, 0)),
]


# Coordinates small, negative and far past every quotient factor.
_COORDINATES = st.one_of(
    st.integers(-3, 30), st.integers(-10**30, -1), st.integers(10**18, 10**30)
)


@st.composite
def _quotient_inputs(draw):
    """A small extension, a drawn x of any length near its rank, and a
    well-formed y."""
    E = draw(st.sampled_from(
        [q8(), d4(), split_c4_c2(), heis3(), *(ext_build(*d) for d in POWER_DATA)]
    ))
    k = len(E.orders)
    length = draw(st.sampled_from((k, k, k - 1, k + 1, k + 3, 0)))
    x = tuple(draw(st.lists(_COORDINATES, min_size=length, max_size=length)))
    y = tuple(draw(st.integers(0, o - 1)) for o in E.orders)
    return E, x, y


class TestQuotientElementInputs:
    """Every groupext function that takes a quotient element x returns or
    raises ValidationError, whatever x is; an x of the wrong length is
    refused."""

    CALLS = {
        "lift": lambda E, x, y: lift(E, x),
        "fiber": lambda E, x, y: fiber(E, x),
        "fiber_is_cyclic": lambda E, x, y: fiber_is_cyclic(E, x),
        "power_criterion": lambda E, x, y: power_criterion(E, x),
        "gamma": lambda E, x, y: gamma(E, x),
        "beta": lambda E, x, y: (beta(E, x, y), beta(E, y, x)),
        "verify_lemma_34": lambda E, x, y: verify_lemma_34(E, x),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    @settings(deadline=None, max_examples=60)
    @given(drawn=_quotient_inputs())
    def test_returns_or_raises_validation_error(self, name, drawn):
        E, x, y = drawn
        try:
            self.CALLS[name](E, x, y)
        except ValidationError:
            return
        assert len(x) == len(E.orders), (name, E, x)


class TestPowerForm:
    def test_linear_form_matches_concrete_powers(self):
        # the scan's prefilter rests on this identity, so check it against
        # the actual group arithmetic across kernel sizes and ranks
        from ncpbound.groupext import _power_form

        for p, a, orders, t, c in POWER_DATA:
            E = ext_build(p, a, orders, t, c)
            datum = tuple(t) + tuple(c)
            for n, x in _lines_for(p, orders):
                form = _power_form(p, a, orders, x, n)
                want = collected_power(E, lift(E, x), n)
                got = sum(fv * dv for fv, dv in zip(form, datum)) % p**a
                assert (got, (0,) * len(orders)) == want, (p, a, orders, t, c, x)

    def test_ext_pow_matches_collection(self):
        # every element, kernel part included, for n from 0 to 2 ord + 1
        for p, a, orders, t, c in POWER_DATA:
            E = ext_build(p, a, orders, t, c)
            for g in elements(E):
                top = 2 * ext_order(E, g) + 1
                acc = identity(E)
                for n in range(top + 1):
                    assert ext_pow(E, g, n) == acc, (E, g, n)
                    acc = ext_mul(E, acc, g)

    @pytest.mark.parametrize(
        "p,a_max,profile",
        [(5, 1, (25, 25, 25)), (2, 3, (4, 4, 4, 4)), (3, 3, (9, 9, 9)), (2, 3, (4, 4, 4))],
    )
    def test_scan_forms_match_collection(self, p, a_max, profile):
        # every line the scan prefilters on.  The collected kernel part of
        # s(x)^n is linear in the data (ext_mul adds t_i per overflow and a
        # multiple of c_ij per collection), so checking the form on data
        # that generate the valid (t, c) checks it on every extension: t_i
        # is free, c_ij ranges over the multiples of p^a / gcd(o_i, o_j, p^a)
        from ncpbound.groupext import _power_form, _profiles

        checked = 0
        for a in range(1, a_max + 1):
            pa = p**a
            for orders in _profiles(p, profile):
                k = len(orders)
                pair_idx = list(combinations(range(k), 2))
                data = [tuple(int(s == i) for s in range(k + len(pair_idx))) for i in range(k)]
                for slot, (i, j) in enumerate(pair_idx):
                    unit = pa // gcd(orders[i], orders[j], pa)
                    data.append(tuple(unit * (s == k + slot) for s in range(k + len(pair_idx))))
                for datum in data:
                    E = CentralExt(p, a, orders, datum[:k], datum[k:])
                    for n, x in _lines_for(p, orders):
                        form = _power_form(p, a, orders, x, n)
                        got = sum(fv * dv for fv, dv in zip(form, datum)) % pa
                        assert (got, (0,) * k) == collected_power(E, lift(E, x), n), (E, x)
                        checked += 1
        assert checked > 0


def _good_residues_by_enumeration(p, a, orders):
    """The prefilter's pass set by testing every residue tuple against every
    line's form: the oracle for groupext._good_residues."""
    k = len(orders)
    forms = [
        tuple(v % p for v in groupext._power_form(p, a, orders, x, n))
        for n, x in _lines_for(p, orders)
    ]
    return {
        res
        for res in product(range(p), repeat=k + k * (k - 1) // 2)
        if all(sum(fv * rv for fv, rv in zip(form, res)) % p for form in forms)
    }


class TestGoodResidues:
    @pytest.mark.parametrize(
        "p,a_max,profile",
        [(5, 1, (25, 25, 25)), (2, 3, (4, 4, 4, 4)), (3, 3, (9, 9, 9)), (2, 3, (4, 4, 4))],
    )
    def test_matches_enumeration_on_scan_profiles(self, p, a_max, profile):
        # one pass set per profile, equal to the enumeration at every kernel
        # exponent a, so the set is also pinned as independent of a
        from ncpbound.groupext import _good_residues, _profiles

        nonempty = 0
        for orders in _profiles(p, profile):
            good = _good_residues(p, orders)
            for a in range(1, a_max + 1):
                assert good == _good_residues_by_enumeration(p, a, orders), (a, orders)
            nonempty += bool(good)
        # odd p leaves no residue tuple; for p = 2 nonempty sets are compared
        assert nonempty > 0 or p != 2

    @pytest.mark.parametrize(
        "p,orders", [(2, (2, 2)), (3, (3, 3)), (2, (4, 4, 2)), (5, (5, 5)), (3, (3, 3, 3))]
    )
    def test_matches_enumeration_on_synthetic_forms(self, monkeypatch, p, orders):
        # seeded forms with many zero coefficients, so forms close at every
        # coordinate, and some draws contain an identically zero form
        rng = random.Random(f"{p}{orders}")
        d = len(orders) + len(orders) * (len(orders) - 1) // 2
        zero_seen = False
        for _ in range(40):
            zero_rate = rng.choice((0.3, 0.6, 0.9))
            table = {}

            def form(p_, a, orders_, x, n):
                # reduced mod p^a, as _power_form's forms are
                if x not in table:
                    table[x] = tuple(
                        0 if rng.random() < zero_rate else rng.randrange(1, 3 * p)
                        for _ in range(d)
                    )
                return tuple(v % p_**a for v in table[x])

            monkeypatch.setattr(groupext, "_power_form", form)
            want = _good_residues_by_enumeration(p, 1, orders)
            zero_seen |= any(not any(v % p for v in f) for f in table.values())
            assert groupext._good_residues(p, orders) == want, table
        assert zero_seen


SMALL_GRIDS = [(2, 2, (4, 2)), (3, 1, (3, 3)), (2, 2, (2, 2, 2))]


def _scan_space(p, a_max, profile_max):
    """Every extension the scan enumerates, with no prefilter."""
    from ncpbound.groupext import _profiles

    for a in range(1, a_max + 1):
        pa = p**a
        for orders in _profiles(p, profile_max):
            t_space = [range(gcd(o, pa)) for o in orders]
            c_space = [
                range(0, pa, pa // gcd(orders[i], orders[j], pa))
                for i, j in combinations(range(len(orders)), 2)
            ]
            for t in product(*t_space):
                for c in product(*c_space):
                    yield CentralExt(p, a, orders, t, c)


def _scan_by_closure(p, a_max, profile_max):
    """The scan's defining enumeration with no prefilter, for cross-checking."""
    return [
        E for E in _scan_space(p, a_max, profile_max)
        if all(fiber_is_cyclic(E, x) for _, x in _lines_for(p, E.orders))
    ]


def _seeded_exts(p, a, shapes, count, seed):
    """count extensions with kernel order p^a, each of a quotient drawn from
    shapes and with seeded t and c data."""
    rng = random.Random(seed)
    pa = p**a
    for _ in range(count):
        orders = rng.choice(shapes)
        t = [rng.randrange(pa) for _ in orders]
        c = [rng.randrange(0, pa, pa // gcd(orders[i], orders[j], pa))
             for i, j in combinations(range(len(orders)), 2)]
        yield ext_build(p, a, orders, t, c)


def _fiber_is_cyclic_by_order(E, x):
    """Cyclicity as some fiber element having the fiber's size as its order."""
    F = fiber(E, x)
    return any(ext_order(E, g) == len(F) for g in F)


class TestFiberCyclicityByCount:
    """fiber_is_cyclic counts the solutions of g^p = 1; the order of every
    fiber element must give the same verdict."""

    @staticmethod
    def _assert_routes_agree(exts):
        verdicts = set()
        for E in exts:
            for x in product(*(range(o) for o in E.orders)):
                got = fiber_is_cyclic(E, x)
                assert got == _fiber_is_cyclic_by_order(E, x), (E, x)
                verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("p,a_max,profile", SMALL_GRIDS)
    def test_matches_order_route_on_scan_grids(self, p, a_max, profile):
        self._assert_routes_agree(_scan_space(p, a_max, profile))

    @pytest.mark.parametrize("p,a,shapes", [
        (2, 3, [(2, 2), (4, 2), (4, 4), (2, 2, 2)]),
        (2, 4, [(2, 2), (4, 2), (4, 4)]),
        (2, 5, [(2, 2), (4, 2)]),
        (3, 2, [(3, 3), (9, 3)]),
        (3, 3, [(3, 3)]),
    ])
    def test_matches_order_route_on_larger_kernels(self, p, a, shapes):
        # the count works mod p^a, so kernels past p^2 are checked too
        self._assert_routes_agree(_seeded_exts(p, a, shapes, 8, f"route{p}{a}"))

    def test_matches_order_route_on_named_and_power_data(self):
        named = [q8(), d4(), split_c4_c2(), heis3()]
        self._assert_routes_agree(named + [ext_build(*data) for data in POWER_DATA])


class TestProp32Scan:
    def test_minimal_range_is_exactly_q8(self):
        hits = prop32_scan(2, 1, (2, 2))
        assert hits == [CentralExt(2, 1, (2, 2), (1, 1), (1,))]

    @pytest.mark.parametrize("p,a_max,profile", SMALL_GRIDS)
    def test_matches_unfiltered_closure_scan(self, p, a_max, profile):
        assert prop32_scan(p, a_max, profile) == _scan_by_closure(p, a_max, profile)

    def test_builds_one_pass_set_per_profile(self, monkeypatch):
        # not one per (a, profile): a form reduced mod p does not depend on a
        from ncpbound.groupext import _good_residues, _profiles

        calls = []
        monkeypatch.setattr(
            groupext, "_good_residues",
            lambda p, orders: calls.append(orders) or _good_residues(p, orders),
        )
        prop32_scan(2, 3, (4, 4, 4, 4))
        assert len(calls) == len(_profiles(2, (4, 4, 4, 4))) == 12

    def test_odd_p_has_no_hits(self):
        assert prop32_scan(3, 2, (9, 9)) == []

    def test_negative_a_max_rejected_before_any_work(self, monkeypatch):
        monkeypatch.setattr(groupext, "is_prime", _forbidden)
        for a_max in (-1, -3):
            with pytest.raises(ValidationError, match=f"^a_max must be at least 0, got {a_max}$"):
                prop32_scan(2, a_max, (4, 4))

    def test_zero_a_max_is_an_empty_scan(self):
        assert prop32_scan(2, 0, (4, 4)) == []

    @pytest.mark.parametrize("p,a_max,profile", [
        (2, 15, (4, 4)), (2, 10**9, (4, 4)), (5, 2, (25, 25, 25)), (3, 1, (9,) * 6),
        (4, 40, (4, 4)),
    ])
    def test_past_the_ceiling_rejected_before_any_work(self, monkeypatch, p, a_max, profile):
        monkeypatch.setattr(groupext, "is_prime", _forbidden)
        with pytest.raises(ValidationError, match=f"ceiling {MAX_GROUP_ORDER} "):
            prop32_scan(p, a_max, profile)

    @pytest.mark.parametrize("p", [-2, 0, 1, 4, 9])
    def test_non_prime_p_rejected(self, p):
        with pytest.raises(ValidationError, match=f"^{p} is not prime$"):
            prop32_scan(p, 1, (4, 4))

    def test_rank_two_range(self):
        hits = prop32_scan(2, 2, (4, 4))
        assert CentralExt(2, 1, (2, 2), (1, 1), (1,)) in hits
        assert all(E.kernel_order == 2 for E in hits)
        assert CentralExt(2, 1, (2, 2), (0, 1), (1,)) not in hits
