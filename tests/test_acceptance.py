"""Whole-surface checks: worked examples, exhaustive scans, and property
sweeps at their documented sizes and time budgets."""

import random
import time
from itertools import product
from math import gcd

from helpers import check, ff3_quad, ff7_cubic, oracle_lemma_35, q_ext
from ncpbound.arith import is_prime
from ncpbound.brauer import (
    check_lemma_2_1,
    construct_class,
    fiber_index,
    make_class,
    random_class,
    restricted_index,
    restricted_local_index,
)
from ncpbound.errors import ValidationError
from ncpbound.extensions import (
    build_extension,
    find_places_with_frobenius,
    gal_exponent,
    galois_group,
    local_degree,
    qsigma_search,
)
from ncpbound.fields import (
    QQ,
    fqt_from_factors,
    prime_place,
    rational_function_field,
    real_place,
)
from ncpbound.groupext import (
    beta,
    ext_build,
    ext_inv,
    ext_mul,
    fiber_is_cyclic,
    gamma,
    prop32_scan,
    verify_lemma_34,
    verify_lemma_35,
)
from ncpbound.isolation import d_value, isolated_places, isolation_report
from ncpbound.worked import DEFAULT_SEED, run_ex41, run_ex43, run_property_suite

EX41_CHECKS = (
    "hypothesis",
    "degree-at-l",
    "degree-case-split",
    "no-isolated",
    "real-subfield",
    "minus-one-nonsquare",
    "cover-scan",
    "witness-class",
)

SPLITTING_FACTS = (
    "t-a-inert-in-K1",
    "t-ramified-in-K1",
    "t-1-split-in-K1",
    "t-a-ramified-in-K2",
    "t-inert-in-K2",
    "t-1-ramified-in-K2",
)


def test_three_flagship_prime_pairs_verify_every_check_under_budget():
    start = time.monotonic()
    for l, q in ((3, 11), (5, 7), (7, 3)):
        rep = run_ex41(l, q, bound=1000)
        assert rep.verdict, (l, q, rep.checks)
        assert tuple(name for name, _, _ in rep.checks) == EX41_CHECKS
        assert check(rep, "degree-at-l")[2] == f"[M:Q] at {l} is 4"
        assert check(rep, "no-isolated")[1]
        assert check(rep, "minus-one-nonsquare")[1]
        assert check(rep, "cover-scan")[1]
        # the witness detail pins the fiber index to exactly 8
        assert check(rep, "witness-class")[2].endswith("fiber 8")
    assert time.monotonic() - start < 10.0


def test_kummer_splitting_table_verifies_for_both_parameter_triples():
    start = time.monotonic()
    for p, q, a in ((3, 7, 2), (2, 3, 2)):
        rep = run_ex43(p, q, a)
        assert rep.verdict, (p, q, a, rep.checks)
        for name in SPLITTING_FACTS:
            assert check(rep, name)[1], (p, q, a, name)
    assert time.monotonic() - start < 5.0


def test_exhaustive_scan_only_admits_order_two_kernels():
    start = time.monotonic()
    hits2 = prop32_scan(2, 3, (4, 4, 4))
    hits3 = prop32_scan(3, 3, (9, 9, 9))
    assert time.monotonic() - start < 60.0
    assert hits3 == []
    assert hits2
    for E in hits2:
        assert E.p == 2 and E.kernel_order == 2, E
    assert ext_build(2, 1, (2, 2), (1, 1), (1,)) in hits2


def _vec_order(x, orders):
    n = 1
    for v, o in zip(x, orders):
        step = o // gcd(o, v)
        n = n * step // gcd(n, step)
    return n


def _line_generators(orders):
    reps = {}
    for x in product(*(range(o) for o in orders)):
        if not any(x):
            continue
        n = _vec_order(x, orders)
        line = frozenset(tuple((k * v) % o for v, o in zip(x, orders)) for k in range(n))
        reps.setdefault(line, x)
    return list(reps.values())


def _enumerated_extensions(per_block=60):
    exts = []
    for p in (2, 3):
        for a in (1, 2):
            for orders in ((p,), (p * p,), (p, p), (p * p, p), (p, p, p)):
                pa, k = p**a, len(orders)
                n = 0
                for t in product(range(pa), repeat=k):
                    for c in product(range(pa), repeat=k * (k - 1) // 2):
                        try:
                            exts.append(ext_build(p, a, orders, t, c))
                        except ValidationError:
                            continue
                        n += 1
                        if n >= per_block:
                            break
                    if n >= per_block:
                        break
    return exts


def test_pairing_laws_hold_on_bulk_enumerated_extensions():
    exts = _enumerated_extensions()
    assert len(exts) >= 500
    for E in exts:
        pa = E.p**E.a
        zero = (0,) * len(E.orders)
        gens = _line_generators(E.orders)
        for x in gens:
            assert beta(E, x, x) == 0, (E, x)
        small = gens[:6]
        for x in small:
            for y in small:
                want = beta(E, x, y)
                assert (want + beta(E, y, x)) % pa == 0, (E, x, y)
                # every pair of lifts must give the same commutator
                for k1 in (0, 1, pa - 1):
                    for k2 in (0, 1, pa - 1):
                        g = (k1 % pa, tuple(x))
                        h = (k2 % pa, tuple(y))
                        comm = ext_mul(
                            E, ext_mul(E, ext_inv(E, g), ext_inv(E, h)), ext_mul(E, g, h)
                        )
                        assert comm == (want, zero), (E, x, y, k1, k2)
        for x in small:
            for x2 in small:
                xs = tuple((u + v) % o for u, v, o in zip(x, x2, E.orders))
                for y in small:
                    assert beta(E, xs, y) == (beta(E, x, y) + beta(E, x2, y)) % pa, (
                        E, x, x2, y,
                    )
        for x in gens:
            assert verify_lemma_34(E, x), (E, x)
            if _vec_order(x, E.orders) == E.p:
                assert fiber_is_cyclic(E, x) == (gamma(E, x) != 0), (E, x)
        rep = verify_lemma_35(E)
        assert rep == oracle_lemma_35(E), E
        assert rep.consistent, E
        if E.p % 2 == 1:
            assert rep.homomorphism, E


def test_index_drop_inequality_holds_on_seeded_classes():
    fixtures = (q_ext(-1, 2), q_ext(-1, 5), q_ext(-1, 10))
    rng = random.Random(20260819)
    start = time.monotonic()
    for M in fixtures:
        for _ in range(1000):
            alpha = random_class(QQ, rng)
            assert check_lemma_2_1(alpha, M, 2), (M.describe(), str(alpha))
    assert time.monotonic() - start < 10.0


def test_constructed_classes_meet_index_and_divisor_contract():
    fixtures = (q_ext(-1, 2), q_ext(3, -7))
    pool = [prime_place(p) for p in range(2, 120) if is_prime(p)]
    rng = random.Random(424242)
    for M in fixtures:
        for m in (2, 3, 4, 8, 12):
            for _ in range(20):
                S = rng.sample(pool, rng.randint(1, 4))
                if rng.random() < 0.25:
                    S.append(real_place())
                alpha = construct_class(M, m, S)
                assert restricted_index(alpha, M) == m
                # independent route: smallest multiple killing every
                # restricted invariant, i.e. the lcm of their orders
                j = 1
                while not all(
                    inv.scale(local_degree(M, P) * j).is_zero()
                    for P, inv in alpha.invariants
                ):
                    j += 1
                assert j == m
                for P in S:
                    need = d_value(P, m, M)
                    got = restricted_local_index(alpha, M, P)
                    assert got % need == 0, (M.describe(), m, str(P), need, got)


def test_isolated_place_detection_matches_fixtures():
    M = q_ext(-1, 2)
    assert isolated_places(M) == [(prime_place(2), 2)]
    assert isolation_report(M, 2).gap == 1

    assert isolated_places(q_ext(3, -7)) == []

    F7 = rational_function_field(7)
    t7 = fqt_from_factors(7, 1, [((0, 1), 1)])
    F3 = rational_function_field(3)
    t3 = fqt_from_factors(3, 1, [((0, 1), 1)])
    cyclic_fixtures = (
        q_ext(5),
        q_ext(-1),
        q_ext(-2),
        build_extension(F7, 3, (t7,)),
        build_extension(F3, 2, (t3,)),
    )
    for M in cyclic_fixtures:
        assert isolated_places(M) == [], M.describe()

    assert isolated_places(ff7_cubic()) == []
    assert isolated_places(ff3_quad()) == []


def test_frobenius_and_norm_order_searches_stay_live():
    cases = (
        (q_ext(-1, 2), 2),
        (q_ext(3, -7), 2),
        (ff7_cubic(), 3),
        (ff3_quad(), 2),
    )
    start = time.monotonic()
    for M, p in cases:
        for sigma in galois_group(M):
            frob = find_places_with_frobenius(M, sigma, count=5, bound=10**5)
            assert len(frob) >= 5, (M.describe(), sigma)
            live = qsigma_search(M, p, sigma, count=5, bound=10**5)
            assert len(live) >= 5, (M.describe(), sigma)
    assert time.monotonic() - start < 30.0


def test_fiber_index_collapses_exactly_on_restricted_split():
    from ncpbound.arith import QZ

    rng = random.Random(975)
    for M in (q_ext(-1, 2), q_ext(3, -7)):
        e = gal_exponent(M)
        split_cases = [
            make_class({}),
            make_class({prime_place(2): QZ(1, 2), prime_place(5): QZ(1, 2)})
            if M.radicands == (3, -7)
            else make_class({prime_place(2): QZ(1, 2), prime_place(7): QZ(1, 2)}),
        ]
        for chi_order in (e, 2 * e, 4 * e):
            samples = split_cases + [random_class(QQ, rng) for _ in range(100)]
            for alpha in samples:
                fi = fiber_index(alpha, M, chi_order)
                ri = restricted_index(alpha, M)
                assert fi % chi_order == 0, (M.describe(), chi_order, str(alpha))
                assert (fi == chi_order) == (ri == 1), (M.describe(), chi_order, str(alpha))


def test_documented_mutations_each_trip_a_named_battery():
    clean = run_property_suite(seed=DEFAULT_SEED)
    assert clean.passed, clean.failed

    dropped_gap = run_property_suite(seed=DEFAULT_SEED, mutation="d-value-no-gap")
    assert not dropped_gap.passed
    assert set(dropped_gap.failed) & {"constructor-divisor", "bm-certificate-divisor"}

    flipped = run_property_suite(seed=DEFAULT_SEED, mutation="beta-flip")
    assert not flipped.passed
    assert "beta-bilinear" in flipped.failed
