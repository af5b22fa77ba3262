"""End-to-end example computations and the seeded property suite.

The run_* functions replay documented example computations and return a
PaperReport: the input parameters plus a checklist of named facts, with
the verdict being their conjunction.  Reports are pure functions of their
inputs, so repeated runs agree bit for bit.

run_property_suite executes one named battery per module area under a
single seed.  MUTATIONS documents two deliberate defects; injecting either
one must make at least one named battery fail, which is how the suite
demonstrates it can actually detect the bugs it claims to guard against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from .arith import QZ, is_prime, legendre, power_class_order, require_prime, vp
from .brauer import (
    check_lemma_2_1,
    construct_class,
    fiber_index,
    index,
    local_index,
    random_class,
    restricted_index,
    restricted_local_index,
)
from .covers import (
    build_cover,
    candidate_radicands,
    check_Bm,
    cover_local_degree,
    quadratic_cover_scan,
)
from .errors import SearchExhausted, ValidationError
from .extensions import (
    AbExt,
    build_extension,
    find_places_with_frobenius,
    galois_group,
    is_real_field,
    local_data,
    local_degree,
    qsigma_search,
)
from .fields import (
    QQ,
    Place,
    enumerate_places,
    first_places,
    fqt_from_factors,
    prime_place,
    rational_function_field,
)
from .groupext import (
    _p_torsion,
    beta,
    ext_build,
    ext_inv,
    ext_mul,
    lift,
    verify_lemma_34,
    verify_lemma_35,
)
from .isolation import d_value, isolated_places

DEFAULT_SEED = 7


@dataclass(frozen=True)
class PaperReport:
    """Named checklist for one worked example run.

    params is an ordered tuple of (key, value) pairs; checks is a tuple of
    (name, passed, detail) triples in evaluation order.
    """

    example: str
    params: tuple
    checks: tuple

    @property
    def verdict(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _quad(*radicands) -> AbExt:
    return build_extension(QQ, 2, tuple(radicands))


def _fqt_linear_product(q: int, *roots):
    """Monic product of (t - r) over the given roots of F_q."""
    return fqt_from_factors(q, 1, tuple((((-r) % q, 1), 1) for r in roots))


def run_ex41(l: int, q: int, bound: int = 1000) -> PaperReport:
    """Biquadratic computation for a pair of odd primes (l, q).

    Checks, in order: the three hypotheses on the pair; the forced local
    degree 4 at l and at the case-split place (q when l = 3 mod 4, else 2);
    no isolated primes; the sign facts (Q(sqrt q) is real, M is not, and -1
    is a nonsquare mod q); that no quadratic cover M(sqrt d) with squarefree
    |d| <= bound raises the local degree at l; and that a two-place witness
    class has index 8, local index 8 at l, restricted index 2 over M, and
    fiber index 8 for a character of order 4.

    A hypothesis violation is reported, not raised: the report then carries
    the single failed check.
    """
    if not (is_prime(l) and is_prime(q)) or 2 in (l, q) or l == q:
        raise ValidationError(f"need distinct odd primes, got l={l}, q={q}")
    if bound < 0:
        raise ValidationError(f"bound must be at least 0, got {bound}")
    params = (("l", l), ("q", q), ("bound", bound))
    hyp = (
        (q % 4 == 3, f"{q} = 3 (mod 4)"),
        ((q + l) % 8 != 0, f"{q} != -{l} (mod 8)"),
        (legendre(q, l) == -1, f"{q} is a nonsquare mod {l}"),
    )
    bad = [text for ok, text in hyp if not ok]
    if bad:
        return PaperReport(
            "ex41", params, (("hypothesis", False, "violated: " + "; ".join(bad)),)
        )
    checks = [("hypothesis", True, "; ".join(text for _, text in hyp))]

    M = _quad(q, -l)
    place_l, place_q = prime_place(l), prime_place(q)
    deg_l = local_degree(M, place_l)
    checks.append(("degree-at-l", deg_l == 4, f"[M:Q] at {l} is {deg_l}"))
    if l % 4 == 3:
        got = local_degree(M, place_q)
        detail = f"l = 3 (mod 4): [M:Q] at {q} is {got}"
    else:
        got = local_degree(M, prime_place(2))
        detail = f"l = 1 (mod 4): [M:Q] at 2 is {got}"
    checks.append(("degree-case-split", got == 4, detail))

    iso = isolated_places(M)
    checks.append(
        ("no-isolated", iso == [], f"isolated: {[(str(P), p) for P, p in iso]}")
    )
    checks.append(
        (
            "real-subfield",
            is_real_field(_quad(q)) and not is_real_field(M),
            f"Q(sqrt {q}) is real and M is not",
        )
    )
    checks.append(
        ("minus-one-nonsquare", legendre(-1, q) == -1, f"(-1 | {q}) = {legendre(-1, q)}")
    )

    blocked, built = quadratic_cover_scan(M, place_l, bound)
    checks.append(
        (
            "cover-scan",
            blocked,
            f"no M(sqrt d), squarefree |d| <= {bound}, moves the degree at {l}"
            f" ({built} covers built)",
        )
    )

    alpha = construct_class(M, 2, (place_l, place_q))
    ind, ind_l = index(alpha), local_index(alpha, place_l)
    res, fib = restricted_index(alpha, M), fiber_index(alpha, M, 4)
    checks.append(
        (
            "witness-class",
            (ind, ind_l, res, fib) == (8, 8, 2, 8),
            f"ind {ind}, ind at {l} = {ind_l}, restricted {res}, fiber {fib}",
        )
    )
    return PaperReport("ex41", params, tuple(checks))


def _splitting_is(K: AbExt, P: Place, want: str) -> tuple[bool, str]:
    ld = local_data(K, P)
    ok = {
        "inert": ld.ram_index == 1 and ld.degree == K.degree,
        "totally-ramified": ld.ram_index == K.degree,
        "split": ld.degree == 1,
    }[want]
    return ok, f"e = {ld.ram_index}, f = {ld.res_degree}"


def run_ex43(p: int, q: int, a: int) -> PaperReport:
    """Bicyclic example over F_q(t) with radicands t and (t-1)(t-a).

    Requires q = 1 (mod p) and a in F_q, not 0 or 1, not a p-th power.
    With s the p-valuation of q - 1 and n = p^s, the report verifies the
    six-entry splitting table for the degree-n subfields K1 (root of t) and
    K2 (root of (t-1)(t-a)) at the places (t), (t-1), (t-a), then full local
    degree n^2 at (t) and (t-a), no isolated primes, and records the b_p = 0
    conclusion those facts support.
    """
    require_prime(p)
    require_prime(q, "q")
    if (q - 1) % p != 0:
        raise ValidationError(f"{q} != 1 (mod {p}): no p-th roots of unity in F_{q}")
    a %= q
    if a in (0, 1):
        raise ValidationError("a must differ from 0 and 1 in F_q")
    if power_class_order(a, q, p) == 1:
        raise ValidationError(f"{a} is a {p}-th power in F_{q}")

    s = vp(q - 1, p)
    n = p**s
    base = rational_function_field(q)
    t = _fqt_linear_product(q, 0)
    g = _fqt_linear_product(q, 1, a)
    K1 = build_extension(base, n, (t,))
    K2 = build_extension(base, n, (g,))
    M = build_extension(base, n, (t, g))
    P_t = Place(base, "poly", coeffs=(0, 1))
    P_t1 = Place(base, "poly", coeffs=((q - 1) % q, 1))
    P_ta = Place(base, "poly", coeffs=((q - a) % q, 1))

    checks = [
        ("roots-of-unity", True, f"s = {s}, working degree n = {n}, [M:K] = {n * n}")
    ]
    table = (
        ("t-a-inert-in-K1", K1, P_ta, "inert"),
        ("t-ramified-in-K1", K1, P_t, "totally-ramified"),
        ("t-1-split-in-K1", K1, P_t1, "split"),
        ("t-a-ramified-in-K2", K2, P_ta, "totally-ramified"),
        ("t-inert-in-K2", K2, P_t, "inert"),
        ("t-1-ramified-in-K2", K2, P_t1, "totally-ramified"),
    )
    for name, K, P, want in table:
        ok, detail = _splitting_is(K, P, want)
        checks.append((name, ok, f"{want} at {P}: {detail}"))

    deg_ta, deg_t = local_degree(M, P_ta), local_degree(M, P_t)
    checks.append(
        (
            "full-degree-at-pivots",
            deg_ta == deg_t == n * n,
            f"[M:K] at {P_ta} is {deg_ta}, at {P_t} is {deg_t}",
        )
    )
    iso = isolated_places(M)
    checks.append(
        (
            "no-isolated",
            iso == [],
            f"none of {P_t}, {P_t1}, {P_ta} (or any other place) is isolated",
        )
    )
    basis = all(ok for _, ok, _ in checks)
    checks.append(
        (
            "b-p-zero",
            basis,
            f"b_{p} = 0 for the order-{n * n} character; its fiber contains "
            f"noncrossed products of index {p * n * n}"
            if basis
            else "prerequisite facts failed",
        )
    )
    return PaperReport("ex43", (("p", p), ("q", q), ("a", a)), tuple(checks))


def _base_roots_of_unity(base, p: int) -> int:
    """s with p^s the p-part of the roots of unity in the base field."""
    if base.is_rationals():
        return 1 if p == 2 else 0
    return vp(base.q - 1, p)


def _kummer_realization(base, n: int, conditions, radicand_bound: int):
    """Cyclic degree-n radical extension matching (place, pattern) conditions.

    Over Q the pool is the signed squarefree radicands up to the bound; over
    F_q(t) it is c times the product of the required ramified places' monic
    polynomials, c running over the nonzero constants.  Returns (K, f) for
    the first radicand whose extension satisfies every condition.
    """
    if base.is_rationals():
        pool = candidate_radicands(base, radicand_bound)
    else:
        ram = tuple(P for P, want in conditions if want == "totally-ramified")
        factors = tuple((P.coeffs, 1) for P in ram)
        pool = [fqt_from_factors(base.q, c, factors) for c in range(1, base.q)]
    for f in pool:
        try:
            K = build_extension(base, n, (f,))
        except ValidationError:
            continue
        if all(_splitting_is(K, P, want)[0] for P, want in conditions):
            return K, f
    raise SearchExhausted(
        f"no degree-{n} radicand realizing {[(str(P), w) for P, w in conditions]}"
        f" within bound {radicand_bound}"
    )


def run_prop42(
    p: int, pp: Place, bound: int = 200, radicand_bound: int = 60
) -> PaperReport:
    """Split-pattern construction isolating nothing at a tame place pp.

    Finds the two smallest auxiliary places q1, q2 (norm 1 mod p^s but not
    mod p^(s+1), with s from the base roots of unity), then realizes cyclic
    degree-p^s extensions K1 (pp inert, q1 totally ramified, q2 split) and
    K2 (q1 inert, pp and q2 totally ramified) by a bounded radicand search.
    The report records both realizations, full local degree at pp and q1 in
    the compositum, and that the compositum has no isolated primes.

    Raises ValidationError when the base lacks p-th roots of unity, p
    divides the residue norm of pp or a bound is negative, and
    SearchExhausted when either search runs out of candidates.
    """
    require_prime(p)
    if not isinstance(pp, Place) or pp.kind == "real":
        raise ValidationError("pp must be a nonarchimedean place")
    if radicand_bound < 0:
        raise ValidationError(f"radicand bound must be at least 0, got {radicand_bound}")
    base = pp.base
    s = _base_roots_of_unity(base, p)
    if s == 0:
        raise ValidationError(f"the base field has no {p}-th roots of unity")
    if pp.norm() % p == 0:
        raise ValidationError(f"{p} divides the residue norm of {pp}")
    n = p**s

    # N = 1 mod n but not mod n*p: N - 1 mod n*p is a nonzero multiple of n
    found = (P for P in enumerate_places(base, bound)
             if P != pp and (P.norm() - 1) % (n * p) in range(n, n * p, n))
    q1, q2 = first_places(found, 2, bound, f"places with norm 1 mod {n} but not mod {n * p}")

    cond1 = ((pp, "inert"), (q1, "totally-ramified"), (q2, "split"))
    cond2 = ((q1, "inert"), (pp, "totally-ramified"), (q2, "totally-ramified"))
    K1, f1 = _kummer_realization(base, n, cond1, radicand_bound)
    K2, f2 = _kummer_realization(base, n, cond2, radicand_bound)
    M = build_extension(base, n, (f1, f2))

    checks = [
        (
            "auxiliary-places",
            True,
            f"q1 = {q1}, q2 = {q2}: norms = 1 (mod {n}), != 1 (mod {n * p})",
        )
    ]
    for label, K, f, conds in (("K1", K1, f1, cond1), ("K2", K2, f2, cond2)):
        ok = all(_splitting_is(K, P, want)[0] for P, want in conds)
        facts = ", ".join(f"{want} at {P}" for P, want in conds)
        checks.append((f"{label.lower()}-realization", ok, f"radicand {f}: {facts}"))
    deg_pp, deg_q1 = local_degree(M, pp), local_degree(M, q1)
    checks.append(
        (
            "full-degree-at-pivots",
            deg_pp == deg_q1 == n * n,
            f"[M:K] at {pp} is {deg_pp}, at {q1} is {deg_q1}",
        )
    )
    iso = isolated_places(M)
    checks.append(
        ("no-isolated", iso == [], f"isolated: {[(str(P), r) for P, r in iso]}")
    )
    params = (
        ("p", p),
        ("pp", str(pp)),
        ("bound", bound),
        ("radicand_bound", radicand_bound),
    )
    return PaperReport("prop42", params, tuple(checks))


# ---------------------------------------------------------------------------
# property suite


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    mutation: Optional[str]
    batteries: tuple

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.batteries)

    @property
    def failed(self) -> tuple:
        return tuple(name for name, ok, _ in self.batteries if not ok)


def _d_value_no_gap(place: Place, m: int, M: AbExt) -> int:
    """Mutation fixture: d_value with the isolation gap dropped.

    Demands the full p-part of m at every finite place, which overshoots
    exactly where a place is isolated.
    """
    return d_value(place, m, M) if place.kind == "real" else m


def _beta_flipped(E, x, y) -> int:
    """Mutation fixture: commutator pairing with the arguments swapped."""
    return beta(E, y, x)


MUTATIONS = {
    "d-value-no-gap": {"d_value": _d_value_no_gap},
    "beta-flip": {"beta": _beta_flipped},
}

def _ff7_bicyclic() -> AbExt:
    return build_extension(
        rational_function_field(7), 3, (_fqt_linear_product(7, 0), _fqt_linear_product(7, 1, 2))
    )


def _battery_qz(rng, funcs):
    trials = 100
    for _ in range(trials):
        a = QZ(rng.randrange(-40, 40), rng.randrange(1, 40))
        b = QZ(rng.randrange(-40, 40), rng.randrange(1, 40))
        c = QZ(rng.randrange(-40, 40), rng.randrange(1, 40))
        if (a + b) + c != a + (b + c):
            return False, f"associativity broke on {a}, {b}, {c}"
        if not (a + (-a)).is_zero():
            return False, f"{a} plus its negative is nonzero"
        if not a.scale(a.order).is_zero():
            return False, f"order of {a} does not kill it"
        if QZ.parse(str(a)) != a:
            return False, f"parse/str mismatch on {a}"
    return True, f"{trials} random fraction triples"


def _battery_lemma21(rng, funcs):
    fixtures = (
        (_quad(-1, 2), 2),
        (_quad(-1, 5), 2),
        (_quad(-1, 10), 2),
        (_quad(3, -7), 2),
        (_ff7_bicyclic(), 3),
    )
    checked = 0
    for M, p in fixtures:
        for _ in range(25):
            alpha = random_class(M.base, rng)
            if not check_lemma_2_1(alpha, M, p):
                return False, f"gap inequality fails for a class over {M.radicands}"
            checked += 1
    return True, f"{checked} classes over {len(fixtures)} fixtures, 0 violations"


def _restricted_index_oracle(alpha, M) -> int:
    """Smallest j killing every scaled invariant; independent of the lcm route."""
    j = 1
    while not all(
        alpha.invariant(P).scale(local_degree(M, P) * j).is_zero()
        for P in alpha.support
    ):
        j += 1
    return j


def _battery_constructor(rng, funcs):
    cases = [
        (_quad(-1, 2), 4, (prime_place(2),)),
        (_quad(-1, 2), 8, (prime_place(2), prime_place(7))),
        (_quad(-1, 2), 12, (prime_place(2),)),
        (_quad(3, -7), 12, (prime_place(5),)),
    ]
    pool = list(enumerate_places(QQ, 60))
    fixtures = (_quad(3, -7), _quad(-1, 2))
    for _ in range(20):
        M = fixtures[rng.randrange(2)]
        m = rng.choice((2, 3, 4, 8, 12))
        cases.append((M, m, tuple(rng.sample(pool, rng.randint(1, 3)))))
    for M, m, S in cases:
        alpha = construct_class(M, m, S)
        got = restricted_index(alpha, M)
        if got != m or _restricted_index_oracle(alpha, M) != m:
            return False, f"restricted index {got} != {m} over {M.radicands}"
        for P in S:
            need = funcs["d_value"](P, m, M)
            have = restricted_local_index(alpha, M, P)
            if have % need != 0:
                return (
                    False,
                    f"divisor {need} not met at {P} (restricted local {have}, m = {m})",
                )
    return True, f"{len(cases)} constructions, divisor met at every requested place"


def _battery_fiber(rng, funcs):
    fixtures = (_quad(3, -7), _quad(-1, 2))
    checked = 0
    for M in fixtures:
        for _ in range(25):
            alpha = random_class(QQ, rng)
            chi = rng.choice((2, 4, 8))
            fi = fiber_index(alpha, M, chi)
            ri = restricted_index(alpha, M)
            if fi % chi != 0 or (fi == chi) != (ri == 1):
                return False, f"fiber index {fi} inconsistent with chi {chi}, ri {ri}"
            checked += 1
    return True, f"{checked} classes, fiber index law holds"


def _battery_cover_quotient(rng, funcs):
    covers = (
        build_cover(_quad(3, -7), (5,), 2),
        build_cover(_quad(11), (3,), 2),
        build_cover(_ff7_bicyclic(), (fqt_from_factors(7, 1, (((4, 1), 1),)),), 3),
    )
    checked = 0
    for C in covers:
        places = list(enumerate_places(C.M.base, 20))
        for P in places:
            if local_degree(C.L, P) != cover_local_degree(C, P) * local_degree(C.M, P):
                return False, f"degree quotient law fails at {P}"
            checked += 1
    return True, f"{checked} (cover, place) pairs"


def _battery_bm(rng, funcs):
    cases = (
        (_quad(11), 2, (prime_place(3),)),
        (_quad(11), 4, (prime_place(2),)),
        (_quad(-1, 2), 4, (prime_place(2),)),
    )
    for M, m, S in cases:
        rep = check_Bm(M, m, S)
        if not rep.passed:
            return False, f"no certificate for m = {m} over {M.radicands}"
        for P in S:
            need = funcs["d_value"](P, m, M)
            got = cover_local_degree(rep.witness, P)
            if got % need != 0:
                return (
                    False,
                    f"witness misses divisor {need} at {P} (relative degree {got})",
                )
    return True, f"{len(cases)} certificates found and re-verified"


_EXT_SAMPLE = (
    ("Q8", 2, 1, (2, 2), (1, 1), (1,)),
    ("D4", 2, 1, (2, 2), (0, 1), (1,)),
    ("Heis3", 3, 1, (3, 3), (0, 0), (1,)),
    ("E44", 2, 2, (4, 4), (1, 2), (1,)),
    ("E93", 3, 2, (9, 3), (4, 1), (3,)),
    ("E42", 2, 2, (4, 2), (3, 1), (2,)),
)


def _sample_exts():
    return [(name, ext_build(p, a, orders, t, c)) for name, p, a, orders, t, c in _EXT_SAMPLE]


def _battery_beta(rng, funcs):
    checked = 0
    for name, E in _sample_exts():
        vectors = list(product(*(range(o) for o in E.orders)))
        lifts = {x: lift(E, x) for x in vectors}
        inverses = {x: ext_inv(E, g) for x, g in lifts.items()}
        for x in vectors:
            if funcs["beta"](E, x, x) != 0:
                return False, f"{name}: pairing not alternating at {x}"
            for y in vectors:
                # expected value from the collection route, not from beta's closed form
                want, _ = ext_mul(E, ext_mul(E, inverses[x], inverses[y]),
                                  ext_mul(E, lifts[x], lifts[y]))
                if funcs["beta"](E, x, y) != want:
                    return (
                        False,
                        f"{name}: pairing at {x}, {y} is {funcs['beta'](E, x, y)}, "
                        f"bilinear form gives {want}",
                    )
                checked += 1
    return True, f"{checked} pairs across {len(_EXT_SAMPLE)} extensions"


def _battery_lemma34(rng, funcs):
    checked = 0
    for name, E in _sample_exts():
        vectors = [x for x in product(*(range(o) for o in E.orders)) if any(x)]
        rng.shuffle(vectors)
        for x in vectors[:40]:
            if not verify_lemma_34(E, x):
                return False, f"{name}: cyclic-fiber criterion fails at {x}"
            checked += 1
    return True, f"{checked} lines across {len(_EXT_SAMPLE)} extensions"


def _battery_lemma35(rng, funcs):
    for name, E in _sample_exts():
        rep = verify_lemma_35(E)
        if not rep.consistent:
            return False, f"{name}: homomorphism status contradicts the criterion"
        torsion = _p_torsion(E)
        crit = E.p != 2 or all(
            funcs["beta"](E, x, y) % 2 == 0 for x in torsion for y in torsion
        )
        if rep.homomorphism != crit:
            return False, f"{name}: recomputed criterion disagrees with the report"
    return True, f"{len(_EXT_SAMPLE)} extensions, reports consistent"


def _battery_isolated(rng, funcs):
    expected = (
        (_quad(-1, 2), [(prime_place(2), 2)]),
        (_quad(-1, 5), [(prime_place(2), 2)]),
        (_quad(-1, 10), [(prime_place(2), 2)]),
        (_quad(3, -7), []),
        (_quad(11), []),
        (_ff7_bicyclic(), []),
    )
    for M, want in expected:
        got = isolated_places(M)
        if got != want:
            return False, f"{M.radicands}: isolated {got}, expected {want}"
    return True, f"{len(expected)} fixtures match frozen isolation data"


def _battery_frobenius(rng, funcs):
    M = _quad(3, -7)
    group = galois_group(M)
    hits = 0
    try:
        for sigma in group:
            hits += len(find_places_with_frobenius(M, sigma, count=2, bound=3000))
            hits += len(qsigma_search(M, 2, sigma, count=1, bound=3000))
    except SearchExhausted as exc:
        return False, f"search ran dry: {exc}"
    return True, f"{hits} places found across {len(group)} automorphisms"


_BATTERIES = (
    ("qz-arithmetic", _battery_qz),
    ("lemma21", _battery_lemma21),
    ("constructor-divisor", _battery_constructor),
    ("fiber-index-law", _battery_fiber),
    ("cover-quotient", _battery_cover_quotient),
    ("bm-certificate-divisor", _battery_bm),
    ("beta-bilinear", _battery_beta),
    ("lemma34-fiber", _battery_lemma34),
    ("lemma35-consistency", _battery_lemma35),
    ("isolated-frozen", _battery_isolated),
    ("frobenius-liveness", _battery_frobenius),
)


def run_property_suite(
    seed: int = DEFAULT_SEED, mutation: Optional[str] = None
) -> SuiteReport:
    """Run every battery under one seed and collect (name, passed, detail).

    mutation, when given, swaps one ingredient per the MUTATIONS table so
    the corresponding battery can demonstrate detection.  Results are
    deterministic for a fixed (seed, mutation) pair.
    """
    funcs: dict[str, Callable] = {"d_value": d_value, "beta": beta}
    if mutation is not None:
        if mutation not in MUTATIONS:
            raise ValidationError(
                f"unknown mutation {mutation!r}; known: {sorted(MUTATIONS)}"
            )
        funcs.update(MUTATIONS[mutation])
    rng = random.Random(seed)
    rows = []
    for name, battery in _BATTERIES:
        ok, detail = battery(rng, funcs)
        rows.append((name, bool(ok), detail))
    return SuiteReport(seed, mutation, tuple(rows))
