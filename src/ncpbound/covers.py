"""Covers of M/K inside larger radical extensions, and their certificates.

A cover is a second radical extension L containing M, tracked together with
M so relative local degrees [L:M]_P come out as exact quotients.  On top of
that sit bounded certificate scans: does some abelian cover of relative
degree m satisfy every local divisor constraint from a finite place set S?
A scan that finds nothing reports a bounded-search outcome, never a proof
of nonexistence.  The module also carries the exponent ceiling report for
the fiber bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt, prod
from typing import Optional

from .arith import factorize, prime_field, primes_upto, require_prime, require_tame
from .errors import InvariantError, ValidationError
from .extensions import (
    AbExt,
    _class_vector,
    _local_image,
    _vector_order,
    class_row,
    cyclotomic_degree,
    image_row,
    is_real_field,
    local_class_group,
    r_value,
    relative_degree,
    require_chi_order,
    roots_of_unity_s,
    span_members,
    span_squarefree,
)
from .fields import QQ, Place, fqt_const, fqt_from_factors, monic_irreducibles
from .isolation import d_value


@dataclass(frozen=True)
class Cover:
    """L over M over K, kept as the two fields; rel_degree = [L:M] =
    [L:K]/[M:K] is read off their degrees."""

    M: AbExt
    L: AbExt

    @property
    def rel_degree(self) -> int:
        return self.L.degree // self.M.degree

    @property
    def kernel_profile(self) -> tuple:
        """Cyclic factor orders of Gal(L/M): the orders of the extra radicands."""
        return self.L.orders[len(self.M.radicands):]


def build_cover(M: AbExt, extra, n_prime: int) -> Cover:
    """Adjoin extra radicands (and possibly raise the exponent to n') to M.

    The radicands of M are re-powered by n'/n so that their n-th roots stay
    inside the new field; their class orders are unchanged by this, which
    makes [L:M] the product of the orders of the extra radicands.
    """
    if n_prime % M.n != 0:
        raise ValidationError(f"cover exponent {n_prime} is not a multiple of {M.n}")
    e = n_prime // M.n
    lifted = M.radicands if M.base.is_rationals() else tuple(f.pow(e) for f in M.radicands)
    L = AbExt(M.base, n_prime, lifted + tuple(extra))
    if L.orders[: len(M.radicands)] != M.orders:
        raise InvariantError(f"re-powered radicands changed class orders: {L.orders}")
    C = Cover(M, L)
    if C.rel_degree != prod(C.kernel_profile, start=1):
        raise InvariantError(f"[L:M] = {C.rel_degree} is not the product of the extra orders")
    return C


def cover_local_degree(C: Cover, P: Place) -> int:
    """[L:M]_P: the index of the local image of M's radicands in that of L's,
    both read in K_P*/(K_P*)^n' (extensions.relative_degree)."""
    G, k = local_class_group(C.L, P), len(C.M.radicands)
    return relative_degree(G.n, G.span(k), [image_row(img) for img in G.images[k:]])


def full_local_degree(C: Cover, P: Place) -> bool:
    """Whether the cover is as large as possible locally at P.

    Finite P: [L:M]_P = [L:M].  Real P with M real: [L:M]_P = gcd(2, [L:M]).
    A real place where M is already complex passes unconditionally.
    """
    if P.kind == "real":
        if not is_real_field(C.M):
            return True
        return cover_local_degree(C, P) == gcd(2, C.rel_degree)
    return cover_local_degree(C, P) == C.rel_degree


@dataclass(frozen=True)
class CertReport:
    """Outcome of one certificate evaluation.

    checks is a tuple of (name, passed, detail).  The report passes as a
    whole when a witness is present and every check passed.
    """

    condition: str
    m: int
    S: tuple
    witness: Optional[Cover]
    checks: tuple
    p: Optional[int] = None
    n: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.witness is not None and all(ok for _, ok, _ in self.checks)


def candidate_radicands(base, bound: int) -> list:
    """Deterministic radicand pool for cover scans.

    Over Q: -1, then each squarefree 2 <= a <= bound as a, -a, sieved by
    striking the multiples of k^2 for each prime k <= sqrt(bound).  Over F_q(t):
    the smallest generator of the constant group first, then the monic
    irreducibles of degree up to bound, by degree then lexicographically.
    """
    if base.is_rationals():
        free = bytearray([1]) * (bound + 1)
        for k in primes_upto(isqrt(max(bound, 0))):
            free[k * k :: k * k] = bytes(len(free[k * k :: k * k]))
        pool = [-1]
        for a in range(2, bound + 1):
            if free[a]:
                pool.extend((a, -a))
        return pool
    pool = [fqt_const(base.q, prime_field(base.q).primitive_root())]
    for d in range(1, bound + 1):
        for coeffs in monic_irreducibles(base.q, d):
            pool.append(fqt_from_factors(base.q, 1, [(coeffs, 1)]))
    return pool


def _divisor_row(P: Place, need: int, got: int) -> tuple:
    return (f"divisor at {P}", got % need == 0, f"required {need}, local degree {got}")


def check_Bm(M: AbExt, m: int, S, radicand_bound: Optional[int] = None,
             max_extra: int = 2) -> CertReport:
    """Scan abelian covers of relative degree m for one meeting every
    divisor constraint over S.  The scan adjoins up to max_extra radicands
    from candidate_radicands without raising the exponent; a miss means
    only that this bounded family holds no witness.

    The default bound is 100 over Q (absolute value) and 3 over F_q(t)
    (polynomial degree; the pool grows like q^d past that).

    No cover is built until the witness: each pool radicand's class row and
    its images at the places of S are read once, a combination builds when
    its classes are independent over M's span, and its local degrees are
    span indices (extensions.relative_degree).
    """
    if m < 1:
        raise ValidationError("m must be a positive integer")
    if radicand_bound is None:
        radicand_bound = 100 if M.base.is_rationals() else 3
    if radicand_bound < 0:
        raise ValidationError(f"radicand bound must be at least 0, got {radicand_bound}")
    if max_extra < 0:
        raise ValidationError(f"max_extra must be at least 0, got {max_extra}")
    places = tuple(sorted(set(S), key=lambda P: P.sort_key()))
    need = [d_value(P, m, M) for P in places]
    below = [local_class_group(M, P).span() for P in places]
    pool = candidate_radicands(M.base, radicand_bound)
    # a cover that builds has [L:M] = the product of the extra orders, so
    # only nontrivial classes of order dividing m can take part
    cands, index = [], dict(M.columns)
    for f in pool:
        o = _vector_order(M.n, vec := _class_vector(M.base, M.n, f))
        if o > 1 and m % o == 0:
            images = [image_row(_local_image(M.base, M.n, f, P)) for P in places]
            cands.append((f, class_row(index, vec), o, images))
    tried = 0
    for k in range(max_extra + 1):
        for combo in combinations(cands, k):
            if prod(o for _, _, o, _ in combo) != m:
                continue
            # the cover builds iff the extra classes multiply M's span by m
            if relative_degree(M.n, M.span, [row for _, row, _, _ in combo]) != m:
                continue
            tried += 1
            got = [relative_degree(M.n, b, [c[3][j] for c in combo]) for j, b in enumerate(below)]
            checks = [_divisor_row(P, d, g) for P, d, g in zip(places, need, got)]
            if all(ok for _, ok, _ in checks):
                witness = build_cover(M, tuple(f for f, _, _, _ in combo), M.n)
                return CertReport("Bm", m, places, witness, tuple(checks))
    detail = (
        f"no abelian witness of relative degree {m} over {len(pool)} radicands"
        f" ({tried} candidates had the right degree)"
    )
    return CertReport("Bm", m, places, None, (("witness", False, detail),))


def quadratic_cover_scan(M: AbExt, P: Place, bound: int) -> tuple[bool, int]:
    """(blocked, built) for the covers M(sqrt d), d from the pool up to bound:
    built counts the covers up to the first that moves the degree at P, and
    blocked says that none does.

    M(sqrt d) is a cover when d's class lies outside the span of M's
    radicand classes, and it moves the degree at P when d's local image lies
    outside the span of M's images there.  Both spans are read as member sets.
    """
    span, G, built = span_squarefree(M), local_class_group(M, P), 0
    width = len(G.images[0])
    span_P = {tuple(x.get(k, 0) for k in range(width)) for x in span_members(2, G.span())}
    for d in candidate_radicands(QQ, bound):
        if d in span:
            continue
        built += 1
        if _local_image(QQ, 2, d, P) not in span_P:
            return False, built
    return True, built


def check_cor210(C: Cover, S) -> CertReport:
    """Evaluate a cover of prime-power degree p^n over C.M, with p and n read
    from its relative degree, against the three certificate conditions:
    divisor constraints over S, kernel rank at most 2, and trivial action of
    the cyclotomic complement (automatic for these abelian covers)."""
    M, pn = C.M, C.rel_degree
    fac = factorize(pn)
    if len(fac) != 1:
        raise ValidationError(f"relative degree {pn} is not a prime power")
    (p, n), = fac.items()
    places = tuple(sorted(set(S), key=lambda P: P.sort_key()))
    checks = [_divisor_row(P, d_value(P, pn, M), cover_local_degree(C, P)) for P in places]
    profile = C.kernel_profile
    rank = sum(1 for o in profile if o % p == 0)
    checks.append(("kernel-rank", rank <= 2, f"kernel factors {profile}"))
    checks.append(("trivial-action", True, "abelian cover: conjugation is trivial"))
    return CertReport("Cor210", pn, places, C, tuple(checks), p=p, n=n)


@dataclass(frozen=True)
class BoundReport:
    """What the exponent analysis yields for one prime p.

    With a noncyclic p-part of the Galois group the fiber bound is finite,
    at most 2s for odd p and 2(r+2) for p = 2; if moreover M has no p-th
    roots of unity the bound collapses to 0.  A cyclic p-part supports no
    ceiling by these means.  The interval records what is actually known:
    scans can raise the floor, never the ceiling.
    """

    p: int
    chi_order: int
    s: int
    r: int
    t_degree: int
    sylow_noncyclic: bool
    ceiling: Optional[int]
    exact: Optional[int]
    notes: tuple

    @property
    def interval(self) -> tuple:
        if self.exact is not None:
            return (self.exact, self.exact)
        return (0, self.ceiling)


def bound_report(M: AbExt, p: int, chi_order: int) -> BoundReport:
    require_prime(p)
    require_tame(M, p, "the ceiling analysis is tame only")
    require_chi_order(M, chi_order)
    s = roots_of_unity_s(M, p)
    r = r_value(M)
    t_deg = cyclotomic_degree(M, p)
    noncyclic = sum(1 for o in M.orders if o % p == 0) >= 2
    ceiling = None
    exact = None
    notes = []
    if not noncyclic:
        notes.append("the p-part of the Galois group is cyclic: no ceiling from this analysis")
    else:
        ceiling = 2 * (r + 2) if p == 2 else 2 * s
        if s == 0:
            exact = 0
            notes.append(
                "M has no p-th roots of unity: the bound is exactly 0, and the fiber"
                f" contains noncrossed products of index {p * chi_order} and above"
            )
        else:
            notes.append(
                f"bound confined to [0, {ceiling}]; certificate scans can raise the floor only"
            )
    return BoundReport(p, chi_order, s, r, t_deg, noncyclic, ceiling, exact, tuple(notes))
