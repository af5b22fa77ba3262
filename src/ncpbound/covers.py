"""Covers of M/K inside larger radical extensions, and their certificates.

A cover is a second radical extension L containing M, tracked together with
M so relative local degrees [L:M]_P come out as exact quotients.  On top of
that sit bounded certificate scans: does some abelian cover of relative
degree m satisfy every local divisor constraint from a finite place set S?
A scan that finds nothing reports a bounded-search outcome, never a proof
of nonexistence.  The module also carries the exponent ceiling report for
the fiber bound and the tame inertia divisibility check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod
from typing import Optional

from .arith import is_squarefree, prime_field, require_prime
from .errors import InvariantError, ValidationError
from .extensions import (
    AbExt,
    cyclotomic_degree,
    gal_exponent,
    is_real_field,
    local_data,
    local_degree,
    r_value,
    radicand_order,
    roots_of_unity_s,
)
from .fields import Place, fqt_const, fqt_from_factors, monic_irreducibles
from .isolation import d_value

__all__ = [
    "Cover",
    "CertReport",
    "BoundReport",
    "build_cover",
    "cover_local_degree",
    "kernel_profile",
    "full_local_degree",
    "candidate_radicands",
    "check_Bm",
    "check_cor210",
    "contains_sub_cover",
    "inertia_bound_check",
    "bound_report",
]


@dataclass(frozen=True)
class Cover:
    """L over M over K.  rel_degree = [L:M] = [L:K]/[M:K]."""

    M: AbExt
    L: AbExt
    rel_degree: int


def build_cover(M: AbExt, extra, n_prime: int) -> Cover:
    """Adjoin extra radicands (and possibly raise the exponent to n') to M.

    The radicands of M are re-powered by n'/n so that their n-th roots stay
    inside the new field; their class orders are unchanged by this, which
    makes [L:M] the product of the orders of the extra radicands.
    """
    if n_prime % M.n != 0:
        raise ValidationError(f"cover exponent {n_prime} is not a multiple of {M.n}")
    e = n_prime // M.n
    if M.base.is_rationals():
        lifted = list(M.radicands)
    else:
        lifted = [f.pow(e) for f in M.radicands]
    L = AbExt(M.base, n_prime, tuple(lifted) + tuple(extra))
    if L.orders[: len(M.radicands)] != M.orders:
        raise InvariantError(f"re-powered radicands changed class orders: {L.orders}")
    rel = L.degree // M.degree
    if rel != prod(L.orders[len(M.radicands):], start=1):
        raise InvariantError(f"[L:M] = {rel} is not the product of the extra orders")
    return Cover(M, L, rel)


def kernel_profile(C: Cover) -> tuple:
    """Cyclic factor orders of Gal(L/M): the orders of the extra radicands."""
    return C.L.orders[len(C.M.radicands):]


def cover_local_degree(C: Cover, P: Place) -> int:
    """[L:M]_P as the exact quotient of the two local degrees."""
    above, below = local_degree(C.L, P), local_degree(C.M, P)
    if above % below:
        raise InvariantError(f"local degree {below} at {P} does not divide {above}")
    return above // below


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

    Over Q: -1, then each squarefree 2 <= a <= bound as a, -a.  Over F_q(t):
    the smallest generator of the constant group first, then the monic
    irreducibles of degree up to bound, by degree then lexicographically.
    """
    if base.is_rationals():
        pool = [-1]
        for a in range(2, bound + 1):
            if is_squarefree(a):
                pool.extend((a, -a))
        return pool
    pool = [fqt_const(base.q, prime_field(base.q).primitive_root())]
    for d in range(1, bound + 1):
        for coeffs in monic_irreducibles(base.q, d):
            pool.append(fqt_from_factors(base.q, 1, [(coeffs, 1)]))
    return pool


def _divisor_checks(C: Cover, m: int, places) -> list:
    checks = []
    for P in places:
        need = d_value(P, m, C.M)
        got = cover_local_degree(C, P)
        checks.append(
            (f"divisor at {P}", got % need == 0, f"required {need}, local degree {got}")
        )
    return checks


def check_Bm(M: AbExt, m: int, S, radicand_bound: Optional[int] = None,
             max_extra: int = 2) -> CertReport:
    """Scan abelian covers of relative degree m for one meeting every
    divisor constraint over S.  The scan adjoins up to max_extra radicands
    from candidate_radicands without raising the exponent; a miss means
    only that this bounded family holds no witness.

    The default bound is 100 over Q (absolute value) and 3 over F_q(t)
    (polynomial degree; the pool grows like q^d past that).
    """
    if m < 1:
        raise ValidationError("m must be a positive integer")
    if radicand_bound is None:
        radicand_bound = 100 if M.base.is_rationals() else 3
    places = tuple(sorted(set(S), key=lambda P: P.sort_key()))
    pool = candidate_radicands(M.base, radicand_bound)
    orders = [radicand_order(M.base, M.n, f) for f in pool]
    tried = 0
    for k in range(max_extra + 1):
        for combo in combinations(zip(pool, orders), k):
            # a cover that builds has [L:M] = the product of the extra
            # orders, so no other combo can reach degree m
            if prod(o for _, o in combo) != m:
                continue
            try:
                C = build_cover(M, tuple(f for f, _ in combo), M.n)
            except ValidationError:
                continue
            tried += 1
            checks = _divisor_checks(C, m, places)
            if all(ok for _, ok, _ in checks):
                return CertReport("Bm", m, places, C, tuple(checks))
    detail = (
        f"no abelian witness of relative degree {m} over {len(pool)} radicands"
        f" ({tried} candidates had the right degree)"
    )
    return CertReport("Bm", m, places, None, (("witness", False, detail),))


def check_cor210(M: AbExt, p: int, n: int, S, C: Cover) -> CertReport:
    """Evaluate a given p^n-cover against the three certificate conditions:
    divisor constraints over S, kernel rank at most 2, and trivial action
    of the cyclotomic complement (automatic for these abelian covers)."""
    if C.M != M:
        raise ValidationError("cover does not extend this M")
    pn = p**n
    if C.rel_degree != pn:
        raise ValidationError(f"cover has relative degree {C.rel_degree}, need {pn}")
    places = tuple(sorted(set(S), key=lambda P: P.sort_key()))
    checks = _divisor_checks(C, pn, places)
    profile = kernel_profile(C)
    rank = sum(1 for o in profile if o % p == 0)
    checks.append(("kernel-rank", rank <= 2, f"kernel factors {profile}"))
    checks.append(("trivial-action", True, "abelian cover: conjugation is trivial"))
    return CertReport("Cor210", pn, places, C, tuple(checks), p=p, n=n)


def contains_sub_cover(C: Cover, m_prime: int) -> Optional[Cover]:
    """A cover of the same M with relative degree m_prime built from a
    subset of C's extra radicands, or None if no subset gives that degree."""
    extras = C.L.radicands[len(C.M.radicands):]
    for k in range(len(extras) + 1):
        for combo in combinations(extras, k):
            try:
                sub = build_cover(C.M, combo, C.L.n)
            except ValidationError:
                continue
            if sub.rel_degree == m_prime:
                return sub
    return None


def inertia_bound_check(C: Cover, P: Place, p: int) -> bool:
    """Tame divisibility bound on ramification in the full cover: e_P(L/K)
    divides p^s for odd p and 2^(r+1) for p = 2, with s and r read off M."""
    if P.kind == "real":
        raise ValidationError("the inertia bound applies to finite places")
    e = local_data(C.L, P).ram_index
    if p == 2:
        limit = 2 ** (r_value(C.M) + 1)
    else:
        limit = p ** roots_of_unity_s(C.M, p)
    return limit % e == 0


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
    if p == M.base.char:
        raise ValidationError(
            f"p = {p} equals the field characteristic; the ceiling analysis is tame only"
        )
    if chi_order < 1 or chi_order % gal_exponent(M) != 0:
        raise ValidationError(
            f"character order {chi_order} is incompatible with the Galois exponent"
        )
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
