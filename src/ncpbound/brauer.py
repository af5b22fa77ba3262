"""Brauer classes of the base field as finite vectors of local invariants.

A class is stored by its nonzero Hasse invariants, one element of Q/Z per
place, summing to zero.  Restriction along an abelian extension M only
needs the local degrees of M, so everything here stays indexed by places
of the base field: the invariant at a place of M above P is the one at P
multiplied by the local degree, independent of the chosen place above.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .arith import QZ, QZ_ZERO, factorize, require_prime, vp
from .errors import IncompleteLocalData, SearchExhausted, ValidationError
from .extensions import AbExt, gal_exponent, is_real_field, local_degree
from .fields import BaseField, Place, enumerate_places, real_place
from .isolation import isolation_report


@dataclass(frozen=True)
class BrauerClass:
    """Finitely many nonzero local invariants in Q/Z, summing to zero."""

    invariants: tuple[tuple[Place, QZ], ...]

    def __post_init__(self):
        total = QZ_ZERO
        seen = set()
        bases = set()
        for place, inv in self.invariants:
            if inv.is_zero():
                raise ValidationError("zero invariants must not be stored")
            if place in seen:
                raise ValidationError(f"duplicate invariant at {place}")
            seen.add(place)
            bases.add(place.base)
            if place.kind == "real" and inv != QZ(1, 2):
                raise ValidationError("a real place carries invariant 0 or 1/2 only")
            total = total + inv
        if len(bases) > 1:
            raise ValidationError("invariants live over different base fields")
        if not total.is_zero():
            raise ValidationError(f"invariants sum to {total}, not 0")
        ordered = tuple(sorted(self.invariants, key=lambda e: e[0].sort_key()))
        object.__setattr__(self, "invariants", ordered)

    def invariant(self, place: Place) -> QZ:
        for P, inv in self.invariants:
            if P == place:
                return inv
        return QZ_ZERO

    @property
    def support(self) -> tuple[Place, ...]:
        return tuple(P for P, _ in self.invariants)

    def is_zero(self) -> bool:
        return not self.invariants

    def __add__(self, other: "BrauerClass") -> "BrauerClass":
        acc = dict(self.invariants)
        for P, inv in other.invariants:
            acc[P] = acc.get(P, QZ_ZERO) + inv
        return make_class(acc)

    def __neg__(self) -> "BrauerClass":
        return BrauerClass(tuple((P, -inv) for P, inv in self.invariants))

    def p_part(self, p: int) -> "BrauerClass":
        """The summand of p-power order in the primary decomposition."""
        acc = {}
        for P, inv in self.invariants:
            parts = inv.p_primary()
            if p in parts:
                acc[P] = parts[p]
        return make_class(acc)

    def __str__(self) -> str:
        if not self.invariants:
            return "0"
        return ", ".join(f"inv({P}) = {inv}" for P, inv in self.invariants)


def make_class(invariants) -> BrauerClass:
    """Build a validated class from a place -> Q/Z mapping (or pair iterable).

    Duplicate places accumulate; zero invariants are dropped.
    """
    items = invariants.items() if hasattr(invariants, "items") else invariants
    acc: dict[Place, QZ] = {}
    for place, inv in items:
        if not isinstance(place, Place):
            raise ValidationError(f"not a place: {place!r}")
        if not isinstance(inv, QZ):
            raise ValidationError(f"not an element of Q/Z: {inv!r}")
        acc[place] = acc.get(place, QZ_ZERO) + inv
    return BrauerClass(tuple((P, v) for P, v in acc.items() if not v.is_zero()))


def index(alpha: BrauerClass) -> int:
    """lcm of the local invariant orders; 1 for the zero class."""
    return lcm(*(inv.order for _, inv in alpha.invariants))


def local_index(alpha: BrauerClass, place: Place) -> int:
    return alpha.invariant(place).order


def _check_base(alpha: BrauerClass, M: AbExt) -> None:
    if alpha.invariants and alpha.invariants[0][0].base != M.base:
        raise ValidationError("class and extension live over different base fields")


def restricted_local_index(alpha: BrauerClass, M: AbExt, place: Place) -> int:
    """Order of the invariant after scaling by the local degree of M at place."""
    _check_base(alpha, M)
    inv = alpha.invariant(place)
    if inv.is_zero():
        return 1
    return inv.scale(local_degree(M, place)).order


def restricted_index(alpha: BrauerClass, M: AbExt) -> int:
    """lcm of the restricted local indices over the support."""
    _check_base(alpha, M)
    return lcm(*(restricted_local_index(alpha, M, P) for P in alpha.support))


def fiber_index(alpha: BrauerClass, M: AbExt, chi_order: int) -> int:
    """chi_order times the restricted index.

    chi_order is the order of the character cutting out M and must be a
    multiple of the exponent of Gal(M/K).
    """
    if chi_order < 1 or chi_order % gal_exponent(M) != 0:
        raise ValidationError(
            f"character order {chi_order} is incompatible with the Galois exponent"
        )
    return chi_order * restricted_index(alpha, M)


def splits(local_degrees, alpha: BrauerClass, over: str = "K", M: AbExt = None,
           complete: bool = False) -> bool:
    """Whether a field with the given local degrees kills every invariant.

    over="K": the map carries [L:K]_P and the test is local_index | degree.
    over="M": the map carries [L:M]_P and the test uses the restricted
    local index of alpha over M, which must then be supplied.
    A support place missing from the map is an error unless complete=True,
    in which case it reads as degree 1.
    """
    if over not in ("K", "M"):
        raise ValidationError('over must be "K" or "M"')
    if over == "M":
        if M is None:
            raise ValidationError("the over-M test needs the extension")
        _check_base(alpha, M)
    for place, inv in alpha.invariants:
        if place in local_degrees:
            deg = local_degrees[place]
        elif complete:
            deg = 1
        else:
            raise IncompleteLocalData(f"no local degree supplied at {place}")
        need = inv.order if over == "K" else restricted_local_index(alpha, M, place)
        if deg % need != 0:
            return False
    return True


_WITNESS_BOUND = 1000


def _find_witness(M: AbExt, p: int, value: int, exclude, preferred) -> Place:
    """First finite place with v_p(local degree) == value: members of the
    preferred list first, then all places by increasing norm."""
    for P in preferred:
        if P not in exclude and vp(local_degree(M, P), p) == value:
            return P
    for P in enumerate_places(M.base, _WITNESS_BOUND):
        if P not in exclude and vp(local_degree(M, P), p) == value:
            return P
    raise SearchExhausted(
        f"no place with v_{p}(local degree) = {value} below norm {_WITNESS_BOUND}"
    )


def construct_class(M: AbExt, m: int, S) -> BrauerClass:
    """A class whose restriction to M has index exactly m and meets the
    divisor constraint d_value(P, m, M) at every P in S.

    Per prime power p^n dividing m exactly: two witness places realizing
    the top two valuations u1 >= u2 are drawn (S members preferred, then
    smallest norm); every other finite place of S gets the canonical
    invariant 1/p^(n+v) with v the valuation of its own local degree; the
    u2 witness takes the unit numerator that gives the running sum full
    order p^(n+u2); the u1 witness balances the total to zero.  When p = 2
    and no unit numerator works, one extra u2 place is drafted to fix the
    parity of the count of maximal-order terms, and the choice is retried.
    """
    if m < 1:
        raise ValidationError("m must be a positive integer")
    if M.base.char and m % M.base.char == 0:
        raise ValidationError(
            f"m = {m} is divisible by the field characteristic; no tame class exists"
        )
    places = sorted(set(S), key=lambda P: P.sort_key())
    for P in places:
        if P.base != M.base:
            raise ValidationError(f"{P} does not live on the base field of M")
    finite_S = [P for P in places if P.kind != "real"]
    real_in_S = any(P.kind == "real" for P in places)
    entries: dict[Place, QZ] = {}
    for p, n in factorize(m).items():
        rep = isolation_report(M, p)
        p1 = _find_witness(M, p, rep.u1, exclude=set(), preferred=finite_S)
        p2 = _find_witness(M, p, rep.u2, exclude={p1}, preferred=finite_S)
        component: dict[Place, QZ] = {}
        for P in finite_S:
            if P in (p1, p2):
                continue
            v = vp(local_degree(M, P), p)
            component[P] = QZ(1, p ** (n + v))
        if p == 2 and real_in_S and is_real_field(M):
            component[real_place()] = QZ(1, 2)
        full = p ** (n + rep.u2)
        while True:
            x0 = sum(component.values(), QZ_ZERO)
            c = next(
                (c for c in range(1, full)
                 if c % p and (x0 + QZ(c, full)).order == full),
                None,
            )
            if c is not None:
                break
            extra = _find_witness(
                M, p, rep.u2, exclude={p1, p2, *component}, preferred=finite_S
            )
            component[extra] = QZ(1, full)
        component[p2] = QZ(c, full)
        component[p1] = -(x0 + component[p2])
        for P, inv in component.items():
            entries[P] = entries.get(P, QZ_ZERO) + inv
    return make_class(entries)


def check_lemma_2_1(alpha: BrauerClass, M: AbExt, p: int) -> bool:
    """Gap inequality at the p-isolated place: v_p of the restricted local
    index is at most v_p of the restricted global index minus the gap,
    floored at zero.  Vacuously true when no place is p-isolated."""
    require_prime(p)
    if p == M.base.char:
        return True
    rep = isolation_report(M, p)
    if rep.isolated_place is None:
        return True
    local = vp(restricted_local_index(alpha, M, rep.isolated_place), p)
    total = vp(restricted_index(alpha, M), p)
    return local <= max(total - rep.gap, 0)


def random_class(base: BaseField, rng: random.Random, max_norm: int = 200) -> BrauerClass:
    """Random valid class: 2 to 6 finite support places of norm <= max_norm,
    random small-order invariants, the last place balancing the sum."""
    pool = list(enumerate_places(base, max_norm))
    chosen = rng.sample(pool, rng.randint(2, 6))
    entries: dict[Place, QZ] = {}
    total = QZ_ZERO
    for P in chosen[:-1]:
        inv = QZ(rng.randint(1, 23), rng.randint(2, 24))
        entries[P] = inv
        total = total + inv
    entries[chosen[-1]] = -total
    return make_class(entries)
