"""Brauer classes of the base field as finite vectors of local invariants.

A class is stored by its nonzero Hasse invariants, one element of Q/Z per
place, summing to zero.  Restriction along an abelian extension M only
needs the local degrees of M, so everything here stays indexed by places
of the base field: the invariant at a place of M above P is the one at P
multiplied by the local degree, independent of the chosen place above.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .arith import QZ, QZ_ZERO, factorize, require_prime, vp
from .errors import InvariantError, ValidationError
from .extensions import AbExt, is_real_field, local_degree, require_chi_order
from .fields import BaseField, Place, enumerate_places, first_places, real_place
from .isolation import isolation_report


@dataclass(frozen=True)
class BrauerClass:
    """Finitely many nonzero local invariants in Q/Z, summing to zero, sorted
    by place; built and validated by make_class."""

    invariants: tuple[tuple[Place, QZ], ...]

    def invariant(self, place: Place) -> QZ:
        for P, inv in self.invariants:
            if P == place:
                return inv
        return QZ_ZERO

    @property
    def support(self) -> tuple[Place, ...]:
        return tuple(P for P, _ in self.invariants)


def _total(invariants) -> tuple[int, int]:
    """Sum in Q/Z as (num mod den, den) over den the lcm of the orders."""
    den = lcm(*(inv.den for inv in invariants))
    return sum(inv.num * (den // inv.den) for inv in invariants) % den, den


def make_class(invariants) -> BrauerClass:
    """Build a class from a place -> Q/Z mapping (or pair iterable); the one
    place a class is validated.

    Duplicate places accumulate; zero invariants are dropped.  Then a real
    place must carry 1/2, all places must share one base field, and the
    invariants must sum to zero.
    """
    items = invariants.items() if hasattr(invariants, "items") else invariants
    acc: dict[Place, QZ] = {}
    for place, inv in items:
        if not isinstance(place, Place):
            raise ValidationError(f"not a place: {place!r}")
        if not isinstance(inv, QZ):
            raise ValidationError(f"not an element of Q/Z: {inv!r}")
        acc[place] = acc[place] + inv if place in acc else inv
    pairs = [(P, inv) for P, inv in acc.items() if not inv.is_zero()]
    if any(P.kind == "real" and inv != QZ(1, 2) for P, inv in pairs):
        raise ValidationError("a real place carries invariant 0 or 1/2 only")
    if len({P.base for P, _ in pairs}) > 1:
        raise ValidationError("invariants live over different base fields")
    num, den = _total([inv for _, inv in pairs])
    if num:
        raise ValidationError(f"invariants sum to {QZ(num, den)}, not 0")
    return BrauerClass(tuple(sorted(pairs, key=lambda e: e[0].sort_key())))


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
    return lcm(*(inv.scale(local_degree(M, P)).order for P, inv in alpha.invariants))


def fiber_index(alpha: BrauerClass, M: AbExt, chi_order: int) -> int:
    """chi_order times the restricted index.

    chi_order is the order of the character cutting out M and must be a
    multiple of the exponent of Gal(M/K).
    """
    require_chi_order(M, chi_order)
    return chi_order * restricted_index(alpha, M)


def splits(local_degrees, alpha: BrauerClass) -> bool:
    """Whether a field with the local degrees [L:K]_P kills every invariant:
    local_index | degree at each support place.  local_degrees maps every
    support place to its degree."""
    return all(local_degrees[P] % inv.order == 0 for P, inv in alpha.invariants)


_WITNESS_BOUND = 1000


def _find_witness(M: AbExt, p: int, value: int, exclude, preferred) -> Place:
    """First finite place with v_p(local degree) == value: members of the
    preferred list first, then all places by increasing norm."""
    walk = itertools.chain(preferred, enumerate_places(M.base, _WITNESS_BOUND))
    found = (P for P in walk if P not in exclude and vp(local_degree(M, P), p) == value)
    return first_places(found, 1, _WITNESS_BOUND, f"places with v_{p}(local degree) = {value}")[0]


def construct_class(M: AbExt, m: int, S) -> BrauerClass:
    """A class whose restriction to M has index exactly m and meets the
    divisor constraint d_value(P, m, M) at every P in S.

    Per prime power p^n dividing m exactly: two witness places realizing
    the top two valuations u1 >= u2 are drawn (S members preferred, then
    smallest norm); every other finite place of S gets the canonical
    invariant 1/p^(n+v) with v the valuation of its own local degree; the
    u2 witness takes the unit numerator c that gives the running sum full
    order p^(n+u2); the u1 witness balances the total to zero.  With the
    partial sum a/p^(n+u2), c is 1, or 2 when p | a + 1; when p = 2 and a is
    odd, one extra u2 place with 1/p^(n+u2) is drafted first to make a even.
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
    entries: list[tuple[Place, QZ]] = []
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
        # only p1, the lone u1 holder, has v_p above u2
        x0 = QZ(*_total(component.values()))
        if full % x0.den:
            raise InvariantError(f"partial sum {x0} has order above p^(n+u2) = {full}")
        a = x0.num * (full // x0.den)
        if p == 2 and a % 2:
            extra = _find_witness(M, p, rep.u2, {p1, p2, *component}, finite_S)
            component[extra] = QZ(1, full)
            a += 1
        c = 1 if (a + 1) % p else 2
        component[p2] = QZ(c, full)
        component[p1] = QZ(-(a + c), full)
        entries.extend(component.items())
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


@lru_cache(maxsize=None)
def _place_pool(base: BaseField) -> tuple:
    """The places of norm <= 200 random_class draws from, walked once per base."""
    return tuple(enumerate_places(base, 200))


def random_class(base: BaseField, rng: random.Random) -> BrauerClass:
    """Random valid class: 2 to 6 finite support places of norm <= 200,
    random small-order invariants, the last place balancing the sum."""
    chosen = rng.sample(_place_pool(base), rng.randint(2, 6))
    entries = {P: QZ(rng.randint(1, 23), rng.randint(2, 24)) for P in chosen[:-1]}
    num, den = _total(entries.values())
    entries[chosen[-1]] = QZ(-num, den)
    return make_class(entries)
