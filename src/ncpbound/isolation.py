"""Ramification gaps and the places they single out.

For a tame prime p, collect the p-adic valuations of the local degrees of
M/K.  Any value realized by a Frobenius element recurs at infinitely many
unramified places, so the maximum u1 can be held by a single place only if
that place ramifies.  When that happens the second value u2 sits strictly
below u1, and the lone place at the top is the one spot where restriction
to M can shrink a Brauer class by more than the generic amount.  d_value
converts the gap into the divisor of m that must survive locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Optional

from .arith import factorize, require_tame, vp
from .errors import InvariantError, ValidationError
from .extensions import (
    AbExt,
    gal_exponent,
    is_real_field,
    local_degree,
    ramified_places,
)
from .fields import Place


@dataclass(frozen=True)
class IsolationReport:
    """u-statistics for one prime: the top two valuations, their gap, and
    the place holding the maximum alone (None when the maximum is shared)."""

    p: int
    u1: int
    u2: int
    gap: int
    isolated_place: Optional[Place]

    def __post_init__(self):
        if not self.gap == self.u1 - self.u2 >= 0:
            raise InvariantError(f"gap {self.gap} is not u1 - u2 >= 0"
                                 f" for u1 = {self.u1}, u2 = {self.u2}")
        if (self.isolated_place is not None) != (self.gap > 0):
            raise InvariantError(f"isolated place {self.isolated_place} with gap {self.gap}")


@lru_cache(maxsize=None)
def isolation_report(M: AbExt, p: int) -> IsolationReport:
    """Compute u1, u2 and the isolated place, if any, for the prime p.

    Memoised on (M, p) for the process, like local_data: the report is pure.

    Raises for p = char K: wild ramification has no bounded valuation
    family and is outside what this tool measures.
    """
    require_tame(M, p, "the gap is only defined tamely")
    # in prod Z/o_i the p-valuations of the element orders are exactly
    # 0, ..., v_p(exponent)
    frob_values = set(range(vp(gal_exponent(M), p) + 1))
    ram_values = {P: vp(local_degree(M, P), p) for P in ramified_places(M)}
    u1 = max(frob_values | set(ram_values.values()))
    holders = [P for P, v in ram_values.items() if v == u1]
    if u1 in frob_values or len(holders) != 1:
        return IsolationReport(p, u1, u1, 0, None)
    u2 = max(frob_values | {v for v in ram_values.values() if v != u1})
    return IsolationReport(p, u1, u2, u1 - u2, holders[0])


def u_values(M: AbExt, p: int) -> tuple[int, int]:
    rep = isolation_report(M, p)
    return rep.u1, rep.u2


def isolated_places(M: AbExt) -> list[tuple[Place, int]]:
    """All (place, p) pairs where the place alone attains the p-valuation
    maximum.  Archimedean places never qualify.  Every p is tame: over
    F_q(t) the Galois exponent divides q - 1, so no prime factor of it is q."""
    out = []
    for p in sorted(factorize(gal_exponent(M))):
        rep = isolation_report(M, p)
        if rep.isolated_place is not None:
            out.append((rep.isolated_place, p))
    out.sort(key=lambda pair: (pair[0].sort_key(), pair[1]))
    return out


def d_value(place: Place, m: int, M: AbExt) -> int:
    """The divisor of m that a cover's relative local degree must retain.

    At a p-isolated place the p-part drops by the gap; everywhere else the
    full p-part is required.  A real place keeps gcd(m, 2) when M is real
    and nothing when M is complex over it.
    """
    if m < 1:
        raise ValidationError("m must be a positive integer")
    if place.base != M.base:
        raise ValidationError("place does not live on the base field of M")
    if place.kind == "real":
        return gcd(m, 2) if is_real_field(M) else 1
    d = 1
    for p, k in factorize(m).items():
        drop = 0
        if p != M.base.char:
            rep = isolation_report(M, p)
            if rep.isolated_place == place:
                drop = rep.gap
        d *= p ** max(k - drop, 0)
    return d
