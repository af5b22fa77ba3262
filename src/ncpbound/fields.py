"""Base fields Q and F_q(t), their places, and residue computations.

Conventions:

* Polynomials over F_q are tuples of coefficients in ascending order with no
  trailing zeros, so (3, 0, 1) is t^2 + 3.  Places of F_q(t) are monic
  irreducibles plus the degree place at infinity (uniformizer 1/t).
* Nonzero elements of F_q(t) are kept in factored-monomial form
  c * prod P_i^{e_i} with c in F_q* and the P_i monic irreducible.  That makes
  valuations and unit-part residues exact and cheap; nothing in scope needs
  to add two such elements.
* Places of Q are the finite primes and the one real place.
* Every place search filters a walk of enumerate_places in its own
  generator expression; first_places bounds it and reports exhaustion.
"""

from __future__ import annotations

import itertools
import struct
import sys
from dataclasses import dataclass, field
from math import prod
from types import SimpleNamespace

from .arith import (
    factorize,
    is_prime,
    power_class_order,
    prime_field,
    primes_upto,
    require_positive,
)
from .errors import InvariantError, SearchExhausted, ValidationError

# ---------------------------------------------------------------------------
# base fields


@dataclass(frozen=True)
class BaseField:
    kind: str  # "Q" or "Fq"
    q: int | None = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.q is not None:
                raise ValidationError("Q carries no q")
        elif self.kind == "Fq":
            if self.q is None or not is_prime(self.q):
                raise ValidationError("function field needs a prime q")
        else:
            raise ValidationError(f"unknown base field kind {self.kind!r}")

    @property
    def char(self) -> int:
        return 0 if self.kind == "Q" else self.q

    def is_rationals(self) -> bool:
        return self.kind == "Q"

    def __str__(self) -> str:
        return "Q" if self.kind == "Q" else f"F_{self.q}(t)"


QQ = BaseField("Q")


def rational_function_field(q: int) -> BaseField:
    return BaseField("Fq", q)


# ---------------------------------------------------------------------------
# polynomials over F_q (coefficient tuples, ascending)


def poly_trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_normalize(coeffs, q: int) -> tuple:
    return poly_trim([c % q for c in coeffs])


def poly_degree(a) -> int:
    if not a:
        raise ValidationError("zero polynomial has no degree here")
    return len(a) - 1


def _poly_mod(a, m, q: int) -> tuple:
    if not m:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(poly_trim(a))
    dm, lead_inv = len(m) - 1, pow(m[-1], -1, q)
    # a stays trimmed: one trim after each elimination step
    while a and len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        factor = a[-1] * lead_inv % q
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % q
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def _resultant(a, b, q: int) -> int:
    """Res(a, b) over F_q by the Euclidean algorithm: with r = a mod b,
    Res(a, b) = (-1)^(deg a * deg b) * lc(b)^(deg a - deg r) * Res(b, r),
    and Res(a, c) = c^(deg a) for a constant c.  For monic irreducible a
    this is the norm of b mod a from F_q[t]/(a) down to F_q.  At a monic
    linear b = t + b0 it is (-1)^(deg a) * a(-b0), by Horner's rule."""
    if len(b) == 2 and b[1] == 1:
        v = 0
        for c in reversed(a):
            v = (c - v * b[0]) % q
        return v if len(a) % 2 else -v % q
    res = 1
    while len(b) > 1:
        r = _poly_mod(a, b, q)
        if not r:
            return 0
        m, n = len(a) - 1, len(b) - 1
        res = res * (-1) ** (m * n) * pow(b[-1], m - len(r) + 1, q) % q
        a, b = b, r
    return res * pow(b[0], len(a) - 1, q) % q if b else 0


# monic_irreducibles(q, d) sieves all q^d monics of degree d, and proving a
# polynomial of degree d irreducible trial-divides it by those of degree
# <= d/2.  A sieve or a polynomial past its ceiling is refused, not left to run.
MAX_SIEVE = 10**5
MAX_MONICS = 10**6


def _require_sieve_fits(q: int, degree: int) -> None:
    k = degree // 2
    # q >= 2, so an exponent past the ceiling's bit length is too large already
    if k > MAX_SIEVE.bit_length() or q**k > MAX_SIEVE:
        raise ValidationError(f"degree {degree} over F_{q} is out of range: proving it "
                              f"irreducible would sieve {q}^{k} > {MAX_SIEVE} polynomials")


def poly_is_irreducible(a, q: int) -> bool:
    """Trial division by the sieved monic irreducibles of degree <= deg/2;
    ValidationError for q not prime, or past the sieve ceiling."""
    prime_field(q)
    if len(a) <= 1:
        return False
    _require_sieve_fits(q, len(a) - 1)
    return all(_poly_mod(a, p, q) for e in range(1, (len(a) - 1) // 2 + 1)
               for p in monic_irreducibles(q, e))


def poly_str(a) -> str:
    if not a:
        return "0"
    terms = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            t = "t" if i == 1 else f"t^{i}"
            terms.append(t if c == 1 else f"{c}{t}")
    return "+".join(terms).replace("+-", "-")


_irreducible_cache: dict[tuple[int, int], tuple] = {}


def monic_irreducibles(q: int, degree: int) -> tuple:
    """All monic irreducibles of the given degree, sorted by coefficient tuple.

    A multiplicative sieve: every reducible monic of degree d is f*g with f
    monic irreducible of degree k <= d/2 and g monic of degree d - k.  The
    products come from Kronecker substitution: the monics g of degree d - k
    are packed into one integer, d + 1 fixed-width digits each, and one
    integer product per f yields every f*g at once.  A product coefficient
    sums at most k + 1 <= d/2 + 1 terms below q^2, so no digit carries.  The
    count is checked against Gauss's formula (1/d) sum_{e | d} mu(e) q^(d/e).
    A q that is not prime, a degree below 1 or q^d > MAX_MONICS is refused
    before any sieving.
    """
    key = (q, degree)
    if key not in _irreducible_cache:
        prime_field(q)
        if degree < 1:
            raise ValidationError(f"degree must be at least 1, got {degree}")
        if degree > MAX_MONICS.bit_length() or q**degree > MAX_MONICS:
            raise ValidationError(f"degree {degree} over F_{q} is out of range: the sieve"
                                  f" would list {q}^{degree} > {MAX_MONICS} monics")
        # the narrowest native unsigned digit that holds (d/2 + 1)(q - 1)^2
        width = ((degree // 2 + 1) * (q - 1) ** 2).bit_length()
        size, code = next((s, c) for s, c in zip((1, 2, 4, 8), "BHIQ") if width <= 8 * s)
        order = sys.byteorder
        reducible = set()
        for k in range(1, degree // 2 + 1):
            # each monic g of degree d - k, padded by k zero digits to d + 1
            g = itertools.product(*[range(q)] * (degree - k), (1,), *[(0,)] * k)
            digits = list(itertools.chain.from_iterable(g))
            packed = int.from_bytes(struct.pack(f"{len(digits)}{code}", *digits), order)
            for f in monic_irreducibles(q, k):
                f_packed = int.from_bytes(struct.pack(f"{k + 1}{code}", *f), order)
                product = (f_packed * packed).to_bytes(len(digits) * size, order)
                it = map(q.__rmod__, memoryview(product).cast(code))
                reducible.update(zip(*[it] * (degree + 1)))
        # product() runs through the lower coefficients in tuple order
        monics = itertools.product(*[range(q)] * degree, (1,))
        found = tuple(itertools.filterfalse(reducible.__contains__, monics))
        primes = list(factorize(degree))
        subsets = (s for r in range(len(primes) + 1) for s in itertools.combinations(primes, r))
        expected = sum((-1) ** len(s) * q ** (degree // prod(s)) for s in subsets) // degree
        if len(found) != expected:
            raise InvariantError(f"sieved {len(found)} monic irreducibles of degree {degree} "
                                 f"over F_{q}; Gauss's formula gives {expected}")
        _irreducible_cache[key] = found
    return _irreducible_cache[key]


# ---------------------------------------------------------------------------
# places


@dataclass(frozen=True)
class Place:
    """A place of Q (finite prime or the real place) or of F_q(t) (monic
    irreducible or the degree place at infinity).

    _hash is the hash, computed once since every local_data lookup hashes
    the place; it takes no part in equality or the repr."""

    base: BaseField
    kind: str  # "prime" | "real" | "poly" | "inf"
    p: int | None = None
    coeffs: tuple | None = field(default=None)
    _hash: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == "prime":
            if not self.base.is_rationals() or not is_prime(self.p or 0):
                raise ValidationError(f"bad finite place of Q: {self.p}")
        elif self.kind == "real":
            if not self.base.is_rationals():
                raise ValidationError("real place lives over Q")
        elif self.kind == "poly":
            if self.base.is_rationals():
                raise ValidationError("polynomial place needs a function field")
            c = _poly_normalize(self.coeffs, self.base.q)
            if not c or c[-1] != 1 or not poly_is_irreducible(c, self.base.q):
                raise ValidationError(f"not a monic irreducible: {self.coeffs}")
            object.__setattr__(self, "coeffs", c)
        elif self.kind == "inf":
            if self.base.is_rationals():
                raise ValidationError("degree place needs a function field")
        else:
            raise ValidationError(f"unknown place kind {self.kind!r}")
        # the tuple the dataclass hash would build, over the compared fields
        object.__setattr__(self, "_hash", hash((self.base, self.kind, self.p, self.coeffs)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        if self.kind == "poly":
            return poly_degree(self.coeffs)
        if self.kind == "inf":
            return 1
        raise ValidationError("degree applies to function-field places")

    def norm(self) -> int:
        """Size of the residue field."""
        if self.kind == "prime":
            return self.p
        if self.kind == "poly":
            return self.base.q ** self.degree
        if self.kind == "inf":
            return self.base.q
        raise ValidationError("the real place has no residue norm")

    def sort_key(self):
        if self.kind == "real":
            return (1, 0, 0, ())
        return (0, self.norm(), 1 if self.kind == "inf" else 0, self.coeffs or ())

    def __str__(self) -> str:
        if self.kind == "prime":
            return str(self.p)
        if self.kind == "real":
            return "real"
        if self.kind == "inf":
            return "inf"
        return f"({poly_str(self.coeffs)})"


def prime_place(p: int) -> Place:
    return Place(QQ, "prime", p=p)


def real_place() -> Place:
    return Place(QQ, "real")


def poly_place(q: int, coeffs) -> Place:
    return Place(rational_function_field(q), "poly", coeffs=tuple(coeffs))


def infinite_place(q: int) -> Place:
    return Place(rational_function_field(q), "inf")


def _trusted_places(base: BaseField, kind: str, values) -> list:
    """Places built without __post_init__, one per value: the p of a prime
    place, the coefficient tuple of a polynomial place, None for the place at
    infinity.  For callers that already hold the proof: primes from the
    sieve, normalized monic irreducibles from monic_irreducibles, or the
    place at infinity of a validated base.  The fields are set one by one in
    field order, as __init__ sets them, so every place shares its dict keys."""
    new, put, prime = object.__new__, object.__setattr__, kind == "prime"
    places = []
    for value in values:
        p, coeffs = (value, None) if prime else (None, value)
        place = new(Place)
        put(place, "base", base)
        put(place, "kind", kind)
        put(place, "p", p)
        put(place, "coeffs", coeffs)
        put(place, "_hash", hash((base, kind, p, coeffs)))
        places.append(place)
    return places


# The trusted places every walk shares, so that one process builds each place
# once.  Over F_q(t): one tuple per (q, degree), made when a walk first enters
# that degree.  Over Q: the place of every prime <= _primes.end, in order; a
# walk that runs past the end extends the list by one whole chunk before it
# yields again, so nested and interleaved walks read one sorted list without
# duplicates, and the list stops at about twice the largest norm any walk has
# passed.
_degree_places: dict[tuple[int, int], tuple] = {}
_primes = SimpleNamespace(places=[], end=1)
_FIRST_PRIME_CHUNK = 64


def _prime_walk(bound: int):
    """The shared prime places up to bound, extended one chunk at a time:
    up to twice the end, at least 64, at most bound."""
    done = 0
    while True:
        # the list iterator also reads places another walk appends meanwhile
        for P in itertools.islice(_primes.places, done, None):
            if P.p > bound:
                return
            yield P
        if _primes.end >= bound:
            return
        done, end = len(_primes.places), min(bound, max(2 * _primes.end, _FIRST_PRIME_CHUNK))
        _primes.places += _trusted_places(QQ, "prime", primes_upto(end, _primes.end))
        _primes.end = end


def _places_of_degree(base: BaseField, d: int) -> tuple:
    """The places of F_q(t) of degree d in sort_key order: monic_irreducibles
    is sorted by coefficient tuple, and the degree place ends degree one."""
    key = (base.q, d)
    if key not in _degree_places:
        places = _trusted_places(base, "poly", monic_irreducibles(*key))
        if d == 1:
            places += _trusted_places(base, "inf", [None])
        _degree_places[key] = tuple(places)
    return _degree_places[key]


def enumerate_places(base: BaseField, bound: int):
    """Nonarchimedean places with residue norm <= bound, in (norm, repr) order.

    Lazy: consumers that stop early never pay for the places past their
    stopping norm, which matters for large bounds.  Over F_q(t) the degree
    place sorts after the degree-one polynomials of equal norm.

    The places are trusted, not re-validated: the sieve and
    monic_irreducibles have already proved primality and irreducibility.
    Every walk in a process yields the same Place objects.
    """
    if base.is_rationals():
        yield from _prime_walk(bound)
        return
    q, d = base.q, 1
    while q**d <= bound:
        yield from _places_of_degree(base, d)
        d += 1


def first_places(found, count: int, bound: int, what: str) -> list:
    """The first count places of found, a filtered walk of the places below
    norm bound, with count >= 1 and bound >= 0 checked before it draws one.
    Raises SearchExhausted, carrying the places found and naming them by
    what, when the walk ends short of count."""
    if count < 1:
        raise ValidationError(f"count must be at least 1, got {count}")
    if bound < 0:
        raise ValidationError(f"bound must be at least 0, got {bound}")
    # islice stops at the count-th place without drawing another
    hits = list(itertools.islice(found, count))
    if len(hits) < count:
        raise SearchExhausted(f"found {len(hits)}/{count} {what} below norm {bound}",
                              partial=hits)
    return hits


# ---------------------------------------------------------------------------
# elements of F_q(t) in factored form


@dataclass(frozen=True)
class FqtElt:
    """c * prod P_i^{e_i} with c in F_q*, P_i distinct monic irreducibles."""

    q: int
    c: int
    factors: tuple  # sorted tuple of (coeff-tuple, nonzero int exponent)

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValidationError(f"{self.q} is not prime")
        if self.c % self.q == 0:
            raise ValidationError("constant part must be a unit")
        object.__setattr__(self, "c", self.c % self.q)
        seen = {}
        for poly, e in self.factors:
            poly = _poly_normalize(poly, self.q)
            if not poly_is_irreducible(poly, self.q) or poly[-1] != 1:
                raise ValidationError(f"factor {poly} is not monic irreducible")
            if poly in seen:
                raise ValidationError("repeated factor; combine exponents")
            if e:
                seen[poly] = e
        object.__setattr__(self, "factors", tuple(sorted(seen.items())))

    def pow(self, k: int) -> "FqtElt":
        return FqtElt(self.q, pow(self.c, k, self.q), tuple((p, e * k) for p, e in self.factors))

    def degree_sum(self) -> int:
        return sum(e * poly_degree(p) for p, e in self.factors)

    def valuation(self, place: Place) -> int:
        if place.kind == "inf":
            return -self.degree_sum()
        if place.kind != "poly":
            raise ValidationError("valuation needs a function-field place")
        return dict(self.factors).get(place.coeffs, 0)

    def residue_symbol_dlog(self, place: Place, n: int) -> int:
        """dlog base zeta_n of the n-th power residue symbol u^((N - 1)/n) of
        the unit part u at a place of norm N.  As n | q - 1 it is read in F_q as
        N(u)^((q - 1)/n): N(u) = c at infinity, and c^(deg P) * prod Res(P, Q)^e
        over the other factors at a polynomial place P."""
        require_positive(n)
        if (place.norm() - 1) % n != 0:
            raise ValidationError("mu_n does not inject into the residue field")
        q, k = self.q, (self.q - 1) // n
        if place.kind == "inf":
            val = pow(self.c, k, q)
        else:
            m = place.coeffs
            val = pow(self.c, k * poly_degree(m), q)
            for poly, e in self.factors:
                if poly != m:
                    val = val * pow(_resultant(m, poly, q), k * e, q) % q
        return prime_field(q).dlog_in_mu(val, n)

    def is_nth_power(self, n: int) -> bool:
        """True iff self lies in (F_q(t)*)^n; requires n | q-1.

        The constant must be an n-th power in F_q* (power_class_order, which
        checks n first), and all valuations must vanish mod n.
        """
        return power_class_order(self.c, self.q, n) == 1 and not any(e % n for _, e in self.factors)

    def class_order(self, n: int) -> int:
        """Order of the class of self in F_q(t)*/(F_q(t)*)^n."""
        require_positive(n)
        for d in range(1, n + 1):
            if n % d == 0 and self.pow(d).is_nth_power(n):
                return d
        raise InvariantError("class order must divide n")

    def __str__(self) -> str:
        parts = [str(self.c)] if (self.c != 1 or not self.factors) else []
        for poly, e in self.factors:
            s = f"({poly_str(poly)})"
            parts.append(s if e == 1 else f"{s}^{e}")
        return "*".join(parts) if parts else "1"


def fqt_const(q: int, c: int) -> FqtElt:
    return FqtElt(q, c, ())


def fqt_from_factors(q: int, c: int, factors) -> FqtElt:
    return FqtElt(q, c, tuple((tuple(p), e) for p, e in factors))
