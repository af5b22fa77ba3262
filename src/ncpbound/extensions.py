"""Abelian radical extensions of Q and F_q(t) with exact local splitting data.

An extension M = K(n-th roots of f_1, ..., f_r) is abelian of exponent
dividing n whenever K contains the n-th roots of unity; its Galois group is
dual to the subgroup W of K*/(K*)^n generated by the radicand classes.  We
represent Galois elements as tuples (s_1, ..., s_r) acting by

    sigma(f_i^(1/n)) = zeta_n^(s_i) * f_i^(1/n),

with s_i a multiple of n/order(f_i), and pair them with exponent tuples of W
by <sigma, e> = sum s_i e_i mod n.

Local data at a place comes from the image of W in the local class group
K_P*/(K_P*)^n.  Away from the residue characteristic that group is
Z/n x Z/n (valuation, unit class); the dyadic and real completions of Q get
explicit small tables.  Decomposition and inertia subgroups are annihilators
of the corresponding kernels, and the Frobenius is pinned down on the
unramified part by n-th power residue symbols.

The place searches read the Frobenius over Q once per Artin class p mod the
conductor, since by quadratic reciprocity the Legendre symbols depend on
nothing else; over F_q(t) they read it per place.  Each search tests the
norm before it reads the Frobenius, and takes its places through first_places.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm, prod

from .arith import (
    _legendre_unchecked,
    factorize,
    mul_order_mod,
    prime_field,
    require_prime,
    require_tame,
    vp,
)
from .errors import InvariantError, SearchExhausted, ValidationError
from .fields import (
    BaseField,
    FqtElt,
    Place,
    enumerate_places,
    first_places,
    infinite_place,
    prime_place,
    real_place,
)

# ---------------------------------------------------------------------------
# the extensions themselves


@dataclass(frozen=True)
class AbExt:
    """M = K(n-th roots of the radicands).

    Over Q only n = 2 is supported: radicands are squarefree integers other
    than 0 and 1.  Over F_q(t), n must divide q - 1 and radicands are factored
    rational functions (FqtElt) with nontrivial class in K*/(K*)^n.

    orders[i] is the order of radicands[i] modulo n-th powers; it is computed
    from the radicand's class vector, and the constructor does not take it.
    The classes must be independent (no nontrivial product of powers is an
    n-th power), so Gal(M/K) = prod Z/orders[i].  vectors keeps the class
    vectors and _hash the hash, computed once since every local_data lookup
    hashes M; neither takes part in equality, hashing or the repr.
    """

    base: BaseField
    n: int
    radicands: tuple
    orders: tuple = field(default=(), init=False)
    vectors: tuple = field(default=(), init=False, compare=False, repr=False)
    _hash: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("n must be at least 2")
        object.__setattr__(self, "radicands", tuple(self.radicands))
        if self.base.is_rationals():
            if self.n != 2:
                raise ValidationError("over Q only square roots are supported")
        elif (self.base.q - 1) % self.n != 0:
            raise ValidationError(f"n = {self.n} does not divide q - 1 = {self.base.q - 1}")
        vectors, orders = [], []
        for f in self.radicands:
            vec = _class_vector(self.base, self.n, f)
            o = _vector_order(self.n, vec)
            if o == 1:
                raise ValidationError(f"radicand {f} is already an n-th power")
            vectors.append(vec)
            orders.append(o)
        vectors, orders = tuple(vectors), tuple(orders)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "vectors", vectors)
        # the classes generate a group of order at most prod(orders), with
        # equality exactly when they are independent
        if len(class_span(self.n, vectors)) != prod(orders):
            # name the first dependent exponent tuple, in enumeration order
            e = next(e for e in _exponent_tuples(orders)
                     if any(e) and not _combine(self.n, vectors, e))
            raise ValidationError(f"radicand classes are dependent at exponents {e}")
        # the tuple the dataclass hash would build, over the compared fields
        object.__setattr__(self, "_hash", hash((self.base, self.n, self.radicands, orders)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return prod(self.orders)

    def describe(self) -> str:
        rads = ", ".join(str(f) for f in self.radicands)
        return f"{self.base}[{self.n}-th roots of {rads}]"


def _class_vector(base: BaseField, n: int, f) -> dict:
    """The class of a radicand in K*/(K*)^n as {atom: coordinate mod n},
    zero coordinates left out.

    Over Q (n = 2) the atoms are -1 and the primes of the radicand; the one
    factorization also proves it squarefree.  Over F_q(t) they are the monic
    irreducible factors, with their valuations, and None for the constant,
    with its class in F_q*/(F_q*)^n (cyclic of order n since n | q - 1).
    """
    if base.is_rationals():
        if not isinstance(f, int) or f in (0, 1):
            raise ValidationError(f"bad radicand over Q: {f!r}")
        primes = factorize(f)
        if any(e > 1 for e in primes.values()):
            raise ValidationError(f"radicand {f} is not squarefree")
        vec = dict.fromkeys(primes, 1)
        if f < 0:
            vec[-1] = 1
        return vec
    q = base.q
    if not isinstance(f, FqtElt) or f.q != q:
        raise ValidationError(f"bad radicand over {base}: {f!r}")
    vec = {poly: e % n for poly, e in f.factors if e % n}
    const = prime_field(q).dlog_in_mu(pow(f.c, (q - 1) // n, q), n)
    if const:
        vec[None] = const
    return vec


def _vector_order(n: int, vec: dict) -> int:
    return n // gcd(n, *vec.values())


def radicand_class(base: BaseField, n: int, f) -> tuple:
    """The class of f in K*/(K*)^n as a span key (see class_span), with its
    order (1 when f is an n-th power)."""
    vec = _class_vector(base, n, f)
    return _vector_key(vec), _vector_order(n, vec)


def _combine(n: int, vectors, exps) -> dict:
    """The class vector of prod f_i^(e_i), zero coordinates left out."""
    out: dict = {}
    for vec, e in zip(vectors, exps):
        for atom, x in vec.items():
            out[atom] = (out.get(atom, 0) + e * x) % n
    return {atom: x for atom, x in out.items() if x}


# ---------------------------------------------------------------------------
# spans of classes
#
# A span is a finite subgroup given as a frozenset of its members, with the
# group's addition passed alongside.  Global radicand classes are keyed by
# _vector_key; their images in a local class group are coordinate tuples.


def _multiples(span: frozenset, g, add) -> list:
    """g, 2g, ..., (k-1)g for the least k >= 1 with kg in the span.  k, one
    more than their number, is the index of the span in <span, g>."""
    out, x = [], g
    while x not in span:
        out.append(x)
        x = add(x, g)
    return out


def _grow(span: frozenset, gens, add) -> frozenset:
    """The group generated by the span and gens."""
    for g in gens:
        span = span.union([add(s, x) for s in span for x in _multiples(span, g, add)])
    return span


def relative_degree(span: frozenset, gens, add) -> int:
    """|<span, gens>| / |span|.

    By Kummer theory this is [L:M] when the span is W_M, the group of M's
    radicand classes in K*/(K*)^n, and gens are the classes of the radicands
    L adds; and it is [L:M]_P when both are read in K_P*/(K_P*)^n, where the
    image of W has the local degree as its size.
    """
    grown = len(_grow(span, gens, add))
    if grown % len(span):
        raise InvariantError(f"span of size {len(span)} does not divide the size {grown}"
                             " of the group it generates with the extra classes")
    return grown // len(span)


def _vector_key(vec: dict) -> frozenset:
    return frozenset(vec.items())


def _vector_adder(n: int):
    """Addition of class vectors mod n in their _vector_key form."""

    def add(x, y):
        out = dict(x)
        for atom, v in y:
            # v is nonzero, so a zero sum means the atom was in x
            v = (out.get(atom, 0) + v) % n
            if v:
                out[atom] = v
            else:
                del out[atom]
        return frozenset(out.items())

    return add


def class_span(n: int, vectors) -> frozenset:
    """The span of the class vectors in K*/(K*)^n, keyed by _vector_key."""
    return _grow(frozenset((frozenset(),)), map(_vector_key, vectors), _vector_adder(n))


def build_extension(base: BaseField, n: int, radicands) -> AbExt:
    """Construct a homocyclic extension: every radicand class must have order
    exactly n.  Mixed-order families go through AbExt directly."""
    M = AbExt(base, n, tuple(radicands))
    for f, o in zip(M.radicands, M.orders):
        if o != n:
            raise ValidationError(f"radicand {f} has class order {o}, need {n}")
    return M


# ---------------------------------------------------------------------------
# Galois group bookkeeping


def w_exponents(M: AbExt) -> tuple:
    return _exponent_tuples(M.orders)


def galois_group(M: AbExt) -> tuple:
    return _gal_elements(M.n, M.orders)


def _exponent_tuples(orders) -> tuple:
    return tuple(itertools.product(*[range(o) for o in orders]))


def _gal_elements(n: int, orders) -> tuple:
    return tuple(itertools.product(*[range(0, n, n // o) for o in orders]))


def gal_identity(M: AbExt) -> tuple:
    return (0,) * len(M.orders)


def pairing(M: AbExt, sigma, exps) -> int:
    """dlog of the root of unity by which sigma moves the W-element of exps."""
    return _pair(M.n, sigma, exps)


def _pair(n: int, sigma, exps) -> int:
    return sum(s * e for s, e in zip(sigma, exps)) % n


def validate_sigma(M: AbExt, sigma) -> tuple:
    sigma = tuple(int(s) % M.n for s in sigma)
    if len(sigma) != len(M.orders):
        raise ValidationError("sigma has the wrong number of components")
    for s, o in zip(sigma, M.orders):
        if s % (M.n // o):
            raise ValidationError(f"component {s} is not a multiple of {M.n // o}")
    return sigma


def gal_exponent(M: AbExt) -> int:
    return lcm(*M.orders) if M.orders else 1


def require_chi_order(M: AbExt, chi_order: int) -> None:
    """A character cutting out M has an order that the exponent of Gal(M/K) divides."""
    if chi_order < 1 or chi_order % gal_exponent(M) != 0:
        raise ValidationError(
            f"character order {chi_order} is incompatible with the Galois exponent")


def greedy_generators(members, add, zero) -> tuple:
    """A small generating set for a subgroup given as a member list."""
    gens: list = []
    have = frozenset((zero,))
    for x in sorted(members):
        if x not in have:
            gens.append(x)
            have = _grow(have, (x,), add)
    return tuple(gens)


# ---------------------------------------------------------------------------
# local class groups


@dataclass(frozen=True)
class LocalClassGroup:
    """The finite group K_P*/(K_P*)^n together with the images of the
    radicands, and the coordinate that reads off the Frobenius symbol on the
    unramified classes, which are the classes zero off that coordinate.  A
    real place has no such coordinate, and only its trivial class is
    unramified."""

    moduli: tuple
    images: tuple
    symbol_coord: int | None

    def add(self, x, y) -> tuple:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def trivial(self) -> frozenset:
        """The trivial subgroup."""
        return frozenset(((0,) * len(self.moduli),))

    def image_of(self, exps) -> tuple:
        return tuple(
            sum(e * img[k] for e, img in zip(exps, self.images)) % self.moduli[k]
            for k in range(len(self.moduli))
        )

    def span(self, count: int | None = None) -> frozenset:
        """The image of W, or of the classes of the first count radicands:
        its size is the local degree of the field they generate."""
        return _grow(self.trivial(), self.images[:count], self.add)

    def is_unramified(self, coords) -> bool:
        return all(c == 0 for k, c in enumerate(coords) if k != self.symbol_coord)

    def symbol(self, coords) -> int:
        return 0 if self.symbol_coord is None else coords[self.symbol_coord]


_DYADIC_UNIT_TABLE = {1: (0, 0), 3: (1, 1), 5: (0, 1), 7: (1, 0)}


def _dyadic_coords(f: int) -> tuple:
    """Class of f in Q_2*/(Q_2*)^2 = <-1, 5, 2>, coords (e_-1, e_5, v_2)."""
    v = vp(f, 2)
    u = f // (1 << v)
    e_m1, e_5 = _DYADIC_UNIT_TABLE[u % 8]
    return (e_m1, e_5, v % 2)


def _local_image(base: BaseField, n: int, f, place: Place) -> tuple:
    """The class of one radicand in K_P*/(K_P*)^n, in the coordinates of
    local_class_group: the sign at the real place, the dyadic table at 2,
    (valuation, unit class) at an odd prime or a tame place of F_q(t)."""
    if not base.is_rationals():
        # n | N(P) - 1 always holds since n | q - 1
        return (f.valuation(place) % n, f.residue_symbol_dlog(place, n))
    if place.kind == "real":
        return (0,) if f > 0 else (1,)
    p = place.p
    if p == 2:
        return _dyadic_coords(f)
    v = vp(f, p)
    return (v % 2, 0 if _legendre_unchecked(f // p**v, p) == 1 else 1)


def local_class_group(M: AbExt, place: Place) -> LocalClassGroup:
    if place.base != M.base:
        raise ValidationError("place and extension live over different fields")
    images = tuple([_local_image(M.base, M.n, f, place) for f in M.radicands])
    if place.kind == "real":
        return LocalClassGroup((2,), images, None)
    if place.kind == "prime" and place.p == 2:
        return LocalClassGroup((2, 2, 2), images, 1)
    return LocalClassGroup((M.n, M.n), images, 1)


# ---------------------------------------------------------------------------
# splitting data


@dataclass(frozen=True)
class LocalData:
    """Splitting of a place in M/K: the local degree [M_P : K_P], its
    ramification/residue split, the decomposition and inertia subgroups, and
    a Frobenius representative (exact when unramified, a coset representative
    modulo inertia otherwise)."""

    place: Place
    degree: int
    ram_index: int
    res_degree: int
    decomposition: tuple
    inertia: tuple
    frobenius: tuple

    @property
    def unramified(self) -> bool:
        return self.ram_index == 1


@lru_cache(maxsize=None)
def local_data(M: AbExt, place: Place) -> LocalData:
    """Splitting data of M at a place: the place's local class-group image,
    then the place-free splitting that image determines."""
    G = local_class_group(M, place)
    return LocalData(place, *_splitting(M.n, M.orders, G))


@lru_cache(maxsize=None)
def _splitting(n: int, orders: tuple, G: LocalClassGroup) -> tuple:
    """(degree, e, f, D, I, Frobenius) for an extension of exponent n with
    Galois group prod Z/orders and local class-group image G.

    D, I and the Frobenius are annihilators and characters of kernels of G,
    so they depend on (n, orders, G) alone and not on the place or the
    radicands: one extension has at most as many entries as its radicands
    have distinct local images (7 for Q(sqrt 3, sqrt -7) over all primes).
    """
    exps = _exponent_tuples(orders)
    zero = (0,) * len(G.moduli)
    image = {e: G.image_of(e) for e in exps}
    ker_d = [e for e in exps if image[e] == zero]
    ker_i = [e for e in exps if G.is_unramified(image[e])]

    D = tuple(s for s in _gal_elements(n, orders) if all(_pair(n, s, e) == 0 for e in ker_d))
    I = tuple(s for s in D if all(_pair(n, s, e) == 0 for e in ker_i))
    if len(D) * len(ker_d) != len(exps):
        raise InvariantError("annihilator size mismatch")

    # unit classes in ker_i carry power residue symbols; symbols must extend
    # to a character of the whole group, realized by some element of D
    sym = {e: G.symbol(image[e]) for e in ker_i}
    frob = next((s for s in D if all(_pair(n, s, e) == sym[e] for e in ker_i)), None)
    if frob is None:
        raise InvariantError("residue symbols define no character of D")

    e_idx = len(exps) // len(ker_i)
    if e_idx != len(I):
        raise InvariantError("inertia size mismatch")
    return len(D), e_idx, len(D) // e_idx, D, I, frob


def local_degree(M: AbExt, place: Place) -> int:
    return local_data(M, place).degree


def ramified_places(M: AbExt) -> tuple:
    """Finite places with nontrivial inertia, sorted."""
    if M.base.is_rationals():
        cand = {2}
        for f in M.radicands:
            cand |= set(factorize(f))
        places = [prime_place(p) for p in sorted(cand)]
    else:
        supp = set()
        for f in M.radicands:
            supp |= set(f.support())
        supp.add(infinite_place(M.base.q))
        places = sorted(supp, key=Place.sort_key)
    return tuple(P for P in places if local_data(M, P).ram_index > 1)


def is_real_field(M: AbExt) -> bool:
    """True when M embeds into R (only meaningful over Q)."""
    if not M.base.is_rationals():
        raise ValidationError("realness applies over Q only")
    return local_degree(M, real_place()) == 1


# ---------------------------------------------------------------------------
# roots of unity and the cyclotomic part


def _w_vectors(M: AbExt) -> dict:
    """The class vector of every element of W, keyed by its exponent tuple."""
    return {e: _combine(M.n, M.vectors, e) for e in w_exponents(M)}


def span_squarefree(M: AbExt) -> frozenset:
    """Squarefree representatives of the group generated by the radicands
    modulo squares (Q only): the product of each class vector's atoms."""
    if not M.base.is_rationals():
        raise ValidationError("squarefree span is a rational-field notion")
    return frozenset(prod(vec) for vec in _w_vectors(M).values())


def constant_classes(M: AbExt) -> dict:
    """Exponent tuples whose W-element is constant modulo n-th powers, with
    the order of its class in F_q*/(F_q*)^n (function fields only)."""
    if M.base.is_rationals():
        raise ValidationError("constant classes are a function-field notion")
    return {
        e: _vector_order(M.n, vec) for e, vec in _w_vectors(M).items() if set(vec) <= {None}
    }


def constant_field_degree(M: AbExt) -> int:
    """Degree over F_q of the field of constants of M."""
    return lcm(*constant_classes(M).values())


def roots_of_unity_s(M: AbExt, p: int) -> int:
    """s with p^s = number of p-power roots of unity in M."""
    if M.base.is_rationals():
        span = span_squarefree(M)
        if p == 2:
            s = 1
            if -1 in span:
                s += 1
                if 2 in span:
                    s += 1
            return s
        if p == 3:
            return 1 if -3 in span else 0
        return 0
    m = constant_field_degree(M)
    if p == M.base.char:
        return 0
    return vp(M.base.q**m - 1, p)


def r_value(M: AbExt) -> int:
    """v_2 of the number of 2-power roots of unity after adjoining i."""
    if M.base.is_rationals():
        span = span_squarefree(M)
        return 3 if (2 in span or -2 in span) else 2
    m = constant_field_degree(M)
    qm = M.base.q**m
    m2 = m * (2 if qm % 4 == 3 else 1)
    return vp(M.base.q**m2 - 1, 2)


def cyclotomic_members(M: AbExt, p: int) -> tuple:
    """All exponent tuples whose class lies in the maximal subfield of M cut
    out by p-power roots of unity over the base."""
    if M.base.is_rationals():
        if p == 2:
            targets = {1, -1, 2, -2}
        else:
            targets = {1, p if p % 4 == 1 else -p}
        return tuple(e for e, vec in _w_vectors(M).items() if prod(vec) in targets)
    # in scope q = 1 mod p, so the cyclotomic tower is constant p-power
    # extensions; keep constant classes of p-power order
    return tuple(e for e, o in constant_classes(M).items() if o == p ** vp(o, p))


def cyclotomic_degree(M: AbExt, p: int) -> int:
    """[T : K] for T = M intersect K(p-power roots of unity)."""
    return len(cyclotomic_members(M, p))


def gal_fixing_cyclotomic(M: AbExt, p: int) -> tuple:
    """Gal(M/T): annihilator of the cyclotomic classes."""
    members = cyclotomic_members(M, p)
    return tuple(
        s for s in galois_group(M) if all(pairing(M, s, e) == 0 for e in members)
    )


def restriction_order_to_cyclotomic(M: AbExt, p: int, sigma) -> int:
    """Order of sigma restricted to T = M intersect K(p-power roots of unity)."""
    sigma = validate_sigma(M, sigma)
    orders = [
        M.n // gcd(M.n, pairing(M, sigma, e)) for e in cyclotomic_members(M, p)
    ]
    return lcm(*orders) if orders else 1


# ---------------------------------------------------------------------------
# place searches


def _conductor(M: AbExt) -> int:
    """The conductor f of M over Q: the lcm over the radicands a of the
    discriminant of Q(sqrt a) up to sign, |a| when a = 1 mod 4 and 4|a|
    otherwise.  By quadratic reciprocity the Legendre symbol (a/p) at a
    prime p not dividing f depends only on p mod f."""
    return lcm(*[abs(a) if a % 4 == 1 else 4 * abs(a) for a in M.radicands])


@lru_cache(maxsize=None)
def _frobenius_reader(M: AbExt):
    """The function taking a finite place P to the Frobenius of M at P, or
    to None when P is ramified; one per extension for the process, like
    local_data, and bound once per search.

    Over Q the Frobenius at a prime p not dividing the conductor f is read
    from its Artin class p mod f, in a memo filled from local_data once per
    class.  A prime dividing f, and every place of F_q(t), reads local_data
    itself.
    """

    def read_local(P: Place):
        ld = local_data(M, P)
        return ld.frobenius if ld.unramified else None

    if not M.base.is_rationals():
        return read_local
    f, memo = _conductor(M), {}

    def read(P: Place):
        if f % P.p == 0:
            return read_local(P)
        key = P.p % f
        frob = memo.get(key)
        if frob is None:
            ld = local_data(M, P)
            if not ld.unramified:
                raise InvariantError(f"{P} is prime to the conductor {f} of {M.describe()}"
                                     " but ramified")
            frob = memo[key] = ld.frobenius
        return frob

    return read


def find_places_with_frobenius(M: AbExt, sigma, count: int = 1, bound: int = 1000):
    """Unramified places with Frobenius exactly sigma, by increasing norm.

    Raises SearchExhausted (carrying the partial list) when the bound runs
    out first."""
    sigma = validate_sigma(M, sigma)
    frobenius = _frobenius_reader(M)
    return first_places((P for P in enumerate_places(M.base, bound) if frobenius(P) == sigma),
                        count, bound, "places with the requested Frobenius")


def qsigma_search(M: AbExt, p: int, sigma, count: int = 1, bound: int = 2000):
    """Unramified places with Frobenius sigma whose norm N has large order:
    ord(N mod p^(s+1)) > f_sigma for odd p, ord(N mod 2^(r+2)) > f_sigma for
    p = 2, and p never divides N.  f_sigma is the order of sigma on the
    p-power cyclotomic part of M.  p must not be the characteristic."""
    require_prime(p)
    require_tame(M, p, "the search needs residue norms prime to p")
    sigma = validate_sigma(M, sigma)
    f_sigma = restriction_order_to_cyclotomic(M, p, sigma)
    if p == 2:
        modulus = 2 ** (r_value(M) + 2)
    else:
        modulus = p ** (roots_of_unity_s(M, p) + 1)
    frobenius = _frobenius_reader(M)
    # the norm test runs first: a place whose norm p divides needs no Frobenius
    found = (P for P in enumerate_places(M.base, bound) if P.norm() % p
             and frobenius(P) == sigma and mul_order_mod(P.norm(), modulus) > f_sigma)
    return first_places(found, count, bound, "places meeting the norm-order condition")


def s0_search(M: AbExt, p: int, power: int, bound: int = 5000) -> dict:
    """For each generator of Gal(M/T) (just the identity when that group is
    trivial), an unramified place with that Frobenius and norm = 1 mod
    p^power.  Raises SearchExhausted with the partial dict on failure.  With
    power >= 1, p must not be the characteristic, whose powers are all the
    residue norms; every norm is 1 mod p^0."""
    require_prime(p)
    if power < 0:
        raise ValidationError(f"power must be at least 0, got {power}")
    if power:
        require_tame(M, p, "the search needs residue norms prime to p")
    zero = gal_identity(M)

    def add(x, y):
        return tuple((a + b) % M.n for a, b in zip(x, y))

    gens = greedy_generators(gal_fixing_cyclotomic(M, p), add, zero) or (zero,)
    modulus, frobenius = p**power, _frobenius_reader(M)
    out = {}
    missing = []
    for sigma in gens:
        found = (P for P in enumerate_places(M.base, bound)
                 if (P.norm() - 1) % modulus == 0 and frobenius(P) == sigma)
        try:
            out[sigma] = first_places(found, 1, bound, "places with the requested Frobenius")[0]
        except SearchExhausted:
            missing.append(sigma)
    if missing:
        raise SearchExhausted(
            f"no qualifying place below norm {bound} for generators {missing}",
            partial=out,
        )
    return out
