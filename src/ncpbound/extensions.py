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
explicit small tables.  Everything is read off the radicands' images in
closed form (see _splitting): the local degree is the order of their span,
the inertia group is spanned by the characters of the ramified coordinates,
and the Frobenius is pinned down on the unramified part by n-th power
residue symbols.  Every span is a Howell basis over Z/n (see howell), and
membership, each Frobenius and the generators of Gal(M/T) are reductions to
a least coset member (see _coset_least).  Only three routes list a group:
span_squarefree (W) and the local span in covers.quadratic_cover_scan, for
ex41's cover scan, and galois_group (Gal(M/K)), for the worked examples.

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
    require_positive,
    require_prime,
    require_tame,
    vp,
)
from .errors import InvariantError, SearchExhausted, ValidationError
from .fields import (
    BaseField,
    FqtElt,
    Place,
    _trusted_places,
    enumerate_places,
    first_places,
    real_place,
)

# the largest n over F_q(t): a discrete log in mu_n takes about sqrt(n) steps
MAX_KUMMER_EXPONENT = 10**6

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
    vectors, columns the column of each atom, span the Howell basis of W and
    _hash the hash, computed once since every local_data lookup hashes M;
    none takes part in equality, hashing or the repr.
    """

    base: BaseField
    n: int
    radicands: tuple
    orders: tuple = field(default=(), init=False)
    vectors: tuple = field(default=(), init=False, compare=False, repr=False)
    columns: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    span: dict = field(default_factory=dict, init=False, compare=False, repr=False)
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
        elif self.n > MAX_KUMMER_EXPONENT:
            raise ValidationError(f"n = {self.n} exceeds the ceiling {MAX_KUMMER_EXPONENT}")
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
        rows = [class_row(self.columns, vec) for vec in vectors]
        object.__setattr__(self, "span", howell(self.n, rows))
        # the classes generate a group of order at most prod(orders), with
        # equality exactly when they are independent
        if span_order(self.n, self.span) != prod(orders):
            kernel = _kernel(self.n, vectors, orders)
            e = _exponents(kernel[max(kernel)], self.n, orders)
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


# ---------------------------------------------------------------------------
# spans over Z/n: rows are dicts {column: nonzero entry}, pivot the least


def class_row(index: dict, vec: dict) -> dict:
    """A class vector as a row over the atom index, grown by its new atoms."""
    return {index.setdefault(atom, len(index)): x for atom, x in vec.items()}


def image_row(coords) -> dict:
    return {k: x for k, x in enumerate(coords) if x}


def _axpy(v: dict, c: int, b: dict, n: int) -> dict:
    """v + c*b mod n."""
    out = dict(v)
    for k, x in b.items():
        y = (out.get(k, 0) + c * x) % n
        if y:
            out[k] = y
        else:
            out.pop(k, None)
    return out


def howell(n: int, rows, basis: dict | None = None) -> dict:
    """The Howell basis of the span of the rows and of basis, if given: a
    dict from pivot column to row, each pivot entry a divisor of n, whose
    rows of pivot >= j span every member zero before column j (J. A. Howell,
    1986; A. Storjohann and T. Mulders, ESA 1998).  Each member is then
    sum c_j row_j for one choice of 0 <= c_j < n / pivot_j.

    A row is reduced by the basis row at its pivot; if that row's pivot
    entry does not divide the row's, the row, holding the remainder, takes
    the column and the old row goes back in (Euclid).  A row taking a column
    is scaled by a unit to pivot entry g = gcd(entry, n), and (n/g) * row,
    zero there, goes on: that gives the Howell property.  The rows are
    reduced mod n first; the given basis is taken as howell returned it.
    """
    require_positive(n)
    basis = dict(basis or ())
    # a row entry outside [1, n) would become a pivot entry or a stray zero
    todo = [{k: x % n for k, x in row.items() if x % n} for row in rows]
    while todo:
        v = todo.pop()
        while v:
            j = min(v)
            b = basis.get(j)
            if b is not None:
                v = _axpy(v, -(v[j] // b[j]), b, n)
                if j not in v:
                    continue
                todo.append(b)
            a = v[j]
            g = gcd(a, n)
            if a != g:
                # a unit u = (a/g)^-1 mod n/g, lifted to a unit mod n
                u = pow(a // g, -1, n // g)
                while gcd(u, n) != 1:
                    u += n // g
                v = _axpy({}, u, v, n)
            basis[j] = v
            v = _axpy({}, n // g, v, n)
    return basis


def span_order(n: int, basis: dict) -> int:
    require_positive(n)
    return prod(n // row[j] for j, row in basis.items())


def _coset_least(n: int, basis: dict, v: dict) -> dict:
    """The least member of v + span in product order, {} exactly when v is a
    member: v's entry at each pivot, left to right, reduced mod the pivot
    entry.  By the Howell property, the members agreeing with v before column
    j take at j v[j] plus every multiple of its pivot entry, or only v[j]."""
    for j, b in sorted(basis.items()):
        if v.get(j, 0) >= b[j]:
            v = _axpy(v, -(v[j] // b[j]), b, n)
    return v


def span_members(n: int, basis: dict) -> list:
    """Every member, as a row: only for groups known to be small."""
    require_positive(n)
    out = [{}]
    for j, row in basis.items():
        out = [_axpy(x, c, row, n) for x in out for c in range(n // row[j])]
    return out


def relative_degree(n: int, basis: dict, rows) -> int:
    """|<span, rows>| / |span|: by Kummer theory [L:M] for the span W_M and
    the classes of the radicands L adds, and [L:M]_P for their images in
    K_P*/(K_P*)^n, where the image of W has the local degree as its order."""
    below, grown = span_order(n, basis), span_order(n, howell(n, rows, basis))
    if grown % below:
        raise InvariantError(f"span of size {below} does not divide the size {grown}"
                             " of the group it generates with the extra classes")
    return grown // below


def _kernel(n: int, vectors, orders, targets=()) -> dict:
    """The exponent tuples e with prod f_i^(e_i) in the span of the targets,
    each e_i scaled by n/o_i: the rows past the atom block of the Howell
    basis of [v_i | (n/o_i) delta_i] and [t | 0].  Its row of largest pivot
    is its lexicographically least nonzero element: an element nonzero
    before that pivot is larger, and no later row spans (n/g) * row."""
    index: dict = {}
    rows = [class_row(index, vec) for vec in vectors]
    targets = [class_row(index, t) for t in targets]
    w = len(index)
    rows = [{**row, w + i: n // o} for i, (row, o) in enumerate(zip(rows, orders))]
    return {j - w: {k - w: x for k, x in row.items()}
            for j, row in howell(n, rows + targets).items() if j >= w}


def _exponents(row: dict, n: int, orders) -> tuple:
    return tuple(row.get(i, 0) // (n // o) for i, o in enumerate(orders))


def _generators_in(M: AbExt, targets) -> list:
    """Exponent tuples generating the subgroup of W in the targets' span."""
    return [_exponents(row, M.n, M.orders)
            for row in _kernel(M.n, M.vectors, M.orders, targets).values()]


def _in_w(M: AbExt, vec: dict) -> bool:
    return not _coset_least(M.n, M.span, class_row(dict(M.columns), vec))


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


def galois_group(M: AbExt) -> tuple:
    return _gal_elements(M.n, M.orders)


def _gal_elements(n: int, orders) -> tuple:
    return tuple(itertools.product(*[range(0, n, n // o) for o in orders]))


def pairing(M: AbExt, sigma, exps) -> int:
    """dlog of the root of unity by which sigma moves the W-element of exps."""
    return sum(s * e for s, e in zip(sigma, exps)) % M.n


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


# ---------------------------------------------------------------------------
# local class groups


@dataclass(frozen=True)
class LocalClassGroup:
    """K_P*/(K_P*)^n = (Z/n)^k (k = 1 at the real place, 3 at 2) with the
    radicands' images and the coordinate that reads the Frobenius symbol on
    the unramified classes, those zero off it (none at the real place)."""

    n: int
    images: tuple
    symbol_coord: int | None

    def span(self, count: int | None = None) -> dict:
        """The Howell basis of the image of W, or of the first count radicands'
        classes: its order is the local degree of the field they generate."""
        return howell(self.n, [image_row(img) for img in self.images[:count]])


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
    return LocalClassGroup(M.n, images, None if place.kind == "real" else 1)


# ---------------------------------------------------------------------------
# splitting data


@dataclass(frozen=True)
class LocalData:
    """Splitting of a place in M/K: the local degree [M_P : K_P] = e * f,
    the ramification index e = |I| and residue degree f, and a Frobenius
    representative: exact when unramified, otherwise the lexicographically
    least element of its coset modulo the inertia group I (see _splitting)."""

    place: Place
    degree: int
    ram_index: int
    res_degree: int
    frobenius: tuple

    @property
    def unramified(self) -> bool:
        return self.ram_index == 1


@lru_cache(maxsize=None)
def local_data(M: AbExt, place: Place) -> LocalData:
    """Splitting data of M at a place: the place's local class-group image,
    then the place-free splitting that image determines."""
    return LocalData(place, *_splitting(local_class_group(M, place)))


@lru_cache(maxsize=None)
def _splitting(G: LocalClassGroup) -> tuple:
    """(degree, e, f, Frobenius) of an extension of exponent n = G.n whose
    radicands have the local images G.images, in closed form.

    With ker_d and ker_i the exponent tuples of trivial and of unramified
    image (zero off the symbol coordinate c), the degree is |W / ker_d|,
    the order of the images' span.  The inertia group I = ann(ker_i) is
    spanned by the vectors (img_i[k])_i, k running over the coordinates
    other than c: a character trivial on ker_i factors through the ramified
    quotient, which embeds in (Z/n)^k, and Z/n is self-injective, so it
    extends to a sum of these.  So |I| <= n at a tame place, 4 at 2 and 2
    at the real place; e = |I|, checked against the index of the
    unramified classes in the span (the order of the images' projection
    onto the other coordinates), and f = degree / e.  The residue symbols
    s0 = (img_i[c])_i solve <s, x> = x[c] on ker_i, so the Frobenius
    candidates form the coset s0 + I, whose least element is reported, read
    off I's Howell basis by _coset_least.

    The result depends on G alone, so one extension has at most as many
    entries as distinct local images (7 for Q(sqrt 3, sqrt -7)).
    """
    n, c = G.n, G.symbol_coord
    degree = span_order(n, G.span())
    ramified = [{k: x for k, x in enumerate(img) if x and k != c} for img in G.images]
    index = span_order(n, howell(n, ramified))
    inertia = howell(n, [image_row(col) for k, col in enumerate(zip(*G.images)) if k != c])
    e = span_order(n, inertia)
    if e != index:
        raise InvariantError(f"inertia of order {e}, but the unramified classes"
                             f" have index {index} in the local image")
    frob = _coset_least(n, inertia, {} if c is None else image_row(img[c] for img in G.images))
    return degree, index, degree // index, tuple(frob.get(i, 0) for i in range(len(G.images)))


def local_degree(M: AbExt, place: Place) -> int:
    return local_data(M, place).degree


def ramified_places(M: AbExt) -> tuple:
    """Finite places with nontrivial inertia, sorted.  The candidates are the
    atoms of M, proved prime or monic irreducible when M was built, with 2
    over Q and the degree place over F_q(t): a factor of exponent 0 mod n in
    every radicand is no atom, and has trivial inertia."""
    if M.base.is_rationals():
        places = _trusted_places(M.base, "prime", {2, *M.columns} - {-1})
    else:
        places = _trusted_places(M.base, "poly", [c for c in M.columns if c is not None])
        places += _trusted_places(M.base, "inf", [None])
    return tuple(P for P in sorted(places, key=Place.sort_key) if local_data(M, P).ram_index > 1)


def is_real_field(M: AbExt) -> bool:
    """True when M embeds into R (only meaningful over Q)."""
    if not M.base.is_rationals():
        raise ValidationError("realness applies over Q only")
    return local_degree(M, real_place()) == 1


# ---------------------------------------------------------------------------
# roots of unity and the cyclotomic part


def span_squarefree(M: AbExt) -> frozenset:
    """Squarefree representatives of the group generated by the radicands
    modulo squares (Q only): the product of each member's atoms.  It lists
    W, so only a small M may ask."""
    if not M.base.is_rationals():
        raise ValidationError("squarefree span is a rational-field notion")
    atoms = list(M.columns)
    return frozenset(prod(atoms[k] for k in row) for row in span_members(M.n, M.span))


def constant_field_degree(M: AbExt) -> int:
    """Degree over F_q of M's constants: the order of the constant W-elements,
    in the cyclic F_q*/(F_q*)^n the lcm of their generators' class orders."""
    return lcm(*[_vector_order(M.n, {None: sum(x * v.get(None, 0) for x, v in zip(e, M.vectors))})
                 for e in _generators_in(M, ({None: 1},))])


def _vp_power_minus_1(q: int, m: int, p: int) -> int:
    """v_p(q^m - 1) without forming q^m: the least k with q^m != 1 mod p^(k+1)."""
    return next(k for k in itertools.count() if pow(q, m, p ** (k + 1)) != 1)


def roots_of_unity_s(M: AbExt, p: int) -> int:
    """s with p^s = number of p-power roots of unity in M."""
    require_prime(p)
    if M.base.is_rationals():
        if p == 2:  # i, then zeta_8 = (1 + i) / sqrt 2
            return 1 + _in_w(M, {-1: 1}) * (1 + _in_w(M, {2: 1}))
        return int(p == 3 and _in_w(M, {-1: 1, 3: 1}))
    # 0 at the characteristic p = q, since q^m = 0 mod p
    return _vp_power_minus_1(M.base.q, constant_field_degree(M), p)


def r_value(M: AbExt) -> int:
    """v_2 of the number of 2-power roots of unity after adjoining i."""
    if M.base.is_rationals():
        return 3 if (_in_w(M, {2: 1}) or _in_w(M, {-1: 1, 2: 1})) else 2
    q, m = M.base.q, constant_field_degree(M)
    return _vp_power_minus_1(q, m * (2 if pow(q, m, 4) == 3 else 1), 2)


def _cyclotomic_generators(M: AbExt, p: int) -> list:
    """Exponent tuples generating the classes of W that lie in the maximal
    subfield of M cut out by p-power roots of unity over the base."""
    require_prime(p)
    if M.base.is_rationals():
        # <-1, 2> for p = 2, else <p*> for p* = +-p = 1 mod 4
        targets = ({-1: 1}, {2: 1}) if p == 2 else ({p: 1, -1: 1} if p % 4 == 3 else {p: 1},)
    else:
        # in scope q = 1 mod p, so the cyclotomic tower is constant p-power
        # extensions: the constant classes of p-power order, <n / p^v_p(n)>
        targets = ({None: M.n // p ** vp(M.n, p)},) if M.n % p == 0 else ()
    return _generators_in(M, targets)


def cyclotomic_degree(M: AbExt, p: int) -> int:
    """[T : K] for T = M intersect K(p-power roots of unity): the order of
    the span of the generators, each e_i scaled by n/o_i as in _kernel."""
    rows = [{i: x * (M.n // o) for i, (x, o) in enumerate(zip(e, M.orders)) if x}
            for e in _cyclotomic_generators(M, p)]
    return span_order(M.n, howell(M.n, rows))


def restriction_order_to_cyclotomic(M: AbExt, p: int, sigma) -> int:
    """Order of sigma restricted to T = M intersect K(p-power roots of
    unity): the lcm of its pairing orders on the generators."""
    sigma = validate_sigma(M, sigma)
    return lcm(*[M.n // gcd(M.n, pairing(M, sigma, e)) for e in _cyclotomic_generators(M, p)])


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
    itself.  The memo is kept for the M it holds: each op decodes its
    extension again, and gets the first decode's reader, whose local_data
    lookups then find their key by identity, not by comparing AbExt values.
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
    # the greedy generators of Gal(M/T) in product order: Gal(M/T) is the
    # kernel H of s -> (sum_i s_i e_k[i])_k over the cyclotomic generators e_k,
    # and they are H's rows by decreasing pivot, each reduced by the rows past it
    n, cyclotomic = M.n, _cyclotomic_generators(M, p)
    columns = [{k: x for k, e in enumerate(cyclotomic) if (x := n // o * e[i])}
               for i, o in enumerate(M.orders)]
    H, gens = _kernel(n, columns, M.orders), []
    for j in sorted(H, reverse=True):
        row = _coset_least(n, {k: b for k, b in H.items() if k > j}, H[j])
        gens.append(tuple(row.get(i, 0) for i in range(len(M.orders))))
    # a norm N <= bound has 0 < N - 1 < 2^L <= p^L, L = bound.bit_length()
    modulus, frobenius = p ** min(power, bound.bit_length()), _frobenius_reader(M)
    out, missing = {}, []
    for sigma in gens or [(0,) * len(M.orders)]:
        found = (P for P in enumerate_places(M.base, bound)
                 if (P.norm() - 1) % modulus == 0 and frobenius(P) == sigma)
        try:
            out[sigma] = first_places(found, 1, bound, "places with the requested Frobenius")[0]
        except SearchExhausted:
            missing.append(sigma)
    if missing:
        raise SearchExhausted(f"no qualifying place below norm {bound} for generators"
                              f" {missing}", partial=out)
    return out
