"""Extension builders and oracles shared by several test modules."""

import importlib.util
import itertools
import sys
from functools import cache, lru_cache
from math import gcd, lcm
from pathlib import Path

from ncpbound.arith import prime_field
from ncpbound.covers import Cover
from ncpbound.errors import InvariantError, ValidationError
from ncpbound.extensions import (
    AbExt,
    build_extension,
    cyclotomic_members,
    galois_group,
    local_class_group,
    local_degree,
    pairing,
)
from ncpbound.fields import (
    QQ,
    FqtElt,
    fqt_from_factors,
    poly_degree,
    poly_is_irreducible,
    poly_mod,
    poly_mul,
    poly_trim,
    rational_function_field,
)
from ncpbound.groupext import Lemma35Report, _p_torsion, beta, ext_mul, gamma, identity, lift

T_ = (0, 1)  # the polynomial t, ascending coefficients

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@cache
def perfbench_module(name: str):
    """perfbench/<name>.py, loaded once as perfbench_<name>: the benchmark
    is no package, and its dataclasses look their module up in sys.modules."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def q_ext(*radicands):
    return build_extension(QQ, 2, radicands)


def ff7_cubic():
    t = fqt_from_factors(7, 1, [(T_, 1)])
    g = fqt_from_factors(7, 1, [((6, 1), 1), ((5, 1), 1)])  # (t-1)(t-2)
    return build_extension(rational_function_field(7), 3, (t, g))


def ff3_quad():
    t = fqt_from_factors(3, 1, [(T_, 1)])
    g = fqt_from_factors(3, 1, [((2, 1), 1), ((1, 1), 1)])  # (t-1)(t-2)
    return build_extension(rational_function_field(3), 2, (t, g))


def sigma_order(M, sigma) -> int:
    """The order of a Galois element sigma = (s_1, ..., s_r), each s_i a
    multiple of n/o_i in Z/n."""
    return M.n // gcd(M.n, *sigma) if any(sigma) else 1


@lru_cache(maxsize=None)
def _monic_irreducible(poly, q):
    """Whether a polynomial is monic irreducible over F_q, proved once per
    polynomial: the products below reuse a few factors many times."""
    return poly[-1] == 1 and poly_is_irreducible(poly, q)


def trusted_fqt(q: int, c: int, factors: tuple) -> FqtElt:
    """An FqtElt built without __post_init__, for products the caller has
    already checked: q prime, c a reduced unit, and factors a sorted tuple
    of distinct monic irreducibles with nonzero exponents."""
    elt = object.__new__(FqtElt)
    object.__setattr__(elt, "q", q)
    object.__setattr__(elt, "c", c)
    object.__setattr__(elt, "factors", factors)
    return elt


def fqt_mul(a, b):
    """The product of two factored elements of F_q(t): the oracle for
    multiplying radicands out.  It checks what the validating constructor
    checks, with each distinct factor proved irreducible once, and then
    builds through the trusted one: c reduced and a unit, zero exponents
    dropped, factors sorted."""
    q, exps = a.q, dict(a.factors)
    for poly, e in b.factors:
        exps[poly] = exps.get(poly, 0) + e
    c = a.c * b.c % q
    if not c:
        raise ValidationError("constant part must be a unit")
    factors = []
    for poly, e in exps.items():
        if not _monic_irreducible(poly, q):
            raise ValidationError(f"factor {poly} is not monic irreducible")
        if e:
            factors.append((poly, e))
    return trusted_fqt(q, c, tuple(sorted(factors)))


def check(report, name: str):
    """The (name, passed, detail) row of a worked-example report."""
    return next(row for row in report.checks if row[0] == name)


def oracle_cover(M, extra, n_prime=None):
    """A cover of M built from scratch: L is a fresh, fully validated AbExt
    of M's radicands re-powered by n'/n, then the extras.  Returns the
    ValidationError text when L does not build."""
    n_prime = M.n if n_prime is None else n_prime
    e = n_prime // M.n
    lifted = M.radicands if M.base.is_rationals() else tuple(f.pow(e) for f in M.radicands)
    try:
        L = AbExt(M.base, n_prime, lifted + tuple(extra))
    except ValidationError as exc:
        return str(exc)
    return Cover(M, L, L.degree // M.degree)


def oracle_local_degree(C, P):
    """[L:M]_P as the quotient of the two local degrees."""
    return local_degree(C.L, P) // local_degree(C.M, P)


# ------------------------------------------------------------ span oracles


def _multiples(span: frozenset, g, add) -> list:
    """g, 2g, ..., (k-1)g for the least k >= 1 with kg in the span."""
    out, x = [], g
    while x not in span:
        out.append(x)
        x = add(x, g)
    return out


def grow(span: frozenset, gens, add) -> frozenset:
    """The group generated by a subgroup, given as the frozenset of its
    members, and gens: the oracle for the Howell-basis spans."""
    for g in gens:
        span = span.union([add(s, x) for s in span for x in _multiples(span, g, add)])
    return span


def tuple_adder(n: int):
    """Addition in (Z/n)^w on tuples."""
    return lambda x, y: tuple((a + b) % n for a, b in zip(x, y))


def combine(n: int, vectors, exps) -> dict:
    """The class vector of prod f_i^(e_i), zero coordinates left out."""
    out: dict = {}
    for vec, e in zip(vectors, exps):
        for atom, x in vec.items():
            out[atom] = (out.get(atom, 0) + e * x) % n
    return {atom: x for atom, x in out.items() if x}


def w_exponents(M) -> tuple:
    """Every exponent tuple of W, in product order."""
    return tuple(itertools.product(*[range(o) for o in M.orders]))


def gal_fixing_cyclotomic(M, p) -> tuple:
    """Gal(M/T), in product order: the Galois elements that annihilate every
    cyclotomic class."""
    members = cyclotomic_members(M, p)
    return tuple(s for s in galois_group(M) if all(pairing(M, s, e) == 0 for e in members))


def greedy_generators(M, p) -> list:
    """The generators of Gal(M/T) that s0_search looks for, by listing the
    group: each element in product order that lies outside the span of
    those picked before it."""
    span, gens = frozenset([(0,) * len(M.orders)]), []
    for sigma in gal_fixing_cyclotomic(M, p):
        if sigma not in span:
            gens.append(sigma)
            span = grow(span, [sigma], tuple_adder(M.n))
    return gens


def local_data_oracle(M, place):
    """The splitting of M at a place by enumeration, with no memo: the image
    of every exponent tuple in the local class group, the kernels ker_d
    (trivial image) and ker_i (unramified image), their annihilators D and I
    in the Galois group, and the first element of D whose pairings match
    the residue symbols on ker_i.  The unramified classes are grown from
    their generators: none at a real place, the class of 5 at 2, and the
    unit class at a tame place.  Returns (degree, e, f, D, I, frobenius)."""
    G = local_class_group(M, place)

    width = 1 if place.kind == "real" else 3 if place.kind == "prime" and place.p == 2 else 2

    def image(exps):
        return tuple(sum(e * img[k] for e, img in zip(exps, G.images)) % G.n
                     for k in range(width))

    if place.kind == "real":
        gens = ()
    elif width == 3:  # at 2: coordinates (e_-1, e_5, v_2)
        gens = ((0, 1, 0),)
    else:  # (valuation, unit class)
        gens = ((0, 1),)
    unram = grow(frozenset(((0,) * width,)), gens, tuple_adder(G.n))
    exps = w_exponents(M)
    images = {e: image(e) for e in exps}
    ker_d = [e for e in exps if not any(images[e])]
    ker_i = [e for e in exps if images[e] in unram]
    D = tuple(s for s in galois_group(M) if all(pairing(M, s, e) == 0 for e in ker_d))
    I = tuple(s for s in D if all(pairing(M, s, e) == 0 for e in ker_i))
    if len(D) * len(ker_d) != len(exps):
        raise InvariantError("annihilator size mismatch")
    frob = next(s for s in D
                if all(pairing(M, s, e) == (images[e][1] if width > 1 else 0) for e in ker_i))
    e_idx = len(exps) // len(ker_i)
    return len(D), e_idx, len(D) // e_idx, D, I, frob


# ------------------------------------------------------------ F_q[t] oracles


def poly_divmod(a, b, q: int) -> tuple[tuple, tuple]:
    """Quotient and remainder of a by b over F_q by long division: the
    oracle for fields.poly_mod."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(poly_trim(a))
    db, lead_inv = len(b) - 1, pow(b[-1], -1, q)
    quot = [0] * max(len(a) - db, 0)
    while a and len(a) - 1 >= db:
        shift = len(a) - 1 - db
        factor = a[-1] * lead_inv % q
        quot[shift] = factor
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % q
        a = list(poly_trim(a))
    return poly_trim(quot), tuple(a)


@lru_cache(maxsize=None)
def oracle_monic_irreducibles(q, degree):
    """The monic irreducibles of a degree by trial division: the candidates
    no monic irreducible of degree <= degree/2 (found the same way) divides,
    in coefficient-tuple order."""
    divisors = [f for k in range(1, degree // 2 + 1) for f in oracle_monic_irreducibles(q, k)]
    candidates = (lower + (1,) for lower in itertools.product(range(q), repeat=degree))
    return tuple(c for c in candidates if all(poly_divmod(c, f, q)[1] for f in divisors))


def poly_pow_mod(a, e, m, q):
    """a^e mod m over F_q by square and multiply (e >= 0)."""
    result, base = (1,), poly_mod(a, m, q)
    while e > 0:
        if e & 1:
            result = poly_mod(poly_mul(result, base, q), m, q)
        base = poly_mod(poly_mul(base, base, q), m, q)
        e >>= 1
    return result


def poly_inverse(a, m, q):
    """Inverse of a mod m via Fermat in F_q[t]/(m) (m irreducible)."""
    return poly_pow_mod(a, q ** poly_degree(m) - 2, m, q)


@lru_cache(maxsize=None)
def unit_residue(x, place):
    """Residue of x / pi^v at the place, for pi the canonical uniformizer
    (the monic irreducible itself, or 1/t at infinity): a coefficient tuple
    mod the place polynomial, or a unit of F_q at infinity."""
    if place.kind == "inf":
        return x.c
    m, q = place.coeffs, x.q
    r = (x.c,)
    for poly, e in x.factors:
        if poly == m:
            continue
        base = poly_mod(poly, m, q)
        if e < 0:
            base, e = poly_inverse(base, m, q), -e
        r = poly_mod(poly_mul(r, poly_pow_mod(base, e, m, q), q), m, q)
    return r


def oracle_residue_symbol_dlog(x, place, n):
    """The n-th power residue symbol of x's unit part as dlog base zeta_n,
    read as u^((N - 1)/n) in the residue field of norm N."""
    u, k = unit_residue(x, place), (place.norm() - 1) // n
    if place.kind == "inf":
        return prime_field(x.q).dlog_in_mu(pow(u, k, x.q), n)
    r = poly_pow_mod(u, k, place.coeffs, x.q)
    if len(r) != 1:
        raise InvariantError("symbol did not land in the constants")
    return prime_field(x.q).dlog_in_mu(r[0], n)


# ------------------------------------------------------------ groupext oracles


def oracle_fiber(E, x):
    """The preimage of <x> as the closure of a lift of x and the kernel
    generator under ext_mul, by a search from the identity, sorted."""
    gens = [lift(E, x)]
    if E.a > 0:
        gens.append((1, (0,) * len(E.orders)))
    seen = {identity(E)}
    frontier = [identity(E)]
    while frontier:
        g = frontier.pop()
        for h in gens:
            nxt = ext_mul(E, g, h)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen))


def oracle_lines_for(orders):
    """(order, generator) per cyclic subgroup of the product of the cyclic
    groups, by a sweep of every element in lexicographic order: the first
    element of a subgroup met is its least generator, and all its
    generators m x (m prime to the order) are marked as seen."""
    lines = []
    seen = set()
    for x in itertools.product(*(range(o) for o in orders)):
        if not any(x) or x in seen:
            continue
        n = lcm(*(o // gcd(o, v) for v, o in zip(x, orders)))
        units = [m for m in range(1, n) if gcd(m, n) == 1]
        seen.update(tuple(m * v % o for v, o in zip(x, orders)) for m in units)
        lines.append((n, x))
    lines.sort()
    return lines


def oracle_lemma_35(E):
    """verify_lemma_35 on all p^(2k) pairs of p-torsion elements (k the
    rank): gamma tabulated once per element, additivity checked at every
    pair, and for p = 2 the parity of beta at every pair."""
    torsion = _p_torsion(E)
    gammas = {x: gamma(E, x) for x in torsion}
    hom = all(
        gammas[tuple((u + v) % o for u, v, o in zip(x, y, E.orders))]
        == (gammas[x] + gammas[y]) % E.p
        for x in torsion
        for y in torsion
    )
    if E.p % 2 == 1:
        criterion = True
    else:
        criterion = all(
            beta(E, x, y) % 2 == 0 for x in torsion for y in torsion
        )
    return Lemma35Report(E.p, hom, criterion)
