"""Extension builders and oracles shared by several test modules."""

import ast
import importlib.util
import itertools
import sys
from functools import cache, lru_cache
from math import gcd, lcm, prod
from pathlib import Path

from ncpbound.arith import QZ, QZ_ZERO, factorize, prime_field, vp
from ncpbound.brauer import _find_witness, _total, make_class
from ncpbound.covers import Cover
from ncpbound.errors import InvariantError, ValidationError
from ncpbound.extensions import (
    AbExt,
    _cyclotomic_generators,
    _generators_in,
    build_extension,
    constant_field_degree,
    cyclotomic_degree,
    galois_group,
    is_real_field,
    local_class_group,
    local_data,
    local_degree,
    pairing,
    r_value,
    restriction_order_to_cyclotomic,
    roots_of_unity_s,
)
from ncpbound.fields import (
    QQ,
    FqtElt,
    Place,
    _poly_mod,
    fqt_from_factors,
    infinite_place,
    poly_degree,
    poly_is_irreducible,
    poly_place,
    poly_trim,
    prime_place,
    rational_function_field,
    real_place,
)
from ncpbound.groupext import (
    Lemma35Report,
    _p_torsion,
    _power_kernel,
    beta,
    ext_mul,
    gamma,
    lift,
)
from ncpbound.isolation import isolation_report

T_ = (0, 1)  # the polynomial t, ascending coefficients

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src" / "ncpbound"


@cache
def src_trees() -> dict:
    """Module name -> parsed source, for every file of src/ncpbound."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def src_definitions():
    """(module.qualified name, def node) for top-level functions and methods."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, tree in src_trees().items():
        for node in tree.body:
            if isinstance(node, funcs):
                yield f"{module}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, funcs):
                        yield f"{module}.{node.name}.{sub.name}", sub


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


def make_class_oracle(invariants) -> tuple:
    """The sorted invariants of the class built from these pairs, by the route
    that validated each class twice: add up (type-checking each pair) and
    drop zeros, then check each entry, the bases and the sum as a chain of
    QZ additions, then sort.  Raises the ValidationError make_class must."""
    items = invariants.items() if hasattr(invariants, "items") else invariants
    acc = {}
    for place, inv in items:
        if not isinstance(place, Place):
            raise ValidationError(f"not a place: {place!r}")
        if not isinstance(inv, QZ):
            raise ValidationError(f"not an element of Q/Z: {inv!r}")
        acc[place] = acc.get(place, QZ_ZERO) + inv
    entries = [(P, v) for P, v in acc.items() if not v.is_zero()]
    total, bases = QZ_ZERO, set()
    for place, inv in entries:
        bases.add(place.base)
        if place.kind == "real" and inv != QZ(1, 2):
            raise ValidationError("a real place carries invariant 0 or 1/2 only")
        total = total + inv
    if len(bases) > 1:
        raise ValidationError("invariants live over different base fields")
    if not total.is_zero():
        raise ValidationError(f"invariants sum to {total}, not 0")
    return tuple(sorted(entries, key=lambda e: e[0].sort_key()))


def oracle_construct_class(M, m, S) -> tuple:
    """construct_class with the u2 witness's numerator found by search, for
    valid m and S: every c in [1, p^(n+u2)) prime to p is tried in turn,
    and while none gives the running sum full order one more u2 place with
    1/p^(n+u2) is drafted.  Returns the class and, per prime p of m, the
    pair (c, places drafted)."""
    places = sorted(set(S), key=lambda P: P.sort_key())
    finite_S = [P for P in places if P.kind != "real"]
    real_in_S = any(P.kind == "real" for P in places)
    entries, choices = [], {}
    for p, n in factorize(m).items():
        rep = isolation_report(M, p)
        p1 = _find_witness(M, p, rep.u1, exclude=set(), preferred=finite_S)
        p2 = _find_witness(M, p, rep.u2, exclude={p1}, preferred=finite_S)
        component = {P: QZ(1, p ** (n + vp(local_degree(M, P), p)))
                     for P in finite_S if P not in (p1, p2)}
        if p == 2 and real_in_S and is_real_field(M):
            component[real_place()] = QZ(1, 2)
        full, drafted = p ** (n + rep.u2), 0
        while True:
            x0 = QZ(*_total(component.values()))
            c = next((c for c in range(1, full)
                      if c % p and (x0 + QZ(c, full)).order == full), None)
            if c is not None:
                break
            extra = _find_witness(M, p, rep.u2, exclude={p1, p2, *component},
                                  preferred=finite_S)
            component[extra] = QZ(1, full)
            drafted += 1
        component[p2] = QZ(c, full)
        component[p1] = -(x0 + component[p2])
        entries.extend(component.items())
        choices[p] = (c, drafted)
    return make_class(entries), choices


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
    return Cover(M, L)


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


def exponent_adder(orders):
    """Addition of exponent tuples, coordinate i mod orders[i]."""
    return lambda x, y: tuple((a + b) % o for a, b, o in zip(x, y, orders))


def constant_classes(M) -> dict:
    """Every exponent tuple whose W-element is constant modulo n-th powers,
    with its class order in F_q*/(F_q*)^n, by listing W: the oracle for the
    generators that constant_field_degree and the cyclotomic part read."""
    out = {}
    for e in w_exponents(M):
        vec = combine(M.n, M.vectors, e)
        if set(vec) <= {None}:
            out[e] = M.n // gcd(M.n, *vec.values())
    return out


def cyclotomic_members(M, p) -> tuple:
    """Every exponent tuple whose class lies in T = M intersect K(p-power
    roots of unity), in product order, by listing W: over Q those whose
    squarefree value lies in <-1, 2> (p = 2) or <p*>, p* = +-p = 1 mod 4,
    over F_q(t) the constant classes of p-power order."""
    if M.base.is_rationals():
        targets = {1, -1, 2, -2} if p == 2 else {1, p if p % 4 == 1 else -p}
        return tuple(e for e in w_exponents(M) if prod(combine(2, M.vectors, e)) in targets)
    return tuple(e for e, o in constant_classes(M).items() if o == p ** vp(o, p))


def assert_generators_match_oracles(M, primes):
    """The constant field and the cyclotomic part T are read off generators;
    against the listing oracles, the generators span the members, the
    constant field degree is the lcm of the constant classes' orders, [T : K]
    is the number of members, every sigma's order on T is the lcm of its
    orders on the members, and over F_q(t) s and r are v_p(q^m - 1) and
    v_2(q^m' - 1), m' = 2m when q^m = 3 mod 4, with q^m formed."""
    zero, add = (0,) * len(M.orders), exponent_adder(M.orders)
    if not M.base.is_rationals():
        consts = constant_classes(M)
        assert grow(frozenset([zero]), _generators_in(M, ({None: 1},)), add) == set(consts)
        q, m = M.base.q, constant_field_degree(M)
        assert m == lcm(*consts.values())
        assert r_value(M) == vp(q ** (m * (2 if q**m % 4 == 3 else 1)) - 1, 2)
    for p in primes:
        members = cyclotomic_members(M, p)
        gens = _cyclotomic_generators(M, p)
        assert grow(frozenset([zero]), gens, add) == set(members), p
        assert cyclotomic_degree(M, p) == len(members), p
        for sigma in galois_group(M):
            want = lcm(*[M.n // gcd(M.n, pairing(M, sigma, e)) for e in members])
            assert restriction_order_to_cyclotomic(M, p, sigma) == want, (p, sigma)
        if not M.base.is_rationals():
            assert roots_of_unity_s(M, p) == vp(q**m - 1, p), p


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



def oracle_ramified_places(M) -> tuple:
    """ramified_places over every factor of every radicand, refactored and
    rebuilt as validated places: 2 and the primes of each radicand over Q,
    each factor's place, whatever its exponent, and the degree place over
    F_q(t)."""
    if M.base.is_rationals():
        places = {prime_place(p) for f in (2, *M.radicands) for p in factorize(f)}
    else:
        q = M.base.q
        places = {poly_place(q, poly) for f in M.radicands for poly, _ in f.factors}
        places.add(infinite_place(q))
    return tuple(P for P in sorted(places, key=Place.sort_key) if local_data(M, P).ram_index > 1)


# ------------------------------------------------------------ F_q[t] oracles


def poly_mul(a, b, q: int) -> tuple:
    """The product of a and b over F_q by schoolbook multiplication."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return poly_trim(out)


def poly_divmod(a, b, q: int) -> tuple[tuple, tuple]:
    """Quotient and remainder of a by b over F_q by long division: the
    oracle for fields._poly_mod."""
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
    result, base = (1,), _poly_mod(a, m, q)
    while e > 0:
        if e & 1:
            result = _poly_mod(poly_mul(result, base, q), m, q)
        base = _poly_mod(poly_mul(base, base, q), m, q)
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
        base = _poly_mod(poly, m, q)
        if e < 0:
            base, e = poly_inverse(base, m, q), -e
        r = _poly_mod(poly_mul(r, poly_pow_mod(base, e, m, q), q), m, q)
    return r


def oracle_dlog_in_mu(q, x, n):
    """Discrete log of x base zeta_n in F_q, by walking mu_n one power at a
    time; ValidationError when x is not in mu_n."""
    zeta = prime_field(q).nth_root_of_unity(n)
    y = 1
    for i in range(n):
        if y == x % q:
            return i
        y = y * zeta % q
    raise ValidationError(f"{x} is not an n-th root of unity in F_{q}")


def oracle_residue_symbol_dlog(x, place, n):
    """The n-th power residue symbol of x's unit part as dlog base zeta_n,
    read as u^((N - 1)/n) in the residue field of norm N."""
    u, k = unit_residue(x, place), (place.norm() - 1) // n
    if place.kind == "inf":
        return oracle_dlog_in_mu(x.q, pow(u, k, x.q), n)
    r = poly_pow_mod(u, k, place.coeffs, x.q)
    if len(r) != 1:
        raise InvariantError("symbol did not land in the constants")
    return oracle_dlog_in_mu(x.q, r[0], n)


# ------------------------------------------------------------ groupext oracles


def identity(E):
    """The identity of E in normal form."""
    return (0, (0,) * len(E.orders))


def ext_pow(E, g, n):
    """g^n = gen_A^(n alpha) s(x)^n for g = (alpha, x) in normal form and
    n >= 0, by the power form: the tests' closed-form power."""
    alpha, x = g
    kernel = (n * alpha + _power_kernel(E, x, n)) % E.kernel_order
    return (kernel, tuple(n * v % o for v, o in zip(x, E.orders)))


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
