"""Class-2 central extensions of abelian p-groups by a cyclic kernel.

A group G sits in 1 -> A -> G -> B -> 1 with A = C_{p^a} central and
B = prod C_{orders[i]} abelian.  Fixing a section s, the extension is
pinned down by the data t_i = s(x_i)^{orders[i]} in A and the commutators
c_ij = [s(x_i), s(x_j)] in A; every element has the normal form
(alpha, (e_1, ..., e_k)) = gen_A^alpha * s(x_1)^{e_1} * ... * s(x_k)^{e_k}.
Kernel elements are written additively, as exponents of a fixed generator
of A (so for a = 1 the exponent 1 denotes the order-2 element).

Commutators here are [g, h] = g^-1 h^-1 g h.

The group has class 2, so (gh)^n = g^n h^n [h, g]^C(n,2) and [., .] is
bilinear.  Powers and commutators of lifts are therefore closed forms in
(t, c): `_power_form` gives the kernel part of s(x)^n and `beta` the
alternating form.  `ext_mul` and `ext_inv` are the independent collection
route: `fiber` collects the powers of one lift of x and takes their kernel
translates, `fiber_is_cyclic` decides cyclicity by collecting p-th powers,
and the tests check the closed forms against that route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product, repeat
from math import gcd, lcm

from .arith import is_prime
from .errors import InvariantError, ValidationError


# The largest group order ext_build and prop32_scan accept; the largest scan
# the tests and the benchmark run, 5 * 25^3, is 78 125.
MAX_GROUP_ORDER = 10**5


def _require_fits(p: int, a: int, factors, what: str) -> None:
    """ValidationError once a partial product of p^a and the factors passes
    MAX_GROUP_ORDER, so p^a is never formed; a p below 2 or a factor below
    1 counts as 1 and is rejected later."""
    size = 1
    for f in chain(factors, repeat(p, a if p > 1 else 0)):
        size *= max(f, 1)
        if size > MAX_GROUP_ORDER:
            raise ValidationError(f"{what} exceeds the group order ceiling"
                                  f" {MAX_GROUP_ORDER} (p = {p}, a = {a})")


@dataclass(frozen=True)
class CentralExt:
    p: int
    a: int
    orders: tuple
    t: tuple
    c: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")
        if self.a < 0:
            raise ValidationError("kernel exponent a must be nonnegative")
        for o in self.orders:
            reduced = o
            while reduced >= self.p and reduced % self.p == 0:
                reduced //= self.p
            if reduced != 1 or o < self.p:
                raise ValidationError(f"quotient factor {o} is not a power of {self.p} >= {self.p}")
        pa = self.p**self.a
        if len(self.t) != len(self.orders):
            raise ValidationError("one t value per quotient generator required")
        if any(not 0 <= v < pa for v in self.t):
            raise ValidationError("t values must be kernel exponents in [0, p^a)")
        k = len(self.orders)
        if len(self.c) != k * (k - 1) // 2:
            raise ValidationError(f"{k * (k - 1) // 2} commutator values required")
        for (i, j), v in self.pairs:
            if not 0 <= v < pa:
                raise ValidationError("commutator values must be kernel exponents in [0, p^a)")
            order_of_v = pa // gcd(pa, v) if v else 1
            if gcd(self.orders[i], self.orders[j]) % order_of_v != 0:
                raise ValidationError(
                    f"commutator c_{i}{j} has order {order_of_v}, exceeding"
                    f" gcd({self.orders[i]}, {self.orders[j]})"
                )

    @property
    def kernel_order(self) -> int:
        return self.p**self.a

    @property
    def order(self) -> int:
        n = self.kernel_order
        for o in self.orders:
            n *= o
        return n

    @cached_property
    def pairs(self) -> tuple:
        """((i, j), c_ij) for every pair i < j, in the order of c."""
        return tuple(zip(combinations(range(len(self.orders)), 2), self.c))


def ext_build(p: int, a: int, orders, t, c) -> CentralExt:
    """Validated constructor.  c may be a dict keyed by (i, j) with i < j,
    or a flat sequence in lexicographic pair order."""
    orders = tuple(orders)
    _require_fits(p, a, orders, "p^a*prod(orders)")
    pa = p**a if a >= 0 else 0
    t = tuple(v % pa if pa else 0 for v in t)
    if isinstance(c, dict):
        flat = []
        seen = dict(c)
        for i, j in combinations(range(len(orders)), 2):
            flat.append(seen.pop((i, j), 0) % pa if pa else 0)
        if seen:
            raise ValidationError(f"stray commutator keys {sorted(seen)}")
        c = flat
    else:
        c = [v % pa if pa else 0 for v in c]
    return CentralExt(p, a, orders, t, tuple(c))


def identity(E: CentralExt) -> tuple:
    return (0, (0,) * len(E.orders))


def lift(E: CentralExt, x) -> tuple:
    """The section applied to x: the normal form with trivial kernel part."""
    if len(x) != len(E.orders):
        raise ValidationError("wrong number of coordinates")
    return (0, tuple(v % o for v, o in zip(x, E.orders)))


def ext_mul(E: CentralExt, g, h) -> tuple:
    pa = E.kernel_order
    (ag, eg), (ah, eh) = g, h
    alpha = ag + ah
    # collection: moving h's i-th letters left past g's j-th letters (i < j)
    # picks up [s_j, s_i] = -c_ij each time
    for (i, j), cv in E.pairs:
        alpha -= cv * eg[j] * eh[i]
    exps = []
    for i, o in enumerate(E.orders):
        q, r = divmod(eg[i] + eh[i], o)
        alpha += q * E.t[i]
        exps.append(r)
    return (alpha % pa if pa else 0, tuple(exps))


def ext_inv(E: CentralExt, g) -> tuple:
    pa = E.kernel_order
    alpha, exps = g
    rev = tuple((-e) % o for e, o in zip(exps, E.orders))
    drift, _ = ext_mul(E, g, (0, rev))
    return ((-drift) % pa if pa else 0, rev)


def ext_pow(E: CentralExt, g, n: int) -> tuple:
    """g^n = gen_A^(n alpha) s(x)^n for g = (alpha, x) and n >= 0, by the power form."""
    alpha, x = g
    form = _power_form(E.p, E.a, E.orders, x, n)
    kernel = n * alpha + sum(f * d for f, d in zip(form, (*E.t, *E.c)))
    return (kernel % E.kernel_order, tuple(n * v % o for v, o in zip(x, E.orders)))


def fiber(E: CentralExt, x) -> tuple:
    """The preimage of <x>, sorted: every kernel translate (alpha, e) of the
    powers (beta, e) of one lift L of x, as gen_A acts on the left by adding
    to alpha.  L, L^2, ... are collected by ext_mul up to the first power
    in the kernel, n - 1 products for x of order n."""
    g = L = lift(E, x)
    zero = (0,) * len(E.orders)
    exps = [zero]
    while g[1] != zero:
        exps.append(g[1])
        g = ext_mul(E, g, L)
    exps.sort()
    return tuple((alpha, e) for alpha in range(E.kernel_order) for e in exps)


def fiber_is_cyclic(E: CentralExt, x) -> bool:
    """The fiber is an abelian p-group (central kernel, cyclic quotient <x>),
    and such a group is cyclic iff at most p of its elements g have g^p = 1.
    Each g^p is collected by p - 1 ext_mul, not read off the power form;
    g^p = 1 needs p y = 0 for the quotient part y of g."""
    e = identity(E)
    solutions = 0
    for g in fiber(E, x):
        if not _in_torsion(E, g[1]):
            continue
        h = g
        for _ in range(E.p - 1):
            h = ext_mul(E, h, g)
        if h == e:
            solutions += 1
            if solutions > E.p:
                return False
    return True


def beta(E: CentralExt, x, y) -> int:
    """[s(x), s(y)] as a kernel exponent; independent of the lifts.  By
    bilinearity it is the alternating form sum c_ij (x_i y_j - x_j y_i)."""
    (_, x), (_, y) = lift(E, x), lift(E, y)
    return sum(cv * (x[i] * y[j] - x[j] * y[i]) for (i, j), cv in E.pairs) % E.kernel_order


def _in_torsion(E: CentralExt, x) -> bool:
    return all((E.p * v) % o == 0 for v, o in zip(x, E.orders))


def gamma(E: CentralExt, x) -> int:
    """The class of s(x)^p in A/A^p, as an exponent in [0, p); independent
    of the section because changing the lift by z shifts s(x)^p by z^p."""
    x = tuple(v % o for v, o in zip(x, E.orders))
    if not _in_torsion(E, x):
        raise ValidationError(f"{x} is not p-torsion in the quotient")
    alpha, _ = ext_pow(E, lift(E, x), E.p)
    return alpha % E.p if E.a else 0


def _vec_order(x, orders) -> int:
    return lcm(*(o // gcd(o, v) for v, o in zip(x, orders)))


def power_criterion(E: CentralExt, x) -> bool:
    """Whether the kernel is trivial or generated by s(x)^(ord x), the
    kernel element that decides if the fiber over <x> is cyclic."""
    x = tuple(v % o for v, o in zip(x, E.orders))
    if not any(x):
        raise ValidationError("x must be a nontrivial quotient element")
    power, _ = ext_pow(E, lift(E, x), _vec_order(x, E.orders))
    return E.a == 0 or power % E.p != 0


def fiber_cyclicity(E: CentralExt) -> dict:
    """Whether the fiber over <x> is cyclic, for every nontrivial x of the
    quotient.  The fiber is the preimage of the subgroup <x>, which m x
    generates too for m prime to ord(x), so one fiber per cyclic subgroup
    decides all of its generators."""
    cyclic = {}
    for n, x in _lines_for(E.p, E.orders):
        verdict = fiber_is_cyclic(E, x)
        units = [m for m in range(1, n) if gcd(m, n) == 1]
        for y in _multiples(x, units, E.orders):
            cyclic[y] = verdict
    return cyclic


def verify_lemma_34(E: CentralExt, x) -> bool:
    """Fiber over <x> is cyclic iff the power criterion holds.  Returns
    whether the equivalence holds on E."""
    return power_criterion(E, x) == fiber_is_cyclic(E, x)


def _p_torsion(E: CentralExt) -> list:
    return list(product(*(range(0, o, o // E.p) for o in E.orders)))


@dataclass(frozen=True)
class Lemma35Report:
    p: int
    homomorphism: bool
    criterion: bool

    @property
    def consistent(self) -> bool:
        return self.homomorphism == self.criterion


def verify_lemma_35(E: CentralExt) -> Lemma35Report:
    """Is gamma a homomorphism on the p-torsion of the quotient?  For odd p
    it always is; for p = 2 exactly when every commutator value on the
    2-torsion is a kernel square.  The report pairs the observed status
    with that criterion.  The p-torsion is an F_p-space with basis
    b_i = (o_i/p) e_i, so gamma is one iff it equals the linear map through
    the gamma(b_i) at every torsion element: p^k evaluations by ext_pow (k
    the rank).  beta is bilinear on the integer representatives, so for
    p = 2 its parity on the torsion is decided on the pairs (b_i, b_j)."""
    p = E.p
    basis = [tuple(o // p if j == i else 0 for j, o in enumerate(E.orders))
             for i in range(len(E.orders))]
    on_basis = [gamma(E, b) for b in basis]
    hom = all(
        gamma(E, x) == sum(v * p // o * g for v, o, g in zip(x, E.orders, on_basis)) % p
        for x in _p_torsion(E)
    )
    criterion = p % 2 == 1 or all(
        beta(E, basis[i], basis[j]) % 2 == 0 for (i, j), _ in E.pairs
    )
    return Lemma35Report(p, hom, criterion)


def _capped(p: int, profile_max) -> list:
    """The scan's bound on each quotient factor."""
    return [min(m, p * p) for m in profile_max]


def _profiles(p: int, profile_max):
    caps = _capped(p, profile_max)
    out = []
    for rank in range(2, len(profile_max) + 1):
        choices = []
        for i in range(rank):
            vals = []
            o = p
            while o <= caps[i]:
                vals.append(o)
                o *= p
            choices.append(vals)
        for combo in product(*choices):
            if all(combo[i] >= combo[i + 1] for i in range(rank - 1)):
                out.append(combo)
    return out


def _multiples(x, ms, orders) -> list:
    """m x for each m of the sequence ms."""
    return list(zip(*([m * v % o for m in ms] for v, o in zip(x, orders))))


def _lines_for(p: int, orders):
    """(order, least generator) per cyclic subgroup of the product of the
    given cyclic p-groups, smallest order first.  A unit keeps the valuation
    of the first nonzero coordinate, so that generator has some p^v there:
    only such tuples are walked, and of each line only the generators m x
    with m = 1 mod the order of p^v are marked as seen."""
    lines = []
    for i, o in enumerate(orders):
        rest = [range(r) for r in orders[i + 1:]]
        pv = 1
        while pv < o:
            lead = (0,) * i + (pv,)
            seen = set()
            for tail in product(*rest):
                x = lead + tail
                if x not in seen:
                    n = _vec_order(x, orders)
                    seen.update(_multiples(x, range(1, n, o // pv), orders))
                    lines.append((n, x))
            pv *= p
    lines.sort()
    return lines


def _power_form(p: int, a: int, orders, x, n: int) -> tuple:
    """Kernel part of s(x)^n (n >= 0) as a linear form in the structure data.

    s(x)^n = prod s_i^(n x_i) * prod_{i<j} [s_j, s_i]^(C(n,2) x_i x_j), and
    s_i^(n x_i) leaves t_i^floor(n x_i / o_i) in the kernel.  The result is
    a tuple of len(orders) t-coefficients followed by one coefficient per
    (i, j) pair, all mod p^a.
    """
    pa = p**a
    half = n * (n - 1) // 2
    return tuple(n * v // o % pa for v, o in zip(x, orders)) + tuple(
        -half * x[i] * x[j] % pa for i, j in combinations(range(len(orders)), 2)
    )


def _good_residues(p: int, a: int, orders) -> set:
    """The residue tuples mod p of the data (t_1..t_k, then c_ij in pair
    order) at which no line's power form vanishes mod p: the prefilter's
    pass set, for prime p.

    The tuples grow one coordinate at a time.  A form is decided once the
    coordinate of its last nonzero coefficient is fixed, and there it
    vanishes for exactly one residue, so each form closing at a coordinate
    bans one value for each prefix; a prefix with nothing left dies.  A form
    that is identically zero vanishes everywhere.
    """
    forms = {
        tuple(v % p for v in _power_form(p, a, orders, x, n)) for n, x in _lines_for(p, orders)
    }
    if any(not any(form) for form in forms):
        return set()
    k = len(orders)
    # coordinate -> (coefficients before it, -1/coefficient at it) per form closing there
    closing = [[] for _ in range(k + k * (k - 1) // 2)]
    for form in forms:
        last = max(i for i, v in enumerate(form) if v)
        closing[last].append((form[:last], -pow(form[last], -1, p)))
    prefixes = [()]
    for closers in closing:
        grown = []
        for pre in prefixes:
            banned = {
                sum(fv * rv for fv, rv in zip(head, pre)) * scale % p for head, scale in closers
            }
            grown.extend(pre + (r,) for r in range(p) if r not in banned)
        prefixes = grown
    return set(prefixes)


def prop32_scan(p: int, a_max: int, b_profile_max) -> list:
    """Enumerate extensions with noncyclic quotient (rank <= len(profile),
    cyclic factors <= p^2), kernel order up to p^a_max, and all t/c data up
    to the section change t_i ~ t_i + orders[i]*A; return those whose
    fibers are all cyclic.  Every hit must have kernel of order exactly 2;
    anything else is raised as a hard failure.

    The fiber over <x> is cyclic iff s(x)^ord(x) generates the kernel mod
    p, and that kernel element is a linear form in (t, c), so candidates
    are prefiltered by the residues of their data mod p; every survivor is
    re-verified by `fiber_is_cyclic` on the collected fibers, and a
    disagreement between the two routes is a hard failure.  A negative
    a_max or a scan past MAX_GROUP_ORDER is refused before any work.
    """
    if a_max < 0:
        raise ValidationError(f"a_max must be at least 0, got {a_max}")
    _require_fits(p, a_max, _capped(p, b_profile_max), "p^a_max*prod(capped profile)")
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    hits = []
    for a in range(1, a_max + 1):
        pa = p**a
        for orders in _profiles(p, b_profile_max):
            t_space = [range(gcd(o, pa)) for o in orders]
            c_space = [
                range(0, pa, pa // gcd(orders[i], orders[j], pa))
                for i, j in combinations(range(len(orders)), 2)
            ]
            good = _good_residues(p, a, orders)
            if not good:
                continue
            # smallest fibers first, so a disagreement surfaces early
            lines = [x for _, x in _lines_for(p, orders)]
            for t in product(*t_space):
                t_res = tuple(v % p for v in t)
                for c in product(*c_space):
                    if t_res + tuple(v % p for v in c) not in good:
                        continue
                    E = CentralExt(p, a, orders, t, c)
                    if not all(fiber_is_cyclic(E, x) for x in lines):
                        raise InvariantError(
                            f"linear criterion and collected fiber disagree on {E}"
                        )
                    if E.kernel_order != 2:
                        raise InvariantError(
                            f"cyclic-fiber extension with kernel order {E.kernel_order}: {E}"
                        )
                    hits.append(E)
    return hits
