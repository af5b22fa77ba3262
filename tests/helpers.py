"""Extension builders and oracles shared by several test modules."""

from ncpbound.covers import Cover
from ncpbound.errors import ValidationError
from ncpbound.extensions import AbExt, build_extension, local_degree
from ncpbound.fields import QQ, FqtElt, fqt_from_factors, rational_function_field

T_ = (0, 1)  # the polynomial t, ascending coefficients


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


def fqt_mul(a, b):
    """The product of two factored elements of F_q(t), built by the
    validated constructor: the oracle for multiplying radicands out."""
    exps = dict(a.factors)
    for poly, e in b.factors:
        exps[poly] = exps.get(poly, 0) + e
    return FqtElt(a.q, a.c * b.c, tuple(exps.items()))


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
