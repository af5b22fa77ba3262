"""Extension builders and oracles shared by several test modules."""

from ncpbound.extensions import build_extension
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
