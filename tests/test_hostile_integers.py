"""Hostile integers at the library boundary.

Every public function or method of `arith`, `fields` and `extensions` that
takes an int, as the surface test enumerates them, either returns or
refuses by name (`ValidationError`, or `SearchExhausted` for a bounded
search) when each int it takes is drawn from small, zero, negative and
composite values.  Every other argument is a fixed value that is valid for
the drawn integers.  There is no allowlist: a helper that trusts its
caller's integers gets an underscore instead.
"""

import ast
import inspect
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from helpers import ff7_cubic, q_ext, src_definitions
from ncpbound.arith import (
    QZ,
    factorize,
    is_prime,
    is_squarefree,
    legendre,
    mul_order_mod,
    power_class_order,
    prime_field,
    primes_upto,
    require_positive,
    require_prime,
    require_tame,
    squarefree_part,
    vp,
)
from ncpbound.errors import SearchExhausted, ValidationError
from ncpbound.extensions import (
    build_extension,
    cyclotomic_degree,
    find_places_with_frobenius,
    howell,
    local_class_group,
    qsigma_search,
    relative_degree,
    require_chi_order,
    restriction_order_to_cyclotomic,
    roots_of_unity_s,
    s0_search,
    span_members,
    span_order,
)
from ncpbound.fields import (
    QQ,
    enumerate_places,
    first_places,
    fqt_const,
    fqt_from_factors,
    infinite_place,
    monic_irreducibles,
    poly_is_irreducible,
    poly_place,
    prime_place,
    rational_function_field,
)

MODULES = ("arith", "fields", "extensions")

# Small, zero, negative and composite.  Primes above 6 are left out so that
# no draw sieves near fields.MAX_MONICS: the largest sieve drawn is 3^10.
HOSTILE = st.one_of(st.integers(-3, 6), st.sampled_from([-9, -6, -4, 9, 10, 25]))

EXTENSIONS = (q_ext(3, -7), ff7_cubic())
F7 = rational_function_field(7)
T = fqt_from_factors(7, 1, [((0, 1), 1)])
ROWS = ({0: 1, 1: 2}, {1: 2})


def _rows(n: int) -> list:
    """ROWS over Z/n: entries reduced mod n, zeros dropped (ROWS for n < 1,
    which every span function must refuse or pass through)."""
    return [{k: x % n for k, x in r.items() if x % n} for r in ROWS] if n > 0 else list(ROWS)


def _basis(n: int) -> dict:
    """A Howell basis over Z/n: that of _rows(n), or the trivial span, which
    is one for every n."""
    return howell(n, _rows(n)) if n > 0 else {}


def _on_extensions(f):
    return tuple(partial(f, M) for M in EXTENSIONS)


# qualified name -> the calls that take its ints in order, one per fixture
CALLS = {
    "arith.QZ.scale": (QZ(1, 3).scale,),
    "arith.vp": (vp,),
    "arith.factorize": (factorize,),
    "arith.is_prime": (is_prime,),
    "arith.require_prime": (lambda n: require_prime(n),),
    "arith.require_positive": (require_positive,),
    "arith.require_tame": _on_extensions(lambda M, p: require_tame(M, p, "tested")),
    "arith.primes_upto": (lambda bound, after: list(primes_upto(bound, after)),),
    "arith.squarefree_part": (squarefree_part,),
    "arith.is_squarefree": (is_squarefree,),
    "arith.mul_order_mod": (mul_order_mod,),
    "arith.legendre": (legendre,),
    "arith.PrimeField.nth_root_of_unity": (prime_field(7).nth_root_of_unity,),
    "arith.PrimeField.dlog_in_mu": (prime_field(7).dlog_in_mu,),
    "arith.prime_field": (prime_field,),
    "arith.power_class_order": (power_class_order,),
    "fields.rational_function_field": (rational_function_field,),
    "fields.poly_is_irreducible": (partial(poly_is_irreducible, (1, 1, 1)),),
    "fields.monic_irreducibles": (monic_irreducibles,),
    "fields.prime_place": (prime_place,),
    "fields.poly_place": (lambda q: poly_place(q, (1, 1)),),
    "fields.infinite_place": (infinite_place,),
    "fields.enumerate_places": tuple(
        partial(lambda base, bound: list(enumerate_places(base, bound)), base) for base in (QQ, F7)),
    "fields.first_places": (
        lambda count, bound: first_places(enumerate_places(QQ, 30), count, bound, "places"),),
    "fields.FqtElt.pow": (T.pow,),
    "fields.FqtElt.residue_symbol_dlog": (partial(T.residue_symbol_dlog, poly_place(7, (1, 1))),),
    "fields.FqtElt.is_nth_power": (T.is_nth_power,),
    "fields.FqtElt.class_order": (T.class_order,),
    "fields.fqt_const": (fqt_const,),
    "fields.fqt_from_factors": (lambda q, c: fqt_from_factors(q, c, [((0, 1), 1)]),),
    "extensions.howell": (lambda n: howell(n, _rows(n)),),
    "extensions.span_order": (lambda n: span_order(n, _basis(n)),),
    "extensions.span_members": (lambda n: span_members(n, _basis(n)),),
    "extensions.relative_degree": (lambda n: relative_degree(n, _basis(n), _rows(n)),),
    "extensions.build_extension": (
        lambda n: build_extension(QQ, n, (3, -7)), lambda n: build_extension(F7, n, (T,))),
    "extensions.require_chi_order": _on_extensions(require_chi_order),
    "extensions.LocalClassGroup.span": (local_class_group(EXTENSIONS[0], prime_place(5)).span,),
    "extensions.roots_of_unity_s": _on_extensions(roots_of_unity_s),
    "extensions.cyclotomic_degree": _on_extensions(cyclotomic_degree),
    "extensions.restriction_order_to_cyclotomic": _on_extensions(
        lambda M, p: restriction_order_to_cyclotomic(M, p, (1, 0))),
    "extensions.find_places_with_frobenius": _on_extensions(
        lambda M, count, bound: find_places_with_frobenius(M, (1, 0), count, bound)),
    "extensions.qsigma_search": _on_extensions(
        lambda M, p, count, bound: qsigma_search(M, p, (1, 0), count, bound)),
    "extensions.s0_search": _on_extensions(s0_search),
}


def _int_arity() -> dict:
    """module.qualified name -> number of int parameters, for every public
    function or method of MODULES that takes one."""
    out = {}
    for qualname, node in src_definitions():
        module, *path = qualname.split(".")
        if module not in MODULES or any(part.startswith("_") for part in path):
            continue
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        count = sum(ast.unparse(a.annotation) in ("int", "int | None")
                    for a in params if a.annotation is not None)
        if count:
            out[qualname] = count
    return out


def _arity(call) -> int:
    return len(inspect.signature(call).parameters)


def test_every_int_taking_function_has_its_calls():
    arity = _int_arity()
    assert sorted(CALLS) == sorted(arity)
    wrong = {name: (arity[name], [_arity(c) for c in calls]) for name, calls in CALLS.items()
             if any(_arity(c) != arity[name] for c in calls)}
    assert wrong == {}, "a call must take exactly the function's ints"


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_hostile_integers_are_refused_by_name(name, data):
    calls = CALLS[name]
    ints = data.draw(st.lists(HOSTILE, min_size=_arity(calls[0]), max_size=_arity(calls[0])))
    for call in calls:
        try:
            call(*ints)
        except (ValidationError, SearchExhausted):
            pass


# The calls that escaped as other exceptions before they refused by name.
@pytest.mark.parametrize("call, ints", [
    (CALLS["fields.FqtElt.residue_symbol_dlog"][0], (0,)),
    (CALLS["fields.FqtElt.is_nth_power"][0], (0,)),
    (CALLS["fields.FqtElt.class_order"][0], (0,)),
    (CALLS["fields.FqtElt.class_order"][0], (-3,)),
    (CALLS["extensions.roots_of_unity_s"][1], (0,)),
    (CALLS["extensions.cyclotomic_degree"][0], (0,)),
    (CALLS["extensions.cyclotomic_degree"][1], (0,)),
    (CALLS["extensions.restriction_order_to_cyclotomic"][1], (0,)),
    (monic_irreducibles, (7, 8)),
    (monic_irreducibles, (2, 20)),
])
def test_found_escapes_refuse_by_name(call, ints):
    with pytest.raises(ValidationError):
        call(*ints)
