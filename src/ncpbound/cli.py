"""Command-line surface.

Every subcommand prints one JSON document to stdout; `--pretty` adds a
human-readable rendering on stderr.  Exit codes: 0 when the requested
computation or check succeeded, 1 when a checked fact failed, 2 for
malformed input, 3 when a bounded search ran out of candidates.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .arith import factorize
from .brauer import (
    check_lemma_2_1,
    construct_class,
    fiber_index,
    index,
    local_index,
    random_class,
    restricted_index,
    restricted_local_index,
    splits,
)
from .covers import bound_report, build_cover, check_Bm, check_cor210
from .errors import InvariantError, SearchExhausted, ValidationError
from .extensions import (
    find_places_with_frobenius,
    is_real_field,
    local_data,
    local_degree,
    qsigma_search,
    ramified_places,
    s0_search,
)
from .fields import QQ, rational_function_field
from .groupext import (
    ext_build,
    fiber_cyclicity,
    power_criterion,
    prop32_scan,
    verify_lemma_35,
)
from .isolation import d_value, isolated_places, isolation_report
from .jsonio import (
    central_from_json,
    load_class,
    load_extension,
    load_json,
    parse_fqt_text,
    parse_place_text,
    to_json,
)
from .worked import DEFAULT_SEED, run_ex41, run_ex43, run_prop42, run_property_suite


def _need_ext(args):
    if not getattr(args, "ext", None):
        raise ValidationError("this command needs --ext FILE")
    return load_extension(args.ext)


def _seed(args) -> int:
    return DEFAULT_SEED if args.seed is None else args.seed


def _bound(args, default: int) -> int:
    return default if args.bound is None else args.bound


def _places(M, texts):
    return [parse_place_text(M.base, s) for s in texts]


def _radicand(M, text: str):
    if M.base.is_rationals():
        try:
            return int(text)
        except ValueError:
            raise ValidationError(f"radicands over Q are integers, got {text!r}") from None
    return parse_fqt_text(text, M.base.q)


def _sigma(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValidationError(f"sigma must be comma-separated integers, got {text!r}") from None


# ------------------------------------------------------------- subcommands


def cmd_field(args):
    M = _need_ext(args)
    out = to_json(M)
    out["real"] = is_real_field(M) if M.base.is_rationals() else False
    out["ramified"] = [to_json(P) for P in ramified_places(M)]
    return out, 0


def cmd_local_degree(args):
    M = _need_ext(args)
    rows = [to_json(local_data(M, P)) for P in _places(M, args.places)]
    return {"extension": M.describe(), "places": rows}, 0


def cmd_isolated(args):
    M = _need_ext(args)
    found = [
        {"place": to_json(P), "p": p, "gap": isolation_report(M, p).gap}
        for P, p in isolated_places(M)
    ]
    by_prime = {str(p): to_json(isolation_report(M, p)) for p in sorted(factorize(M.degree))}
    return {"extension": M.describe(), "isolated": found, "by_prime": by_prime}, 0


def cmd_brauer_index(args):
    alpha = load_class(args.classfile)
    out = {
        "index": index(alpha),
        "local_indices": [[to_json(P), local_index(alpha, P)] for P in alpha.support],
        "class": to_json(alpha),
    }
    return out, 0


def cmd_brauer_restrict(args):
    M = _need_ext(args)
    alpha = load_class(args.classfile)
    out = {
        "extension": M.describe(),
        "restricted_index": restricted_index(alpha, M),
        "locals": [
            [to_json(P), restricted_local_index(alpha, M, P)] for P in alpha.support
        ],
    }
    if args.chi_order is not None:
        out["chi_order"] = args.chi_order
        out["fiber_index"] = fiber_index(alpha, M, args.chi_order)
    return out, 0


def cmd_brauer_split(args):
    M = _need_ext(args)
    alpha = load_class(args.classfile)
    degrees = {P: local_degree(M, P) for P in alpha.support}
    ok = splits(degrees, alpha)
    out = {
        "extension": M.describe(),
        "splits": ok,
        "rows": [
            [to_json(P), degrees[P], local_index(alpha, P)] for P in alpha.support
        ],
    }
    return out, 0 if ok else 1


def cmd_brauer_construct(args):
    M = _need_ext(args)
    S = _places(M, args.places)
    alpha = construct_class(M, args.m, S)
    rows = [
        [to_json(P), d_value(P, args.m, M), restricted_local_index(alpha, M, P)]
        for P in S
    ]
    out = {
        "m": args.m,
        "class": to_json(alpha),
        "restricted_index": restricted_index(alpha, M),
        "divisor_rows": rows,
    }
    return out, 0


def cmd_brauer_lemma21(args):
    M = _need_ext(args)
    count = args.count
    rng = random.Random(_seed(args))
    bad = 0
    for _ in range(count):
        alpha = random_class(M.base, rng)
        if not check_lemma_2_1(alpha, M, args.p):
            bad += 1
    out = {"p": args.p, "count": count, "violations": bad, "seed": _seed(args)}
    return out, 0 if bad == 0 else 1


def cmd_cover_check(args):
    M = _need_ext(args)
    extras = tuple(_radicand(M, s) for s in args.extra)
    nprime = args.nprime if args.nprime is not None else M.n
    C = build_cover(M, extras, nprime)
    if args.p is not None:
        p, n = args.p, args.n
        if n is None:
            raise ValidationError("--p needs --n (the cover is checked as a p^n-cover)")
    else:
        fac = factorize(C.rel_degree)
        if len(fac) != 1:
            raise ValidationError(
                f"relative degree {C.rel_degree} is not a prime power; pass --p and --n"
            )
        (p, n), = fac.items()
    rep = check_cor210(M, p, n, _places(M, args.places), C)
    return to_json(rep), 0 if rep.passed else 1


def cmd_cover_scan(args):
    M = _need_ext(args)
    rep = check_Bm(
        M,
        args.m,
        _places(M, args.places),
        radicand_bound=args.bound,
        max_extra=args.max_extra,
    )
    # a miss is a bounded-search shortfall, not a refuted fact
    return to_json(rep), 0 if rep.passed else 3


def cmd_bound_report(args):
    M = _need_ext(args)
    return to_json(bound_report(M, args.p, args.chi_order)), 0


def cmd_search_frobenius(args):
    M = _need_ext(args)
    bound = _bound(args, 1000)
    hits = find_places_with_frobenius(M, _sigma(args.sigma), args.count, bound)
    out = {"sigma": list(_sigma(args.sigma)), "count": len(hits),
           "places": [to_json(P) for P in hits]}
    return out, 0


def cmd_search_qsigma(args):
    M = _need_ext(args)
    bound = _bound(args, 2000)
    hits = qsigma_search(M, args.p, _sigma(args.sigma), args.count, bound)
    out = {"p": args.p, "sigma": list(_sigma(args.sigma)), "count": len(hits),
           "places": [to_json(P) for P in hits]}
    return out, 0


def cmd_search_s0(args):
    M = _need_ext(args)
    bound = _bound(args, 5000)
    found = s0_search(M, args.p, args.power, bound)
    rows = [{"sigma": list(sig), "place": to_json(P)} for sig, P in found.items()]
    return {"p": args.p, "power": args.power, "pairs": rows}, 0


def _profile(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValidationError(f"profile must be comma-separated integers, got {text!r}") from None


def cmd_groupext_scan(args):
    hits = prop32_scan(args.p, args.a_max, _profile(args.profile_max))
    out = {"p": args.p, "a_max": args.a_max, "profile_max": list(_profile(args.profile_max)),
           "count": len(hits), "hits": [to_json(E) for E in hits]}
    return out, 0


def cmd_groupext_verify(args):
    if args.extfile is not None:
        E = central_from_json(load_json(args.extfile))
    else:
        missing = [f for f in ("p", "a", "orders", "t", "c") if getattr(args, f) is None]
        if missing:
            raise ValidationError("give an extension file or all of --p --a --orders --t --c")
        E = ext_build(args.p, args.a, _profile(args.orders), _profile(args.t), _profile(args.c))
    noncyclic = []
    law_holds = True
    # sorted: noncyclic_fibers lists x in lexicographic order
    for x, cyclic in sorted(fiber_cyclicity(E).items()):
        if cyclic != power_criterion(E, x):
            law_holds = False
        if not cyclic:
            noncyclic.append(list(x))
    rep = verify_lemma_35(E)
    out = {
        "ext": to_json(E),
        "power_criterion_all": law_holds,
        "torsion_map": to_json(rep),
        "noncyclic_fibers": noncyclic,
    }
    return out, 0 if law_holds and rep.consistent else 1


def cmd_paper_ex41(args):
    bound = _bound(args, 1000)
    rep = run_ex41(args.l, args.q, bound=bound)
    return to_json(rep), 0 if rep.verdict else 1


def cmd_paper_ex43(args):
    rep = run_ex43(args.p, args.q, args.a)
    return to_json(rep), 0 if rep.verdict else 1


def cmd_paper_prop42(args):
    base = rational_function_field(args.fq) if args.fq is not None else QQ
    pp = parse_place_text(base, args.pp)
    bound = _bound(args, 200)
    rep = run_prop42(args.p, pp, bound=bound, radicand_bound=args.radicand_bound)
    return to_json(rep), 0 if rep.verdict else 1


def cmd_suite(args):
    sizes = {}
    for key in ("classes", "pairs", "elements"):
        value = getattr(args, key)
        if value is not None:
            sizes[key] = value
    rep = run_property_suite(seed=_seed(args), sizes=sizes or None, mutation=args.mutation)
    return to_json(rep), 0 if rep.passed else 1


# ------------------------------------------------------------------ parser


def _common() -> argparse.ArgumentParser:
    # SUPPRESS keeps post-subcommand copies from clobbering values parsed
    # at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ext", metavar="FILE", default=argparse.SUPPRESS,
                        help="extension JSON file")
    common.add_argument("--bound", type=int, metavar="N", default=argparse.SUPPRESS,
                        help="search or scan bound")
    common.add_argument("--seed", type=int, metavar="N", default=argparse.SUPPRESS,
                        help="seed for randomized commands")
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS,
                        help="render a table on stderr as well")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncpbound",
        description="Local-degree bookkeeping for abelian extensions of Q and F_q(t): "
        "Brauer classes, covers, isolation, central extensions, worked examples.",
    )
    parser.add_argument("--ext", metavar="FILE", help="extension JSON file")
    parser.add_argument("--bound", type=int, metavar="N", help="search or scan bound")
    parser.add_argument("--seed", type=int, metavar="N", help="seed for randomized commands")
    parser.add_argument("--pretty", action="store_true", help="render a table on stderr as well")
    parser.set_defaults(func=None)
    common = _common()
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("field", parents=[common]).set_defaults(func=cmd_field)

    sp = sub.add_parser("local-degree", parents=[common])
    sp.add_argument("places", nargs="+", metavar="PLACE")
    sp.set_defaults(func=cmd_local_degree)

    sub.add_parser("isolated", parents=[common]).set_defaults(func=cmd_isolated)

    br = sub.add_parser("brauer").add_subparsers(dest="subcommand", required=True)
    sp = br.add_parser("index", parents=[common])
    sp.add_argument("classfile", metavar="CLASS.json")
    sp.set_defaults(func=cmd_brauer_index)
    sp = br.add_parser("restrict", parents=[common])
    sp.add_argument("classfile", metavar="CLASS.json")
    sp.add_argument("--chi-order", type=int, help="also report the fiber index")
    sp.set_defaults(func=cmd_brauer_restrict)
    sp = br.add_parser("split", parents=[common])
    sp.add_argument("classfile", metavar="CLASS.json")
    sp.set_defaults(func=cmd_brauer_split)
    sp = br.add_parser("construct", parents=[common])
    sp.add_argument("-m", type=int, required=True, help="target restricted index")
    sp.add_argument("places", nargs="+", metavar="PLACE")
    sp.set_defaults(func=cmd_brauer_construct)
    sp = br.add_parser("lemma21", parents=[common])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--count", type=int, default=100)
    sp.set_defaults(func=cmd_brauer_lemma21)

    cv = sub.add_parser("cover").add_subparsers(dest="subcommand", required=True)
    sp = cv.add_parser("check", parents=[common])
    sp.add_argument("--extra", nargs="+", required=True, metavar="RADICAND")
    sp.add_argument("--nprime", type=int, help="exponent of the cover (default: keep)")
    sp.add_argument("--p", type=int, help="check as a p^n-cover")
    sp.add_argument("--n", type=int)
    sp.add_argument("places", nargs="*", metavar="PLACE")
    sp.set_defaults(func=cmd_cover_check)
    sp = cv.add_parser("scan", parents=[common])
    sp.add_argument("-m", type=int, required=True, help="relative degree")
    sp.add_argument("--max-extra", type=int, default=2)
    sp.add_argument("places", nargs="+", metavar="PLACE")
    sp.set_defaults(func=cmd_cover_scan)

    sp = sub.add_parser("bound-report", parents=[common])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--chi-order", type=int, required=True)
    sp.set_defaults(func=cmd_bound_report)

    se = sub.add_parser("search").add_subparsers(dest="subcommand", required=True)
    sp = se.add_parser("frobenius", parents=[common])
    sp.add_argument("--sigma", required=True, metavar="a,b,...")
    sp.add_argument("--count", type=int, default=1)
    sp.set_defaults(func=cmd_search_frobenius)
    sp = se.add_parser("qsigma", parents=[common])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--sigma", required=True, metavar="a,b,...")
    sp.add_argument("--count", type=int, default=1)
    sp.set_defaults(func=cmd_search_qsigma)
    sp = se.add_parser("s0", parents=[common])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--power", type=int, required=True)
    sp.set_defaults(func=cmd_search_s0)

    ge = sub.add_parser("groupext").add_subparsers(dest="subcommand", required=True)
    sp = ge.add_parser("scan", parents=[common])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a-max", type=int, required=True)
    sp.add_argument("--profile-max", required=True, metavar="o1,o2,...")
    sp.set_defaults(func=cmd_groupext_scan)
    sp = ge.add_parser("verify", parents=[common])
    sp.add_argument("extfile", nargs="?", metavar="EXT.json")
    sp.add_argument("--p", type=int)
    sp.add_argument("--a", type=int)
    sp.add_argument("--orders", metavar="o1,o2,...")
    sp.add_argument("--t", metavar="t1,t2,...")
    sp.add_argument("--c", metavar="c12,c13,...")
    sp.set_defaults(func=cmd_groupext_verify)

    pa = sub.add_parser("paper").add_subparsers(dest="subcommand", required=True)
    sp = pa.add_parser("ex41", parents=[common])
    sp.add_argument("l", type=int)
    sp.add_argument("q", type=int)
    sp.set_defaults(func=cmd_paper_ex41)
    sp = pa.add_parser("ex43", parents=[common])
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("a", type=int)
    sp.set_defaults(func=cmd_paper_ex43)
    sp = pa.add_parser("prop42", parents=[common])
    sp.add_argument("p", type=int)
    sp.add_argument("pp", metavar="PLACE")
    sp.add_argument("--fq", type=int, help="work over F_q(t) instead of Q")
    sp.add_argument("--radicand-bound", type=int, default=60)
    sp.set_defaults(func=cmd_paper_prop42)

    sp = sub.add_parser("suite", parents=[common])
    sp.add_argument("--mutation", help="run with one documented mutation applied")
    sp.add_argument("--classes", type=int)
    sp.add_argument("--pairs", type=int)
    sp.add_argument("--elements", type=int)
    sp.set_defaults(func=cmd_suite)

    return parser


# ------------------------------------------------------------------ output


def _compact(value) -> str:
    if isinstance(value, dict) and "str" in value:
        return value["str"]
    if isinstance(value, list):
        return "[" + ", ".join(_compact(v) for v in value) + "]"
    if isinstance(value, dict):
        return json.dumps(value)
    return str(value)


def _render(payload, fh) -> None:
    if not isinstance(payload, dict):
        print(_compact(payload), file=fh)
        return
    tables = [(k, payload[k]) for k in ("checks", "batteries") if k in payload]
    for key, value in payload.items():
        if key in ("checks", "batteries"):
            continue
        print(f"{key}: {_compact(value)}", file=fh)
    for _, rows in tables:
        width = max(len(name) for name, _, _ in rows) if rows else 0
        for name, ok, detail in rows:
            mark = "PASS" if ok else "FAIL"
            print(f"  {mark}  {name:<{width}}  {detail}", file=fh)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        payload, code = args.func(args)
    except ValidationError as exc:
        payload, code = {"error": "invalid-input", "detail": str(exc)}, 2
    except InvariantError as exc:
        payload, code = {"error": "invariant-violated", "detail": str(exc)}, 1
    except SearchExhausted as exc:
        payload = {"error": "search-exhausted", "detail": str(exc)}
        if exc.partial:
            payload["partial"] = to_json(exc.partial)
        code = 3
    print(json.dumps(payload, indent=2))
    if args.pretty:
        _render(payload, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
