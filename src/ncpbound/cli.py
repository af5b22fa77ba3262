"""Command-line surface.

Every subcommand prints one JSON document to stdout; `--pretty` adds a
human-readable rendering on stderr.  Handlers return library values, which
`main` writes in one pass, with `jsonio.to_json` for reports.  Exit codes:
0 when the requested computation or check succeeded, 1 when a checked fact
failed, 2 for malformed input, 3 when a bounded search ran out of candidates.
"""

from __future__ import annotations

import functools
import json
import random
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from types import SimpleNamespace

from .arith import factorize, require_prime
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
    gal_exponent,
    is_real_field,
    local_data,
    local_degree,
    qsigma_search,
    ramified_places,
    s0_search,
)
from .fields import QQ, Place, rational_function_field
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


# A walk over Q sieves the integers up to its bound, one byte each.
MAX_BOUND = 10**7


def _bound(args, default):
    if args.bound is None:
        return default
    if args.bound < 0:
        raise ValidationError(f"--bound must be at least 0, got {args.bound}")
    if args.bound > MAX_BOUND:
        raise ValidationError(f"--bound {args.bound} exceeds the ceiling {MAX_BOUND}")
    return args.bound


def _count(args, least=1):
    if args.count < least:
        raise ValidationError(f"--count must be at least {least}, got {args.count}")
    return args.count


def _places(M, texts):
    return [parse_place_text(M.base, s) for s in texts]


def _radicand(M, text: str):
    if M.base.is_rationals():
        try:
            return int(text)
        except ValueError:
            raise ValidationError(f"radicands over Q are integers, got {text!r}") from None
    return parse_fqt_text(text, M.base.q)


def _int_list(text: str, what: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated integers, got {text!r}") from None


# ------------------------------------------------------------- subcommands


def cmd_field(args):
    M = _need_ext(args)
    out = to_json(M)
    out["real"] = is_real_field(M) if M.base.is_rationals() else False
    out["ramified"] = ramified_places(M)
    return out, 0


def cmd_local_degree(args):
    M = _need_ext(args)
    rows = [local_data(M, P) for P in _places(M, args.places)]
    return {"extension": M.describe(), "places": rows}, 0


def cmd_isolated(args):
    M = _need_ext(args)
    by_prime = {str(p): isolation_report(M, p) for p in sorted(factorize(gal_exponent(M)))}
    found = [{"place": P, "p": p, "gap": by_prime[str(p)].gap} for P, p in isolated_places(M)]
    return {"extension": M.describe(), "isolated": found, "by_prime": by_prime}, 0


def cmd_brauer_index(args):
    alpha = load_class(args.classfile)
    out = {
        "index": index(alpha),
        "local_indices": [[P, local_index(alpha, P)] for P in alpha.support],
        "class": alpha,
    }
    return out, 0


def cmd_brauer_restrict(args):
    M = _need_ext(args)
    alpha = load_class(args.classfile)
    out = {
        "extension": M.describe(),
        "restricted_index": restricted_index(alpha, M),
        "locals": [[P, restricted_local_index(alpha, M, P)] for P in alpha.support],
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
        "rows": [[P, degrees[P], local_index(alpha, P)] for P in alpha.support],
    }
    return out, 0 if ok else 1


def cmd_brauer_construct(args):
    M = _need_ext(args)
    S = _places(M, args.places)
    alpha = construct_class(M, args.m, S)
    rows = [[P, d_value(P, args.m, M), restricted_local_index(alpha, M, P)] for P in S]
    out = {
        "m": args.m,
        "class": alpha,
        "restricted_index": restricted_index(alpha, M),
        "divisor_rows": rows,
    }
    return out, 0


def cmd_brauer_lemma21(args):
    M = _need_ext(args)
    count = _count(args, 0)
    # checked here as well, so that a count of 0 rejects a non-prime p too
    require_prime(args.p)
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
    rep = check_cor210(C, _places(M, args.places))
    return rep, 0 if rep.passed else 1


def cmd_cover_scan(args):
    M = _need_ext(args)
    rep = check_Bm(
        M,
        args.m,
        _places(M, args.places),
        radicand_bound=_bound(args, None),
        max_extra=args.max_extra,
    )
    # a miss is a bounded-search shortfall, not a refuted fact
    return rep, 0 if rep.passed else 3


def cmd_bound_report(args):
    M = _need_ext(args)
    return bound_report(M, args.p, args.chi_order), 0


def cmd_search_frobenius(args):
    M = _need_ext(args)
    bound = _bound(args, 1000)
    sigma = _int_list(args.sigma, "--sigma")
    hits = find_places_with_frobenius(M, sigma, _count(args), bound)
    return {"sigma": sigma, "count": len(hits), "places": hits}, 0


def cmd_search_qsigma(args):
    M = _need_ext(args)
    bound = _bound(args, 2000)
    sigma = _int_list(args.sigma, "--sigma")
    hits = qsigma_search(M, args.p, sigma, _count(args), bound)
    return {"p": args.p, "sigma": sigma, "count": len(hits), "places": hits}, 0


def cmd_search_s0(args):
    M = _need_ext(args)
    bound = _bound(args, 5000)
    found = s0_search(M, args.p, args.power, bound)
    rows = [{"sigma": sig, "place": P} for sig, P in found.items()]
    return {"p": args.p, "power": args.power, "pairs": rows}, 0


def cmd_groupext_scan(args):
    profile = _int_list(args.profile_max, "--profile-max")
    hits = prop32_scan(args.p, args.a_max, profile)
    return {"p": args.p, "a_max": args.a_max, "profile_max": profile,
            "count": len(hits), "hits": hits}, 0


def cmd_groupext_verify(args):
    if args.extfile is not None:
        E = central_from_json(load_json(args.extfile))
    else:
        missing = [f for f in ("p", "a", "orders", "t", "c") if getattr(args, f) is None]
        if missing:
            raise ValidationError("give an extension file or all of --p --a --orders --t --c")
        # an empty --c lists no pairs (rank 1)
        c = _int_list(args.c, "--c") if args.c else ()
        orders, t = _int_list(args.orders, "--orders"), _int_list(args.t, "--t")
        E = ext_build(args.p, args.a, orders, t, c)
    rep = verify_lemma_35(E)
    cyclic = fiber_cyclicity(E)
    law_holds = all(v == power_criterion(E, x) for x, v in cyclic.items())
    # sorted: noncyclic_fibers lists x in lexicographic order
    noncyclic = sorted(x for x, v in cyclic.items() if not v)
    out = {
        "ext": E,
        "power_criterion_all": law_holds,
        "torsion_map": rep,
        "noncyclic_fibers": noncyclic,
    }
    return out, 0 if law_holds and rep.consistent else 1


def cmd_paper_ex41(args):
    bound = _bound(args, 1000)
    rep = run_ex41(args.l, args.q, bound=bound)
    return rep, 0 if rep.verdict else 1


def cmd_paper_ex43(args):
    rep = run_ex43(args.p, args.q, args.a)
    return rep, 0 if rep.verdict else 1


def cmd_paper_prop42(args):
    base = rational_function_field(args.fq) if args.fq is not None else QQ
    pp = parse_place_text(base, args.pp)
    bound = _bound(args, 200)
    rep = run_prop42(args.p, pp, bound=bound, radicand_bound=args.radicand_bound)
    return rep, 0 if rep.verdict else 1


def cmd_suite(args):
    rep = run_property_suite(seed=_seed(args), mutation=args.mutation)
    return rep, 0 if rep.passed else 1


# ------------------------------------------------------------------ parser


def _arg(*flags, **kwargs):
    return flags, kwargs


# the global flags; the whole tree's verb copies default to SUPPRESS so that
# a value given before the verb is not clobbered
GLOBALS = {
    "--ext": {"metavar": "FILE", "help": "extension JSON file"},
    "--bound": {"type": int, "metavar": "N", "help": "search or scan bound"},
    "--seed": {"type": int, "metavar": "N", "help": "seed for randomized commands"},
    "--pretty": {"action": "store_true", "help": "render a table on stderr as well"},
}

_P = _arg("--p", type=int, required=True)
_PLACES = _arg("places", nargs="+", metavar="PLACE")
_CLASS = _arg("classfile", metavar="CLASS.json")
_SIGMA = _arg("--sigma", required=True, metavar="a,b,...")
_COUNT = _arg("--count", type=int, default=1)

# verb path -> its handler and the arguments of its sub-parser, in help order
VERBS = {
    ("field",): (cmd_field, ()),
    ("local-degree",): (cmd_local_degree, (_PLACES,)),
    ("isolated",): (cmd_isolated, ()),
    ("brauer", "index"): (cmd_brauer_index, (_CLASS,)),
    ("brauer", "restrict"): (cmd_brauer_restrict, (
        _CLASS, _arg("--chi-order", type=int, help="also report the fiber index"))),
    ("brauer", "split"): (cmd_brauer_split, (_CLASS,)),
    ("brauer", "construct"): (cmd_brauer_construct, (
        _arg("-m", type=int, required=True, help="target restricted index"), _PLACES)),
    ("brauer", "lemma21"): (cmd_brauer_lemma21, (_P, _arg("--count", type=int, default=100))),
    ("cover", "check"): (cmd_cover_check, (
        _arg("--extra", nargs="+", required=True, metavar="RADICAND"),
        _arg("--nprime", type=int, help="exponent of the cover (default: keep)"),
        _arg("places", nargs="*", metavar="PLACE"))),
    ("cover", "scan"): (cmd_cover_scan, (
        _arg("-m", type=int, required=True, help="relative degree"),
        _arg("--max-extra", type=int, default=2), _PLACES)),
    ("bound-report",): (cmd_bound_report, (_P, _arg("--chi-order", type=int, required=True))),
    ("search", "frobenius"): (cmd_search_frobenius, (_SIGMA, _COUNT)),
    ("search", "qsigma"): (cmd_search_qsigma, (_P, _SIGMA, _COUNT)),
    ("search", "s0"): (cmd_search_s0, (_P, _arg("--power", type=int, required=True))),
    ("groupext", "scan"): (cmd_groupext_scan, (
        _P, _arg("--a-max", type=int, required=True),
        _arg("--profile-max", required=True, metavar="o1,o2,..."))),
    ("groupext", "verify"): (cmd_groupext_verify, (
        _arg("extfile", nargs="?", metavar="EXT.json"), _arg("--p", type=int),
        _arg("--a", type=int), _arg("--orders", metavar="o1,o2,..."),
        _arg("--t", metavar="t1,t2,..."), _arg("--c", metavar="c12,c13,..."))),
    ("paper", "ex41"): (cmd_paper_ex41, (_arg("l", type=int), _arg("q", type=int))),
    ("paper", "ex43"): (cmd_paper_ex43, (
        _arg("p", type=int), _arg("q", type=int), _arg("a", type=int))),
    ("paper", "prop42"): (cmd_paper_prop42, (
        _arg("p", type=int), _arg("pp", metavar="PLACE"),
        _arg("--fq", type=int, help="work over F_q(t) instead of Q"),
        _arg("--radicand-bound", type=int, default=60))),
    ("suite",): (cmd_suite, (
        _arg("--mutation", help="run with one documented mutation applied"),)),
}


@functools.cache
def build_parser():
    """The whole parser tree, the one source of usage, help and error text,
    built once per process: argparse does not change a parser while it parses."""
    import argparse  # only here: a regular argv is scanned without it

    # no parser completes an abbreviated flag: `cover check --n=1` is an
    # unknown flag, not `--nprime=1`
    parser = argparse.ArgumentParser(
        prog="ncpbound",
        allow_abbrev=False,
        description="Local-degree bookkeeping for abelian extensions of Q and F_q(t): "
        "Brauer classes, covers, isolation, central extensions, worked examples.",
    )
    for flag, kwargs in GLOBALS.items():
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")
    groups = {}
    for path, (handler, arguments) in VERBS.items():
        *group, name = path
        if group and group[0] not in groups:
            groups[group[0]] = sub.add_parser(group[0], allow_abbrev=False).add_subparsers(
                dest="subcommand", required=True
            )
        verb = (groups[group[0]] if group else sub).add_parser(name, allow_abbrev=False)
        for flag, kwargs in GLOBALS.items():
            verb.add_argument(flag, **kwargs, default=argparse.SUPPRESS)
        for flags, kwargs in arguments:
            verb.add_argument(*flags, **kwargs)
        verb.set_defaults(func=handler)
    return parser


def _dest(name: str) -> str:
    """argparse's dest for an argument of one flag or name, as each in the tables is."""
    return name.lstrip("-").replace("-", "_")


def _default(spec):
    return spec.get("default", False if "action" in spec else None)


def _scan(argv) -> dict | None:
    """The whole tree's namespace for a regular argv, read from GLOBALS and
    VERBS, else None.  Regular: exact flags, each value written apart from
    its flag, not starting with "-" and converting, no flag with nargs, the
    positionals one contiguous run that fills them exactly, required flags
    given; the last occurrence of a flag wins, as in the tree."""
    specs = dict(GLOBALS)
    given, path = {}, None
    i = start = end = 0  # argv[start:end] is the positional run
    while i < len(argv):
        token = argv[i]
        if not token.startswith("-"):
            if path is None:
                path = next((p for p in (tuple(argv[i:i + 1]), tuple(argv[i:i + 2]))
                             if p in VERBS), None)
                if path is None:
                    return None
                specs.update((flag, kwargs) for (flag,), kwargs in VERBS[path][1]
                             if flag.startswith("-") and "nargs" not in kwargs)
                i += len(path)
                continue
            if start == end:
                start = i
            elif end != i:
                return None
            end = i = i + 1
            continue
        spec = specs.get(token)
        if spec is None:
            return None
        i += 1
        if "action" in spec:
            value = True
        else:
            if i == len(argv) or argv[i].startswith("-"):
                return None
            try:
                value = spec.get("type", str)(argv[i])
            except ValueError:
                return None
            i += 1
        given[_dest(token)] = value
    if path is None:
        return None
    handler, arguments = VERBS[path]
    ns = {"func": handler, **dict(zip(("command", "subcommand"), path))}
    ns.update((_dest(flag), _default(spec)) for flag, spec in GLOBALS.items())
    run = argv[start:end]
    for (name,), kwargs in arguments:
        dest, nargs = _dest(name), kwargs.get("nargs")
        if name.startswith("-"):
            if kwargs.get("required") and dest not in given:
                return None
            ns[dest] = _default(kwargs)
            continue
        take = len(run) if nargs in ("*", "+") else 1
        values, run = run[:take], run[take:]
        if not values and nargs not in ("*", "?"):
            return None
        try:
            values = [kwargs.get("type", str)(v) for v in values]
        except ValueError:
            return None
        ns[dest] = values if nargs in ("*", "+") else values[0] if values else _default(kwargs)
    if run:
        return None
    return {**ns, **given}


def parse_args(argv):
    """The parser that parsed argv (None where it was scanned) and the
    whole tree's namespace; only an argv `_scan` refuses builds the tree."""
    ns = _scan(argv)
    if ns is not None:
        return None, SimpleNamespace(**ns)
    # the whole tree's usage line names every verb
    parser = build_parser()
    return parser, parser.parse_args(argv)


# ------------------------------------------------------------------ output


def _indented(value, pad: str = "\n") -> str:
    """json.dumps(to_json(value), indent=2), byte for byte, in one pass: the
    places a search emits by the thousand, containers and scalars written
    here, every other value through to_json (indent makes json pure Python)."""
    inner = pad + "  "
    if type(value) is Place:
        # the prime's "str" is its digits; a place's coefficients are never empty
        if value.kind == "prime":
            p = int.__repr__(value.p)
            return f'{{{inner}"kind": "prime",{inner}"p": {p},{inner}"str": "{p}"{pad}}}'
        if value.kind == "poly":
            coeffs = ("," + inner + "  ").join(map(int.__repr__, value.coeffs))
            return (f'{{{inner}"kind": "poly",{inner}"q": {int.__repr__(value.base.q)},'
                    f'{inner}"coeffs": [{inner}  {coeffs}{inner}],'
                    f'{inner}"str": {_encode_str(str(value))}{pad}}}')
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_indented(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # to_json's keys: str(k), the last value at the first key's place
        value = {str(k): v for k, v in value.items()}
        items = [_encode_str(k) + ": " + _indented(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return _indented(to_json(value), pad)


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
    parser, args = parse_args(sys.argv[1:] if argv is None else argv)
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
            payload["partial"] = exc.partial
        code = 3
    print(_indented(payload))
    if args.pretty:
        _render(to_json(payload), sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
