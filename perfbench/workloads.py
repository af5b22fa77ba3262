"""Workload definitions: the ops each pass issues and the checks on their output.

An op is one `ncpbound` command line.  Its inputs come from the workload seed
alone; the program only ever sees the generated argv and the extension files
written next to it.  Every op carries the exit code it must return and,
optionally, the name of an invariant its stdout must satisfy.  Checks run
after the timed region and never skip an op.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from math import gcd

DEFAULT_SEED = 1

# extension files the ops refer to by bare name (the pass runs in their
# directory, so argv and therefore the pinned digests do not depend on where
# the checkout lives)
FILES = {
    "q37.json": {"base": "Q", "n": 2, "radicands": [3, -7]},
    "ff7.json": {"base": "F7(t)", "n": 3, "radicands": ["t", "(t-1)*(t-2)"]},
    "gauss2.json": {"base": "Q", "n": 2, "radicands": [-1, 2]},
}


@dataclass(frozen=True)
class Op:
    part: str  # "a" or "b": the end-to-end split the op's time counts toward
    argv: tuple
    expect: int = 0
    check: str | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# ------------------------------------------------------------- place-sweep
#
# Q(sqrt 3, sqrt -7) and the cubic Kummer extension of F_7(t) with radicands
# t, (t-1)(t-2).  The first search over each base fills the local_data memo;
# the later ones re-read it, and every search over F_7(t) enumerates its
# places again (each Place re-proves irreducibility).  Counts are chosen so
# that every search stops at a hit (exit 0):
#   Q Frobenius   every place below 5*10^4 with that Frobenius;
#   Q qsigma      the first half of its hits below 5*10^4;
#   F Frobenius   every hit of degree <= 3 and half of those of degree 4;
#   F qsigma      every hit of degree <= 2 and 15 of degree 4 (degree 3
#                 has none).
# Passes stay near 3 s: a run's median needs many passes on a host whose
# speed drifts.  Degree 5 is left out because monic_irreducibles(7, 5)
# alone costs 2.3 s per fresh process.

Q_BOUND = 50_000
Q_FROBENIUS = {(0, 0): 1262, (1, 0): 1300, (0, 1): 1292, (1, 1): 1276}
Q_QSIGMA = {(0, 0): 553, (1, 0): 566, (0, 1): 569, (1, 1): 557}
FQ_BOUND = 7**4
# sigma: (hits of degree <= 3, hits of degree 4)
FQ_FROBENIUS = {
    s: low + deg4 // 2 for s, (low, deg4) in {
        (0, 0): (13, 61), (0, 1): (17, 65), (0, 2): (14, 70), (1, 0): (17, 63),
        (1, 1): (16, 60), (1, 2): (14, 73), (2, 0): (15, 65), (2, 1): (15, 70),
        (2, 2): (16, 61),
    }.items()
}
# sigma: hits of degree <= 2
FQ_QSIGMA = {
    s: low + 15 for s, low in {
        (0, 0): 5, (0, 1): 1, (0, 2): 2, (1, 0): 3, (1, 1): 4,
        (1, 2): 2, (2, 0): 3, (2, 1): 1, (2, 2): 4,
    }.items()
}


def _sigma(s) -> str:
    return ",".join(map(str, s))


def place_sweep(rng: random.Random) -> list:
    q_ops = [
        Op("a", ("search", "frobenius", "--sigma", _sigma(s), "--count", str(n),
                 "--bound", str(Q_BOUND), "--ext", "q37.json"), check="q_frobenius")
        for s, n in Q_FROBENIUS.items()
    ] + [
        Op("a", ("search", "qsigma", "--p", "2", "--sigma", _sigma(s), "--count", str(n),
                 "--bound", str(Q_BOUND), "--ext", "q37.json"), check="q_qsigma")
        for s, n in Q_QSIGMA.items()
    ]
    fq_ops = [
        Op("b", ("search", "frobenius", "--sigma", _sigma(s), "--count", str(n),
                 "--bound", str(FQ_BOUND), "--ext", "ff7.json"), check="place_list")
        for s, n in FQ_FROBENIUS.items()
    ] + [
        Op("b", ("search", "qsigma", "--p", "3", "--sigma", _sigma(s), "--count", str(n),
                 "--bound", str(FQ_BOUND), "--ext", "ff7.json"), check="place_list")
        for s, n in FQ_QSIGMA.items()
    ]
    rng.shuffle(q_ops)
    rng.shuffle(fq_ops)
    return q_ops + fq_ops


# ---------------------------------------------------------------- groupext
#
# Part a: fixed scans.  (5, 1, 25^3) is dominated by the residue prefilter
# and has no hits (odd p); (2, 3, 4^4) has a hit, so the kernel-order-2
# invariant is exercised.  Part b: `groupext verify` over a seeded family,
# a fixed list of shapes with random valid (t, c) for each.  The cost of a
# verify follows the p-adic valuations of t (over (9, 3) it ranges from
# 11 443 to 66 475 ext_mul calls), so each shape's draws cycle through the
# valuations in a fixed pattern and the seed picks the units and c: the cost
# per pass then barely depends on the seed.

SCANS = (("5", "1", "25,25,25"), ("2", "3", "4,4,4,4"))
VERIFY_SHAPES = (
    (2, 1, (2, 2)), (2, 2, (4, 2)), (2, 2, (4, 4)), (2, 3, (4, 4)),
    (2, 2, (4, 4, 2)), (2, 1, (2, 2, 2)), (3, 1, (3, 3)), (3, 2, (9, 3)),
    (3, 1, (3, 3, 3)), (5, 1, (5, 5)),
)
VERIFY_PER_SHAPE = 5


def _random_central(rng, p, a, orders, k):
    """The k-th draw of a shape: t_i has valuation (k + i) mod (a + 1), a meaning t_i = 0."""
    pa = p**a
    t = []
    for i in range(len(orders)):
        v = (k + i) % (a + 1)
        units = [u for u in range(1, p ** (a - v)) if u % p]
        t.append(p**v * rng.choice(units) if v < a else 0)
    c = []
    for i, j in itertools.combinations(range(len(orders)), 2):
        step = pa // gcd(pa, orders[i], orders[j])
        c.append(step * rng.randrange(pa // step))
    return t, c


def groupext(rng: random.Random) -> list:
    ops = [
        Op("a", ("groupext", "scan", "--p", p, "--a-max", a, "--profile-max", prof),
           check="scan")
        for p, a, prof in SCANS
    ]
    verify = []
    for p, a, orders in VERIFY_SHAPES:
        for k in range(VERIFY_PER_SHAPE):
            t, c = _random_central(rng, p, a, orders, k)
            verify.append(Op("b", (
                "groupext", "verify", "--p", str(p), "--a", str(a),
                "--orders", _sigma(orders), "--t", _sigma(t), "--c", _sigma(c),
            ), check="verify"))
    rng.shuffle(verify)
    return ops + verify


# ---------------------------------------------------------------- desk-mix
#
# A desk session: many small extensions, each queried at a few places.
# Part a holds the ops over Q (and the mixed property suite), part b the ops
# over F_7(t).  Cover scans over F_7(t) run at --bound 1 or 2: the default
# bound 3 walks ~10^4 candidate covers (minutes).  Misses exit 3 by design.


def _ex41_pairs():
    primes = [p for p in range(3, 60) if all(p % d for d in range(2, p))]
    return [
        (l, q) for l in primes for q in primes
        if l != q and q % 4 == 3 and (q + l) % 8 and pow(q, (l - 1) // 2, l) == l - 1
    ]


EX41_PAIRS = _ex41_pairs()
# (p, q, a): q = 1 mod p, a not a p-th power in F_q
EX43_TRIPLES = ((2, 3, 2), (2, 5, 2), (2, 7, 3), (3, 7, 2), (3, 7, 3), (2, 11, 2), (3, 13, 2))


def desk_mix(rng: random.Random) -> list:
    pairs = rng.sample(EX41_PAIRS, 3)
    triples = rng.sample(EX43_TRIPLES, 2)
    suite_seed, lemma_seed = rng.randrange(1000), rng.randrange(1000)
    g, q37, f = ("--ext", "gauss2.json"), ("--ext", "q37.json"), ("--ext", "ff7.json")
    ops = [
        *(Op("a", ("paper", "ex41", str(l), str(q)), check="verdict") for l, q in pairs),
        Op("a", ("paper", "prop42", "2", "5"), check="verdict"),
        Op("a", ("suite", "--seed", str(suite_seed)), check="suite"),
        Op("a", ("brauer", "construct", "-m", "8", "2", "7", *g)),
        Op("a", ("brauer", "lemma21", "--p", "2", "--count", "100",
                 "--seed", str(lemma_seed), *g), check="lemma21"),
        Op("a", ("isolated", *g)),
        Op("a", ("isolated", *q37)),
        Op("a", ("field", *q37)),
        Op("a", ("bound-report", "--p", "2", "--chi-order", "4", *g)),
        Op("a", ("search", "s0", "--p", "2", "--power", "3", *g)),
        Op("a", ("cover", "scan", "-m", "2", "7", *g), check="cover_hit"),
        Op("a", ("cover", "scan", "-m", "3", "7", *g), expect=3, check="cover_miss"),
        *(Op("b", ("paper", "ex43", *map(str, t)), check="verdict") for t in triples),
        Op("b", ("paper", "prop42", "3", "t+4", "--fq", "7"), check="verdict"),
        Op("b", ("isolated", *f)),
        Op("b", ("field", *f)),
        Op("b", ("cover", "scan", "-m", "3", "t+3", "--bound", "2", *f), check="cover_hit"),
        Op("b", ("cover", "scan", "-m", "3", "t", "t+6", "--bound", "1", *f),
           expect=3, check="cover_miss"),
        Op("b", ("cover", "scan", "-m", "9", "t", "--bound", "1", *f),
           expect=3, check="cover_miss"),
    ]
    rng.shuffle(ops)
    return ops


WORKLOADS = {"place-sweep": place_sweep, "groupext": groupext, "desk-mix": desk_mix}

# how the two parts of each workload are reported in the human summary
PART_NAMES = {
    "place-sweep": ("q_sweep_s", "fq_sweep_s"),
    "groupext": ("scan_s", "verify_s"),
    "desk-mix": ("q_ops_s", "fq_ops_s"),
}


def make_ops(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def write_inputs(directory) -> None:
    for name, obj in FILES.items():
        (directory / name).write_text(json.dumps(obj))


# ------------------------------------------------------------------ checks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _primes_below(n: int) -> list:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


_Q37_RADICANDS = (3, -7)


def _euler_sigma(p: int) -> tuple | None:
    """Frobenius of p in Q(sqrt 3, sqrt -7) by Euler's criterion; None when
    p ramifies (p | 2*3*7)."""
    if 84 % p == 0:
        return None
    return tuple(0 if pow(f % p, (p - 1) // 2, p) == 1 else 1 for f in _Q37_RADICANDS)


def _requested(op: Op) -> tuple:
    args = op.argv
    sigma = tuple(int(v) for v in args[args.index("--sigma") + 1].split(","))
    return sigma, int(args[args.index("--count") + 1])


def _check_q_frobenius(op, out):
    sigma, count = _requested(op)
    got = [P["p"] for P in out["places"]]
    if len(got) != count or out["count"] != count:
        return f"{len(got)} places, requested {count}"
    want = [p for p in _primes_below(got[-1]) if _euler_sigma(p) == sigma]
    if got != want:
        return "places differ from Euler's criterion for 3 and -7"
    return None


def _check_q_qsigma(op, out):
    sigma, count = _requested(op)
    got = [P["p"] for P in out["places"]]
    if len(got) != count or got != sorted(set(got)):
        return f"{len(got)} places (requested {count}) or not increasing"
    bad = [p for p in got if _euler_sigma(p) != sigma]
    return f"Euler's criterion disagrees at {bad[:3]}" if bad else None


def _check_place_list(op, out):
    _, count = _requested(op)
    places = out["places"]
    names = [P["str"] for P in places]
    norms = [P["q"] ** len(P["coeffs"][1:]) if P["kind"] == "poly" else P["q"] for P in places]
    if len(places) != count or len(set(names)) != count or norms != sorted(norms):
        return f"{len(places)} places (requested {count}), duplicated or out of norm order"
    return None


def _check_scan(op, out):
    bad = [E for E in out["hits"] if E["kernel_order"] != 2]
    if bad or out["count"] != len(out["hits"]):
        return f"hit with kernel order {bad[0]['kernel_order']}" if bad else "count mismatch"
    return None


def _check_verify(op, out):
    tm = out["torsion_map"]
    if not out["power_criterion_all"]:
        return "power criterion failed"
    if not tm["consistent"] or tm["homomorphism"] != tm["criterion"]:
        return "torsion map inconsistent"
    if tm["p"] % 2 and not tm["homomorphism"]:
        return "gamma not a homomorphism for odd p"
    return None


def _expect(key, value):
    def check(op, out):
        return None if out.get(key) == value else f"{key} = {out.get(key)!r}, want {value!r}"
    return check


CHECKS = {
    "q_frobenius": _check_q_frobenius,
    "q_qsigma": _check_q_qsigma,
    "place_list": _check_place_list,
    "scan": _check_scan,
    "verify": _check_verify,
    "verdict": _expect("verdict", True),
    "suite": _expect("passed", True),
    "lemma21": _expect("violations", 0),
    "cover_hit": _expect("passed", True),
    "cover_miss": _expect("passed", False),
}


def check_op(op: Op, code, stdout: str, pinned: dict) -> str | None:
    """Why the op failed, or None.  pinned maps op keys to [code, sha256]."""
    if code != op.expect:
        return f"exit {code}, want {op.expect}"
    if op.key in pinned and pinned[op.key] != [code, digest(stdout)]:
        return "stdout differs from the pinned digest"
    if op.check is None:
        return None
    try:
        return CHECKS[op.check](op, json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
