"""Spans and counters installed around the package's layer boundaries.

Nothing here is part of ncpbound: the wrappers are put in place from the
benchmark's side and taken out again afterwards.  A wrapper replaces every
binding of the wrapped object inside the package (the defining module, each
`from .x import f` copy, the package namespace) and, for methods, the class
attribute.

Three kinds of wrapper:
  span   records (name, parent, start, end) and counts the call;
  gen    the same for a generator function, one span per resumption;
  count  only counts the call (hot primitives, where a span would cost more
         than the call itself).  Its time lands in the caller's span.

A layer's self time is the time its spans cover minus the time their child
spans in other layers cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# layer -> {kind: [attribute path in ncpbound.<layer>]}
BOUNDARY = {
    "arith": {
        "span": ["mul_order_mod", "power_class_order", "PrimeField.primitive_root"],
        "gen": ["primes_upto"],
        "count": ["is_prime", "legendre", "factorize", "squarefree_part", "is_squarefree"],
    },
    "fields": {
        "span": ["monic_irreducibles", "rational_function_field", "fqt_from_factors",
                 "fqt_const", "FqtElt.residue_symbol_dlog", "FqtElt.class_order",
                 "FqtElt.is_nth_power"],
        "gen": ["enumerate_places"],
        "count": ["poly_is_irreducible", "Place.__post_init__"],
    },
    "extensions": {
        "span": ["local_data", "local_degree", "find_places_with_frobenius",
                 "qsigma_search", "s0_search", "ramified_places", "is_real_field",
                 "build_extension", "AbExt.__post_init__"],
    },
    "covers": {
        "span": ["build_cover", "check_Bm", "check_cor210", "bound_report",
                 "candidate_radicands", "cover_local_degree", "full_local_degree"],
    },
    "isolation": {
        "span": ["isolation_report", "d_value", "isolated_places", "u_values"],
    },
    "brauer": {
        "span": ["construct_class", "restricted_local_index", "restricted_index",
                 "fiber_index", "check_lemma_2_1", "random_class", "index",
                 "local_index", "make_class", "splits"],
    },
    "groupext": {
        "span": ["fiber", "fiber_is_cyclic", "verify_lemma_34", "verify_lemma_35",
                 "prop32_scan", "ext_build", "beta", "gamma"],
        "count": ["ext_mul", "CentralExt.__post_init__"],
    },
    "worked": {
        "span": ["run_ex41", "run_ex43", "run_prop42", "run_property_suite"],
    },
    "jsonio": {
        "span": ["to_json", "load_json", "load_extension", "load_class", "central_from_json",
                 "ext_from_json", "class_from_json", "parse_place_text", "parse_fqt_text"],
    },
    "cli": {"span": ["main"]},
}

SEARCHES = ("extensions.find_places_with_frobenius", "extensions.qsigma_search",
            "extensions.s0_search")


class Tracer:
    """Installs the wrappers, keeps spans in memory and removes the wrappers.

    Use as a context manager around the traced ops; read `metrics()` after.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, parent index, start, end)
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()
        self._patches: list = []
        self._lru = None

    # ------------------------------------------------------------ wrappers

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, calls, clock = self.spans, self.stack, self.calls, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, stack[-1] if stack else -1, start, end)

        return wrapper

    def _gen(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, calls, clock = self.spans, self.stack, self.calls, time.perf_counter
        yielded = name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = len(spans)
                    spans.append(None)
                    stack.append(idx)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans[idx] = (nid, stack[-1] if stack else -1, start, end)
                    calls[yielded] += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------- install/remove

    def __enter__(self):
        import ncpbound.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items() if n == "ncpbound" or n.startswith("ncpbound.")]
        for layer, kinds in BOUNDARY.items():
            home = sys.modules[f"ncpbound.{layer}"]
            for kind, paths in kinds.items():
                for path in paths:
                    self._install(modules, home, layer, kind, path)
        return self

    def _install(self, modules, home, layer, kind, path):
        name = f"{layer}.{path.replace('__post_init__', 'init')}"
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(home, owner_name) if owner_name else home
        original = owner.__dict__[attr]
        wrapped = self._wrap(name, kind, original)
        if owner_name:  # a method: the class attribute is the only binding
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def _wrap(self, name, kind, original):
        if kind == "count":
            return self._count(name, original)
        if kind == "gen":
            return self._gen(name, original)
        return self._span(name, self._observed(name, original))

    def _observed(self, name, original):
        """The few boundaries whose metrics need more than a call count."""
        calls, extra = self.calls, self.extra
        if name == "extensions.local_data":
            # lru_cache statistics come from cache_info(); a call is a miss
            # when it moved the miss counter
            self._lru = original
            info = original.cache_info

            def observed(*args, **kwargs):
                before, start = info().misses, time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    if info().misses != before:
                        extra["local_data.miss_s"] += time.perf_counter() - start

        elif name == "covers.build_cover":

            def observed(*args, **kwargs):
                cover = original(*args, **kwargs)
                extra["build_cover.valid"] += 1
                return cover

        elif name == "groupext.fiber":

            def observed(*args, **kwargs):
                elements = original(*args, **kwargs)
                extra["fiber.elements"] += len(elements)
                return elements

        elif name == "groupext.prop32_scan":

            def observed(*args, **kwargs):
                before = calls["groupext.CentralExt.init"]
                try:
                    hits = original(*args, **kwargs)
                finally:
                    extra["prop32_scan.survivors"] += calls["groupext.CentralExt.init"] - before
                extra["prop32_scan.hits"] += len(hits)
                return hits

        else:
            return original
        return functools.wraps(original)(observed)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -------------------------------------------------------------- output

    def self_times(self) -> dict:
        """Self time per span name: duration minus child span durations."""
        child = [0.0] * len(self.spans)
        for nid, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (nid, _, start, end) in enumerate(self.spans):
            out[self.names[nid]] += end - start - child[i]
        return out

    def metrics(self) -> dict:
        calls, extra = self.calls, self.extra
        by_name = self.self_times()
        layer_self = defaultdict(float)
        for name, value in by_name.items():
            layer_self[name.split(".", 1)[0]] += value
        info = self._lru.cache_info()
        out = {f"{layer}.self_s": layer_self[layer] for layer in BOUNDARY}
        builds = calls["covers.build_cover"]
        survivors = extra["prop32_scan.survivors"]
        out.update({
            "arith.is_prime.calls": calls["arith.is_prime"],
            "arith.legendre.calls": calls["arith.legendre"],
            "arith.factorize.calls": calls["arith.factorize"],
            "arith.primitive_root.calls": calls["arith.PrimeField.primitive_root"],
            "fields.places_yielded": calls["fields.enumerate_places.yielded"],
            "fields.place_built": calls["fields.Place.init"],
            "fields.poly_is_irreducible.calls": calls["fields.poly_is_irreducible"],
            "fields.monic_irreducibles.self_s": by_name["fields.monic_irreducibles"],
            "fields.residue_symbol_dlog.calls": calls["fields.FqtElt.residue_symbol_dlog"],
            "extensions.local_data.misses": info.misses,
            "extensions.local_data.hits": info.hits,
            "extensions.local_data.cache_entries": info.currsize,
            "extensions.local_data.us_per_miss":
                1e6 * extra["local_data.miss_s"] / info.misses if info.misses else 0.0,
            "extensions.abext_built": calls["extensions.AbExt.init"],
            "extensions.search.self_s": sum(by_name[n] for n in SEARCHES),
            "covers.build_cover.calls": builds,
            "covers.build_cover.valid_ratio":
                extra["build_cover.valid"] / builds if builds else 0.0,
            "isolation.isolation_report.calls": calls["isolation.isolation_report"],
            "isolation.d_value.calls": calls["isolation.d_value"],
            "brauer.construct_class.calls": calls["brauer.construct_class"],
            "brauer.restricted_local_index.calls": calls["brauer.restricted_local_index"],
            "groupext.ext_mul.calls": calls["groupext.ext_mul"],
            "groupext.fiber.calls": calls["groupext.fiber"],
            "groupext.fiber.elements": extra["fiber.elements"],
            "groupext.prop32_scan.self_s": by_name["groupext.prop32_scan"],
            "groupext.prop32_scan.survivors": survivors,
            "groupext.prop32_scan.hit_ratio":
                extra["prop32_scan.hits"] / survivors if survivors else 0.0,
            "worked.calls": sum(v for k, v in calls.items() if k.startswith("worked.")),
        })
        return out

    def dump_spans(self, path) -> None:
        """Write the spans as JSON: a name table and [name, parent, start, end]
        rows with times in microseconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[nid, parent, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1)]
                for nid, parent, s, e in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))
