"""ncpbound benchmark: closed-loop workloads, one client, fresh interpreters.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs in turn.  S defaults to RUN_SECONDS,
the run length BENCHMARK.json declares and its bounds were measured at.
Each pass is a new Python process (so the package's memo caches start
empty, as they do for every CLI user) that imports ncpbound.cli, writes its
inputs and issues the workload's ops one after another through
ncpbound.cli.main.  Passes repeat until S seconds have gone (at least
MIN_PASSES); every reported time is the median over passes.  After each
pass a set-up-only process, with speed probes on either side, gives one
sample of setup_s.  The bounded times, setup_s and wall_ref_s, are in
reference seconds (see probe.py); the raw wall times are printed beside them.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
traced passes, interleaved with untraced passes to give the tracing
overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from probe import probe, to_ref  # noqa: E402

RUN_SECONDS = 30  # BENCHMARK.json's run_seconds
MIN_PASSES = 3
MIN_SETUPS = 9
RUN_LIMIT_S = 170  # a run must end within 180 s

# the metrics BENCHMARK.json bounds.  Also printed, not bounded: the raw
# wall times setup_wall_s and wall_s, which drift with the host's speed;
# cpu_s (the ops' process CPU time, which drifts with wall_s, so the drift is
# the speed of the CPU and not time lost waiting); probe_ms; and each
# workload's two parts (under workloads.PART_NAMES), in reference seconds
END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    if tail.endswith("_s"):
        return "s"
    if tail.endswith("_ratio"):
        return "ratio"
    return {"us_per_miss": "us", "bytes_out": "bytes", "lines": "lines"}.get(tail, "count")


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.start = time.monotonic()
        pinned = HERE / "expected" / f"{workload}.json"
        self.pinned = pinned if pinned.is_file() else None

    def child(self, mode: str, spans: Path | None = None) -> dict:
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "passrun.py"), self.workload, str(self.seed), mode,
               "--t0", repr(t0), "--work", str(self.work)]
        if self.pinned is not None:
            cmd += ["--pinned", str(self.pinned)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        # PYTHONHASHSEED is pinned so that call counts repeat exactly: Place
        # carries a str field, so iteration order over sets of places (and
        # with it the order of memo misses) follows the string hash seed
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        left = RUN_LIMIT_S - (time.monotonic() - self.start)
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(left, 1))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{mode} pass of {self.workload} exited {proc.returncode}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def setup_sample(self) -> tuple:
        """(raw, reference) seconds of one set-up, between two probes on each side."""
        before = [probe(), probe()]
        raw = self.child("setup")["setup_s"]
        return raw, to_ref(raw, before + [probe(), probe()])

    def elapsed(self) -> float:
        return time.monotonic() - self.start


def _median(rows, key):
    return statistics.median(r[key] for r in rows)


def _tally(passes) -> dict:
    failures = [f for p in passes for f in p["failures"]]
    for line in failures[:5]:
        print(f"  FAILED {line}", file=sys.stderr)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def run_untraced(runner: Runner, seconds: int) -> dict:
    passes, setups = [], []
    while len(passes) < MIN_PASSES or runner.elapsed() < seconds:
        passes.append(runner.child("time"))
        setups.append(runner.setup_sample())
    while len(setups) < MIN_SETUPS:
        setups.append(runner.setup_sample())
    for p in passes:
        p["probe_ms"] = p["probe_s"] * 1000
    part_a, part_b = workloads.PART_NAMES[runner.workload]
    rows = [
        ("setup_s", statistics.median(ref for _, ref in setups), "s", len(setups)),
        ("setup_wall_s", statistics.median(raw for raw, _ in setups), "s", len(setups)),
    ] + [
        (label, _median(passes, key), unit, len(passes)) for label, key, unit in (
            ("wall_ref_s", "wall_ref_s", "s"), ("wall_s", "wall_s", "s"),
            ("cpu_s", "cpu_s", "s"), (part_a, "part_a_s", "s"), (part_b, "part_b_s", "s"),
            ("peak_rss_mb", "peak_rss_mb", "MB"), ("probe_ms", "probe_ms", "ms"))
    ]
    result = _tally(passes)
    print(f"{runner.workload} seed={runner.seed}: {len(passes)} passes, {len(setups)} set-ups, "
          f"{passes[0]['attempted']} ops per pass")
    for label, value, unit, n in rows:
        print(f"  {label:<14} {value:10.4f} {unit:<5} median of {n}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<14} {frac:10.4f} ratio {result['failed']}/{result['attempted']}")
    result["metrics"] = {label: {"value": value, "unit": unit}
                         for label, value, unit, _ in rows if label in END_TO_END}
    return result


def source_lines() -> dict:
    out = {}
    for path in sorted((ROOT / "src" / "ncpbound").glob("*.py")):
        n = len(path.read_text().splitlines())
        out["src.lines"] = out.get("src.lines", 0) + n
        if path.stem != "__init__":
            out[f"{path.stem}.lines"] = n
    return out


def run_traced(runner: Runner, seconds: int, spans: Path) -> dict:
    plain, traced = [], []
    while len(traced) < 2 or runner.elapsed() < seconds:
        if len(plain) <= len(traced):
            plain.append(runner.child("time"))
        else:
            traced.append(runner.child("trace", spans if not traced else None))
    layers = [p["layers"] for p in traced]
    values = {}
    for name in layers[0]:
        if per_layer_unit(name) in ("s", "us"):  # timings: median over traced passes
            values[name] = statistics.median(l[name] for l in layers)
        else:
            values[name] = layers[0][name]  # counts: must repeat exactly
            if any(l[name] != values[name] for l in layers):
                print(f"  WARNING: {name} differs between traced passes", file=sys.stderr)
    values["cli.import_s"] = _median(traced, "import_s")
    values["trace.overhead_s"] = _median(traced, "wall_ref_s") - _median(plain, "wall_ref_s")
    values.update(source_lines())
    result = _tally(plain + traced)
    print(f"{runner.workload} seed={runner.seed}: {len(traced)} traced and {len(plain)} "
          f"untraced passes; spans of the first traced pass in {spans.relative_to(ROOT)}")
    for name in sorted(values):
        print(f"  {name:<40} {values[name]:14.6g} {per_layer_unit(name)}")
    result["metrics"] = {n: {"value": v, "unit": per_layer_unit(n)} for n, v in values.items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ncpbound" / "cli.py").is_file():
        print(f"no ncpbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        for name in names:
            runner = Runner(name, args.seed, work)
            runner.child("setup")  # compiles bytecode, as an installed package has it
            runner.start = time.monotonic()
            if args.trace:
                result = run_traced(runner, args.seconds, out_dir / f"spans-{name}.json")
            else:
                result = run_untraced(runner, args.seconds)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
