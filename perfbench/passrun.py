"""One pass of a workload in a fresh interpreter.

    python3 perfbench/passrun.py WORKLOAD SEED MODE --t0 T --work DIR
        [--pinned FILE] [--spans FILE]

MODE is `setup` (stop once the inputs are built), `time` (run every op
untraced) or `trace` (run every op with the tracing wrappers installed).
T is the CLOCK_MONOTONIC reading the parent took just before starting this
process, so setup_s covers interpreter start, imports and input files.
Prints one JSON object on stdout.  Each op's own stdout is captured, written
to a file before the next op runs, and checked after the last op.  A speed
probe runs before the first op and after every op, outside the ops' times;
each op's time is converted to reference seconds at the median of the two
probes before it and the two after it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from probe import probe, to_ref
from tracing import Tracer


def run_ops(cli, ops):
    """Yield (exit code, stdout, seconds, cpu seconds) per op, one op at a time.

    The caller handles each op's stdout while the generator is suspended,
    outside the op's timing, and drops it before the next op runs, as a CLI
    user does.
    """
    clock, cpu_clock = time.perf_counter, time.process_time
    for op in ops:
        buf = io.StringIO()
        start, cpu_start = clock(), cpu_clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(op.argv))  # looked up per call: the tracer patches it
        except SystemExit as exc:
            code = f"exited {exc.code!r}"
        except Exception as exc:  # an op that raises is a failed op, not a harness crash
            traceback.print_exc(file=sys.stderr)
            code = f"raised {type(exc).__name__}"
        seconds, cpu = clock() - start, cpu_clock() - cpu_start
        yield code, buf.getvalue(), seconds, cpu


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("mode", choices=("setup", "time", "trace"))
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--pinned", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    import ncpbound.cli as cli

    import_s = time.perf_counter() - start
    ops = workloads.make_ops(args.workload, args.seed)
    args.work.mkdir(parents=True, exist_ok=True)
    workloads.write_inputs(args.work)
    os.chdir(args.work)
    out = {"setup_s": time.monotonic() - args.t0, "import_s": import_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    # each op's stdout goes to a file before the next op runs, so the peak
    # RSS read after the loop holds one op's output, not all of them
    outputs = args.work / "stdout"
    outputs.mkdir(exist_ok=True)
    codes, times, cpus, bytes_out = [], [], [], 0
    probes = [probe()]
    tracer = Tracer() if args.mode == "trace" else None
    with tracer or contextlib.nullcontext():
        for i, (code, stdout, seconds, cpu) in enumerate(run_ops(cli, ops)):
            (outputs / f"{i}.txt").write_text(stdout)
            codes.append(code)
            times.append(seconds)
            cpus.append(cpu)
            bytes_out += len(stdout.encode())
            del stdout
            probes.append(probe())
    ref_times = [to_ref(dt, probes[max(i - 1, 0):i + 3]) for i, dt in enumerate(times)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    pinned = json.loads(args.pinned.read_text()) if args.pinned else {}
    failures, digests = [], {}
    for i, (op, code) in enumerate(zip(ops, codes)):
        stdout = (outputs / f"{i}.txt").read_text()
        digests[op.key] = [code, workloads.digest(stdout)]
        why = workloads.check_op(op, code, stdout, pinned)
        if why is not None:
            failures.append(f"{op.key}: {why}")
    out.update(
        wall_s=sum(times),
        cpu_s=sum(cpus),
        wall_ref_s=sum(ref_times),
        part_a_s=sum(dt for op, dt in zip(ops, ref_times) if op.part == "a"),
        part_b_s=sum(dt for op, dt in zip(ops, ref_times) if op.part == "b"),
        probe_s=statistics.median(probes),
        peak_rss_mb=rss_mb,
        attempted=len(ops),
        failed=len(failures),
        failures=failures[:5],
        digests=digests,
    )
    if tracer is not None:
        layers = tracer.metrics()
        layers["jsonio.bytes_out"] = bytes_out
        out["layers"] = layers
        if args.spans:
            tracer.dump_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
