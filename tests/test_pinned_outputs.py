"""Every op of the benchmark's default seed, run in-process through
`cli.main`, must give the exit code and stdout sha256 pinned in
perfbench/expected/<workload>.json.  A change that alters a report fails
here, not only when the benchmark runs.  The pins are read, never written
(perfbench/pin.py writes them)."""

import contextlib
import hashlib
import io
import json

import pytest

from helpers import PERFBENCH, perfbench_module
from ncpbound import cli

workloads = perfbench_module("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_default_seed_matches_pins(workload, tmp_path, monkeypatch):
    pinned = json.loads((PERFBENCH / "expected" / f"{workload}.json").read_text())
    workloads.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)  # the ops name their extension files bare
    ops = workloads.make_ops(workload, workloads.DEFAULT_SEED)
    assert {op.key for op in ops} == set(pinned)
    changed = []
    for op in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.argv))
        got = [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]
        if got != pinned[op.key]:
            changed.append(op.key)
    assert changed == [], f"{workload}: output differs from the pin for {changed}"
