"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run real passes in fresh interpreters, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import passrun  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture
def runner_for(tmp_path):
    def make(workload):
        return run.Runner(workload, workloads.DEFAULT_SEED, tmp_path / "work")

    return make


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if run.per_layer_unit(k) not in ("s", "us")}


def test_two_traced_passes_give_identical_counts(runner_for):
    runner = runner_for("desk-mix")
    first, second = runner.child("trace"), runner.child("trace")
    assert first["failed"] == second["failed"] == 0
    assert _counts(first["layers"]) == _counts(second["layers"])
    assert first["layers"]["extensions.local_data.misses"] > 0


def _package_bindings() -> dict:
    import ncpbound.cli  # noqa: F401  (loads every layer module)

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "ncpbound" or name.startswith("ncpbound."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def _stdout_of(ops) -> list:
    import ncpbound.cli as cli

    return [(code, stdout) for code, stdout, _, _ in passrun.run_ops(cli, ops)]


def test_wrappers_leave_every_op_byte_identical(tmp_path, monkeypatch):
    workloads.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    ops = workloads.make_ops("desk-mix", workloads.DEFAULT_SEED) + [
        workloads.Op("a", ("search", "frobenius", "--sigma", "1,1", "--count", "200",
                           "--bound", "5000", "--ext", "q37.json")),
        workloads.Op("b", ("search", "qsigma", "--p", "3", "--sigma", "1,2", "--count", "10",
                           "--bound", "2401", "--ext", "ff7.json")),
        workloads.Op("a", ("groupext", "scan", "--p", "2", "--a-max", "2",
                           "--profile-max", "4,4")),
        workloads.Op("b", ("groupext", "verify", "--p", "3", "--a", "2", "--orders", "9,3",
                           "--t", "1,2", "--c", "3")),
    ]
    before = _package_bindings()
    plain = _stdout_of(ops)
    with Tracer() as tracer:
        traced = _stdout_of(ops)
        assert _package_bindings() != before  # the wrappers really were in place
    after = _stdout_of(ops)
    assert traced == plain and after == plain
    assert _package_bindings() == before
    assert tracer.metrics()["cli.self_s"] > 0


def test_tampered_digest_counts_as_failure(runner_for, tmp_path):
    runner = runner_for("desk-mix")
    pinned = json.loads((HERE / "expected" / "desk-mix.json").read_text())
    clean = runner.child("time")
    assert clean["failed"] == 0
    assert clean["wall_ref_s"] > 0  # the parts are the same reference times, split
    assert clean["part_a_s"] + clean["part_b_s"] == pytest.approx(clean["wall_ref_s"])

    key = next(iter(pinned))
    pinned[key] = [pinned[key][0], "0" * 64]
    runner.pinned = tmp_path / "tampered.json"
    runner.pinned.write_text(json.dumps(pinned))
    tampered = runner.child("time")
    assert tampered["failed"] / tampered["attempted"] > 0
    assert any("pinned digest" in line for line in tampered["failures"])


def test_benchmark_json_names_what_the_harness_reports(runner_for):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = runner_for("groupext").child("trace")["layers"]
    reported = set(layers) | set(run.source_lines()) | {"cli.import_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "groupext", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
