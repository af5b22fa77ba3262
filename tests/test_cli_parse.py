"""The CLI builds only the invoked verb's sub-parser.  The whole tree
(`cli.build_parser()`) is the oracle: every argv must parse to the same
namespace, or fail with the same exit code and the same output."""

import argparse
import importlib.util
import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ncpbound import cli

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _outcome(parse, argv):
    """The namespace, or the SystemExit code; with what went to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _same_as_whole_tree(argv):
    got = _outcome(cli.parse_args, argv)
    want = _outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert got == want, argv


WORKLOAD = _workloads()
WORKLOAD_ARGV = sorted({
    op.argv for name in WORKLOAD.WORKLOADS for seed in range(1, 6)
    for op in WORKLOAD.make_ops(name, seed)
})
GROUPS = sorted({path[0] for path in cli.VERBS if len(path) == 2})

HAND_PICKED = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["--ext", "q.json", "isolated"],
    ["isolated", "--ext", "q.json"],
    ["--ext", "q.json", "--bound", "5", "--seed", "3", "suite", "--seed", "4"],
    ["--ext=q.json", "field"],
    ["field", "--ext=q.json", "--bound=7"],
    ["--ext", "field", "field"],
    ["--ext", "groupext", "groupext", "verify", "--p", "2"],
    ["--pretty", "paper", "ex41", "7", "3"],
    ["paper", "ex41", "7", "3", "--pretty"],
    ["--pretty=1", "field"],
    ["--bound", "x", "field"],
    ["--bound", "-3", "field"],
    ["--bound=x", "field"],
    ["--seed", "1_0", "suite"],
    ["--ext"],
    ["--ext", "--pretty", "field"],
    ["--ex", "q.json", "field"],
    ["--pre", "field"],
    ["-h", "field"],
    ["--", "field"],
    ["field", "surplus"],
    ["groupext", "verify", "--p", "2", "--zz"],
    ["groupext", "bogus"],
    ["groupext", "--pretty", "verify"],
    ["groupext", "verify", "--p=2", "--a=1", "--orders=2,2", "--t=0,0", "--c="],
    ["paper", "ex41", "3"],
    ["paper", "ex41", "x", "3"],
    ["search", "qsigma", "--p", "2"],
    *([group] for group in GROUPS),
    *([group, "-h"] for group in GROUPS),
    *([*path, "-h"] for path in cli.VERBS),
]


@pytest.mark.parametrize("argv", WORKLOAD_ARGV, ids=" ".join)
def test_workload_argv_parses_as_whole_tree(argv):
    _same_as_whole_tree(list(argv))


@pytest.mark.parametrize("argv", HAND_PICKED, ids=" ".join)
def test_hand_picked_argv_parses_as_whole_tree(argv):
    _same_as_whole_tree(argv)


_FLAGS = sorted(
    {flag for _, arguments in cli.VERBS.values() for flags, _ in arguments
     for flag in flags if flag.startswith("-")}
    | set(cli.GLOBALS) | {"-h", "--help", "--he", "--ex", "--pre", "--b", "--"}
)
_VALUES = ["2", "-2", "0", "x", "", "1,1", "q.json", "t+3", "--ext=q.json", "--bound=x",
           "--bound=4", "--pretty=1"]
_TOKENS = st.sampled_from(sorted({w for path in cli.VERBS for w in path}) + _FLAGS + _VALUES)


@st.composite
def _argv(draw):
    """Token sequences that mostly name a verb somewhere near the front."""
    head = draw(st.lists(_TOKENS, max_size=3))
    verb = list(draw(st.sampled_from(sorted(cli.VERBS)))) if draw(st.booleans()) else []
    return head + verb + draw(st.lists(_TOKENS, max_size=6))


@settings(deadline=None, max_examples=400)
@given(argv=_argv())
def test_token_sequences_parse_as_whole_tree(argv):
    _same_as_whole_tree(argv)


class TestParsersBuilt:
    @staticmethod
    def _count_parsers(monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return built

    @pytest.mark.parametrize("argv, count", [
        (["groupext", "verify", "--p", "2", "--a", "1", "--orders", "2,2", "--t", "0,0",
          "--c", "1"], 3),  # top level, the group, the leaf
        (["--ext", "field", "groupext", "scan", "--p", "2", "--a-max", "1",
          "--profile-max", "2"], 3),
        (["paper", "ex43", "2", "3", "2"], 3),
        (["suite", "--classes", "2", "--pairs", "2", "--elements", "2"], 2),
    ], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else str(v))
    def test_main_builds_only_the_verb(self, monkeypatch, capsys, argv, count):
        built = self._count_parsers(monkeypatch)
        cli.main(argv)
        capsys.readouterr()
        assert len(built) == count

    def test_whole_tree_builds_every_verb(self, monkeypatch):
        built = self._count_parsers(monkeypatch)
        cli.build_parser()
        # top level, each group and each verb
        assert len(built) == 1 + len(GROUPS) + len(cli.VERBS)

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: "
            "built.append(1) or init(self, *a, **k)\n"
            "import ncpbound.cli\n"
            "print(len(built))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={"PYTHONPATH": str(ROOT / "src")}, check=True)
        assert done.stdout.strip() == "0"
