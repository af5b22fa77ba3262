"""The CLI scans a regular argv straight from the verb table and builds no
parser.  The whole tree (`cli.build_parser()`) is the oracle: every argv
must parse to the same namespace, or fail with the same exit code and the
same output."""

import argparse
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import perfbench_module
from ncpbound import cli

ROOT = Path(__file__).resolve().parent.parent


def _outcome(parse, argv):
    """The namespace, or the SystemExit code; with what went to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


# built once, apart from the tree cli caches: argparse does not change a
# parser while it parses
WHOLE_TREE = cli.build_parser.__wrapped__()


def _same_as_whole_tree(argv):
    got = _outcome(lambda a: cli.parse_args(a)[1], argv)
    want = _outcome(WHOLE_TREE.parse_args, argv)
    assert got == want, argv


WORKLOAD = perfbench_module("workloads")
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
    ["groupext", "verify", "--p=-2", "--a", "1", "q.json", "--pretty"],
    ["brauer", "construct", "-m=3", "t+1", "t+3"],
    ["brauer", "construct", "t+1", "t+3"],
    ["brauer", "construct", "-m", "3"],
    ["brauer", "construct", "-m3", "t+1"],
    ["brauer", "construct", "-m", "3", "t+1", "--ext", "q.json", "t+3"],
    ["paper", "ex41", "7", "--pretty", "3"],
    ["paper", "prop42", "2", "--fq", "7", "t+1"],
    ["paper", "ex43", "2", "3", "2", "5"],
    ["paper", "ex41", "-7", "3"],
    ["groupext", "verify", "-", "--p", "2"],
    ["groupext", "verify", "a.json", "b.json"],
    ["cover", "check", "--extra", "3", "--p", "2"],
    ["cover", "check", "--extra", "3", "--n=1"],
    # --extra takes the values up to the next flag
    ["cover", "check", "--extra", "3", "5", "--nprime", "2", "t+1", "t+3"],
    ["cover", "check", "t+1", "t+3", "--extra", "3", "5"],
    ["cover", "check", "t+1", "--extra", "3", "t+3"],
    ["cover", "check", "--extra", "3", "--extra", "5", "7"],
    ["cover", "check", "--extra", "3", "--ext", "q.json", "t+1"],
    ["cover", "check", "--extra", "--ext", "q.json", "3"],
    ["cover", "check", "--extra", "--nprime", "2"],
    ["cover", "check", "--extra"],
    ["cover", "check", "--extra=3"],
    ["cover", "check", "--extra=3", "5"],
    ["cover", "check", "--extra", "3", "--extra=5"],
    ["cover", "check", "--extra", "-3", "5"],
    ["cover", "check", "--extra", "3", "-5"],
    ["cover", "check", "--extra", "3", "--", "t+1"],
    ["cover", "check", "--extra", "", "3"],
    ["cover", "check", "t+1", "--extra", "3", "--nprime", "2", "t+3"],
    ["--seed", "3", "suite", "--seed=4", "--seed", "5", "--pretty"],
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
           "--bound=4", "--pretty=1", "--p=2", "--count=3", "-m=3", "--c=", "-3", "-"]
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


class TestRepeatedCalls:
    """One process calling `parse_args` again: nothing of one call reaches the next."""
    VERIFY = ["groupext", "verify", "--p", "2", "--a", "1", "--orders", "2,2", "--t", "0,0",
              "--c", "1"]
    S0 = ["search", "s0", "--p", "2", "--power", "1"]

    def test_interleaved_verbs_parse_as_whole_tree(self):
        for argv in (self.VERIFY, self.S0, self.VERIFY, self.VERIFY):
            _same_as_whole_tree(argv)

    @pytest.mark.parametrize("flags", [
        ["--pretty"], ["--ext", "q.json"], ["--seed", "3"], ["--bound=9", "--seed=3"],
        ["--pretty", "--ext=q.json", "--seed", "3"],
    ], ids=" ".join)
    def test_flags_are_not_carried_into_the_next_call(self, flags):
        for argv in (flags + self.VERIFY, self.VERIFY, self.VERIFY + flags, self.VERIFY):
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

    @pytest.mark.parametrize("argv", [
        TestRepeatedCalls.VERIFY,
        ["--ext", "field", "groupext", "scan", "--p", "2", "--a-max", "1", "--profile-max", "2"],
        ["paper", "ex43", "2", "3", "2"],
        ["suite", "--seed", "2", "--mutation", "beta-flip"],
    ], ids=lambda v: " ".join(v[:2]))
    def test_main_builds_no_parser(self, monkeypatch, capsys, argv):
        built = self._count_parsers(monkeypatch)
        cli.main(argv)
        capsys.readouterr()
        assert built == []

    @pytest.mark.parametrize("argv", [
        ["cover", "check", "--extra", "3", "5"],
        ["--ext=q.json", "field"],
    ], ids=" ".join)
    def test_unscanned_spellings_build_the_tree(self, argv):
        # a flag with nargs and --flag=value are left to argparse
        parser, ns = cli.parse_args(argv)
        assert parser is cli.build_parser()
        assert vars(ns) == vars(WHOLE_TREE.parse_args(argv))

    def test_workload_argv_builds_no_parser(self, monkeypatch):
        built = self._count_parsers(monkeypatch)
        fell_back = [argv for argv in WORKLOAD_ARGV if cli.parse_args(list(argv))[0] is not None]
        assert fell_back == [] and built == []

    @pytest.mark.parametrize("argv", [[], ["--pretty"]], ids=["bare", "pretty"])
    def test_no_verb_builds_the_tree_once(self, monkeypatch, capsys, argv):
        # the help comes from the tree that parsed argv, and reads as the
        # whole tree's help
        want = cli.build_parser().format_help()
        calls = []
        build = cli.build_parser

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "build_parser", counting)
        assert cli.main(argv) == 2
        assert calls == [()]
        assert capsys.readouterr() == ("", want)

    def test_fallback_builds_the_tree_once_per_process(self, monkeypatch):
        cli.build_parser.cache_clear()
        built = self._count_parsers(monkeypatch)
        for argv in (["cover", "check", "--extra=3"], ["--pretty"], ["nonsense"]):
            _same_as_whole_tree(argv)
        assert len(built) == 1 + len(GROUPS) + len(cli.VERBS)

    def test_whole_tree_builds_every_verb(self, monkeypatch):
        built = self._count_parsers(monkeypatch)
        # the uncached builder: the module built its tree already
        cli.build_parser.__wrapped__()
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
        # -B and the caller's environment: the child writes no bytecode into src/
        done = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              check=True)
        assert done.stdout.strip() == "0"

    def test_regular_call_imports_no_argparse(self):
        script = (
            "import sys\n"
            "import ncpbound.cli\n"
            f"code = ncpbound.cli.main({TestRepeatedCalls.VERIFY!r})\n"
            "print(code, 'argparse' in sys.modules, file=sys.stderr)\n"
        )
        done = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              check=True)
        assert done.stderr.strip() == "0 False"
