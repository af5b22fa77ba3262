"""Command-line behavior: exit codes, JSON shapes, flag handling."""

import io
import json
import random
from contextlib import redirect_stdout
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ncpbound import cli, groupext
from ncpbound.cli import main
from ncpbound.groupext import (
    _lines_for,
    ext_build,
    fiber_is_cyclic,
    power_criterion,
    verify_lemma_35,
)
from ncpbound.jsonio import to_json


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        payload = json.loads(out.out) if out.out.strip() else None
        return code, payload, out.err

    return invoke


@pytest.fixture
def ext_file(tmp_path):
    path = tmp_path / "qi2.json"
    path.write_text(json.dumps({"base": "Q", "n": 2, "radicands": [-1, 2]}))
    return str(path)


@pytest.fixture
def ff7_file(tmp_path):
    path = tmp_path / "ff7.json"
    path.write_text(
        json.dumps({"base": "F7(t)", "n": 3, "radicands": ["t", "(t-1)*(t-2)"]})
    )
    return str(path)


def write_class(tmp_path, invariants):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({"base": "Q", "invariants": invariants}))
    return str(path)


class TestExitCodes:
    def test_ex41_verified(self, run):
        code, payload, _ = run("paper", "ex41", "7", "3", "--bound", "200")
        assert code == 0
        assert payload["verdict"] is True

    def test_ex41_hypothesis_violation_is_1(self, run):
        code, payload, _ = run("paper", "ex41", "3", "5")
        assert code == 1
        assert payload["verdict"] is False

    def test_ex41_bad_input_is_2(self, run):
        code, payload, _ = run("paper", "ex41", "4", "6")
        assert code == 2
        assert payload["error"] == "invalid-input"

    def test_ex43_verified(self, run):
        code, payload, _ = run("paper", "ex43", "2", "3", "2")
        assert code == 0 and payload["verdict"] is True

    def test_ex43_bad_congruence_is_2(self, run):
        code, payload, _ = run("paper", "ex43", "3", "5", "2")
        assert code == 2

    def test_prop42_verified(self, run):
        code, payload, _ = run("paper", "prop42", "2", "5")
        assert code == 0 and payload["verdict"] is True

    def test_prop42_exhausted_is_3(self, run):
        code, payload, _ = run("paper", "prop42", "2", "5", "--bound", "2")
        assert code == 3
        assert payload["error"] == "search-exhausted"

    def test_suite_mutation_is_1(self, run):
        code, payload, _ = run(
            "suite", "--classes", "6", "--pairs", "8", "--elements", "10",
            "--mutation", "beta-flip",
        )
        assert code == 1
        assert "beta-bilinear" in payload["failed"]

    def test_suite_unknown_mutation_is_2(self, run):
        code, payload, _ = run("suite", "--mutation", "nonsense")
        assert code == 2

    def test_search_exhausted_carries_partial(self, run, ext_file):
        code, payload, _ = run(
            "search", "frobenius", "--sigma", "1,1", "--count", "500",
            "--bound", "60", "--ext", ext_file,
        )
        assert code == 3
        assert payload["error"] == "search-exhausted"
        assert isinstance(payload["partial"], list) and payload["partial"]

    def test_cover_scan_miss_is_3(self, run, ext_file):
        code, payload, _ = run("cover", "scan", "-m", "3", "7", "--ext", ext_file)
        assert code == 3
        assert payload["passed"] is False

    def test_missing_ext_is_2(self, run):
        code, payload, _ = run("isolated")
        assert code == 2
        assert "--ext" in payload["detail"]

    def test_bad_place_text_is_2(self, run, ext_file):
        code, payload, _ = run("local-degree", "x", "--ext", ext_file)
        assert code == 2

    @pytest.mark.parametrize(
        "ext",
        [
            {"base": "Q", "n": "2", "radicands": [3]},
            {"base": {"kind": "Fq", "q": "7"}, "n": 3, "radicands": ["t"]},
        ],
        ids=["string-n", "string-q"],
    )
    def test_mistyped_extension_json_is_2(self, run, tmp_path, ext):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(ext))
        code, payload, _ = run("field", "--ext", str(path))
        assert code == 2
        assert payload["error"] == "invalid-input"
        assert "must be an integer" in payload["detail"]

    def test_no_subcommand_is_2(self, run):
        code, payload, err = run()
        assert code == 2 and payload is None
        assert "usage" in err


class TestPaperJson:
    def test_ex41_report_shape(self, run):
        code, payload, _ = run("paper", "ex41", "7", "3", "--bound", "200")
        assert payload["example"] == "ex41"
        assert payload["params"] == {"l": 7, "q": 3, "bound": 200}
        names = [row[0] for row in payload["checks"]]
        assert names[0] == "hypothesis" and "witness-class" in names
        for name, ok, detail in payload["checks"]:
            assert ok is True and isinstance(detail, str)

    def test_runs_are_byte_identical(self, capsys):
        main(["paper", "ex41", "7", "3", "--bound", "200"])
        first = capsys.readouterr().out
        main(["paper", "ex41", "7", "3", "--bound", "200"])
        assert capsys.readouterr().out == first

    def test_prop42_function_field(self, run):
        code, payload, _ = run("paper", "prop42", "3", "t+4", "--fq", "7")
        assert code == 0
        assert payload["params"]["pp"] == "(t+4)"


class TestFieldVerbs:
    def test_field_output_feeds_back_as_input(self, run, ext_file, tmp_path):
        code, payload, _ = run("field", "--ext", ext_file)
        assert code == 0 and payload["degree"] == 4
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(payload))
        code2, payload2, _ = run("field", "--ext", str(echo))
        assert code2 == 0 and payload2 == payload

    def test_field_function_field(self, run, ff7_file):
        code, payload, _ = run("field", "--ext", ff7_file)
        assert code == 0 and payload["degree"] == 9 and payload["real"] is False

    def test_local_degree_rows(self, run, ext_file):
        code, payload, _ = run("local-degree", "2", "7", "real", "--ext", ext_file)
        assert code == 0
        degrees = {row["place"]["str"]: row["degree"] for row in payload["places"]}
        assert degrees == {"2": 4, "7": 2, "real": 2}

    def test_isolated_reports_the_dyadic_place(self, run, ext_file):
        code, payload, _ = run("isolated", "--ext", ext_file)
        assert code == 0
        assert [(row["place"]["p"], row["p"], row["gap"]) for row in payload["isolated"]] == [
            (2, 2, 1)
        ]

    def test_isolated_empty_for_function_field_fixture(self, run, ff7_file):
        code, payload, _ = run("isolated", "--ext", ff7_file)
        assert code == 0 and payload["isolated"] == []


class TestBrauerVerbs:
    def test_index_and_locals(self, run, tmp_path):
        path = write_class(tmp_path, [["2", "1/4"], ["7", "3/4"]])
        code, payload, _ = run("brauer", "index", path)
        assert code == 0 and payload["index"] == 4
        assert [row[1] for row in payload["local_indices"]] == [4, 4]

    def test_restrict_with_fiber(self, run, tmp_path, ext_file):
        path = write_class(tmp_path, [["2", "1/4"], ["7", "3/4"]])
        code, payload, _ = run(
            "brauer", "restrict", path, "--ext", ext_file, "--chi-order", "4"
        )
        assert code == 0
        assert payload["fiber_index"] == 4 * payload["restricted_index"]

    def test_split_no(self, run, tmp_path, ext_file):
        path = write_class(tmp_path, [["2", "1/4"], ["7", "3/4"]])
        code, payload, _ = run("brauer", "split", path, "--ext", ext_file)
        assert code == 1 and payload["splits"] is False

    def test_split_yes(self, run, tmp_path, ext_file):
        path = write_class(tmp_path, [["2", "1/2"], ["7", "1/2"]])
        code, payload, _ = run("brauer", "split", path, "--ext", ext_file)
        assert code == 0 and payload["splits"] is True

    def test_construct_meets_divisors(self, run, ext_file, tmp_path):
        code, payload, _ = run(
            "brauer", "construct", "-m", "8", "2", "7", "--ext", ext_file
        )
        assert code == 0 and payload["restricted_index"] == 8
        for place, need, got in payload["divisor_rows"]:
            assert got % need == 0
        # the emitted class is valid input for the index verb
        path = tmp_path / "back.json"
        path.write_text(json.dumps(payload["class"]))
        code2, payload2, _ = run("brauer", "index", str(path))
        assert code2 == 0 and payload2["index"] == payload["class"]["index"]

    def test_lemma21_clean(self, run, ext_file):
        code, payload, _ = run(
            "brauer", "lemma21", "--p", "2", "--count", "40", "--seed", "5",
            "--ext", ext_file,
        )
        assert code == 0 and payload["violations"] == 0 and payload["seed"] == 5


class TestCoverAndSearch:
    def test_cover_check_reports_divisor_rows(self, run, ext_file):
        code, payload, _ = run(
            "cover", "check", "--extra", "3", "--p", "2", "--n", "1", "7",
            "--ext", ext_file,
        )
        assert code in (0, 1)
        names = [row[0] for row in payload["checks"]]
        assert "kernel-rank" in names

    def test_cover_scan_hit(self, run, ext_file):
        code, payload, _ = run("cover", "scan", "-m", "2", "7", "--ext", ext_file)
        assert code == 0 and payload["passed"] is True
        assert payload["witness"]["rel_degree"] == 2

    def test_frobenius_search(self, run, ext_file):
        code, payload, _ = run(
            "search", "frobenius", "--sigma", "1,1", "--count", "5", "--ext", ext_file
        )
        assert code == 0 and payload["count"] == 5

    def test_qsigma_search(self, run, ext_file):
        code, payload, _ = run(
            "search", "qsigma", "--p", "2", "--sigma", "1,1", "--ext", ext_file
        )
        assert code == 0 and len(payload["places"]) == 1

    def test_s0_search(self, run, ext_file):
        code, payload, _ = run("search", "s0", "--p", "2", "--power", "3", "--ext", ext_file)
        assert code == 0 and payload["pairs"]

    def test_bound_report(self, run, ext_file):
        code, payload, _ = run(
            "bound-report", "--p", "2", "--chi-order", "4", "--ext", ext_file
        )
        assert code == 0
        assert payload["interval"][0] <= (payload["interval"][1] or payload["interval"][0])


@pytest.mark.parametrize("p", [-2, 0, 1, 4])
@pytest.mark.parametrize("argv", [
    ("search", "qsigma", "--sigma", "1,1"),
    ("search", "s0", "--power", "3"),
    ("brauer", "lemma21", "--count", "2"),
    ("bound-report", "--chi-order", "4"),
], ids=["qsigma", "s0", "lemma21", "bound-report"])
def test_non_prime_p_is_2(run, ext_file, argv, p):
    code, payload, err = run(*argv, f"--p={p}", "--ext", ext_file)
    assert code == 2 and err == ""
    assert payload == {"error": "invalid-input", "detail": f"p must be prime, got {p}"}


class TestGroupext:
    def test_scan_finds_quaternion_datum(self, run):
        code, payload, _ = run(
            "groupext", "scan", "--p", "2", "--a-max", "2", "--profile-max", "4,4"
        )
        assert code == 0
        assert {"p": 2, "a": 1, "orders": [2, 2], "t": [1, 1], "c": [1],
                "kernel_order": 2, "order": 8} in payload["hits"]

    def test_verify_from_file(self, run, tmp_path):
        path = tmp_path / "q8.json"
        path.write_text(json.dumps({"p": 2, "a": 1, "orders": [2, 2], "t": [1, 1], "c": [1]}))
        code, payload, _ = run("groupext", "verify", str(path))
        assert code == 0
        assert payload["power_criterion_all"] is True
        assert payload["noncyclic_fibers"] == []

    def test_verify_inline_flags(self, run):
        code, payload, _ = run(
            "groupext", "verify", "--p", "2", "--a", "1",
            "--orders", "2,2", "--t", "0,0", "--c", "1",
        )
        assert code == 0
        assert payload["noncyclic_fibers"] != []

    def test_verify_missing_flags_is_2(self, run):
        code, payload, _ = run("groupext", "verify", "--p", "2")
        assert code == 2

    def test_verify_rank_one_with_empty_c(self, run):
        code, payload, _ = run(
            "groupext", "verify", "--p", "2", "--a", "2", "--orders", "2", "--t", "0", "--c", ""
        )
        assert code == 0
        assert payload["ext"]["orders"] == [2] and payload["ext"]["c"] == []

    def test_verify_empty_c_needs_rank_one(self, run):
        code, payload, _ = run(
            "groupext", "verify", "--p", "2", "--a", "1", "--orders", "2,2", "--t", "0,0",
            "--c", "",
        )
        assert code == 2 and payload["detail"] == "1 commutator values required"

    @pytest.mark.parametrize("argv", [
        ("verify", "--p", "2", "--a", "2", "--orders", "", "--t", "0", "--c", ""),
        ("verify", "--p", "2", "--a", "2", "--orders", "2", "--t", "", "--c", ""),
        ("scan", "--p", "2", "--a-max", "1", "--profile-max", ""),
    ], ids=["orders", "t", "profile-max"])
    def test_other_empty_profiles_still_rejected(self, run, argv):
        code, payload, _ = run("groupext", *argv)
        assert code == 2
        assert payload["detail"] == "profile must be comma-separated integers, got ''"

    @pytest.mark.parametrize("p", [-2, 0, 1, 4])
    def test_scan_non_prime_p_is_2(self, run, p):
        code, payload, _ = run(
            "groupext", "scan", "--p", str(p), "--a-max", "1", "--profile-max", "4,4"
        )
        assert code == 2
        assert payload == {"error": "invalid-input", "detail": f"{p} is not prime"}


class TestFlagsAndPretty:
    def test_global_flags_accepted_in_both_positions(self, run, ext_file):
        before = run("--ext", ext_file, "isolated")
        after = run("isolated", "--ext", ext_file)
        assert before[0] == after[0] == 0 and before[1] == after[1]

    def test_pretty_renders_check_table(self, run):
        code, _, err = run("--pretty", "paper", "ex41", "3", "5")
        assert code == 1
        assert "FAIL" in err and "hypothesis" in err

    def test_pretty_off_keeps_stderr_quiet(self, run):
        _, _, err = run("paper", "ex41", "3", "5")
        assert err == ""

    def test_suite_passes_with_explicit_seed(self, run):
        code, payload, _ = run(
            "suite", "--seed", "3", "--classes", "6", "--pairs", "8", "--elements", "10"
        )
        assert code == 0 and payload["passed"] is True and payload["seed"] == 3


def _verify_by_element(args):
    """`groupext verify` with one fiber closure per nontrivial x, the oracle
    for the closure per cyclic subgroup (inline flags only)."""
    E = ext_build(args.p, args.a, cli._profile(args.orders), cli._profile(args.t),
                  cli._profile(args.c))
    noncyclic = []
    law_holds = True
    for x in product(*(range(o) for o in E.orders)):
        if not any(x):
            continue
        cyclic = fiber_is_cyclic(E, x)
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


def _csv(values) -> str:
    return ",".join(map(str, values))


def _verify_argv(p, a, orders, t, c):
    return ["groupext", "verify", "--p", str(p), "--a", str(a), "--orders", _csv(orders),
            "--t", _csv(t), "--c", _csv(c)]


def _data(p, a, orders):
    """Every valid (t, c): t_i any kernel exponent, c_ij of order dividing
    gcd(o_i, o_j)."""
    pa = p**a
    pairs = [(i, j) for i in range(len(orders)) for j in range(i + 1, len(orders))]
    c_space = [range(0, pa, pa // gcd(orders[i], orders[j], pa)) for i, j in pairs]
    return [(t, c) for t in product(range(pa), repeat=len(orders)) for c in product(*c_space)]


class TestVerifyPerSubgroup:
    SHAPES = [(2, 2, (4, 4)), (3, 1, (3, 3)), (5, 1, (5, 5))]

    def _stdout_and_code(self, capsys, argv):
        code = main(argv)
        return capsys.readouterr().out, code

    def _check(self, monkeypatch, capsys, p, a, orders, data):
        for t, c in data:
            argv = _verify_argv(p, a, orders, t, c)
            got = self._stdout_and_code(capsys, argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "cmd_groupext_verify", _verify_by_element)
                want = self._stdout_and_code(capsys, argv)
            assert got == want, argv

    @pytest.mark.parametrize("p,a,orders", SHAPES)
    def test_matches_per_element_loop_on_every_datum(self, monkeypatch, capsys, p, a, orders):
        self._check(monkeypatch, capsys, p, a, orders, _data(p, a, orders))

    def test_matches_per_element_loop_on_seeded_draws(self, monkeypatch, capsys):
        rng = random.Random(5)
        data = rng.sample(_data(3, 2, (9, 3)), 6)
        self._check(monkeypatch, capsys, 3, 2, (9, 3), data)

    @pytest.mark.parametrize(
        "p,a,orders,t,c",
        [(2, 2, (4, 4, 2), (1, 2, 1), (2, 0, 2)), (3, 2, (9, 3), (4, 1), (3,)),
         (5, 1, (5, 5), (0, 0), (1,))],
    )
    def test_one_closure_per_cyclic_subgroup(self, monkeypatch, capsys, p, a, orders, t, c):
        closed = []
        monkeypatch.setattr(
            groupext, "fiber_is_cyclic", lambda E, x: closed.append(x) or fiber_is_cyclic(E, x)
        )
        assert main(_verify_argv(p, a, orders, t, c)) == 0
        capsys.readouterr()
        assert sorted(closed) == sorted(x for _, x in _lines_for(orders))


_entry = st.integers(-2, 9)


@st.composite
def _verify_argv_strategy(draw):
    """Any p, a and entries in range.  Half the draws are well formed (prime
    p, orders powers of p, one t per order and one c per pair), so valid
    extensions are drawn as often as malformed ones."""
    well_formed = draw(st.booleans())
    if well_formed:
        p = draw(st.sampled_from((2, 3, 5)))
        a, rank = draw(st.integers(0, 2)), draw(st.integers(2, 3))
        order = st.sampled_from([v for v in (p, p * p) if v <= 9])
    else:
        p, a, rank = draw(st.integers(-2, 5)), draw(st.integers(-1, 2)), draw(st.integers(0, 3))
        order = _entry

    def values(n):
        return draw(st.lists(_entry, min_size=n, max_size=n) if well_formed
                    else st.lists(_entry, max_size=3))

    orders = draw(st.lists(order, min_size=rank, max_size=rank))
    return ["groupext", "verify", f"--p={p}", f"--a={a}", f"--orders={_csv(orders)}",
            f"--t={_csv(values(rank))}", f"--c={_csv(values(rank * (rank - 1) // 2))}"]


class TestGroupextFuzz:
    # every argv the verbs parse ends in an exit code, never an exception
    # or a hang; values go after "=" so argparse takes negatives as values

    @staticmethod
    def _exit_code(argv):
        with redirect_stdout(io.StringIO()):
            return main(argv)

    @settings(deadline=None, max_examples=300)
    @given(p=st.integers(-2, 5), a_max=st.integers(-1, 2),
           profile=st.lists(_entry, max_size=3))
    def test_scan(self, p, a_max, profile):
        argv = ["groupext", "scan", f"--p={p}", f"--a-max={a_max}",
                f"--profile-max={_csv(profile)}"]
        assert self._exit_code(argv) in (0, 1, 2, 3)

    @settings(deadline=None, max_examples=250)
    @given(argv=_verify_argv_strategy())
    def test_verify(self, argv):
        assert self._exit_code(argv) in (0, 1, 2, 3)
