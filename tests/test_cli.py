"""Command-line behavior: exit codes, JSON shapes, flag handling."""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ncpbound import cli, groupext
from ncpbound.cli import main
from ncpbound.fields import QQ
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
        code, payload, _ = run("suite", "--mutation", "beta-flip")
        assert code == 1
        assert "beta-bilinear" in payload["failed"]

    def test_suite_unknown_mutation_is_2(self, run):
        code, payload, _ = run("suite", "--mutation", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--classes", "--pairs", "--elements"])
    def test_suite_size_flags_are_gone(self, capsys, flag):
        # the suite runs at one size; a size flag is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["suite", flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, rejected", [
        (["cover", "check", "--extra", "3", "--n=1"], "unrecognized arguments: --n=1"),
        (["field", "--ex", "q.json"], "unrecognized arguments: --ex q.json"),
        (["--ex", "q.json", "field"], "invalid choice: 'q.json'"),
    ], ids=["n-for-nprime", "ex-after-verb", "ex-before-verb"])
    def test_abbreviated_flag_is_2(self, capsys, argv, rejected):
        # --n=1 once read as --nprime=1, and --ex as --ext
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert rejected in capsys.readouterr().err

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
            "cover", "check", "--extra", "3", "7",
            "--ext", ext_file,
        )
        assert code in (0, 1)
        names = [row[0] for row in payload["checks"]]
        assert "kernel-rank" in names

    def test_cover_check_reads_the_prime_power_from_the_cover(self, run, tmp_path):
        # a 2^3-cover of Q(sqrt 11): three extra quadratic factors
        path = tmp_path / "q11.json"
        path.write_text(json.dumps({"base": "Q", "n": 2, "radicands": [11]}))
        code, payload, _ = run("--ext", str(path), "cover", "check", "--extra", "-1", "2", "3",
                               "--", "3")
        assert code == 1
        assert (payload["p"], payload["n"], payload["m"]) == (2, 3, 8)
        outcomes = {name: ok for name, ok, _ in payload["checks"]}
        assert outcomes["kernel-rank"] is False

    def test_cover_check_degree_not_a_prime_power_is_2(self, run, tmp_path):
        path = tmp_path / "f7.json"
        path.write_text(json.dumps({"base": "F7(t)", "n": 6, "radicands": ["t"]}))
        code, payload, err = run("cover", "check", "--extra", "t+1", "--ext", str(path))
        assert code == 2 and err == ""
        assert payload == {"error": "invalid-input",
                           "detail": "relative degree 6 is not a prime power"}

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

    @pytest.mark.parametrize("argv", [("frobenius",), ("qsigma", "--p", "2")],
                             ids=["frobenius", "qsigma"])
    def test_sigma_not_integers_is_2(self, run, ext_file, argv):
        code, payload, _ = run("search", *argv, "--sigma", "1,x", "--ext", ext_file)
        assert code == 2
        assert payload == {
            "error": "invalid-input", "detail": "--sigma must be comma-separated integers, got '1,x'"
        }

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


@pytest.mark.parametrize("power", [-1, -3])
def test_s0_negative_power_is_2(run, ext_file, power):
    # p**power was once a float below 1, which every norm is congruent to
    code, payload, err = run("search", "s0", "--p", "2", f"--power={power}", "--ext", ext_file)
    assert code == 2 and err == ""
    assert payload == {"error": "invalid-input",
                       "detail": f"power must be at least 0, got {power}"}


@pytest.mark.parametrize("argv", [
    ("search", "qsigma", "--sigma", "0,0"),
    ("search", "s0", "--power", "1"),
], ids=["qsigma", "s0"])
def test_p_equal_to_char_is_2(run, ff7_file, argv):
    # every residue norm over F_7(t) is a power of 7: the walk once ran to the bound, exit 3
    code, payload, err = run(*argv, "--p", "7", "--bound", "2401", "--ext", ff7_file)
    assert code == 2 and err == ""
    assert payload == {"error": "invalid-input", "detail": "p = 7 equals the field "
                       "characteristic; the search needs residue norms prime to p"}


def test_s0_zero_power_is_valid(run, ext_file):
    # a congruence mod p^0 = 1 always holds
    code, payload, _ = run("search", "s0", "--p", "2", "--power", "0", "--ext", ext_file)
    assert code == 0 and payload["pairs"]


def test_s0_zero_power_with_p_equal_to_char_is_valid(run, ff7_file):
    # every norm is 1 mod 7^0, so only power >= 1 needs norms prime to p
    code, payload, _ = run("search", "s0", "--p", "7", "--power", "0", "--bound", "2401",
                           "--ext", ff7_file)
    assert code == 0
    assert [(pair["sigma"], pair["place"]["str"]) for pair in payload["pairs"]] == [
        ([0, 1], "(t^2+1)"), ([1, 0], "(t+3)")]


# every verb that reads --bound
BOUND_VERBS = {
    "search-frobenius": ("search", "frobenius", "--sigma", "1,1"),
    "search-qsigma": ("search", "qsigma", "--p", "2", "--sigma", "1,1"),
    "search-s0": ("search", "s0", "--p", "2", "--power", "3"),
    "cover-scan": ("cover", "scan", "-m", "2", "7"),
    "paper-ex41": ("paper", "ex41", "5", "23"),
    "paper-prop42": ("paper", "prop42", "2", "5"),
}


class TestNegativeBounds:
    @pytest.mark.parametrize("bound", [-1, -3])
    @pytest.mark.parametrize("verb", sorted(BOUND_VERBS))
    def test_negative_bound_is_2(self, run, ext_file, verb, bound):
        for argv in ((*BOUND_VERBS[verb], f"--bound={bound}"),
                     (f"--bound={bound}", *BOUND_VERBS[verb])):
            code, payload, _ = run(*argv, "--ext", ext_file)
            assert code == 2
            assert payload == {"error": "invalid-input",
                               "detail": f"--bound must be at least 0, got {bound}"}

    @pytest.mark.parametrize("verb, code", [
        ("search-frobenius", 3), ("search-qsigma", 3), ("search-s0", 3),
        ("cover-scan", 3), ("paper-ex41", 0), ("paper-prop42", 3),
    ])
    def test_zero_bound_is_valid(self, run, ext_file, verb, code):
        got, payload, _ = run(*BOUND_VERBS[verb], "--bound", "0", "--ext", ext_file)
        assert got == code
        if verb == "paper-ex41":
            assert payload["checks"][6][2] == (
                "no M(sqrt d), squarefree |d| <= 0, moves the degree at 5 (1 covers built)")

    def test_negative_radicand_bound_is_2(self, run):
        code, payload, _ = run("paper", "prop42", "2", "5", "--radicand-bound=-1")
        assert code == 2
        assert payload == {"error": "invalid-input",
                           "detail": "radicand bound must be at least 0, got -1"}

    def test_negative_max_extra_is_2(self, run, ext_file):
        code, payload, _ = run("cover", "scan", "-m", "2", "7", "--max-extra=-1",
                               "--ext", ext_file)
        assert code == 2
        assert payload == {"error": "invalid-input",
                           "detail": "max_extra must be at least 0, got -1"}

    def test_zero_max_extra_is_valid(self, run, ext_file):
        code, payload, _ = run("cover", "scan", "-m", "1", "7", "--max-extra", "0",
                               "--ext", ext_file)
        assert code == 0 and payload["passed"] is True


# every verb that reads --count, with the least count it accepts
COUNT_VERBS = {
    "search-frobenius": (("search", "frobenius", "--sigma", "0,0"), 1),
    "search-qsigma": (("search", "qsigma", "--p", "2", "--sigma", "1,1"), 1),
    "brauer-lemma21": (("brauer", "lemma21", "--p", "2"), 0),
}


class TestNegativeCounts:
    @pytest.mark.parametrize("verb, count", [
        ("search-frobenius", 0), ("search-frobenius", -2),
        ("search-qsigma", 0), ("search-qsigma", -2), ("brauer-lemma21", -1),
    ])
    def test_count_below_least_is_2(self, run, ext_file, verb, count):
        argv, least = COUNT_VERBS[verb]
        code, payload, _ = run(*argv, f"--count={count}", "--ext", ext_file)
        assert code == 2
        assert payload == {"error": "invalid-input",
                           "detail": f"--count must be at least {least}, got {count}"}

    def test_zero_count_is_valid_for_lemma21(self, run, ext_file):
        code, payload, _ = run(*COUNT_VERBS["brauer-lemma21"][0], "--count", "0",
                               "--ext", ext_file)
        assert code == 0
        assert payload["count"] == 0 and payload["violations"] == 0

    def test_searches_reject_count_before_enumerating(self, monkeypatch):
        from ncpbound import extensions
        from ncpbound.errors import ValidationError

        def forbidden(*args):
            # a generator function, like enumerate_places: its body runs
            # only when the walk draws its first place
            raise AssertionError("enumerated places for an empty request")
            yield

        M = extensions.build_extension(QQ, 2, (-1, 2))
        monkeypatch.setattr(extensions, "enumerate_places", forbidden)
        for count in (0, -2):
            with pytest.raises(ValidationError, match=f"count must be at least 1, got {count}"):
                extensions.find_places_with_frobenius(M, (0, 0), count)
            with pytest.raises(ValidationError, match=f"count must be at least 1, got {count}"):
                extensions.qsigma_search(M, 2, (1, 1), count)


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

    @pytest.mark.parametrize("key, value, detail", [
        ("orders", 5, "orders must be a list of integers, got 5"),
        ("p", "2", "p must be an integer, got '2'"),
        ("t", [0, "x"], "t must be an integer, got 'x'"),
        ("a", 1.5, "a must be an integer, got 1.5"),
        ("p", True, "p must be an integer, got True"),
    ], ids=["orders-int", "p-string", "t-string", "a-float", "p-bool"])
    def test_verify_mistyped_file_is_2(self, run, tmp_path, key, value, detail):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 2, "a": 1, "orders": [2, 2], "t": [1, 1], "c": [1],
                                    key: value}))
        code, payload, _ = run("groupext", "verify", str(path))
        assert code == 2
        assert payload == {"error": "invalid-input", "detail": detail}

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

    @pytest.mark.parametrize("argv, flag", [
        (("verify", "--p", "2", "--a", "2", "--orders", "", "--t", "0", "--c", ""), "--orders"),
        (("verify", "--p", "2", "--a", "2", "--orders", "2", "--t", "", "--c", ""), "--t"),
        (("scan", "--p", "2", "--a-max", "1", "--profile-max", ""), "--profile-max"),
    ], ids=["orders", "t", "profile-max"])
    def test_other_empty_profiles_still_rejected(self, run, argv, flag):
        code, payload, _ = run("groupext", *argv)
        assert code == 2
        assert payload["detail"] == f"{flag} must be comma-separated integers, got ''"

    @pytest.mark.parametrize("flag, argv", [
        ("--orders", ("--orders", "2,x", "--t", "0,0", "--c", "0")),
        ("--t", ("--orders", "2,2", "--t", "0;0", "--c", "0")),
        ("--c", ("--orders", "2,2", "--t", "0,0", "--c", "0,")),
    ], ids=["orders", "t", "c"])
    def test_bad_list_names_its_flag(self, run, flag, argv):
        code, payload, _ = run("groupext", "verify", "--p", "2", "--a", "1", *argv)
        assert code == 2
        assert payload["detail"].startswith(f"{flag} must be comma-separated integers, got ")

    def test_verify_rank_nine_runs(self, run):
        # rank 9 over p = 2: 2^18 torsion pairs, which the basis checks never walk
        code, payload, _ = run("groupext", "verify", "--p", "2", "--a", "1",
                               "--orders", ",".join(["2"] * 9), "--t", ",".join(["0"] * 9),
                               "--c", ",".join(["0"] * 36))
        assert code == 0
        assert payload["torsion_map"] == {"p": 2, "homomorphism": True, "criterion": True,
                                          "consistent": True}

    def test_scan_negative_a_max_is_2(self, run):
        code, payload, _ = run(
            "groupext", "scan", "--p", "2", "--a-max", "-3", "--profile-max", "4,4"
        )
        assert code == 2
        assert payload == {"error": "invalid-input", "detail": "a_max must be at least 0, got -3"}

    def test_scan_zero_a_max_is_empty(self, run):
        code, payload, _ = run(
            "groupext", "scan", "--p", "2", "--a-max", "0", "--profile-max", "4,4"
        )
        assert code == 0 and payload["count"] == 0 and payload["hits"] == []

    @pytest.mark.parametrize("argv, detail", [
        (("verify", "--p", "2", "--a", "40", "--orders", "2,2", "--t", "0,0", "--c", "0"),
         "p^a*prod(orders) exceeds the group order ceiling {} (p = 2, a = 40)"),
        (("scan", "--p", "2", "--a-max", "40", "--profile-max", "4,4"),
         "p^a_max*prod(capped profile) exceeds the group order ceiling {} (p = 2, a = 40)"),
        (("scan", "--p", "5", "--a-max", "2", "--profile-max", "125,125,125"),
         "p^a_max*prod(capped profile) exceeds the group order ceiling {} (p = 5, a = 2)"),
    ], ids=["verify", "scan", "scan-capped"])
    def test_past_the_group_order_ceiling_is_2(self, run, argv, detail):
        code, payload, _ = run("groupext", *argv)
        assert code == 2
        assert payload["detail"] == detail.format(groupext.MAX_GROUP_ORDER)

    def test_verify_file_past_the_ceiling_is_2(self, run, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"p": 2, "a": 40, "orders": [2, 2], "t": [0, 0], "c": [0]}))
        code, payload, _ = run("groupext", "verify", str(path))
        assert code == 2 and payload["detail"].startswith("p^a*prod(orders) exceeds")

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
        code, payload, _ = run("suite", "--seed", "3")
        assert code == 0 and payload["passed"] is True and payload["seed"] == 3


def _verify_by_element(args):
    """`groupext verify` with one fiber closure per nontrivial x, the oracle
    for the closure per cyclic subgroup (inline flags only)."""
    orders, t, c = (cli._int_list(v, "profile") for v in (args.orders, args.t, args.c))
    E = ext_build(args.p, args.a, orders, t, c)
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
        assert sorted(closed) == sorted(x for _, x in _lines_for(p, orders))


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


# ---------------------------------------------------------------- cover fuzz

# well-formed extras and places first, then malformed texts
_Q_TEXTS = (("-1", "3", "-3", "5", "6", "-7"), ("2", "3", "5", "7", "real"),
            ("0", "1", "4", "x", "2.5", "t", "inf", ""))
_F7_TEXTS = (("3", "t+1", "t+3", "t+5", "t^2+1"), ("t", "t+1", "t+3", "t^2+1", "inf"),
             ("2*t", "(t+3)^3", "t^2", "t+", "q", "real", "7", ""))


@pytest.fixture(scope="module")
def cover_files(tmp_path_factory):
    home = tmp_path_factory.mktemp("cover-fuzz")
    files = {}
    for name, body in (("Q", {"base": "Q", "n": 2, "radicands": [-1, 2]}),
                       ("F7", {"base": "F7(t)", "n": 3, "radicands": ["t", "(t-1)*(t-2)"]})):
        path = home / f"{name}.json"
        path.write_text(json.dumps(body))
        files[name] = str(path)
    return files


@st.composite
def _cover_argv(draw):
    """cover scan or cover check over Q (bound <= 30) or F_7(t) (bound <=
    1), with extras and places from a short pool of texts.  Half the draws
    are well formed (valid texts, m >= 1, bounds >= 0); the other half
    mix in malformed texts and values down to -1."""
    base = draw(st.sampled_from(("Q", "F7")))
    extras, places, bad = _Q_TEXTS if base == "Q" else _F7_TEXTS
    low = 0 if draw(st.booleans()) else -1
    if low < 0:
        extras, places = extras + bad, places + bad
    bound = draw(st.integers(low, 30 if base == "Q" else 1))
    chosen = draw(st.lists(st.sampled_from(places), min_size=1 + low, max_size=3))
    if draw(st.booleans()):
        argv = ["cover", "scan", "-m", str(draw(st.integers(low + 1, 9))),
                f"--max-extra={draw(st.integers(low, 2))}", f"--bound={bound}"]
    else:
        argv = ["cover", "check", "--extra",
                *draw(st.lists(st.sampled_from(extras), min_size=1, max_size=3))]
        if draw(st.booleans()):
            argv.append(f"--nprime={draw(st.integers(low, 6))}")
    # "--" ends --extra and keeps a place such as -1 from reading as a flag
    return base, argv + ["--", *chosen]


class TestCoverFuzz:
    @settings(deadline=None, max_examples=150)
    @given(draw=_cover_argv())
    def test_exit_code_in_contract(self, cover_files, draw):
        base, argv = draw
        try:
            with redirect_stdout(io.StringIO()):
                code = main(["--ext", cover_files[base], *argv])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        assert code in (0, 1, 2, 3)


# --------------------------------------------------------------- search fuzz


@pytest.fixture(scope="module")
def search_files(tmp_path_factory):
    home = tmp_path_factory.mktemp("search-fuzz")
    files = {}
    for name, body in (("q37", {"base": "Q", "n": 2, "radicands": [3, -7]}),
                       ("ff7", {"base": "F7(t)", "n": 3, "radicands": ["t", "(t-1)*(t-2)"]})):
        path = home / f"{name}.json"
        path.write_text(json.dumps(body))
        files[name] = str(path)
    return files


@st.composite
def _search_argv(draw):
    """search frobenius, qsigma or s0 over Q(sqrt 3, sqrt -7) (bound <= 300)
    or the cubic Kummer extension of F_7(t) (bound <= 49).  Half the draws
    are well formed (count >= 1, bound >= 0, a sigma of the right length and
    range, a prime p); the other half draw each value from a wider range
    that includes malformed ones.  The s0 power is drawn from [-2, 4]."""
    name = draw(st.sampled_from(("q37", "ff7")))
    n, top = (2, 300) if name == "q37" else (3, 49)
    if draw(st.booleans()):
        count, bound = draw(st.integers(1, 4)), draw(st.integers(0, top))
        sigma = _csv(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
        p = draw(st.sampled_from((2, 3, 5, 7)))
    else:
        count, bound = draw(st.integers(-2, 4)), draw(st.integers(-1, top))
        sigma = draw(st.one_of(st.lists(_entry, max_size=3).map(_csv),
                               st.sampled_from(("", "x", "1,", "1.5,0"))))
        p = draw(st.integers(-2, 9))
    verb = draw(st.sampled_from(("frobenius", "qsigma", "s0")))
    if verb == "s0":
        power = draw(st.integers(-2, 4))
        return name, 1, power, ["search", "s0", f"--p={p}", f"--power={power}",
                                f"--bound={bound}"]
    argv = ["search", verb, f"--sigma={sigma}", f"--count={count}", f"--bound={bound}"]
    if verb == "qsigma":
        argv.append(f"--p={p}")
    return name, count, 0, argv


class TestSearchFuzz:
    @settings(deadline=None, max_examples=200)
    @given(draw=_search_argv())
    def test_exit_code_in_contract(self, search_files, draw):
        name, count, power, argv = draw
        try:
            with redirect_stdout(io.StringIO()):
                code = main(["--ext", search_files[name], *argv])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        assert code in (0, 1, 2, 3)
        if count < 1 or power < 0:  # an empty request or a fractional modulus
            assert code == 2


# ------------------------------------------------------- paper and suite fuzz

_SMALL = st.integers(-3, 30)
_PRIME = st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29))


@st.composite
def _paper_argv(draw):
    """paper ex41, ex43 or prop42 with small integer positionals, --bound <=
    60, --radicand-bound <= 20 and --fq from a few small values, prime or
    not; or suite with a free-text --mutation.  Half the paper draws take
    their integers from the primes below 30, so that some pass the
    hypotheses and run; the other half from [-3, 30]."""
    verb = draw(st.sampled_from(("ex41", "ex43", "prop42", "suite")))
    if verb == "suite":
        return ["suite", f"--mutation={draw(st.text(max_size=12))}"]
    ints = _PRIME if draw(st.booleans()) else _SMALL
    if verb == "ex43":
        return ["paper", "ex43", *(str(draw(ints)) for _ in range(3))]
    bound = f"--bound={draw(st.integers(-1, 60))}"
    if verb == "ex41":
        return ["paper", "ex41", str(draw(ints)), str(draw(ints)), bound]
    fq = draw(st.sampled_from((None, 0, 1, 3, 4, 5, 7, 13)))
    if fq is None:
        pp = draw(st.one_of(ints.map(str), st.sampled_from(("real", "x", ""))))
    else:
        pp = draw(st.sampled_from(("t", "t+1", "t+2", "t^2+1", "inf", "x", "3", "")))
    argv = ["paper", "prop42", str(draw(ints)), pp, bound,
            f"--radicand-bound={draw(st.integers(-1, 20))}"]
    return argv if fq is None else argv + [f"--fq={fq}"]


class TestPaperFuzz:
    @settings(deadline=None, max_examples=200)
    @given(argv=_paper_argv())
    def test_exit_code_in_contract(self, argv):
        try:
            with redirect_stdout(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        assert code in (0, 1, 2, 3)


# ------------------------------------------------- field and brauer fuzz

# Q(i, sqrt 2) and the cubic Kummer extension of F_7(t), with well-formed
# place texts and class rows over each; then malformed ones for either base
_FIELD_EXTS = {"Q": {"base": "Q", "n": 2, "radicands": [-1, 2]},
               "F7(t)": {"base": "F7(t)", "n": 3, "radicands": ["t", "(t-1)*(t-2)"]}}
_PLACE_TEXTS = {"Q": ("2", "3", "5", "7", "real"), "F7(t)": ("t", "t+1", "t+3", "t^2+1", "inf")}
_BAD_PLACE_TEXTS = ("-1", "0", "4", "t^2", "7", "x", "")
_ROW_PLACES = {"Q": ("2", "3", "7", 5, {"kind": "prime", "p": 11}),
               "F7(t)": ("t", "t+1", "inf", {"kind": "poly", "q": 7, "coeffs": [1, 1]},
                         {"kind": "inf", "q": 7})}
_BAD_ROW_PLACES = ("real", "x", 4, {"kind": "?"}, None, [])
_ROW_VALUES = tuple(map(Fraction, ("1/2", "1/4", "-3/4", "1/3", "2/3", "0", "-1/8")))
_BAD_ROW_VALUES = ("1/0", "x", "", 5, "1/2/3")
_BAD_RADICANDS = {"Q": st.integers(-12, 12),
                  "F7(t)": st.sampled_from(("t", "t+1", "(t-1)*(t-2)", "3", "t^2", "x", 0))}


@st.composite
def _class_json(draw, base, good):
    """A class over `base` whose invariants sum to 0 mod 1 (the last row
    balances the others), its base named; or, when not good, rows of drawn
    places and values, the base named or not, or a malformed document."""
    if good:
        values = draw(st.lists(st.sampled_from(_ROW_VALUES), max_size=3))
        rows = [[draw(st.sampled_from(_ROW_PLACES[base])), str(v)]
                for v in (*values, -sum(values))]
        return {"base": base, "invariants": rows}
    if not draw(st.integers(0, 4)):
        return draw(st.sampled_from(([], {}, {"invariants": 3}, "x", None,
                                     {"invariants": [["2"]]}, {"base": "F3(t)", "invariants": []})))
    places = st.sampled_from(_ROW_PLACES[base] + _BAD_ROW_PLACES)
    values = st.sampled_from(tuple(map(str, _ROW_VALUES)) + _BAD_ROW_VALUES)
    body = {"invariants": draw(st.lists(st.lists(st.one_of(places, values), max_size=3),
                                        max_size=4))}
    if draw(st.booleans()):
        body["base"] = draw(st.sampled_from((base, "Q", "F7(t)", "F5(t)", "F4(t)", 3)))
    return body


@st.composite
def _field_argv(draw):
    """field, local-degree, isolated, bound-report or a brauer verb.  Half
    the draws are well formed (a fixed extension, its places, a class whose
    invariants sum to 0, a prime p, a character order the Galois exponent
    divides, m >= 1); the other half draw an extension of exponent 1 to 4
    with up to three radicands from a small pool, and every other value
    from a wider range that includes malformed ones."""
    good = draw(st.booleans())
    base = draw(st.sampled_from(sorted(_FIELD_EXTS)))
    if good:
        ext = _FIELD_EXTS[base]
        places = st.sampled_from(_PLACE_TEXTS[base])
        p = draw(st.sampled_from((2, 3, 5, 7)))
        chi, m = ext["n"] * draw(st.integers(1, 3)), draw(st.integers(1, 16))
    else:
        ext = {"base": base, "n": draw(st.integers(1, 4)),
               "radicands": draw(st.lists(_BAD_RADICANDS[base], max_size=3))}
        places = st.sampled_from(_PLACE_TEXTS[base] + _BAD_PLACE_TEXTS)
        p, chi, m = draw(st.integers(-2, 9)), draw(st.integers(-2, 9)), draw(st.integers(-1, 16))
    places = draw(st.lists(places, min_size=1, max_size=3))
    klass = draw(_class_json(base, good))
    verb = draw(st.sampled_from(("field", "local-degree", "isolated", "bound-report", "index",
                                 "restrict", "split", "construct", "lemma21")))
    if verb in ("field", "isolated"):
        argv = [verb]
    elif verb == "local-degree":
        argv = ["local-degree", "--", *places]
    elif verb == "bound-report":
        argv = ["bound-report", f"--p={p}", f"--chi-order={chi}"]
    elif verb in ("index", "split"):
        argv = ["brauer", verb, "CLASS"]
    elif verb == "restrict":
        argv = ["brauer", "restrict", "CLASS"]
        if draw(st.booleans()):
            argv.append(f"--chi-order={chi}")
    elif verb == "construct":
        argv = ["brauer", "construct", f"-m={m}", "--", *places]
    else:
        argv = ["brauer", "lemma21", f"--p={p}", f"--count={draw(st.integers(-1, 4))}",
                f"--seed={draw(st.integers(0, 3))}"]
    return ext, klass, argv


@pytest.fixture(scope="module")
def field_home(tmp_path_factory):
    return tmp_path_factory.mktemp("field-fuzz")


class TestFieldFuzz:
    @settings(deadline=None, max_examples=200)
    @given(draw=_field_argv())
    def test_exit_code_in_contract(self, field_home, draw):
        ext, klass, argv = draw
        ext_path, class_path = field_home / "ext.json", field_home / "class.json"
        ext_path.write_text(json.dumps(ext))
        class_path.write_text(json.dumps(klass))
        argv = [str(class_path) if a == "CLASS" else a for a in argv]
        try:
            with redirect_stdout(io.StringIO()):
                code = main(["--ext", str(ext_path), *argv])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        assert code in (0, 1, 2, 3)


# every tree the command line prints: dict, list, str, int, bool and None
_JSON_STRINGS = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "😀", 'a"b\\c\n'])
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_STRINGS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_JSON_STRINGS, kids, max_size=4),
    max_leaves=25,
)


class TestIndentedWriter:
    """cli._indented prints byte for byte what json.dumps(indent=2) prints."""

    @settings(deadline=None, max_examples=500)
    @given(tree=_JSON_TREES)
    def test_matches_json_dumps(self, tree):
        assert cli._indented(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize("tree", [
        [], {}, [[]], {"a": {}}, [{}, [], [[], {}]], {"": []},
        [True, 1, False, 0, None], {"n": True, "m": 1}, -(10**30),
    ])
    def test_empty_containers_and_bools(self, tree):
        assert cli._indented(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize("tree", [1.5, (1, 2), {1: "a"}, {"a": {None: 1}}, [set()], b"x"])
    def test_other_types_raise_type_error(self, tree):
        with pytest.raises(TypeError):
            cli._indented(tree)
