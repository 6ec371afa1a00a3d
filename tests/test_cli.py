import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sumdiff
from sumdiff import cli, construct, exactcount, optimize, ratefn, wcount
from sumdiff.cli import main
from sumdiff.ratefn import RateResult
from sumdiff.wcount import CountValue

from oracles import colliding_g

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    record = json.loads(out)
    assert record["schemaVersion"] == "1"
    assert isinstance(record["runtimeMillis"], int)
    return code, record


def test_count(capsys):
    code, record = run_json(capsys, "count", "--m", "3", "--L", "2", "--B", "5")
    assert code == 0
    assert record["command"] == "count"
    assert record["parameters"] == {"m": 3, "L": 2, "B": 5}
    assert record["results"]["count"] == 10


def test_rate_zero_branch(capsys):
    code, record = run_json(capsys, "rate", "--c", "1", "--B", "2")
    assert code == 0
    assert record["parameters"] == {"c": 1.0, "B": 2}
    assert record["results"]["value"] == 0
    assert record["results"]["t_star"] is None


def test_rate_c_zero_sentinel(capsys):
    code, record = run_json(capsys, "rate", "--c", "0", "--B", "3")
    assert code == 0
    assert math.isclose(record["results"]["value"], math.log(4), rel_tol=1e-15)
    assert record["results"]["t_star"] == "-inf"


def test_enumerate(capsys):
    code, record = run_json(capsys, "enumerate", "--m", "2", "--L", "1", "--B", "1")
    assert code == 0
    assert record["parameters"] == {"m": 2, "L": 1, "B": 1}
    assert record["results"]["vectors"] == [[0, 0], [0, 1], [1, 0]]


def test_bound_and_dump_set(capsys, tmp_path):
    path = tmp_path / "u.txt"
    code, record = run_json(
        capsys, "bound", "--m", "2", "--L", "2", "--B", "1", "--dump-set", str(path)
    )
    assert code == 0
    results = record["results"]
    assert (results["d"], results["s"], results["q"]) == (9, 9, 9)
    assert results["theta"] == 1.0
    assert path.read_text() == "0\n1\n3\n4\n"


def test_bound_dump_set_unwritable_exit_2(capsys, tmp_path):
    # a directory cannot be opened for writing
    code, out, err = run(
        capsys, "bound", "--m", "2", "--L", "2", "--B", "1", "--dump-set", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_passes(capsys):
    code, record = run_json(capsys, "verify", "--max-m", "3", "--max-L", "3", "--max-B", "2")
    assert code == 0
    assert record["results"]["all_pass"] is True
    rows = record["results"]["checked"]
    assert len(rows) == 4 * 4 * 2
    assert all(r["sumset_identity"] and r["diffset_identity"] and r["injective_g"] for r in rows)


def test_verify_fails_exit_1(capsys, monkeypatch):
    # base 2B in place of 2B + 1: (2, 0) and (0, 1) of W + W collide at 2
    monkeypatch.setattr(construct, "encode_g", colliding_g)
    code, out, _ = run(capsys, "verify", "--max-m", "2", "--max-L", "2", "--max-B", "1")
    assert code == 1
    results = json.loads(out)["results"]
    assert results["all_pass"] is False
    checks = ("sumset_identity", "diffset_identity", "injective_g")
    failed = {
        (r["m"], r["L"], r["B"]): [r[k] for k in checks]
        for r in results["checked"]
        if not all(r[k] for k in checks)
    }
    assert failed == {(2, 1, 1): [False] * 3, (2, 2, 1): [False] * 3}


def test_verify_cap_exit_2(capsys, monkeypatch):
    # W(2, 1, 1) has 3 vectors, so 9 pairs of 2 coordinates each
    monkeypatch.setattr(wcount, "ENUM_CAP", 8)
    code, out, err = run(capsys, "verify", "--max-m", "2", "--max-L", "1", "--max-B", "1")
    assert code == 2
    assert out == ""
    assert "18 pair coordinates exceeds the cap of 8" in err


def test_verify_refuses_a_grid_past_the_cap_at_once_exit_2(capsys, monkeypatch):
    # W(1000, 1, 1) has 1001 vectors: about 10^6 pairs, each of 1000 coordinates;
    # held to pairs alone this grid was accepted, to run for tens of minutes
    def no_call(*args):
        raise AssertionError("enumerated past the pair cap")

    monkeypatch.setattr(construct, "_vectors", no_call)
    code, out, err = run(capsys, "verify", "--max-m", "1000", "--max-L", "1", "--max-B", "1")
    assert code == 2
    assert out == ""
    # refused on the grid's largest triple, before any triple is verified
    assert err.startswith("error: ") and "pair coordinates exceeds the cap of 10000000" in err


def test_verify_enumerates_once_per_triple(capsys, monkeypatch):
    calls, checks = [], []
    vectors, check_cap = construct._vectors, construct._check_cap
    monkeypatch.setattr(construct, "_vectors", lambda *a: calls.append(a) or vectors(*a))
    monkeypatch.setattr(construct, "_check_cap", lambda *a: checks.append(a) or check_cap(*a))
    code, _ = run_json(capsys, "verify", "--max-m", "2", "--max-L", "2", "--max-B", "2")
    assert code == 0
    assert len(calls) == len(set(calls)) == 3 * 3 * 2
    # the grid's largest triple first, then each triple once
    assert checks[0][0] == (2, 2, 2)
    assert len(checks) - 1 == len({args[0] for args in checks[1:]}) == 3 * 3 * 2


@pytest.mark.parametrize(
    "grid",
    [("--max-B", "0"), ("--max-m", "-1"), ("--max-L", "-3")],
    ids=lambda grid: " ".join(grid),
)
def test_verify_rejects_empty_grid_exit_2(capsys, grid):
    # each of these grids checks nothing, so no passing record may be printed
    code, out, err = run(capsys, "verify", *grid)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "empty" in err


def test_optimize(capsys):
    code, record = run_json(capsys, "optimize", "--B", "5", "--eps", "1e-8")
    assert code == 0
    assert record["parameters"] == {"B": 5, "eps": 1e-8}
    assert abs(record["results"]["theta_minus_1"] - 0.173077279785136) < 1e-8


def test_table1_json_csv_values_identical(capsys):
    code, record = run_json(
        capsys, "table1", "--b-range", "5..5", "--eps-list", "1e-6", "1e-8"
    )
    assert code == 0
    assert record["parameters"] == {"eps_list": [1e-6, 1e-8], "b_range": [5, 5]}
    cells = record["results"]["cells"]

    code, out, _ = run(
        capsys, "table1", "--b-range", "5..5", "--eps-list", "1e-6", "1e-8", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["B", "eps=1e-06", "eps=1e-08"]
    assert rows[1][0] == "5"
    # CSV carries full round-trip precision: values equal the JSON ones exactly
    assert [float(v) for v in rows[1][1:]] == [c["theta_minus_1"] for c in cells[0]]


def test_table1_csv_byte_identical_across_runs(capsys):
    args = ("table1", "--b-range", "3..4", "--eps-list", "1e-6", "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("b_range", ["5..3", "11..11"])
def test_table1_rejects_b_range_exit_2(capsys, b_range):
    code, out, err = run(capsys, "table1", "--b-range", b_range, "--eps-list", "1e-4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "b_range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("optimize", "--B", "5", "--eps", "inf"),
        ("optimize", "--B", "5", "--eps", "1.0"),
        ("table1", "--b-range", "5..5", "--eps-list", "1e-4", "1.5"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_rejects_bad_tolerance_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_non_finite_result_exit_2(capsys, monkeypatch):
    # a NaN must never reach stdout as a record that is not JSON
    monkeypatch.setattr(ratefn, "rate_I", lambda q: RateResult(math.nan, -1.0, 0, 0.0))
    code, out, err = run(capsys, "rate", "--c", "1", "--B", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [("rate", "--c", "1", "--B", "10001"),
     ("optimize", "--B", "5001", "--eps", "1e-4")],
    ids=lambda argv: " ".join(argv),
)
def test_large_B_exit_0(capsys, argv):
    # every tilt costs O(1), so these run like B = 5; both were refused before
    code, out, err = run(capsys, *argv)
    assert code == 0
    record = json.loads(out)
    assert record["command"] == argv[0]
    if argv[0] == "optimize":
        # r* = 271.2: a search clipped to the small r of B = 5 (r* = 0.805) fails here
        assert record["results"]["r_star"] > 2.0


@pytest.mark.parametrize("k", [*range(8, 16), 20])
def test_optimize_large_B_is_stationary(capsys, k):
    # a record is printed only at a stationary point; a search that fails exits 2
    code, out, err = run(capsys, "optimize", "--B", str(10**k), "--eps", "1e-10")
    if code == 0:
        assert json.loads(out)["results"]["grad_norm"] <= 1e-10
    else:
        assert code == 2 and out == "" and err.startswith("error: ")


def test_optimize_step_cap_exit_2(capsys, monkeypatch):
    # a search or rate solve that the step cap ends short of eps prints no record
    monkeypatch.setattr(ratefn, "_MAX_ITER", 1)
    for argv in (("optimize", "--B", "5", "--eps", "1e-10"), ("rate", "--c", "1", "--B", "5")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "eps" in err


@pytest.mark.parametrize(
    "argv",
    [("rate", "--c", "1", "--B", str(10**400)),
     *(("optimize", "--B", str(10**k), "--eps", "1e-4") for k in (160, 200, 400))],
    ids=["rate --B 10^400", "optimize --B 10^160", "optimize --B 10^200", "optimize --B 10^400"],
)
def test_B_past_float_range_exit_2(capsys, argv):
    # the rate solve takes B(B + 2) as a float, and optimize checks 2B(2B + 2) first: OverflowError
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "too large" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--m", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("counts", "--m", "3"),
        ("count", "--m", "3", "--L", "2", "--B", "5", "--x", "1"),
        ("count", "--m", "3", "--L", "2", "--B", "5", "7"),
        ("count", "--m", "3.5", "--L", "2", "--B", "5"),
        ("count", "--m", "--L", "2", "--B", "5"),
        ("verify", "--max", "3"),  # no prefix abbreviations
        ("table1", "--b-range", "3-10"),
        ("table1", "--format", "xml"),
        ("table1", "--eps-list"),
        ("table1", "--eps-list=1e-4", "1e-6"),
    ],
    ids=lambda argv: " ".join(argv) or "no command",
)
def test_usage_errors_print_usage_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: sumdiff ") and ": error: " in error


@pytest.mark.parametrize("command", [None, *cli._COMMANDS], ids=str)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command_and_flag_exit_0(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag] if command is None else [command, "--m", "3", flag])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: sumdiff ")
    for name, (_, text, flags) in cli._COMMANDS.items():
        if command in (None, name):
            assert text in out and all(f"{f} " in out for f in flags)


def test_flag_equals_value(capsys):
    _, spaced = run_json(capsys, "table1", "--b-range", "5..5", "--eps-list", "1e-4", "1e-6")
    _, joined = run_json(capsys, "table1", "--b-range=5..5", "--eps-list", "1e-4", "1e-6")
    assert joined["parameters"] == spaced["parameters"] == {"eps_list": [1e-4, 1e-6], "b_range": [5, 5]}
    assert joined["results"] == spaced["results"]
    code, record = run_json(capsys, "count", "--m=3", "--L", "2", "--B=5")
    assert code == 0 and record["parameters"] == {"m": 3, "L": 2, "B": 5}


@pytest.mark.parametrize(
    "argv",
    [("rate", "--c", "-0.5", "--B", "3"), ("table1", "--b-range", "5..5", "--eps-list", "1e-4", "-1e-6")],
    ids=lambda argv: " ".join(argv),
)
def test_negative_value_reaches_validation_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_invalid_value_exit_2(capsys):
    code, out, err = run(capsys, "count", "--m", "-3", "--L", "2", "--B", "5")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_cap_exceeded_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(wcount, "ENUM_CAP", 10)
    code, _, err = run(capsys, "enumerate", "--m", "9", "--L", "20", "--B", "3")
    assert code == 2
    assert "cap" in err


def test_bound_counts_past_pair_cap(capsys):
    # |W(10, 8, 5)| = 43,098 vectors: their 1.86e9 pairs are past the cap, the counts are not
    code, record = run_json(capsys, "bound", "--m", "10", "--L", "8", "--B", "5")
    assert code == 0
    results = record["results"]
    assert results["set_size"] == 43_098
    assert results["s"] == wcount.count_W(wcount.WParams(10, 16, 10)).exact
    assert results["q"] == 2 * max(construct.build_U(wcount.WParams(10, 8, 5))) + 1


def test_bound_refuses_past_convolution_limit_exit_2(capsys, monkeypatch):
    # 8,004 exact counts past the work limit; under the earlier limit of 4,000
    # convolution terms this input ran for 35-85 s
    def no_call(*args):
        raise AssertionError("counted past the work limit")

    monkeypatch.setattr(exactcount, "_count", no_call)
    monkeypatch.setattr(construct, "max_U", no_call)
    code, out, err = run(capsys, "bound", "--m", "4000", "--L", "8000", "--B", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "8004 exact counts" in err and f"{exactcount.MAX_COUNT_WORK:.3g}" in err
    # K = 0 and K = 1 at every count: the first binomials alone are past the limit
    for B in ("15001", "7500"):
        code, out, err = run(capsys, "bound", "--m", "15000", "--L", "15000", "--B", B)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "30004 exact counts" in err


def test_count_refuses_past_work_limit_exit_2(capsys, monkeypatch):
    def no_call(*args):
        raise AssertionError("big-integer work past the work limit")

    monkeypatch.setattr(math, "comb", no_call)
    monkeypatch.setattr(math, "perm", no_call)
    # enumerate is refused by the cap, on its lower bound, before the work limit
    for argv, reason in ((("count",), "units of work"), (("enumerate",), "exceeds the cap")):
        code, out, err = run(capsys, *argv, "--m", "1000000", "--L", "1000000", "--B", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and reason in err


@pytest.mark.parametrize("m, L, B", [(8000, 1, 1), (7, 63, 9)])
def test_enumerate_refuses_past_coordinate_cap_exit_2(capsys, monkeypatch, m, L, B):
    # m * |W| coordinates: 8000 * 8001, and 7 * 10^7, about 8 GB as tuples;
    # the first ran out of memory under a 1.5 GiB address space and exited 1
    def no_call(*args):
        raise AssertionError("built vectors past the cap")

    monkeypatch.setattr(wcount, "_vectors", no_call)
    code, out, err = run(capsys, "enumerate", "--m", str(m), "--L", str(L), "--B", str(B))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "coordinates exceeds the cap of 10000000" in err


def test_enumerate_accepts_the_certificate_sets(capsys):
    # the certificate benchmark's largest enumeration: 6 * 3003 coordinates
    code, record = run_json(capsys, "enumerate", "--m", "6", "--L", "8", "--B", "17")
    assert code == 0
    assert record["results"]["count"] == 3003


def test_enumerate_refuses_far_past_cap_before_counting_exit_2(capsys, monkeypatch):
    # |W(80000, 80000, 3)| >= 2^80000; counting it exactly took about 1.9 s
    def no_call(*args):
        raise AssertionError("counted exactly past the cap")

    monkeypatch.setattr(exactcount, "_count", no_call)
    code, out, err = run(capsys, "enumerate", "--m", "80000", "--L", "80000", "--B", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds the cap of 10000000" in err


def test_enumerate_refuses_on_the_bound_without_building_it_exit_2(capsys, monkeypatch):
    # the lower bound m * 2^(m-1) of W(10^11, 10^11, 1)'s coordinates has
    # 10^11 bits, 12.5 GB as an integer: decided by its bits, never built
    def no_call(*args):
        raise AssertionError("counted exactly past the cap")

    monkeypatch.setattr(exactcount, "_count", no_call)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "enumerate", "--m", str(10**11), "--L", str(10**11), "--B", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "at least a 100,000,000,036-bit number of coordinates" in err
    assert peak < 2**20


def test_bound_refuses_past_q_digit_limit_exit_2(capsys, monkeypatch):
    # q = 2*max(U) + 1 would have about 312,000 digits, and printing it is quadratic
    def no_call(*args):
        raise AssertionError("counted past the q-digit limit")

    monkeypatch.setattr(construct, "max_U", no_call)
    monkeypatch.setattr(exactcount, "_count", no_call)
    code, out, err = run(capsys, "bound", "--m", "300000", "--L", "5", "--B", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(construct.MAX_Q_DIGITS) in err


def test_bound_cap_applies_only_to_dump_set(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(wcount, "ENUM_CAP", 10)
    argv = ("bound", "--m", "9", "--L", "20", "--B", "3")
    code, record = run_json(capsys, *argv)
    assert code == 0
    assert record["parameters"] == {"m": 9, "L": 20, "B": 3}
    assert record["results"]["set_size"] > 10
    code, out, err = run(capsys, *argv, "--dump-set", str(tmp_path / "u.txt"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "cap" in err
    assert not (tmp_path / "u.txt").exists()


def test_bound_dump_set_cross_check_exit_1(capsys, tmp_path, monkeypatch):
    # a count that disagrees with the enumerated set is a verification failure
    monkeypatch.setattr(construct, "max_U", lambda p: 5)
    path = tmp_path / "u.txt"
    code, out, err = run(
        capsys, "bound", "--m", "2", "--L", "2", "--B", "1", "--dump-set", str(path)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "q = 11" in err and "q = 9" in err
    assert not path.exists()


def test_count_past_int_digit_limit(capsys, monkeypatch):
    monkeypatch.setattr(wcount, "count_W", lambda p: CountValue.of(10**5000))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        code, out, err = run(capsys, "count", "--m", "1", "--L", "1", "--B", "1")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert code == 0, err
    record = json.loads(out, parse_int=str)
    assert record["results"]["count"] == "1" + "0" * 5000


def _fresh(script: str) -> str:
    """stdout of `script` in a fresh interpreter with src/ on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True,
    )
    return done.stdout


def test_import_cli_loads_no_dataclasses_or_inspect():
    # against what a bare interpreter has loaded already
    added = _fresh(
        "import sys; before = set(sys.modules); import sumdiff.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    ).split()
    assert "sumdiff.cli" in added
    assert "dataclasses" not in added and "inspect" not in added


def test_cold_commands_load_no_argparse_gettext_locale_or_future():
    loaded = _fresh(
        "import io, sys; from contextlib import redirect_stderr, redirect_stdout; from sumdiff.cli import main\n"
        "for argv in (['bound', '--m', '3', '--L', '4', '--B', '2'], ['count', '--m', '3', '--L', '2', '--B', '5'],\n"
        "             ['verify', '--max-m', '2'], ['table1', '--b-range', '5..5', '--eps-list', '1e-4']):\n"
        "    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()): assert main(argv) == 0\n"
        "print(*(m for m in ('argparse', 'gettext', 'locale', '__future__') if m in sys.modules))"
    ).split()
    assert loaded == []


def test_count_loads_no_optimize_or_construct():
    loaded = _fresh(
        "import io, sys; from contextlib import redirect_stdout; from sumdiff.cli import main; "
        "out = io.StringIO()\n"
        "with redirect_stdout(out): code = main(['count', '--m', '3', '--L', '2', '--B', '5'])\n"
        "print(code, *(f'sumdiff.{m}' in sys.modules for m in ('optimize', 'construct', 'ratefn')))"
    ).split()
    assert loaded == ["0", "False", "False", "False"]


def test_public_name_loads_only_its_submodule():
    loaded = _fresh(
        "import sys; from sumdiff import log_count_rate; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('sumdiff.'))))"
    ).split()
    # wcount and the exact count it imports; no cli, construct, optimize or ratefn
    assert loaded == ["sumdiff.exactcount", "sumdiff.wcount"]


def test_every_public_and_submodule_name_resolves():
    for name in sumdiff.__all__:
        assert getattr(sumdiff, name) is not None
    for name in ("cli", "construct", "optimize", "ratefn", "wcount"):
        assert getattr(sumdiff, name).__name__ == f"sumdiff.{name}"
    assert sumdiff.log_count_rate is wcount.log_count_rate
    with pytest.raises(AttributeError):
        sumdiff.no_such_name


def test_no_public_callable_takes_a_cap():
    # the enumeration cap is the one constant wcount.ENUM_CAP
    for name in sumdiff.__all__:
        obj = getattr(sumdiff, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert "cap" not in inspect.signature(obj).parameters, name


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "--m", "2", "--L", "1", "--B", "1"), ("bound", "--m", "2", "--L", "1", "--B", "1"), ("verify",)],
    ids=lambda argv: argv[0],
)
def test_cap_flag_is_unrecognized_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cap", "10"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized argument: --cap" in err


def test_import_cli_leaves_numpy_unloaded():
    script = (
        "import sys, sumdiff.cli; print('numpy' in sys.modules); "
        # None in sys.modules makes any later `import numpy` raise ImportError
        "sys.modules['numpy'] = None; import sumdiff; print(sumdiff.log_count_rate(3000, 1.0, 3))"
    )
    loaded, rate = _fresh(script).split()
    assert loaded == "False"
    assert math.isfinite(float(rate))
