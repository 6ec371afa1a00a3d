import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sumdiff
from sumdiff import construct, optimize, ratefn, wcount
from sumdiff.cli import main
from sumdiff.ratefn import MAX_B, RateResult
from sumdiff.wcount import CountValue

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
    monkeypatch.setattr(construct, "encode_g", lambda x, B: sum(c * (2 * B) ** k for k, c in enumerate(x)))
    code, out, _ = run(capsys, "verify", "--max-m", "2", "--max-L", "2", "--max-B", "1")
    assert code == 1
    assert '"all_pass": false' in out


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
        ("table1", "--b-range", "5..5", "--eps-list", "1e-4", "0.5"),
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
    [("rate", "--c", "1", "--B", str(MAX_B + 1)),
     ("optimize", "--B", str(MAX_B // 2 + 1), "--eps", "1e-4")],
    ids=lambda argv: " ".join(argv),
)
def test_B_past_rate_limit_exit_2(capsys, monkeypatch, argv):
    # the limit is checked before any solve: a solve step sums B + 1 terms
    def no_solve(*args):
        raise AssertionError("rate solve started past the limit")

    monkeypatch.setattr(ratefn, "_rate_value", no_solve)
    monkeypatch.setattr(optimize, "_rate_value", no_solve)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(MAX_B) in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--m", "3"])
    assert exc.value.code == 2


def test_invalid_value_exit_2(capsys):
    code, out, err = run(capsys, "count", "--m", "-3", "--L", "2", "--B", "5")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_cap_exceeded_exit_2(capsys):
    code, _, err = run(capsys, "enumerate", "--m", "9", "--L", "20", "--B", "3", "--cap", "10")
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
    def no_count(p):
        raise AssertionError("diff_count called past the limit")

    monkeypatch.setattr(construct, "diff_count", no_count)
    terms = construct.MAX_CONVOLUTION_TERMS + 1
    code, out, err = run(capsys, "bound", "--m", str(terms), "--L", str(terms), "--B", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(terms) in err and str(construct.MAX_CONVOLUTION_TERMS) in err


def test_bound_refuses_past_q_digit_limit_exit_2(capsys, monkeypatch):
    # q = 2*max(U) + 1 would have about 312,000 digits, and printing it is quadratic
    def no_call(p):
        raise AssertionError("counted past the q-digit limit")

    monkeypatch.setattr(construct, "max_U", no_call)
    monkeypatch.setattr(construct, "diff_count", no_call)
    code, out, err = run(capsys, "bound", "--m", "300000", "--L", "5", "--B", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(construct.MAX_Q_DIGITS) in err


def test_bound_cap_applies_only_to_dump_set(capsys, tmp_path):
    argv = ("bound", "--m", "9", "--L", "20", "--B", "3", "--cap", "10")
    code, record = run_json(capsys, *argv)
    assert code == 0
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
    assert loaded == ["sumdiff.wcount"]


def test_every_public_and_submodule_name_resolves():
    for name in sumdiff.__all__:
        assert getattr(sumdiff, name) is not None
    for name in ("cli", "construct", "optimize", "ratefn", "wcount"):
        assert getattr(sumdiff, name).__name__ == f"sumdiff.{name}"
    assert sumdiff.log_count_rate is wcount.log_count_rate
    with pytest.raises(AttributeError):
        sumdiff.no_such_name


def test_import_cli_leaves_numpy_unloaded():
    script = (
        "import sys, sumdiff.cli; print('numpy' in sys.modules); "
        # None in sys.modules makes any later `import numpy` raise ImportError
        "sys.modules['numpy'] = None; import sumdiff; print(sumdiff.log_count_rate(3000, 1.0, 3))"
    )
    loaded, rate = _fresh(script).split()
    assert loaded == "False"
    assert math.isfinite(float(rate))
