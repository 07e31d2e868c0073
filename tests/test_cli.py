import contextlib
import csv
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lagfrac.cli import _write_sections, main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = Path(path).read_text(encoding="ascii").splitlines()
    return [line.split(",") for line in lines]


def test_example1_restricted_run(workdir):
    rc = main(["example1", "--theta", "2", "--beta", "6", "--N", "10,20",
               "--order", "0.5,1.5", "--out", "t1.csv"])
    assert rc == 0
    rows = read_rows("t1.csv")
    assert rows[0] == ["theta", "beta", "N", "order", "max_abs_error"]
    assert len(rows) == 5
    # spectral accuracy at N=20
    by_key = {(r[2], r[3]): float(r[4]) for r in rows[1:]}
    assert by_key[("20", "0.5")] <= 1e-10
    assert by_key[("20", "1.5")] <= 1e-8
    assert by_key[("10", "0.5")] > by_key[("20", "0.5")]


def test_example1_rerun_is_byte_identical(workdir):
    args = ["example1", "--theta", "1", "--beta", "3", "--N", "10",
            "--order", "0.8", "--out", "a.csv"]
    assert main(args) == 0
    first = Path("a.csv").read_bytes()
    assert main(args) == 0
    assert Path("a.csv").read_bytes() == first
    assert b"\r" not in first


def test_example2_writes_pointwise_files(workdir):
    rc = main(["example2", "--theta", "3", "--beta", "6", "--N", "5,10",
               "--order", "3/2", "--out", "t2.csv"])
    assert rc == 0
    rows = read_rows("t2.csv")
    assert rows[0][-1] == "pointwise_file"
    assert len(rows) == 3
    pointwise = Path(rows[1][-1])
    assert pointwise.exists()
    pw = read_rows(pointwise)
    assert pw[0] == ["x", "abs_error"]
    assert len(pw) == 1002
    assert float(pw[1][0]) == 0.0
    assert float(pw[-1][0]) == 1.0
    # errors shrink from N=5 to N=10
    assert float(rows[2][4]) < float(rows[1][4])


def test_example3_defaults_reach_machine_precision(workdir):
    rc = main(["example3", "--out", "t3.csv"])
    assert rc == 0
    rows = read_rows("t3.csv")
    assert len(rows) == 7
    for row in rows[1:]:
        assert float(row[4]) <= 1e-12


def test_solve_config_manufactured(workdir):
    cfg = write_config(Path("basset.json"), {
        "mode": "solve", "theta": 2, "beta": 4, "N": 10, "order": "0.5",
        "a": "1", "b": "1", "c": "1",
        "f": "2*x + gamma(3)/gamma(2.5)*x^1.5 + x^2 + 1",
        "exact": "x^2 + 1", "m": 1, "u0": 1, "length": 1, "grid": 101,
        "out": "basset.csv"})
    assert main(["solve", "--config", cfg]) == 0
    rows = read_rows("basset.csv")
    assert rows[0] == ["x", "u"]
    # second section holds the error report
    report_at = next(i for i, r in enumerate(rows) if r[0] == "N")
    assert rows[report_at] == ["N", "theta", "beta", "order", "max_abs_error",
                               "grid_size", "domain_length"]
    report = rows[report_at + 1]
    assert report[0] == "10"
    assert float(report[4]) <= 1e-10
    # grid rows: 101 samples between the two headers
    assert report_at == 102
    first = Path("basset.csv").read_bytes()
    assert main(["solve", "--config", cfg]) == 0
    assert Path("basset.csv").read_bytes() == first


def test_solve_reproduces_example2_cell(workdir):
    assert main(["example2", "--theta", "3", "--beta", "6", "--N", "20",
                 "--order", "3/2", "--out", "table.csv"]) == 0
    cell = read_rows("table.csv")[1][4]
    cfg = write_config(Path("osc.json"), {
        "mode": "solve", "theta": 3, "beta": 6, "N": 20, "order": "3/2",
        "a": "1", "b": "1", "c": "1", "f": "builtin:caputo_sin",
        "exact": "sin(x)", "m": 2, "u0": 0, "v0": 1, "length": 1,
        "grid": 1001, "out": "osc.csv"})
    assert main(["solve", "--config", cfg]) == 0
    rows = read_rows("osc.csv")
    report = rows[next(i for i, r in enumerate(rows) if r[0] == "N") + 1]
    assert report[4] == cell


def test_missing_v0_is_config_error(workdir, capsys):
    cfg = write_config(Path("bad.json"), {
        "mode": "solve", "theta": 3, "beta": 6, "N": 10, "order": "3/2",
        "a": "1", "b": "1", "c": "1", "f": "builtin:caputo_sin",
        "m": 2, "u0": 0, "length": 1, "out": "x.csv"})
    assert main(["solve", "--config", cfg]) == 1
    assert "v0" in capsys.readouterr().err


def test_singular_problem_is_numerical_error(workdir, capsys):
    cfg = write_config(Path("sing.json"), {
        "mode": "solve", "theta": 1, "beta": 3, "N": 8, "order": "0.5",
        "a": "0", "b": "0", "c": "0", "f": "0", "u0": 0, "length": 1,
        "out": "x.csv"})
    assert main(["solve", "--config", cfg]) == 2
    assert "rcond" in capsys.readouterr().err


@pytest.mark.parametrize("mode,keys", [
    ("solve", {"f": "exp(1000*x)"}),
    ("solve", {"f": "1", "exact": "exp(1000*x)"}),
    ("derivative", {"u": "x", "exact": "exp(1000*x)"}),
])
def test_non_finite_sampled_value_is_numerical_error(workdir, capsys, mode, keys):
    # exp(1000*x) overflows from x near 0.71, inside the domain and the grid
    solve_keys = {"a": "1", "b": "1", "c": "1", "u0": 0} if mode == "solve" else {}
    cfg = write_config(Path("inf.json"), {
        "mode": mode, "theta": 1, "beta": 3, "N": 8, "order": "0.5", "length": 1,
        "grid": 11, "out": "x.csv", **solve_keys, **keys})
    assert main(["solve", "--config", cfg]) == 2
    assert "non-finite value inf" in capsys.readouterr().err


def test_unknown_config_key(workdir, capsys):
    cfg = write_config(Path("odd.json"), {
        "mode": "solve", "theta": 1, "beta": 3, "N": 8, "order": "0.5",
        "a": "1", "b": "1", "c": "1", "f": "1", "u0": 0, "length": 1,
        "typo_key": 1})
    assert main(["solve", "--config", cfg]) == 1
    assert "typo_key" in capsys.readouterr().err


def test_invalid_order_expression(workdir, capsys):
    rc = main(["example1", "--theta", "1", "--beta", "3", "--N", "10",
               "--order", "0.5 +"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_example2_rejects_first_window_order(workdir):
    rc = main(["example2", "--theta", "3", "--beta", "6", "--N", "5",
               "--order", "0.5"])
    assert rc == 1


def test_order_touching_lower_integer_at_origin(workdir, capsys):
    # rho(0) = n - 1 is harmless, since every ladder entry carries x^(n - rho)
    args = ["example1", "--theta", "1", "--beta", "6", "--N", "20", "--out", "t.csv"]
    assert main(args + ["--order", "1+0.5*abs(sin(x))"]) == 0
    assert float(read_rows("t.csv")[1][4]) <= 1e-10
    # so is rho(0) = n - 1 up to rounding: 1.4 - 0.4 is 0.9999999999999999
    assert main(["example1", "--theta", "2", "--beta", "6", "--N", "10", "--order",
                 "1.4-0.4*cos(x)", "--grid", "11", "--out", "r.csv"]) == 0
    assert float(read_rows("r.csv")[1][4]) <= 1e-4
    # rho(0) = n is not
    assert main(args + ["--order", "2-0.5*abs(sin(x))"]) == 2
    assert "order value 2.0 at x=0.0" in capsys.readouterr().err


def test_norm_past_double_range_is_numerical_error(workdir, capsys):
    assert main(["example1", "--theta", "400", "--beta", "0.1", "--N", "5",
                 "--order", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: quadrature norms for N=5 ") and "ladder" not in err


def test_unknown_flag_is_config_error(workdir):
    assert main(["example1", "--nope", "1"]) == 1


def test_no_subcommand_is_config_error(workdir, capsys):
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_derivative_mode_with_exact(workdir):
    cfg = write_config(Path("deriv.json"), {
        "mode": "derivative", "theta": 1, "beta": 3, "N": 8, "order": "0.5",
        "u": "x^3 + 2*x - 5",
        "exact": "gamma(4)/gamma(3.5)*x^2.5 + 2/gamma(1.5)*x^0.5",
        "length": 2, "grid": 201, "out": "deriv.csv"})
    assert main(["solve", "--config", cfg]) == 0
    rows = read_rows("deriv.csv")
    assert rows[0] == ["x", "value"]
    report = rows[next(i for i, r in enumerate(rows) if r[0] == "N") + 1]
    assert float(report[4]) <= 1e-9


def test_integral_mode_with_exact(workdir):
    cfg = write_config(Path("integ.json"), {
        "mode": "integral", "theta": 1, "beta": 3, "N": 10,
        "order": "(9 + sin(x))/10", "u": "1",
        "exact": "x^((9 + sin(x))/10)/gamma((9 + sin(x))/10 + 1)",
        "length": 2, "grid": 201, "out": "integ.csv"})
    assert main(["solve", "--config", cfg]) == 0
    rows = read_rows("integ.csv")
    report = rows[next(i for i, r in enumerate(rows) if r[0] == "N") + 1]
    assert float(report[4]) <= 1e-9


def test_solve_with_degree_list_writes_per_degree_files(workdir):
    cfg = write_config(Path("multi.json"), {
        "mode": "solve", "theta": 2, "beta": 4, "N": [6, 8], "order": "0.5",
        "a": "1", "b": "1", "c": "1",
        "f": "2*x + gamma(3)/gamma(2.5)*x^1.5 + x^2 + 1",
        "exact": "x^2 + 1", "m": 1, "u0": 1, "length": 1, "grid": 51,
        "out": "run.csv"})
    assert main(["solve", "--config", cfg]) == 0
    assert Path("run_N6.csv").exists()
    assert Path("run_N8.csv").exists()
    assert not Path("run.csv").exists()


def test_example_config_file_supplies_defaults(workdir):
    cfg = write_config(Path("ex3.json"), {"N": "3", "order": "1.5",
                                          "out": "from_config.csv"})
    assert main(["example3", "--config", cfg]) == 0
    rows = read_rows("from_config.csv")
    assert len(rows) == 2
    assert rows[1][2] == "3"
    # flags win over config values
    assert main(["example3", "--config", cfg, "--N", "4"]) == 0
    assert read_rows("from_config.csv")[1][2] == "4"


def test_u_key_rejected_in_solve_mode(workdir, capsys):
    cfg = write_config(Path("mix.json"), {
        "mode": "solve", "theta": 1, "beta": 3, "N": 6, "order": "0.5",
        "a": "1", "b": "1", "c": "1", "f": "1", "u": "x", "u0": 0,
        "length": 1})
    assert main(["solve", "--config", cfg]) == 1
    assert "'u'" in capsys.readouterr().err


def test_numeric_sections_match_csv_writer_bytes(tmp_path):
    tricky = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                       -1.7976931348623157e308, 1.0 / 3.0, 0.1, -2.5, 1e16, 123456789.0,
                       math.pi, np.inf, -np.inf, np.nan])
    random_bits = np.random.default_rng(7).integers(0, 2**64, size=2000, dtype=np.uint64,
                                                     endpoint=False).view(np.float64)
    first = np.concatenate([tricky, random_bits])
    second = first[::-1].copy()
    third = np.linspace(-1.0, 1.0, first.size)
    text_rows = [["N", "order"], ["10", "1 + 0.5*abs(sin(x))"], ["20", "a,b"]]
    _write_sections(tmp_path / "fast.csv",
                    [(["x", "y"], (first, second)), (["h"], text_rows),
                     (["a", "b", "c"], (first, second, third)), (["z"], (third,))])
    fmt = lambda v: format(float(v), ".17g")
    with open(tmp_path / "slow.csv", "w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "y"])
        writer.writerows([fmt(a), fmt(b)] for a, b in zip(first, second))
        writer.writerow(["h"])
        writer.writerows(text_rows)
        writer.writerow(["a", "b", "c"])
        writer.writerows([fmt(a), fmt(b), fmt(c)] for a, b, c in zip(first, second, third))
        writer.writerow(["z"])
        writer.writerows([fmt(c)] for c in third)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def test_repeated_main_matches_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; no call may see another's flags
    solve_config = {
        "mode": "solve", "theta": 2, "beta": 4, "N": 8, "order": "0.5",
        "a": "1", "b": "1", "c": "1",
        "f": "2*x + gamma(3)/gamma(2.5)*x^1.5 + x^2 + 1",
        "exact": "x^2 + 1", "m": 1, "u0": 1, "length": 1, "grid": 101,
        "out": "solve.csv"}
    runs = [
        ["example1", "--theta", "2", "--beta", "6", "--N", "10,20", "--order", "0.5,1.5",
         "--grid", "201", "--out", "first.csv"],
        ["example1", "--bogus", "1"],
        ["example3", "--N", "3", "--out", "ex3.csv"],
        ["solve", "--config", "solve.json"],
        ["example1", "--theta", "1", "--beta", "3", "--N", "10", "--out", "again.csv"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    inproc, fresh = tmp_path / "inproc", tmp_path / "fresh"
    for directory in (inproc, fresh):
        directory.mkdir()
        write_config(directory / "solve.json", solve_config)
    cwd = os.getcwd()
    try:
        os.chdir(inproc)
        results = []
        for argv in runs:
            code = main(argv)
            results.append((code, capsys.readouterr().out))
    finally:
        os.chdir(cwd)
    for argv, (code, out) in zip(runs, results):
        proc = subprocess.run([sys.executable, "-m", "lagfrac.cli", *argv], cwd=fresh,
                              env=env, capture_output=True, text=True, timeout=120)
        assert (code, out) == (proc.returncode, proc.stdout), argv
    assert [code for code, _ in results] == [0, 1, 0, 0, 0]
    names = sorted(path.name for path in inproc.iterdir())
    assert names == sorted(path.name for path in fresh.iterdir())
    assert len(names) == 5
    for name in names:
        assert (inproc / name).read_bytes() == (fresh / name).read_bytes(), name


def test_quadrature_overflow_is_numerical_error(workdir, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["example1", "--theta", "1", "--beta", "6", "--order", "0.5",
                   "--N", "200"])
    assert rc == 2
    assert "N=200" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config string", "config number",
                                    "config integer"])
def test_infinite_degree_is_config_error(workdir, capsys, source):
    if source == "flag":
        rc = main(["example1", "--N", "inf", "--theta", "1", "--beta", "3",
                   "--order", "0.5"])
    else:
        # JSON Infinity, and an integer beyond double range
        degree = {"config string": "inf", "config number": math.inf,
                  "config integer": 10 ** 400}[source]
        cfg = write_config(Path("inf_n.json"), {
            "mode": "solve", "theta": 1, "beta": 3, "N": degree, "order": "0.5",
            "a": "1", "b": "1", "c": "1", "f": "1", "u0": 0, "length": 1})
        rc = main(["solve", "--config", cfg])
    assert rc == 1
    assert "error: N: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", [
    ("theta", True, "theta: expected a number, got True"),
    ("order", 10 ** 400, "order: must be finite"),
], ids=["boolean theta", "huge integer order"])
def test_config_value_outside_doubles_is_config_error(workdir, capsys, key, value, message):
    # a JSON boolean is not a number, and a huge JSON integer is as infinite as Infinity
    cfg = write_config(Path("bad.json"), {
        "mode": "derivative", "theta": 1, "beta": 3, "N": 8, "order": "0.5",
        "u": "exp(x)", "out": "bad.csv", key: value})
    assert main(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not Path("bad.csv").exists()


def run_python(*args, cwd=None):
    """A fresh interpreter that imports lagfrac from this checkout, run to the end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("module", ["mpmath", "scipy", "dataclasses", "logging"])
def test_import_loads_no_module_a_run_does_not_need(module):
    # mpmath and scipy are test-only dependencies; the records are plain classes, and
    # logging loads only with -v or when the embedding program imports it
    proc = run_python("-c", f"import sys, lagfrac, lagfrac.cli; print({module!r} in sys.modules)")
    assert proc.stdout.strip() == "False"


def test_caputo_of_sin_step_cap_is_numerical_error(workdir, capsys, monkeypatch):
    import lagfrac.fractional as fractional
    monkeypatch.setattr(fractional, "_MAX_STEPS", 3)
    rc = main(["example2", "--theta", "3", "--beta", "6", "--N", "5", "--order", "3/2"])
    assert rc == 2
    assert "no convergence" in capsys.readouterr().err


def test_exp_overflow_at_gauss_nodes_is_numerical_error_without_warning(workdir, capsys):
    # at beta = 0.3, N = 80 the largest Gauss node lies past x ~ 709.78
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["example1", "--theta", "0", "--beta", "0.3", "--N", "80",
                   "--order", "0.5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: function 'u' returned non-finite")


@contextlib.contextmanager
def bare_root_logger():
    """The root logger with no handlers at WARNING, restored afterwards.

    Entered in the test body: pytest adds its capture handlers to the root
    logger at the start of each test phase, after fixtures are set up.
    """
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    for handler in handlers:
        root.removeHandler(handler)
    root.setLevel(logging.WARNING)
    try:
        yield root
    finally:
        for handler in root.handlers[:]:
            root.removeHandler(handler)
        for handler in handlers:
            root.addHandler(handler)
        root.setLevel(level)


def small_solve_config():
    return write_config(Path("small.json"), {
        "mode": "solve", "theta": 1, "beta": 3, "N": 8, "order": "0.5",
        "a": "1", "b": "1", "c": "1", "f": "1", "u0": 0, "m": 1, "out": "small.csv"})


def test_main_configures_no_logging_by_default(workdir, capsys):
    cfg = small_solve_config()
    package = logging.getLogger("lagfrac")
    with bare_root_logger() as root:
        for _ in range(2):
            assert main(["solve", "--config", cfg]) == 0
            assert root.handlers == [] and root.level == logging.WARNING
            assert package.handlers == [] and package.level == logging.NOTSET
            assert "INFO" not in capsys.readouterr().err


def test_verbose_logs_the_rcond_line(workdir, capsys):
    cfg = small_solve_config()
    with bare_root_logger() as root:
        for _ in range(3):
            assert main(["solve", "--config", cfg, "-v"]) == 0
            lines = capsys.readouterr().err.splitlines()
            # one line per call: handlers do not pile up over repeated calls
            assert len(lines) == 1
            assert lines[0].startswith("INFO lagfrac.solver: solved collocation system N=8, rcond=")
        assert root.handlers == [] and logging.getLogger("lagfrac").handlers == []


RCOND_LINE = "solved collocation system N=8, rcond="


def test_solve_logs_once_logging_is_configured_in_a_fresh_interpreter():
    # pytest has loaded logging in this process; a fresh one starts without it
    script = "; ".join([
        "import logging, sys",
        "from lagfrac import IvpSpec, LaguerreParams, OrderFunction, solve",
        "one = lambda x: 1.0",
        "spec = IvpSpec(LaguerreParams(1, 3), 8, OrderFunction.constant(0.5), 1, "
        "one, one, one, one, 0.0)",
        "solve(spec)",
        "print('configured', file=sys.stderr)",
        "logging.basicConfig(level=logging.INFO)",
        "solve(spec)",
    ])
    before, after = run_python("-c", script).stderr.split("configured\n")
    assert before == ""
    lines = after.splitlines()
    assert len(lines) == 1 and RCOND_LINE in lines[0]


def test_verbose_logs_the_rcond_line_in_a_fresh_interpreter(workdir):
    cfg = small_solve_config()
    quiet = run_python("-m", "lagfrac.cli", "solve", "--config", cfg, cwd=workdir)
    assert quiet.stderr == ""
    lines = run_python("-m", "lagfrac.cli", "solve", "--config", cfg, "-v",
                       cwd=workdir).stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"INFO lagfrac.solver: {RCOND_LINE}")


@pytest.mark.filterwarnings("error")
def test_solve_past_ladder_range_is_numerical_error(workdir, capsys):
    cfg = write_config(Path("big.json"), {
        "mode": "solve", "theta": 1, "beta": 3, "N": 380, "order": "0.5",
        "a": "1", "b": "1", "c": "1", "f": "1", "u0": 0, "m": 1, "out": "big.csv"})
    assert main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: quadrature nodes for N=380 are not certified")
    assert not Path("big.csv").exists()


def test_zero_m_reaches_the_problem_check(workdir, capsys):
    cfg = write_config(Path("m0.json"), {
        "mode": "solve", "theta": 1, "beta": 3, "N": 8, "order": "0.5",
        "a": "1", "b": "1", "c": "1", "f": "1", "u0": 0, "m": 0, "out": "m0.csv"})
    assert main(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: m must be 1 or 2, got 0\n"
    assert not Path("m0.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode,keys,message", [
    ("solve", {"length": 1e80}, "solution returned non-finite value -inf at x=1e+79"),
    ("solve", {"length": 1e80, "exact": "x"},
     "solution returned non-finite value -inf at x=1e+79"),
    ("derivative", {"length": 1e300, "u": "x", "exact": "x"},
     "fractional ladder leaves double range at x=1e+299"),
], ids=["solve", "solve with exact", "derivative with exact"])
def test_values_beyond_double_range_are_numerical_errors(workdir, capsys, mode, keys, message):
    # the solution and the operator values overflow far out on the grid
    solve_keys = {"a": 1, "b": 1, "c": 1, "f": 1, "u0": 0} if mode == "solve" else {}
    cfg = write_config(Path("far.json"), {
        "mode": mode, "theta": 0, "beta": 1, "N": 4, "order": "0.5", "grid": 11,
        "out": "far.csv", **solve_keys, **keys})
    assert main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("far.csv").exists()


@pytest.mark.parametrize("value", [True, 5, ["a.csv"]])
@pytest.mark.parametrize("command", ["solve", "example3"])
def test_non_string_out_is_config_error(workdir, capsys, command, value):
    if command == "solve":
        cfg = write_config(Path("out.json"), {
            "mode": "derivative", "theta": 1, "beta": 3, "N": 8, "order": "0.5",
            "u": "x", "out": value})
    else:
        cfg = write_config(Path("out.json"), {"N": 3, "out": value})
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: out: expected a path string, got {value!r}\n"
    assert sorted(os.listdir(".")) == ["out.json"]


@pytest.mark.parametrize("command,where", [("solve", "flag"), ("solve", "config"),
                                           ("example3", "flag"), ("example3", "config")])
def test_empty_out_is_config_error(workdir, capsys, monkeypatch, command, where):
    # Path("") is the working directory: the run must stop before its first cell
    def no_work(*_args):
        raise AssertionError("work started")
    monkeypatch.setattr("lagfrac.cli.gauss_rule", no_work)
    monkeypatch.setattr("lagfrac.cli.solve", no_work)
    payload = {"out": "kept.csv" if where == "flag" else ""}
    if command == "solve":
        payload.update(mode="derivative", theta=1, beta=3, N=8, order="0.5", u="x")
    cfg = write_config(Path("out.json"), payload)
    argv = [command, "--config", cfg] + (["--out", ""] if where == "flag" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: out: expected a path string, got ''\n"
    assert sorted(os.listdir(".")) == ["out.json"]


def test_integer_with_too_many_digits_is_config_error(workdir, capsys):
    # int() refuses decimal literals of more than 4300 digits
    Path("huge.json").write_text('{"mode": "derivative", "N": 1' + "0" * 5000 + "}",
                                 encoding="utf-8")
    assert main(["solve", "--config", "huge.json"]) == 1
    assert capsys.readouterr().err == (
        "error: config file huge.json holds an integer with too many digits\n")
