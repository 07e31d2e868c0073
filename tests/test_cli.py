import contextlib
import csv
import io
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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lagfrac import gauss_rule
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


def test_example1_takes_orders_past_two(workdir):
    # an order in (2, 3) is one more unit window for the derivative formulas
    assert main(["example1", "--order", "2.5", "--N", "20,40", "--out", "t.csv"]) == 0
    by_key = {(r[0], r[2]): float(r[4]) for r in read_rows("t.csv")[1:]}
    assert len(by_key) == 4
    assert by_key[("2", "20")] <= 1e-8 and by_key[("1", "40")] <= 1e-6


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


@pytest.mark.parametrize("order", ["0.5", "0.5+0.3*sin(x)"])
def test_oscillator_examples_take_first_window_orders(workdir, order):
    # u(0) and u'(0) are the max(m, n) = 2 initial values an order in (0, 1) needs
    assert main(["example2", "--theta", "3", "--beta", "6", "--N", "20",
                 "--order", order, "--out", "t2.csv"]) == 0
    assert main(["example3", "--N", "3,4,5", "--order", order, "--out", "t3.csv"]) == 0
    rows = read_rows("t2.csv")[1:] + read_rows("t3.csv")[1:]
    assert len(rows) == 4
    for row in rows:
        assert row[3] == order and float(row[4]) <= 1e-12


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


def test_solve_config_with_m_zero(workdir):
    # m = 0 makes a a second u term: 2u + D^(1/2) u = f, with one initial value from n = 1
    cfg = write_config(Path("zero.json"), {
        "mode": "solve", "theta": 2, "beta": 4, "N": 8, "order": "0.5",
        "a": "1", "b": "1", "c": "1", "f": "gamma(3)/gamma(2.5)*x^1.5 + 2*(x^2 + 1)",
        "exact": "x^2 + 1", "m": 0, "u0": 1, "length": 1, "grid": 101, "out": "zero.csv"})
    assert main(["solve", "--config", cfg]) == 0
    rows = read_rows("zero.csv")
    report = rows[next(i for i, r in enumerate(rows) if r[0] == "N") + 1]
    assert float(report[4]) <= 1e-13


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


@pytest.mark.filterwarnings("error")
def test_overflowing_collocation_system_is_numerical_error(workdir, capsys):
    cfg = write_config(Path("huge.json"), {
        "mode": "solve", "theta": 1, "beta": 3, "N": 20, "order": "0.5",
        "a": "1e300", "b": "1", "c": "1", "f": "1", "u0": 0, "out": "huge.csv"})
    assert main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        "error: collocation system for N=20 leaves double range in its row at x=")
    assert not Path("huge.csv").exists()


@pytest.mark.filterwarnings("error")
def test_non_finite_coefficients_are_numerical_error(workdir, capsys):
    cfg = write_config(Path("big.json"), {
        "mode": "solve", "theta": 0, "beta": 1, "N": 8, "order": "0.5",
        "a": "1", "b": "1", "c": "1", "f": "1e308", "u0": 0, "out": "big.csv"})
    assert main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: linear solve produced non-finite coefficients for N=8\n")
    assert not Path("big.csv").exists()


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


def test_order_leaving_its_window_past_length_is_numerical_error(workdir, capsys, monkeypatch):
    # the window comes from rho(length), but the collocation nodes reach about
    # 4N/beta: here x = 13.6, past the x = 2.67 where 1.2 + 0.3x reaches 2. Every
    # cell's IvpSpec checks its nodes before the first cell runs, so a sweep
    # whose N = 2 cell would pass writes nothing either
    def no_work(*_args):
        raise AssertionError("work started")
    monkeypatch.setattr("lagfrac.cli.solve", no_work)
    past = {"order": "1.2+0.3*x", "length": 1, "theta": 2, "beta": 4, "N": 20, "m": 2,
            "a": "1", "b": "1", "c": "1", "f": "1", "u0": 0, "v0": 0, "out": "past.csv"}
    leaving = ("error: order value 2.0117403556208333 at x=2.7058011854027777 "
               "lies outside (1, 2) (term 1, N=20)\n")
    sweep = ["example2", "--theta", "2", "--beta", "4", "--N", "2,20", "--order", "1.2+0.3*x",
             "--grid", "11"]
    # an order that crosses 1 inside (0, length] takes the window of rho(length), (1, 2)
    crossing = dict(past, order="0.5+x", N=8)
    for argv, config, message in [
            (None, past, leaving), (None, dict(past, N=[2, 20]), leaving), (sweep, None, leaving),
            (None, crossing, "error: order value 0.6579634430712837 at x=0.15796344307128374 "
                             "lies outside (1, 2) (term 1, N=8)\n")]:
        if config is not None:
            argv = ["solve", "--config", write_config(Path("past.json"), config)]
        assert main(argv) == 2
        assert capsys.readouterr().err == message
        assert os.listdir(".") == ([] if config is None else ["past.json"])
        for path in Path(".").iterdir():
            path.unlink()


def test_norm_past_double_range_is_numerical_error(workdir, capsys):
    assert main(["example1", "--theta", "400", "--beta", "0.1", "--N", "5",
                 "--order", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: quadrature norms for N=5 ") and "ladder" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,message", [
    # the Jacobi matrix of (theta, beta) leaves double range: its one node is inf
    (["example1", "--theta", "1e300", "--beta", "1e-300", "--N", "0", "--order", "0.5",
      "--grid", "3"],
     "error: quadrature nodes for N=0 are not finite, positive and strictly increasing\n"),
    # ... or holds infs that the eigenvalue solve cannot take
    (["example1", "--theta", "1e150", "--beta", "1e-300", "--N", "5", "--order", "0.5",
      "--grid", "3"], "error: tridiagonal eigenvalue solve failed for N=5: "),
    # (-beta)^2 scales the derivative past double range
    (["example1", "--theta", "1e-300", "--beta", "1e300", "--N", "2", "--order", "1.5",
      "--grid", "3", "--length", "1e5"],
     "error: derivative returned non-finite value nan at x=0.0\n"),
    # ... and the solver's term block
    (None, "error: collocation system for N=6 leaves double range in its row "
           "at x=1.930436765603625e-161\n"),
], ids=["nodes", "eigenvalues", "derivative scale", "solver scale"])
def test_parameters_past_double_range_are_numerical_errors(workdir, capsys, argv, message):
    if argv is None:
        argv = ["solve", "--config", write_config(Path("s.json"), {
            "theta": 0, "beta": 1e160, "N": 6, "order": "1.5", "m": 2, "a": "1", "b": "1",
            "c": "1", "f": "1", "u0": 0, "v0": 0, "grid": 3, "out": "s.csv"})]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


# window ceiling n of each order, which solve configs take as m
SWEEP_ORDERS = {"0.5": 1, "1.5": 2, "2.5": 3, "1+0.5*abs(sin(x))": 2}


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mode=st.sampled_from(["solve", "derivative", "integral"]),
       theta=st.sampled_from([-0.5, 0, 1e-300, 1e150, 1e300]),
       beta=st.sampled_from([1e-300, 1e-100, 1, 1e100, 1e160, 1e300]),
       N=st.integers(0, 6), length=st.sampled_from([1e-300, 1, 1e5]),
       order=st.sampled_from(sorted(SWEEP_ORDERS)))
def test_every_config_exits_0_or_with_one_error_line(tmp_path, mode, theta, beta, N, length,
                                                     order):
    # extreme (theta, beta, length) reach every range check; a traceback, a
    # leaked numpy warning or a second stderr line fails
    n = SWEEP_ORDERS[order]
    keys = {"u": "exp(x)"} if mode != "solve" else {
        "m": n, "a": "1", "b": "1", "c": "1", "f": "1", "u0": 0, **({"v0": 0} if n > 1 else {})}
    cfg = write_config(tmp_path / "c.json", {
        "mode": mode, "theta": theta, "beta": beta, "N": N, "length": length, "order": order,
        "grid": 3, "out": str(tmp_path / "o.csv"), **keys})
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["solve", "--config", cfg])
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2)
    assert lines == [] if rc == 0 else len(lines) == 1 and lines[0].startswith("error: ")


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


def test_integral_order_may_reach_zero_at_the_origin(workdir, capsys):
    # rho(0) = 0: the value at x = 0 is the interpolant there, u(0) = 1
    cfg = write_config(Path("i.json"), {
        "mode": "integral", "theta": 0, "beta": 4, "N": 20, "order": "0.5*x",
        "u": "exp(x)", "grid": 11, "out": "i.csv"})
    assert main(["solve", "--config", cfg]) == 0
    assert capsys.readouterr() == ("integral: wrote i.csv\n", "")
    rows = read_rows("i.csv")
    assert rows[1][0] == "0" and abs(float(rows[1][1]) - 1.0) <= 1e-9


def test_solve_config_fractionally_damped_oscillator(workdir):
    # u'' + D^0.5 u + u = f (m = 2, n = 1) with u = sin: u0 and v0 are u(0) and u'(0)
    cfg = write_config(Path("damped.json"), {
        "theta": 2, "beta": 4, "N": 20, "order": "0.5", "m": 2, "a": "1", "b": "1",
        "c": "1", "f": "builtin:caputo_sin", "u0": 0, "v0": 1, "exact": "sin(x)"})
    assert main(["solve", "--config", cfg]) == 0
    rows = read_rows("solve.csv")
    report = rows[next(i for i, r in enumerate(rows) if r[0] == "N") + 1]
    assert float(report[4]) <= 1e-12


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


def test_rerun_with_fewer_rows_leaves_no_stale_tail(workdir):
    args = ["example1", "--theta", "1", "--beta", "3", "--N", "10"]
    assert main(args + ["--order", "0.2,0.5,0.8,1.2", "--out", "t.csv"]) == 0
    assert len(read_rows("t.csv")) == 5
    assert main(args + ["--order", "0.5", "--out", "t.csv"]) == 0
    assert main(args + ["--order", "0.5", "--out", "fresh.csv"]) == 0
    assert Path("t.csv").read_bytes() == Path("fresh.csv").read_bytes()
    assert len(read_rows("t.csv")) == 2


def test_read_only_output_is_config_error_and_keeps_its_bytes(workdir, capsys):
    Path("t.csv").write_bytes(b"old bytes\n")
    Path("t.csv").chmod(0o444)
    if os.access("t.csv", os.W_OK):
        pytest.skip("this user may write to read-only files")
    assert main(["example1", "--theta", "1", "--beta", "3", "--N", "10",
                 "--order", "0.5", "--out", "t.csv"]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 13] Permission denied")
    assert Path("t.csv").read_bytes() == b"old bytes\n"


def test_directory_output_is_config_error(workdir, capsys):
    Path("t.csv").mkdir()
    Path("f").write_bytes(b"old bytes\n")
    args = ["example1", "--theta", "1", "--beta", "3", "--N", "10", "--order", "0.5"]
    assert main(args + ["--out", "t.csv"]) == 1
    assert capsys.readouterr().err == "error: out: 't.csv' is a directory\n"
    assert Path("t.csv").is_dir()
    # a path through a regular file cannot be written, whoever runs the test
    assert main(args + ["--out", "f/t.csv"]) == 1
    assert capsys.readouterr().err == "error: out: 'f' is not a directory\n"
    assert Path("f").read_bytes() == b"old bytes\n"


def test_multi_degree_solve_writes_beside_a_directory_out(workdir, capsys):
    # only stem_N{n}.csv files are written, so out may name a directory
    Path("d").mkdir()
    config = write_config(Path("run.json"), dict(SOLVE_RUN, N=[4, 6], grid=11, out="d"))
    assert main(["solve", "--config", config]) == 0
    assert capsys.readouterr().out == "solve: wrote d_N4.csv\nsolve: wrote d_N6.csv\n"
    assert sorted(os.listdir(".")) == ["d", "d_N4.csv", "d_N6.csv", "run.json"]
    assert os.listdir("d") == []


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_output_to_dev_null(workdir, capsys):
    assert main(["example1", "--theta", "1", "--beta", "3", "--N", "10",
                 "--order", "0.5", "--out", "/dev/null"]) == 0
    assert capsys.readouterr().out == "example1: wrote /dev/null (1 rows)\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_output_to_dev_full_fails_at_the_write(workdir, capsys):
    # every write to /dev/full fails, whoever runs the test
    assert main(["example1", "--theta", "1", "--beta", "3", "--N", "10",
                 "--order", "0.5", "--out", "/dev/full"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert "wrote" not in captured.out


def test_unencodable_row_fails_before_the_file_is_touched(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(UnicodeEncodeError):
        _write_sections(path, [(["x", "y"], (np.arange(3.0), np.arange(3.0))),
                               (["order"], [["\u03c1"]])])
    assert path.read_bytes() == b"old bytes\n"


def test_new_output_mode_follows_the_umask(tmp_path):
    old = os.umask(0o002)
    try:
        _write_sections(tmp_path / "t.csv", [(["h"], [["1"]])])
    finally:
        os.umask(old)
    assert (tmp_path / "t.csv").stat().st_mode & 0o777 == 0o664
    assert (tmp_path / "t.csv").read_bytes() == b"h\n1\n"


@pytest.mark.filterwarnings("error")
def test_grid_error_of_finite_values_a_double_range_apart_is_inf(workdir, capsys):
    cfg = write_config(Path("far.json"), {
        "mode": "integral", "theta": 0, "beta": 1, "N": 4, "order": "0.5",
        "u": "1e308", "exact": "-1e308", "grid": 5, "out": "far.csv"})
    assert main(["solve", "--config", cfg]) == 0
    assert capsys.readouterr() == ("integral: wrote far.csv, max_abs_error=inf\n", "")
    assert read_rows("far.csv")[-1][4] == "inf"


def test_repeated_main_matches_fresh_processes(tmp_path, capsys):
    # one process serves every call; no call may see another's flags
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


@pytest.mark.parametrize("module", ["mpmath", "scipy", "dataclasses", "logging", "argparse",
                                    "json"])
def test_import_loads_no_module_a_run_does_not_need(module):
    # mpmath and scipy are test-only dependencies; the records are plain classes;
    # logging loads only with -v or when the embedding program imports it, json only
    # with the first config file, and the CLI reads its flags without argparse
    proc = run_python("-c", f"import sys, lagfrac, lagfrac.cli; print({module!r} in sys.modules)")
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["example1", "example2"])
def test_closed_form_step_cap_is_numerical_error(workdir, capsys, monkeypatch, command):
    # one step cap serves both closed forms: caputo_exp_exact and caputo_of_sin
    import lagfrac.fractional as fractional
    monkeypatch.setattr(fractional, "_MAX_STEPS", 3)
    rc = main([command, "--theta", "3", "--beta", "6", "--N", "5", "--order", "3/2"])
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
        # a sweep logs one line per degree; every degree is solved before the first write
        sweep = dict(json.loads(Path(cfg).read_text()), N=[8, 10], out="s.csv")
        assert main(["solve", "--config", write_config(Path("sweep.json"), sweep), "-v"]) == 0
        captured = capsys.readouterr()
        assert [line.split(", rcond=")[0] for line in captured.err.splitlines()] == [
            f"INFO lagfrac.solver: solved collocation system N={N}" for N in (8, 10)]
        assert captured.out == "solve: wrote s_N8.csv\nsolve: wrote s_N10.csv\n"
        assert Path("s_N8.csv").exists() and Path("s_N10.csv").exists()
        assert root.handlers == [] and logging.getLogger("lagfrac").handlers == []


RCOND_LINE = "solved collocation system N=8, rcond="


def test_solve_logs_once_logging_is_configured_in_a_fresh_interpreter():
    # pytest has loaded logging in this process; a fresh one starts without it
    script = "; ".join([
        "import logging, sys",
        "from lagfrac import IvpSpec, LaguerreParams, OrderFunction, solve",
        "one = lambda x: 1.0",
        "spec = IvpSpec(LaguerreParams(1, 3), 8, "
        "[(one, 1), (one, OrderFunction.constant(0.5)), (one, 0)], one, [0.0])",
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode,keys,message", [
    ("solve", {"length": 1e80}, "solution returned non-finite value -inf at x=1e+79"),
    ("solve", {"length": 1e80, "exact": "x"},
     "solution returned non-finite value -inf at x=1e+79"),
    ("derivative", {"length": 1e300, "u": "x", "exact": "x"},
     "fractional ladder leaves double range at x=1e+299"),
    ("derivative", {"beta": 0.1, "u": "1e308"},
     "interpolation coefficients for N=4 leave double range"),
], ids=["solve", "solve with exact", "derivative with exact", "interpolation"])
def test_values_beyond_double_range_are_numerical_errors(workdir, capsys, mode, keys, message):
    # the solution or the operator values overflow far out on the grid, or the coefficients of u
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
    # Path("") is the working directory, and "sub/" would write sub_N4.csv there:
    # an out that names no file must stop the run before its first cell
    def no_work(*_args):
        raise AssertionError("work started")
    monkeypatch.setattr("lagfrac.cli.gauss_rule", no_work)
    monkeypatch.setattr("lagfrac.cli.solve", no_work)
    for out in ("", ".", "..", "/", "sub/"):
        payload = {"out": "kept.csv" if where == "flag" else out, "N": [4, 6]}
        if command == "solve":
            payload.update(mode="derivative", theta=1, beta=3, order="0.5", u="x")
        cfg = write_config(Path("out.json"), payload)
        argv = [command, "--config", cfg] + (["--out", out] if where == "flag" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: out: expected a path string, got ''\n" if out == ""
            else f"error: out: expected a file name, got {out!r}\n")
        assert sorted(os.listdir(".")) == ["out.json"]


def test_integer_with_too_many_digits_is_config_error(workdir, capsys):
    # int() refuses decimal literals of more than 4300 digits
    Path("huge.json").write_text('{"mode": "derivative", "N": 1' + "0" * 5000 + "}",
                                 encoding="utf-8")
    assert main(["solve", "--config", "huge.json"]) == 1
    assert capsys.readouterr().err == (
        "error: config file huge.json holds an integer with too many digits\n")


DERIVATIVE_RUN = {"mode": "derivative", "theta": 1, "beta": 3, "N": 8, "order": "0.5",
                  "u": "x", "out": "x.csv"}
SOLVE_RUN = {"mode": "solve", "theta": 1, "beta": 3, "N": 8, "order": "0.5",
             "a": "1", "b": "1", "c": "1", "f": "1", "u0": 0, "out": "x.csv"}
SOLVE = ["solve", "--config", "run.json"]


@pytest.mark.parametrize("argv,config,message", [
    pytest.param(["example1", "--N", ",", "--out", "x.csv"], None,
                 "N: expected a nonempty list, got ','", id="empty list"),
    pytest.param(SOLVE, dict(SOLVE_RUN, f=True), "f: expected an expression string, got True",
                 id="non-string expression"),
    pytest.param(["example1", "--theta", "abc", "--out", "x.csv"], None,
                 "theta: expected a number, got 'abc'", id="not a number"),
    pytest.param(SOLVE, dict(DERIVATIVE_RUN, N=2.5), "N: expected an integer, got 2.5",
                 id="not an integer"),
    pytest.param(["example2", "--grid", "1", "--out", "x.csv"], None,
                 "grid must be at least 2, got 1", id="grid below 2"),
    pytest.param(["solve", "--config", "missing.json"], None,
                 "cannot read config file missing.json: "
                 "[Errno 2] No such file or directory: 'missing.json'", id="unreadable file"),
    pytest.param(SOLVE, "{", "config file run.json is not valid JSON: "
                 "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
                 id="invalid JSON"),
    pytest.param(SOLVE, "[]", "config file run.json must hold a JSON object", id="not an object"),
    pytest.param(SOLVE, dict(DERIVATIVE_RUN, mode="integral", order="0.5 - x"),
                 "order expression '0.5 - x': order function must be positive, "
                 "got -0.5 at x=1.0", id="order leaves its domain"),
    pytest.param(["example1", "--theta", "1,2", "--beta", "3", "--out", "x.csv"], None,
                 "theta list (2 values) and beta list (1 values) must pair up",
                 id="unpaired theta and beta"),
    pytest.param(SOLVE, dict(DERIVATIVE_RUN, mode="gradient"),
                 "mode must be solve, derivative, or integral, got 'gradient'", id="unknown mode"),
    pytest.param(SOLVE, {key: value for key, value in DERIVATIVE_RUN.items() if key != "N"},
                 "config key 'N' is required", id="missing required key"),
    pytest.param(SOLVE, {key: value for key, value in DERIVATIVE_RUN.items() if key != "u"},
                 "config key 'u' is required in derivative mode", id="missing mode key"),
    pytest.param(SOLVE, dict(SOLVE_RUN, f="builtin:caputo_cos"),
                 "unknown builtin forcing 'builtin:caputo_cos'; available: builtin:caputo_sin",
                 id="unknown builtin"),
    pytest.param(SOLVE, dict(SOLVE_RUN, order="0.5,0.7"),
                 "solve takes a single order expression", id="two orders in solve"),
    pytest.param(SOLVE, dict(DERIVATIVE_RUN, theta="1,2", beta="3,6"),
                 "solve takes a single (theta, beta) pair", id="two pairs in solve"),
    # every order is compiled before the first cell, not when the sweep reaches it
    # (example3 gives u(0) and u'(0), and an order in (2, 3) needs u''(0) too)
    pytest.param(["example3", "--order", "1.5,2.5", "--N", "3,4,5", "--grid", "11"], None,
                 "3 finite initial values u^(j)(0), j < 3, are needed, got [1.0, 1.0]",
                 id="example3 second order"),
    # every cell's basis and IvpSpec are built, and every degree checked, before the first cell
    pytest.param(["example2", "--theta", "0,-2", "--beta", "1,1", "--N", "5", "--grid", "11"],
                 None, "theta must exceed -1, got -2.0", id="example2 second theta"),
    pytest.param(SOLVE, dict(SOLVE_RUN, N=[4, 1]), "N must be an integer >= 2, got 1",
                 id="solve second degree"),
    pytest.param(SOLVE, dict(DERIVATIVE_RUN, N=[10, -1]),
                 "N must be a nonnegative integer, got -1", id="derivative second degree"),
    # m is the order of term 0, a; b and c are terms 1 and 2
    pytest.param(SOLVE, dict(SOLVE_RUN, m=-1),
                 "order of term 0 must be a nonnegative integer, got -1", id="negative m"),
    # u0 and v0 give u(0) and u'(0); k = max(m, n) of them are needed
    pytest.param(SOLVE, dict(SOLVE_RUN, order="3/2", m=2),
                 "2 finite initial values u^(j)(0), j < 2, are needed, got [0.0]",
                 id="missing v0"),
    pytest.param(SOLVE, dict(SOLVE_RUN, v0=1),
                 "1 finite initial values u^(j)(0), j < 1, are needed, got [0.0, 1.0]",
                 id="v0 for a first-order problem"),
    pytest.param(SOLVE, dict(SOLVE_RUN, order="2.5", v0=1),
                 "3 finite initial values u^(j)(0), j < 3, are needed, got [0.0, 1.0]",
                 id="order past 2 needs u''(0)"),
    # an empty exact is an empty expression, as in every other key
    pytest.param(SOLVE, dict(SOLVE_RUN, exact=""), "exact: expression is empty at column 1",
                 id="empty exact"),
    pytest.param(SOLVE, dict(SOLVE_RUN, f="-" * 201 + "x"),
                 "f: expression nests more than 200 levels deep at column 201",
                 id="expression nested too deeply"),
    # out's directory is checked with the other out rules, not when the first file is written
    pytest.param(SOLVE, dict(SOLVE_RUN, N=[4, 6], out="nodir/x.csv"),
                 "out: directory 'nodir' does not exist", id="solve out in a missing directory"),
    pytest.param(["example1", "--N", "10", "--grid", "11", "--out", "nodir/x.csv"], None,
                 "out: directory 'nodir' does not exist", id="example out in a missing directory"),
    # f is a regular file and d a directory, made before each case
    pytest.param(["example1", "--theta", "1,2", "--beta", "3,6", "--N", "10,20", "--order", "0.5",
                  "--out", "f/t.csv"], None,
                 "out: 'f' is not a directory", id="example out through a regular file"),
    pytest.param(["example1", "--N", "10", "--grid", "11", "--out", "d"], None,
                 "out: 'd' is a directory", id="example out is a directory"),
    pytest.param(SOLVE, dict(SOLVE_RUN, out="d"), "out: 'd' is a directory",
                 id="one-degree solve out is a directory"),
    # order texts and pointwise file names are CSV cells, and the CSV is ASCII;
    # U+FF10, a fullwidth zero, would still parse as 0
    pytest.param(["example1", "--theta", "1", "--beta", "3", "--N", "10", "--order", "\uff10.5",
                  "--out", "t.csv"], None, "order expression '\uff10.5' is not ASCII",
                 id="non-ASCII order"),
    pytest.param(["example2", "--theta", "0", "--beta", "1", "--N", "5,10", "--grid", "11",
                  "--out", "\u00e9.csv"], None,
                 "out: pointwise file name '\u00e9.csv' is not ASCII",
                 id="non-ASCII pointwise file name"),
])
def test_config_error_stops_before_any_work(workdir, capsys, monkeypatch, argv, config, message):
    def no_work(*_args):
        raise AssertionError("work started")
    monkeypatch.setattr("lagfrac.cli.gauss_rule", no_work)
    monkeypatch.setattr("lagfrac.cli.solve", no_work)
    Path("f").write_bytes(b"old bytes\n")
    Path("d").mkdir()
    if config is not None:
        Path("run.json").write_text(config if isinstance(config, str) else json.dumps(config),
                                    encoding="utf-8")
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(".")) == ["d", "f"] + ([] if config is None else ["run.json"])
    assert os.listdir("d") == [] and Path("f").read_bytes() == b"old bytes\n"


def test_solve_config_takes_one_element_pair_lists(workdir):
    # theta and beta are read as lists, as N is: one pair of one-element lists is one pair
    assert main(["solve", "--config", write_config(Path("a.json"), DERIVATIVE_RUN)]) == 0
    first = Path("x.csv").read_bytes()
    Path("x.csv").unlink()
    listed = dict(DERIVATIVE_RUN, theta=[1], beta="3")
    assert main(["solve", "--config", write_config(Path("b.json"), listed)]) == 0
    assert Path("x.csv").read_bytes() == first


SWEEP = {"theta": 0, "beta": 4, "order": "0.5"}


@pytest.mark.parametrize("argv,config,message", [
    pytest.param(SOLVE, dict(SOLVE_RUN, theta=0, beta=1, N=[10, 30], m=1, out="s.csv"),
                 "collocation matrix is singular to working precision (rcond=2.280e-22, N=30)",
                 id="solve refusal"),
    pytest.param(SOLVE, dict(SWEEP, mode="integral", N=[4, 40], u="exp(x^2)", out="u.csv"),
                 "function 'u' returned non-finite value inf at x=27.78873048968126",
                 id="non-finite u"),
    pytest.param(SOLVE, dict(SWEEP, mode="derivative", N=[10, 200], u="exp(x)", out="o.csv"),
                 "quadrature weights for N=200 are not finite and positive: "
                 "the basis ladder leaves double range", id="Gauss rule overflow"),
    pytest.param(["example2", "--theta", "0", "--beta", "1", "--N", "5,30", "--out", "e2.csv"],
                 None, "collocation matrix is singular to working precision "
                 "(rcond=3.531e-20, N=30)", id="example2 refusal"),
])
def test_a_failure_building_a_later_cell_writes_no_file(workdir, capsys, argv, config, message):
    # every cell is built before the first is evaluated or written
    if config is not None:
        write_config(Path("run.json"), config)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(Path(".").glob("*.csv")) == []


def test_one_gauss_rule_per_distinct_family_and_degree(workdir, monkeypatch):
    calls = []

    def counted(params, N):
        calls.append((params.theta, params.beta, N))
        return gauss_rule(params, N)

    monkeypatch.setattr("lagfrac.cli.gauss_rule", counted)
    assert main(["example1", "--theta", "1,1", "--beta", "4,4", "--N", "10,20",
                 "--order", "0.5,1.5", "--grid", "11"]) == 0
    assert calls == [(1.0, 4.0, 10), (1.0, 4.0, 20)]
    assert len(read_rows("example1.csv")) == 1 + 8
