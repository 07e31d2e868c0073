"""The command line surface: flags, config keys, help, row order, file names."""

import json
import re
import warnings
from pathlib import Path

import pytest

from lagfrac.cli import main

TABLE_FLAGS = {"theta", "beta", "N", "order", "length", "grid", "out"}
EXAMPLE3_FLAGS = {"order", "N", "grid", "out"}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(path, payload):
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def table(path):
    lines = Path(path).read_text(encoding="ascii").splitlines()
    return [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("argv", [["--help"], ["example1", "--help"], ["example2", "--help"],
                                  ["example3", "--help"], ["solve", "--help"]])
def test_help_returns_zero_and_prints_usage(workdir, capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: lagfrac {' '.join(argv[:-1])}".rstrip())
    assert captured.err == ""


@pytest.mark.parametrize("command,flags", [
    ("example1", TABLE_FLAGS), ("example2", TABLE_FLAGS), ("example3", EXAMPLE3_FLAGS),
    ("solve", {"out"}),
])
def test_each_subcommand_has_exactly_its_flags(workdir, capsys, command, flags):
    # a flag given without its value fails to parse, known or not, so nothing runs
    required = ["--config", "x.json"] if command == "solve" else []
    for flag in sorted(TABLE_FLAGS | {"config", "mode", "u", "exact", "m"}):
        assert main([command, *required, f"--{flag}"]) == 1
        err = capsys.readouterr().err
        known = flag in flags | {"config"}
        assert err == (f"error: argument --{flag}: expected one argument\n" if known
                       else f"error: unrecognized arguments: --{flag}\n"), flag


@pytest.mark.parametrize("argv,message", [
    (["example3", "--theta", "1"], "unrecognized arguments: --theta 1"),
    (["example3", "--length", "2"], "unrecognized arguments: --length 2"),
    (["example2", "--order", "1.5,1.6"], "example2 takes a single order expression"),
])
def test_flags_outside_a_preset_are_config_errors(workdir, capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_example3_config_rejects_theta(workdir, capsys):
    cfg = write_config("ex3.json", {"theta": 1, "N": 3})
    assert main(["example3", "--config", cfg]) == 1
    assert "unknown keys: theta" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["example1", "example2"])
def test_table_examples_accept_exactly_their_config_keys(workdir, capsys, command):
    order = "0.5" if command == "example1" else "1.5"
    cfg = write_config("all.json", {"theta": "1", "beta": "6", "N": 5, "order": order,
                                    "length": 1.0, "grid": 11, "out": "all.csv"})
    assert main([command, "--config", cfg]) == 0
    assert len(table("all.csv")) == 1
    for key in ("config", "mode", "u", "exact", "m"):
        cfg = write_config("extra.json", {key: "1"})
        assert main([command, "--config", cfg]) == 1
        assert f"unknown keys: {key}\n" in capsys.readouterr().err


def test_example3_accepts_its_config_keys(workdir):
    cfg = write_config("ex3.json", {"order": "1.5", "N": 3, "grid": 11, "out": "e3.csv"})
    assert main(["example3", "--config", cfg]) == 0
    assert len(table("e3.csv")) == 1


def test_example1_rows_nest_pair_then_degree_then_order(workdir):
    assert main(["example1", "--theta", "1,2", "--beta", "3,6", "--N", "10,12",
                 "--order", "0.3,0.7,1.4", "--grid", "11", "--out", "t.csv"]) == 0
    keys = [tuple(row[:4]) for row in table("t.csv")]
    assert keys == [(theta, beta, N, order)
                    for theta, beta in (("1", "3"), ("2", "6")) for N in ("10", "12")
                    for order in ("0.3", "0.7", "1.4")]


def test_example3_rows_nest_order_then_degree(workdir):
    assert main(["example3", "--order", "1.5,1.2", "--N", "3,4", "--grid", "11",
                 "--out", "t.csv"]) == 0
    keys = [tuple(row[:4]) for row in table("t.csv")]
    assert keys == [("10", "10", N, order) for order in ("1.5", "1.2") for N in ("3", "4")]


def test_example2_pointwise_name_without_suffix(workdir, capsys):
    assert main(["example2", "--theta", "3", "--beta", "6", "--N", "5", "--grid", "11",
                 "--out", "noext"]) == 0
    assert table("noext")[0][-1] == "noext_pointwise_theta3_beta6_N5.csv"
    assert Path("noext_pointwise_theta3_beta6_N5.csv").exists()
    assert capsys.readouterr().out == "example2: wrote noext (1 rows + pointwise files)\n"


def test_example2_refuses_pairs_sharing_pointwise_files(workdir, capsys, monkeypatch):
    # both pairs print as theta2_beta4: the second would overwrite the first's files
    def no_work(*_args):
        raise AssertionError("work started")
    monkeypatch.setattr("lagfrac.cli.solve", no_work)
    assert main(["example2", "--theta", "2.0000001,2.0000002", "--beta", "4,4",
                 "--N", "5"]) == 1
    assert capsys.readouterr().err == ("error: (theta, beta) pairs (2.0000001, 4.0) and "
                                       "(2.0000002, 4.0) share pointwise files\n")
    assert list(workdir.iterdir()) == []


def test_solve_degree_list_without_suffix(workdir, capsys):
    cfg = write_config("nl.json", {
        "mode": "solve", "theta": 2, "beta": 4, "N": [4, 6], "order": "0.5",
        "a": "1", "b": "1", "c": "1", "f": "2*x + gamma(3)/gamma(2.5)*x^1.5 + x^2 + 1",
        "u0": 1, "grid": 11, "out": "nl"})
    assert main(["solve", "--config", cfg]) == 0
    assert sorted(p.name for p in Path().glob("nl*")) == ["nl.json", "nl_N4.csv", "nl_N6.csv"]
    assert capsys.readouterr().out == "solve: wrote nl_N4.csv\nsolve: wrote nl_N6.csv\n"


def test_example1_overflowing_reference_is_numerical_error(workdir, capsys):
    # exp(x) leaves double range past x ~ 709.78, inside [0, 720]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["example1", "--length", "720", "--theta", "1", "--beta", "3",
                   "--N", "10", "--order", "0.5", "--out", "big.csv"])
    assert rc == 2
    assert capsys.readouterr().err == "error: exact returned non-finite value inf at x=709.92\n"
    assert not Path("big.csv").exists()


DERIVATIVE = {"mode": "derivative", "theta": 1, "beta": 3, "N": 8, "order": "0.5",
              "u": "x", "grid": 11}


@pytest.mark.parametrize("argv,config", [
    (["example1", "--length", "0"], None),
    (["example2", "--length", "-1"], None),
    (["solve", "--config", "len.json"], dict(DERIVATIVE, length=0)),
])
def test_nonpositive_length_is_config_error(workdir, capsys, argv, config):
    if config is not None:
        write_config("len.json", config)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: length must be positive")
    assert not list(Path().glob("*.csv"))


def test_null_out_keeps_the_default_file_name(workdir, capsys):
    cfg = write_config("c.json", dict(DERIVATIVE, out=None))
    assert main(["solve", "--config", cfg]) == 0
    assert capsys.readouterr().out == "derivative: wrote derivative.csv\n"
    assert sorted(p.name for p in Path().iterdir()) == ["c.json", "derivative.csv"]


def test_null_exact_writes_no_report(workdir):
    cfg = write_config("c.json", dict(DERIVATIVE, exact=None, out="d.csv"))
    assert main(["solve", "--config", cfg]) == 0
    lines = Path("d.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "x,value" and len(lines) == 12


def test_null_degrees_keep_the_example_defaults(workdir):
    cfg = write_config("c.json", {"N": None, "grid": 11, "out": "t.csv"})
    assert main(["example1", "--config", cfg, "--theta", "1", "--beta", "3",
                 "--order", "0.5"]) == 0
    assert [row[2] for row in table("t.csv")] == ["10", "20", "40", "80"]


def test_null_v0_is_missing_v0(workdir, capsys):
    cfg = write_config("c.json", {
        "mode": "solve", "theta": 1, "beta": 3, "N": 8, "order": "3/2", "a": "1",
        "b": "1", "c": "1", "f": "1", "u0": 0, "v0": None, "out": "v.csv"})
    assert main(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().err == ("error: 2 finite initial values u^(j)(0), j < 2, are "
                                       "needed, got [0.0]\n")
    assert not Path("v.csv").exists()
