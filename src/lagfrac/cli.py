"""Command line driver: benchmark tables, pointwise error files, config runs.

Subcommands

    example1   error table for variable-order derivatives of exp on [0, L]
    example2   oscillator IVP with sin exact solution; table + pointwise files
    example3   polynomial-exact IVP on (0, pi/2] at theta = beta = 10
    solve      config-driven run: IVP solve, or derivative/integral of a function

Every subcommand builds a run, a plain dict, for the one runner ``_run``:
an operator applied to an interpolant, or an IVP solve, per cell of a sweep.
The examples are presets in ``_EXAMPLES``, whose flags and defaults are also
the keys an example's ``--config`` file may hold. One compiler, ``_compile``,
checks an example's values and a ``solve`` config alike and builds every cell
before the first runs; ``_run`` only computes and writes. Problem callables
(a, b, c, f, exact) take ``(order, x)``; ``u`` and the order take ``x``.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
Nothing is logged by default; with -v (after the subcommand) each solve's
INFO line, which reports its rcond, goes to stderr.
All output is CSV with a header row, LF line endings, and 17 significant
digits, so reruns with the same inputs are byte identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import stat
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import exprs
from .fractional import (
    OrderFunction,
    _require_derivative_window,
    _sample,
    caputo_exp_exact,
    caputo_of_sin,
    caputo_power_rule,
    vo_derivative,
    vo_integral,
)
from .laguerre import (
    LaguerreParams,
    _checked_degree,
    _checked_length,
    eval_interpolant,
    gauss_rule,
    interpolate,
)
from .solver import IvpSpec, solve
from .special import DomainError

__all__ = ["ConfigError", "main"]


class ConfigError(ValueError):
    """Invalid flags or config file contents; maps to exit code 1."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


class _Chunks(list):
    """A list that csv.writer writes into: each written line becomes an item."""

    write = list.append


def _csv_text(sections) -> str:
    """One or more (header, rows) CSV sections as the text of one file.

    rows is a list of text rows, written by csv.writer, or a tuple of
    equal-length float arrays, one per column, written in one %.17g format
    call ('%.17g' % v and _fmt(v) give the same digits).
    """
    chunks = _Chunks()
    writer = csv.writer(chunks, lineterminator="\n")
    for header, rows in sections:
        writer.writerow(header)
        if isinstance(rows, tuple):
            line = ",".join(["%.17g"] * len(rows)) + "\n"
            chunks.append(line * len(rows[0])
                          % tuple(np.column_stack(rows).ravel().tolist()))
        else:
            writer.writerows(rows)
    return "".join(chunks)


def _write_sections(path: Path, sections) -> None:
    """Write the _csv_text of sections, ASCII with LF line endings, to path.

    The whole file is formatted and encoded before the path is opened, so a
    failure there leaves an existing file as it was. The file is then
    overwritten in place and cut to length, never truncated to zero first:
    on ext4 (auto_da_alloc) a truncate-to-zero rewrite allocates blocks and
    starts writeback on every close.
    """
    # the pieces are freed on return: two copies of the file at most are alive
    data = memoryview(_csv_text(sections).encode("ascii"))
    size = len(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        while data:  # os.write may write less than it is given
            data = data[os.write(fd, data):]
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _as_list(value, key: str, read) -> list:
    """A comma-separated string, a JSON list or one scalar, each item read by read."""
    if isinstance(value, str):
        items = [part.strip() for part in value.split(",") if part.strip()]
    else:
        items = list(value) if isinstance(value, (list, tuple)) else [value]
    if not items:
        raise ConfigError(f"{key}: expected a nonempty list, got {value!r}")
    return [read(item, key) for item in items]


def _as_text(value, key: str) -> str:
    """An expression string; a JSON number stands for its own value."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(_as_float(value, key))
    raise ConfigError(f"{key}: expected an expression string, got {value!r}")


def _as_path(value, key: str) -> str:
    """An output path; only a nonempty string names one."""
    if not (isinstance(value, str) and value):
        raise ConfigError(f"{key}: expected a path string, got {value!r}")
    return value


def _as_float(value, key: str) -> float:
    """A finite number from a flag string or a JSON number (not a boolean)."""
    if isinstance(value, bool):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # a JSON integer beyond double range
        result = math.inf
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from exc
    if not math.isfinite(result):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    return result


def _as_int(value, key: str) -> int:
    result = _as_float(value, key)
    if result != int(result):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return int(result)


def _load_config(path, allowed: set[str]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # int() refuses integer literals of more than 4300 digits
        raise ConfigError(f"config file {path} holds an integer with too many digits") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    # a JSON null leaves its key unset
    return {key: value for key, value in data.items() if value is not None}


def _expression(value, key: str):
    """A callable on arrays of points: a preset's own, or an expression (see _as_text)."""
    if callable(value):
        return value
    try:
        node = exprs.parse(_as_text(value, key))
    except exprs.ExprError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return lambda x: exprs.evaluate(node, x)


def _problem(value, key: str):
    """A problem callable (order, x): a preset's own, f's builtin, or an expression."""
    # a missing exact stays None: the run reports no error
    if callable(value) or value is None:
        return value
    text = _as_text(value, key)
    if key == "f" and text.startswith("builtin:"):
        if text not in _BUILTIN_FORCINGS:
            raise ConfigError(f"unknown builtin forcing {text!r}; "
                              f"available: {', '.join(_BUILTIN_FORCINGS)}")
        return _BUILTIN_FORCINGS[text]
    func = _expression(text, key)
    return lambda _order, x: func(x)


def _order_from_text(text: str, length: float, derivative=True) -> OrderFunction:
    """Compile an order expression and certify its bounds on (0, length].

    derivative requires the order to stay inside one unit window (n - 1, n),
    any n, as the derivative formulas need.
    """
    func = _expression(text, "order")
    try:
        order = OrderFunction.from_callable(func, length)
        if derivative:
            _require_derivative_window(order)
    except (DomainError, ValueError) as exc:
        raise ConfigError(f"order expression {text!r}: {exc}") from exc
    return order


# lambdas look the library functions up at call time, so wrappers set here see the calls
_BUILTIN_FORCINGS = {"builtin:caputo_sin": lambda order, x: caputo_of_sin(order, x)}


# argparse help of the example flags
_FLAG_HELP = {"theta": "comma list of theta values",
              "beta": "comma list of beta values (paired with theta)",
              "N": "comma list of expansion degrees", "length": "domain length L",
              "grid": "uniform error-grid size", "out": "output CSV path",
              "order": "fractional order expression(s) in x"}

# u'' + D^rho u + u = f with u'(0) = 1, solved by examples 2 and 3; their two
# initial values cover orders in (0, 1) and (1, 2), where k = max(m, n) = 2
_OSCILLATOR = {"mode": "solve", "m": 2, "v0": 1.0,
               **dict.fromkeys(("a", "b", "c"), lambda _order, x: 1.0)}

# One entry per example subcommand: its help, its flags with their defaults
# (each flag is also the config key it overrides) and the fixed rest of its
# run, which _compile reads as it reads a solve config.
_EXAMPLES = {
    "example1": {
        "help": "derivative-of-exp error table",
        "flags": {"theta": "1,2", "beta": "3,6", "N": "10,20,40,80",
                  "order": "0.2,0.5,0.8,1.2,1.5,1.8", "length": 1.0, "grid": 1001,
                  "out": "example1.csv"},
        "run": {"mode": "derivative", "u": np.exp,
                "exact": lambda order, x: caputo_exp_exact(order, x)},
    },
    "example2": {
        "help": "oscillator IVP error table + pointwise files",
        "flags": {"theta": "0,2,3", "beta": "1,4,6", "N": "5,10,15,20", "order": "3/2",
                  "length": 1.0, "grid": 1001, "out": "example2.csv"},
        "run": {**_OSCILLATOR, "pointwise": True, "u0": 0.0,
                "f": _BUILTIN_FORCINGS["builtin:caputo_sin"],
                "exact": lambda _order, x: np.sin(x)},
    },
    "example3": {
        "help": "polynomial-exact IVP error table",
        "flags": {"order": "1.5,1 + 0.5*abs(sin(x))", "N": "3,4,5", "grid": 1001,
                  "out": "example3.csv"},
        # rows list every degree of one order before the next order
        "run": {**_OSCILLATOR, "orders_outer": True, "theta": 10.0, "beta": 10.0,
                "length": math.pi / 2.0, "u0": 1.0,
                # f = u'' + D^rho u + u for u = x^3 + x + 1 (D^rho x vanishes for n = 2)
                "f": lambda order, x: (caputo_power_rule(3.0, order, x)
                                       + caputo_power_rule(1.0, order, x)
                                       + x ** 3 + 7.0 * x + 1.0),
                "exact": lambda _order, x: x ** 3 + x + 1.0},
    },
}


_SOLVE_KEYS = {"mode", "theta", "beta", "N", "order", "a", "b", "c", "f", "u",
               "exact", "m", "u0", "v0", "length", "grid", "out"}
_IVP_KEYS = ("a", "b", "c", "f", "u0")


def _compile(name: str, raw: dict, table: bool) -> dict:
    """The run of raw values: every key read and checked, every cell built.

    raw is an example's preset run, flag defaults, config values and the
    flags given, merged in that order (table), or a solve config with --out
    applied (not table), whose file names carry neither its order nor its
    (theta, beta) pair, so it must hold one of each. The run's "cells" are
    (params, N, order text, order, IvpSpec or None) in output order.
    """
    mode = raw.get("mode", "solve")
    if mode not in ("solve", "derivative", "integral"):
        raise ConfigError(f"mode must be solve, derivative, or integral, got {mode!r}")
    for key in ("theta", "beta", "N", "order"):
        if key not in raw:
            raise ConfigError(f"config key {key!r} is required")
    for key in ("u",) if mode == "solve" else _IVP_KEYS + ("m", "v0"):
        if key in raw:
            raise ConfigError(f"config key {key!r} is not used in {mode} mode")
    for key in _IVP_KEYS if mode == "solve" else ("u",):
        if key not in raw:
            raise ConfigError(f"config key {key!r} is required in {mode} mode")
    degrees = _as_list(raw["N"], "N", _as_int)
    grid = _as_int(raw.get("grid", 1001), "grid")
    if grid < 2:
        raise ConfigError(f"grid must be at least 2, got {grid}")
    length = _checked_length(_as_float(raw.get("length", 1.0), "length"), "length")
    thetas = _as_list(raw["theta"], "theta", _as_float)
    betas = _as_list(raw["beta"], "beta", _as_float)
    if len(thetas) != len(betas):
        raise ConfigError(f"theta list ({len(thetas)} values) and beta list "
                          f"({len(betas)} values) must pair up")
    pairs = list(zip(thetas, betas))
    texts = _as_list(raw["order"], "order", _as_text)
    # pointwise file names carry no order either
    if (raw.get("pointwise") or not table) and len(texts) != 1:
        raise ConfigError(f"{name} takes a single order expression")
    if not table and len(pairs) != 1:
        raise ConfigError(f"{name} takes a single (theta, beta) pair")
    names = {}
    for pair in pairs if raw.get("pointwise") else ():
        other = names.setdefault("theta{:g}_beta{:g}".format(*pair), pair)
        if other != pair:
            raise ConfigError(f"(theta, beta) pairs {other} and {pair} share pointwise files")
    out = _as_path(raw.get("out", f"{mode}.csv"), "out")
    orders = [(text, _order_from_text(text, length, mode != "integral")) for text in texts]
    run = dict(raw, name=name if table else mode, mode=mode, table=table, N=degrees,
               grid=grid, length=length, out=out, exact=_problem(raw.get("exact"), "exact"))
    families = [LaguerreParams(theta, beta) for theta, beta in pairs]
    if raw.get("orders_outer"):
        cells = [(p, N, *o) for o in orders for p in families for N in degrees]
    else:
        cells = [(p, N, *o) for p in families for N in degrees for o in orders]
    if mode == "solve":
        # only a solve config may leave m out, and it holds one order
        a, b, c, f = (_problem(raw[key], key) for key in ("a", "b", "c", "f"))
        m = _as_int(raw["m"], "m") if "m" in raw else orders[0][1].n
        # u0 and v0 are u(0) and u'(0): the keys given are the initial values
        initial = [_as_float(raw[key], key) for key in ("u0", "v0") if key in raw]
        run["cells"] = [(p, N, text, order, IvpSpec(
            params=p, N=N, f=partial(f, order), initial=initial,
            terms=[(partial(a, order), m), (partial(b, order), order), (partial(c, order), 0)]))
            for p, N, text, order in cells]
    else:  # every degree passes the check gauss_rule applies
        run.update(u=_expression(raw["u"], "u"), cells=[
            (p, _checked_degree(N, "N"), text, order, None) for p, N, text, order in cells])
    return run


def _run(run: dict) -> None:
    """Compute the compiled cells in order; write a table row or a file per degree.

    Operator mode builds one Gauss rule and interpolant of u per (theta,
    beta, N) for every order. A value beyond double range on the grid is a
    numerical failure naming its x; each cell's error is the max |value -
    exact| over the grid, inf where finite values lie a double range apart.
    """
    length, grid, out = run["length"], run["grid"], Path(run["out"])
    xs = np.linspace(0.0, length, grid)
    rows, built = [], None
    for params, N, text, order, spec in run["cells"]:
        if spec is not None:
            evaluate = partial(eval_interpolant, solve(spec))
        else:
            if built != (params, N):
                rule = gauss_rule(params, N)
                coeffs = interpolate(rule, _sample(run["u"], rule.nodes, "function 'u'"))
                built = (params, N)
            operator = vo_derivative if run["mode"] == "derivative" else vo_integral
            evaluate = partial(operator, coeffs, order)
        values = _sample(evaluate, xs, "solution" if run["mode"] == "solve" else run["mode"])
        error = None
        if run["exact"] is not None:
            reference = _sample(partial(run["exact"], order), xs, "exact")
            with np.errstate(over="ignore"):  # finite values a double range apart: inf
                errors = np.abs(values - reference)
            error = float(np.max(errors))
        if run["table"]:
            row = [_fmt(params.theta), _fmt(params.beta), str(N), text, _fmt(error)]
            if run.get("pointwise"):
                name = (f"{out.stem}_pointwise_theta{params.theta:g}_beta{params.beta:g}"
                        f"_N{N}{out.suffix or '.csv'}")
                _write_sections(out.parent / name, [(["x", "abs_error"], (xs, errors))])
                row.append(name)
            rows.append(row)
            continue
        sections = [(["x", "u" if run["mode"] == "solve" else "value"], (xs, values))]
        summary = ""
        if error is not None:
            sections.append((["N", "theta", "beta", "order", "max_abs_error", "grid_size",
                              "domain_length"],
                             [[str(N), _fmt(params.theta), _fmt(params.beta), text,
                               _fmt(error), str(grid), _fmt(length)]]))
            summary = f", max_abs_error={_fmt(error)}"
        path = out if len(run["N"]) == 1 else out.with_name(
            f"{out.stem}_N{N}{out.suffix or '.csv'}")
        _write_sections(path, sections)
        print(f"{run['name']}: wrote {path}{summary}")
    if run["table"]:
        pointwise = run.get("pointwise", False)
        header = ["theta", "beta", "N", "order", "max_abs_error"]
        if pointwise:
            header.append("pointwise_file")
        _write_sections(out, [(header, rows)])
        print(f"{run['name']}: wrote {out} ({len(rows)} rows"
              f"{' + pointwise files' if pointwise else ''})")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which this tool reserves
    # for numerical failures; route them to ConfigError -> exit 1 instead
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lagfrac",
                     description="Variable-order fractional calculus benchmarks "
                                 "on generalized Laguerre expansions.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, preset in _EXAMPLES.items():
        example = sub.add_parser(command, help=preset["help"])
        for key in preset["flags"]:
            example.add_argument(f"--{key}", help=_FLAG_HELP[key])
        example.add_argument("--config", help="JSON config file supplying defaults")
    ps = sub.add_parser("solve", help="run a JSON config file")
    ps.add_argument("--config", required=True, help="JSON config file")
    ps.add_argument("--out", help="override the config output path")
    for command_parser in sub.choices.values():
        command_parser.add_argument("-v", "--verbose", action="store_true",
                                    help="log each solve's rcond to stderr (INFO)")
    return parser


# parse_args leaves the parser unchanged, so one instance serves every main() call
_PARSER = _build_parser()


@contextlib.contextmanager
def _info_to_stderr():
    """While open, the package's INFO records go to stderr.

    The handler and level are set on the package logger and undone on exit,
    so the root logger of an embedding process is never touched. logging is
    imported here, not at module level: a run without -v never loads it.
    """
    import logging

    log = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.command is None:
            raise ConfigError(f"a subcommand is required: {', '.join(_EXAMPLES)}, or solve")
        with _info_to_stderr() if args.verbose else contextlib.nullcontext():
            preset = _EXAMPLES.get(args.command)
            if preset is None:  # solve: the config, then --out
                raw, flags = _load_config(args.config, _SOLVE_KEYS), ("out",)
            else:  # the preset run, flag defaults, config values, then the flags given
                flags = preset["flags"]
                raw = {**preset["run"], **flags,
                       **(_load_config(args.config, set(flags)) if args.config else {})}
            raw.update((key, getattr(args, key)) for key in flags if getattr(args, key) is not None)
            _run(_compile(args.command, raw, table=preset is not None))
    except SystemExit as exc:  # from argparse, only after printing --help
        return exc.code
    except (DomainError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
