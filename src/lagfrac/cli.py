"""Command line driver: benchmark tables, pointwise error files, config runs.

Subcommands

    example1   error table for variable-order derivatives of exp on [0, L]
    example2   oscillator IVP with sin exact solution; table + pointwise files
    example3   polynomial-exact IVP on (0, pi/2] at theta = beta = 10
    solve      config-driven run: IVP solve, or derivative/integral of a function

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
All output is CSV with a header row, LF line endings, and 17 significant
digits, so reruns with the same inputs are byte identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import dataclass, replace
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
from .laguerre import LaguerreParams, eval_interpolant, gauss_rule, interpolate
from .solver import ErrorReport, IvpSpec, max_abs_error, solve
from .special import DomainError

logger = logging.getLogger(__name__)

__all__ = [
    "ConfigError",
    "RunConfig",
    "cmd_example1",
    "cmd_example2",
    "cmd_example3",
    "cmd_solve",
    "main",
]


class ConfigError(ValueError):
    """Invalid flags or config file contents; maps to exit code 1."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_sections(path: Path, sections) -> None:
    """Write one or more (header, rows) CSV sections to a single file.

    rows is a list of text rows, written by csv.writer, or a tuple of
    equal-length float arrays, one per column, written in one %.17g format
    call ('%.17g' % v and _fmt(v) give the same digits).
    """
    with open(path, "w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for header, rows in sections:
            writer.writerow(header)
            if isinstance(rows, tuple):
                line = ",".join(["%.17g"] * len(rows)) + "\n"
                handle.write(line * len(rows[0])
                             % tuple(np.column_stack(rows).ravel().tolist()))
            else:
                writer.writerows(rows)


def _split(value, key: str) -> list:
    if isinstance(value, str):
        items = [part.strip() for part in value.split(",") if part.strip()]
        if not items:
            raise ConfigError(f"{key}: expected a nonempty comma-separated list")
        return items
    if isinstance(value, (list, tuple)):
        if not value:
            raise ConfigError(f"{key}: list must be nonempty")
        return list(value)
    return [value]


def _as_float_list(value, key: str) -> list[float]:
    try:
        return [float(item) for item in _split(value, key)]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected numbers, got {value!r}") from exc


def _as_int_list(value, key: str) -> list[int]:
    return [_as_int(item, key) for item in _split(value, key)]


def _as_str_list(value, key: str) -> list[str]:
    items = _split(value, key)
    out = []
    for item in items:
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            out.append(repr(float(item)))
        else:
            raise ConfigError(f"{key}: expected expression strings, got {item!r}")
    return out


def _as_float(value, key: str) -> float:
    try:
        result = float(value)
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    return data


def _callable_from_text(text, key: str):
    """Compile an expression string into a callable on arrays of points."""
    if not isinstance(text, str):
        raise ConfigError(f"{key}: expected an expression string, got {text!r}")
    try:
        node = exprs.parse(text)
    except exprs.ExprError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return lambda x, _node=node: exprs.evaluate(_node, x)


def _order_from_text(text: str, domain_length: float) -> OrderFunction:
    func = _callable_from_text(text, "order")
    try:
        return OrderFunction.from_callable(func, domain_length)
    except (DomainError, ValueError) as exc:
        raise ConfigError(f"order expression {text!r}: {exc}") from exc


def _require_config_window(order: OrderFunction, text: str, require_n=None) -> None:
    try:
        _require_derivative_window(order)
    except DomainError as exc:
        raise ConfigError(f"order expression {text!r}: {exc}") from exc
    if require_n is not None and order.n != require_n:
        raise ConfigError(
            f"order expression {text!r} must take values inside "
            f"({require_n - 1}, {require_n})")


def cmd_example1(theta_beta_list, N_list, orders, *, length=1.0, grid_size=1001,
                 out_path="example1.csv") -> list[list[str]]:
    """Max abs error of the spectral variable-order derivative of exp.

    exp is interpolated at the Gauss nodes for each parameter pair, the
    derivative of the expansion is compared against the closed form on a
    uniform grid over [0, length], and one row is emitted per
    (theta, beta, N, order).
    """
    length = float(length)
    xs = np.linspace(0.0, length, int(grid_size))
    validated = []
    for text in orders:
        order = _order_from_text(text, length)
        _require_config_window(order, text)
        validated.append((text, order))
    rows = []
    for theta, beta in theta_beta_list:
        params = LaguerreParams(theta, beta)
        for degree in N_list:
            rule = gauss_rule(params, int(degree))
            coeffs = interpolate(rule, np.exp(rule.nodes))
            for text, order in validated:
                approx = vo_derivative(coeffs, order, xs)
                exact = caputo_exp_exact(order, xs)
                err = float(np.max(np.abs(approx - exact)))
                rows.append([_fmt(theta), _fmt(beta), str(int(degree)), text, _fmt(err)])
    _write_sections(Path(out_path),
                    [(["theta", "beta", "N", "order", "max_abs_error"], rows)])
    return rows


def cmd_example2(theta_beta_list, N_list, order_text, length=1.0, *, grid_size=1001,
                 out_path="example2.csv") -> list[list[str]]:
    """Oscillator IVP benchmark: u'' + D^order u + u = f, exact solution sin.

    Writes the max-AE table plus, per (theta, beta, N), a two-column
    (x, abs_error) file on the same uniform grid, named after the table file.
    """
    length = float(length)
    out = Path(out_path)
    order = _order_from_text(order_text, length)
    _require_config_window(order, order_text, require_n=2)
    one = lambda x: 1.0
    forcing = lambda x, _o=order: caputo_of_sin(_o, x)
    xs = np.linspace(0.0, length, int(grid_size))
    reference = np.sin(xs)
    rows = []
    for theta, beta in theta_beta_list:
        params = LaguerreParams(theta, beta)
        for degree in N_list:
            spec = IvpSpec(params=params, N=int(degree), order=order, m=2,
                           a=one, b=one, c=one, f=forcing,
                           u0=0.0, domain_length=length, v0=1.0)
            coeffs = solve(spec)
            errors = np.abs(eval_interpolant(coeffs, xs) - reference)
            err = float(np.max(errors))
            pointwise_name = (f"{out.stem}_pointwise_theta{theta:g}_beta{beta:g}"
                              f"_N{int(degree)}{out.suffix or '.csv'}")
            _write_sections(out.parent / pointwise_name,
                            [(["x", "abs_error"], (xs, errors))])
            rows.append([_fmt(theta), _fmt(beta), str(int(degree)), order_text,
                         _fmt(err), pointwise_name])
    _write_sections(out, [(["theta", "beta", "N", "order", "max_abs_error",
                            "pointwise_file"], rows)])
    return rows


def cmd_example3(order_texts, N_list, *, grid_size=1001,
                 out_path="example3.csv") -> list[list[str]]:
    """Polynomial-exact IVP benchmark at theta = beta = 10 on (0, pi/2].

    Exact solution x^3 + x + 1; the forcing combines the closed-form
    derivative of x^3 with the polynomial terms, so every residual is pure
    solver error.
    """
    params = LaguerreParams(10.0, 10.0)
    length = math.pi / 2.0
    one = lambda x: 1.0
    exact = lambda x: x ** 3 + x + 1.0
    rows = []
    for text in order_texts:
        order = _order_from_text(text, length)
        _require_config_window(order, text, require_n=2)

        def forcing(x, _o=order):
            return (caputo_power_rule(3.0, _o.eval(x), 2, x)
                    + x ** 3 + 7.0 * x + 1.0)

        for degree in N_list:
            spec = IvpSpec(params=params, N=int(degree), order=order, m=2,
                           a=one, b=one, c=one, f=forcing,
                           u0=1.0, domain_length=length, v0=1.0)
            coeffs = solve(spec)
            report = max_abs_error(coeffs, exact, length, int(grid_size))
            rows.append([_fmt(10.0), _fmt(10.0), str(int(degree)), text,
                         _fmt(report.max_abs_error)])
    _write_sections(Path(out_path),
                    [(["theta", "beta", "N", "order", "max_abs_error"], rows)])
    return rows


_SOLVE_KEYS = {"mode", "theta", "beta", "N", "order", "a", "b", "c", "f", "u",
               "exact", "m", "u0", "v0", "length", "grid", "out"}
_BUILTIN_FORCINGS = ("builtin:caputo_sin",)


@dataclass(frozen=True)
class RunConfig:
    """A parsed and validated config-file run."""

    mode: str
    theta: float
    beta: float
    N_list: tuple
    order_text: str
    length: float
    grid_size: int
    out: str
    a: str = ""
    b: str = ""
    c: str = ""
    f: str = ""
    u: str = ""
    exact: str = ""
    m: int = 0
    u0: float = 0.0
    v0: float = None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        mode = data.get("mode", "solve")
        if mode not in ("solve", "derivative", "integral"):
            raise ConfigError(f"mode must be solve, derivative, or integral, got {mode!r}")
        for key in ("theta", "beta", "N", "order"):
            if key not in data:
                raise ConfigError(f"config key {key!r} is required")
        length = _as_float(data.get("length", 1.0), "length")
        if length <= 0.0:
            raise ConfigError(f"length must be positive, got {length}")
        grid = _as_int(data.get("grid", 1001), "grid")
        if grid < 2:
            raise ConfigError(f"grid must be at least 2, got {grid}")
        order_list = _as_str_list(data["order"], "order")
        if len(order_list) != 1:
            raise ConfigError("order must be a single expression in config runs")
        common = dict(mode=mode,
                      theta=_as_float(data["theta"], "theta"),
                      beta=_as_float(data["beta"], "beta"),
                      N_list=tuple(_as_int_list(data["N"], "N")),
                      order_text=order_list[0],
                      length=length, grid_size=grid,
                      out=str(data.get("out", f"{mode}.csv")),
                      exact=str(data.get("exact", "")))
        if mode == "solve":
            for key in ("a", "b", "c", "f"):
                if key not in data:
                    raise ConfigError(f"config key {key!r} is required in solve mode")
            if "u" in data:
                raise ConfigError("config key 'u' is not used in solve mode")
            if "u0" not in data:
                raise ConfigError("config key 'u0' is required in solve mode")
            v0 = data.get("v0")
            return cls(**common,
                       a=str(data["a"]), b=str(data["b"]), c=str(data["c"]),
                       f=str(data["f"]),
                       m=_as_int(data["m"], "m") if "m" in data else 0,
                       u0=_as_float(data["u0"], "u0"),
                       v0=None if v0 is None else _as_float(v0, "v0"))
        for key in ("a", "b", "c", "f", "m", "u0", "v0"):
            if key in data:
                raise ConfigError(f"config key {key!r} is not used in {mode} mode")
        if "u" not in data:
            raise ConfigError(f"config key 'u' is required in {mode} mode")
        return cls(**common, u=str(data["u"]))


def _per_degree_path(base: Path, degree: int, multiple: bool) -> Path:
    if not multiple:
        return base
    return base.with_name(f"{base.stem}_N{degree}{base.suffix or '.csv'}")


_REPORT_HEADER = ["N", "theta", "beta", "order", "max_abs_error",
                  "grid_size", "domain_length"]


def _report_row(report: ErrorReport, order_text: str) -> list[str]:
    return [str(report.N), _fmt(report.params.theta), _fmt(report.params.beta),
            order_text, _fmt(report.max_abs_error), str(report.grid_size),
            _fmt(report.domain_length)]


def _write_degree(config: RunConfig, params: LaguerreParams, degree: int, header: list,
                  xs: np.ndarray, values: np.ndarray, exact) -> None:
    """Write one degree's (x, values) section, plus the error report when exact is given."""
    sections = [(header, (xs, values))]
    summary = ""
    if exact is not None:
        reference = _sample(exact, xs, "exact")
        err = float(np.max(np.abs(values - reference)))
        report = ErrorReport(N=degree, params=params, max_abs_error=err,
                             grid_size=config.grid_size, domain_length=config.length)
        sections.append((_REPORT_HEADER, [_report_row(report, config.order_text)]))
        summary = f", max_abs_error={_fmt(err)}"
    path = _per_degree_path(Path(config.out), degree, len(config.N_list) > 1)
    _write_sections(path, sections)
    print(f"{config.mode}: wrote {path}{summary}")


def _run_solve_config(config: RunConfig) -> None:
    order = _order_from_text(config.order_text, config.length)
    _require_config_window(order, config.order_text)
    m = config.m if config.m else order.n
    if order.n == 2 and config.v0 is None:
        raise ConfigError("config key 'v0' is required when the order lies in (1, 2)")
    if config.f in _BUILTIN_FORCINGS:
        forcing = lambda x, _o=order: caputo_of_sin(_o, x)
    elif config.f.startswith("builtin:"):
        raise ConfigError(f"unknown builtin forcing {config.f!r}; "
                          f"available: {', '.join(_BUILTIN_FORCINGS)}")
    else:
        forcing = _callable_from_text(config.f, "f")
    params = LaguerreParams(config.theta, config.beta)
    coeff_a = _callable_from_text(config.a, "a")
    coeff_b = _callable_from_text(config.b, "b")
    coeff_c = _callable_from_text(config.c, "c")
    exact = _callable_from_text(config.exact, "exact") if config.exact else None
    xs = np.linspace(0.0, config.length, config.grid_size)
    for degree in config.N_list:
        spec = IvpSpec(params=params, N=degree, order=order, m=m,
                       a=coeff_a, b=coeff_b, c=coeff_c, f=forcing,
                       u0=config.u0, domain_length=config.length, v0=config.v0)
        values = eval_interpolant(solve(spec), xs)
        _write_degree(config, params, degree, ["x", "u"], xs, values, exact)


def _run_operator_config(config: RunConfig) -> None:
    order = _order_from_text(config.order_text, config.length)
    if config.mode == "derivative":
        _require_config_window(order, config.order_text)
    func = _callable_from_text(config.u, "u")
    params = LaguerreParams(config.theta, config.beta)
    exact = _callable_from_text(config.exact, "exact") if config.exact else None
    xs = np.linspace(0.0, config.length, config.grid_size)
    operator = vo_derivative if config.mode == "derivative" else vo_integral
    for degree in config.N_list:
        rule = gauss_rule(params, degree)
        samples = _sample(func, rule.nodes, "function 'u'")
        values = operator(interpolate(rule, samples), order, xs)
        _write_degree(config, params, degree, ["x", "value"], xs, values, exact)


def cmd_solve(config_path, *, out_override=None) -> None:
    """Run a config file: an IVP solve or a derivative/integral evaluation."""
    data = _load_config(config_path, _SOLVE_KEYS)
    config = RunConfig.from_dict(data)
    if out_override:
        config = replace(config, out=str(out_override))
    if config.mode == "solve":
        _run_solve_config(config)
    else:
        _run_operator_config(config)


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

    def add_common(p, with_length=True):
        p.add_argument("--theta", help="comma list of theta values")
        p.add_argument("--beta", help="comma list of beta values (paired with theta)")
        p.add_argument("--N", dest="N", help="comma list of expansion degrees")
        p.add_argument("--order", help="fractional order expression(s) in x")
        if with_length:
            p.add_argument("--length", help="domain length L")
        p.add_argument("--grid", help="uniform error-grid size")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--config", help="JSON config file supplying defaults")

    p1 = sub.add_parser("example1", help="derivative-of-exp error table")
    add_common(p1)
    p2 = sub.add_parser("example2", help="oscillator IVP error table + pointwise files")
    add_common(p2)
    p3 = sub.add_parser("example3", help="polynomial-exact IVP error table")
    p3.add_argument("--order", help="comma list of order expressions")
    p3.add_argument("--N", dest="N", help="comma list of expansion degrees")
    p3.add_argument("--grid", help="uniform error-grid size")
    p3.add_argument("--out", help="output CSV path")
    p3.add_argument("--config", help="JSON config file supplying defaults")
    ps = sub.add_parser("solve", help="run a JSON config file")
    ps.add_argument("--config", required=True, help="JSON config file")
    ps.add_argument("--out", help="override the config output path")
    return parser


# parse_args leaves the parser unchanged, so one instance serves every main() call
_PARSER = _build_parser()


def _merged(flag_value, config: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _paired_params(theta_value, beta_value) -> list[tuple]:
    thetas = _as_float_list(theta_value, "theta")
    betas = _as_float_list(beta_value, "beta")
    if len(thetas) != len(betas):
        raise ConfigError(f"theta list ({len(thetas)} values) and beta list "
                          f"({len(betas)} values) must pair up")
    return list(zip(thetas, betas))


_EXAMPLE_KEYS = {"theta", "beta", "N", "order", "length", "grid", "out"}


def _dispatch(args) -> None:
    if args.command is None:
        raise ConfigError("a subcommand is required: example1, example2, "
                          "example3, or solve")
    if args.command == "solve":
        cmd_solve(args.config, out_override=args.out)
        return
    allowed = _EXAMPLE_KEYS if args.command != "example3" else {"order", "N",
                                                                "grid", "out"}
    config = _load_config(args.config, allowed) if args.config else {}
    raw_degrees = _merged(args.N, config, "N", None)
    degrees = _as_int_list(raw_degrees, "N") if raw_degrees is not None else None
    grid = _as_int(_merged(args.grid, config, "grid", 1001), "grid")
    if grid < 2:
        raise ConfigError(f"grid must be at least 2, got {grid}")
    if args.command == "example1":
        pairs = _paired_params(_merged(args.theta, config, "theta", "1,2"),
                               _merged(args.beta, config, "beta", "3,6"))
        orders = _as_str_list(_merged(args.order, config, "order",
                                      "0.2,0.5,0.8,1.2,1.5,1.8"), "order")
        length = _as_float(_merged(args.length, config, "length", 1.0), "length")
        out = str(_merged(args.out, config, "out", "example1.csv"))
        rows = cmd_example1(pairs, degrees or [10, 20, 40, 80], orders,
                            length=length, grid_size=grid, out_path=out)
        print(f"example1: wrote {out} ({len(rows)} rows)")
    elif args.command == "example2":
        pairs = _paired_params(_merged(args.theta, config, "theta", "0,2,3"),
                               _merged(args.beta, config, "beta", "1,4,6"))
        orders = _as_str_list(_merged(args.order, config, "order", "3/2"), "order")
        if len(orders) != 1:
            raise ConfigError("example2 takes a single order expression")
        length = _as_float(_merged(args.length, config, "length", 1.0), "length")
        out = str(_merged(args.out, config, "out", "example2.csv"))
        rows = cmd_example2(pairs, degrees or [5, 10, 15, 20], orders[0], length,
                            grid_size=grid, out_path=out)
        print(f"example2: wrote {out} ({len(rows)} rows + pointwise files)")
    else:
        orders = _as_str_list(_merged(args.order, config, "order",
                                      "1.5,1 + 0.5*abs(sin(x))"), "order")
        out = str(_merged(args.out, config, "out", "example3.csv"))
        rows = cmd_example3(orders, degrees or [3, 4, 5],
                            grid_size=grid, out_path=out)
        print(f"example3: wrote {out} ({len(rows)} rows)")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _PARSER.parse_args(argv)
        _dispatch(args)
    except (DomainError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
