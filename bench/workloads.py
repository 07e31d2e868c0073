"""Seeded task lists for the lagfrac benchmark, and the checks on their outputs.

A task is one ``lagfrac.cli.main(argv)`` call. Every input is drawn from
``random.Random`` seeded by the workload name and the ``--seed`` argument, so
the same seed yields the same tasks. Tasks are plain dicts so they can be
handed to a worker process as JSON:

    id      unique name; also the stem of the task's output files
    argv    arguments for ``lagfrac.cli.main``, relative to the work directory
    config  JSON object to write to ``<id>.json`` before the run (solve tasks)
    kind    "example1", "example2" or "solve"
    tol     largest max_abs_error the task may report and still count as passed
    ref     how the benchmark recomputes the exact values itself, or None
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

WORKLOADS = ("operators", "ivp_sweep", "sin_forcing")

GRID = 1001
LENGTH = 1.0

# Stated accuracy per workload, as the largest max_abs_error a task at
# degree N may report. Spectral accuracy depends on N, so the bound does too;
# an O(1) wrong answer fails at every N. The largest errors the seed wrote
# over 25 seeds were, by N: operators 0.068, 1.2e-5, 1.1e-10, 2.3e-9;
# ivp_sweep 2.9e-9 (N = 22); sin_forcing 0.12, 0.079, 5.9e-3, 1.6e-3.
TOLERANCE = {
    "operators": {10: 1.0, 20: 1e-3, 40: 1e-6, 80: 1e-6},
    "ivp_sweep": {N: 1e-6 for N in range(4, 33)},
    "sin_forcing": {5: 1.0, 10: 1.0, 15: 0.1, 20: 0.1},
}


# Degrees per window of ivp_sweep. The seed refuses every solve with N >= 24
# in the window (0,1) and every one with N >= 26 in (1,2). Just below each
# cliff the outcome depends on the drawn problem: at N = 24 in (1,2) about a
# quarter of them fail, at N = 22 in (0,1) about one in a hundred. Those two
# degrees are left out, so every pass fails the same 18 of 56 tasks,
# whatever the seed, and the refusals past the cliff still count.
IVP_DEGREES = {1: tuple(N for N in range(4, 33, 2) if N != 22),
               2: tuple(N for N in range(4, 33, 2) if N != 24)}


def _pair(rng: random.Random, beta_min: float = 1.0) -> tuple[float, float]:
    return round(rng.uniform(0.0, 3.0), 3), round(rng.uniform(beta_min, 8.0), 3)


def _constant_order(rng: random.Random, n: int) -> str:
    return repr(round(rng.uniform(n - 0.9, n - 0.1), 3))


def _variable_order(rng: random.Random, n: int) -> tuple[str, dict]:
    """``c0 + c1*sin(k*x)`` kept at least 0.05 inside the window (n-1, n)."""
    c0 = round(rng.uniform(n - 0.8, n - 0.2), 3)
    room = min(c0 - (n - 1), n - c0) - 0.05
    c1 = round(rng.uniform(0.05, room) * rng.choice((-1.0, 1.0)), 3)
    k = rng.randint(1, 5)
    return f"{c0}+{c1}*sin({k}*x)", {"c0": c0, "c1": c1, "k": k}


def _order_values(spec: dict, xs: list[float]) -> list[float]:
    return [spec["c0"] + spec["c1"] * math.sin(spec["k"] * x) for x in xs]


def _operators(rng: random.Random, tol: dict) -> list[dict]:
    # exp is interpolated, and it is square integrable against the weight
    # only for beta > 2; at N = 10 the error is O(1) unless beta is about 4 or
    # more. That is the method's reach, not a defect, so beta starts at 4.
    pairs = [_pair(rng, beta_min=4.0) for _ in range(2)]
    # each pair gets a constant order in one window and a variable one in the other
    orders = [(_constant_order(rng, 1), _variable_order(rng, 2)[0]),
              (_constant_order(rng, 2), _variable_order(rng, 1)[0])]
    tasks = []
    for p, (theta, beta) in enumerate(pairs):
        for N in (10, 20, 40, 80):
            for o, order in enumerate(orders[p]):
                tasks.append({
                    "id": f"ex1_p{p}_N{N}_o{o}", "kind": "example1", "tol": tol[N], "ref": None,
                    "argv": ["example1", "--theta", str(theta), "--beta", str(beta),
                             "--N", str(N), "--order", order, "--grid", str(GRID),
                             "--length", str(LENGTH), "--out", f"ex1_p{p}_N{N}_o{o}.csv"]})
        for mode, sign in (("derivative", -1), ("integral", 1)):
            for N in (20, 80):
                n = rng.choice((1, 2))
                order, spec = _variable_order(rng, n)
                power = rng.randint(2, 4)
                rho = f"({order})"
                exact = (f"gamma({power + 1})/gamma({power + 1}{'-' if sign < 0 else '+'}{rho})"
                         f"*x^({power}{'-' if sign < 0 else '+'}{rho})")
                tasks.append(_solve_task(
                    f"{mode[:3]}_p{p}_N{N}", tol[N],
                    {"mode": mode, "theta": theta, "beta": beta, "N": N, "order": order,
                     "u": f"x^{power}", "exact": exact},
                    {"kind": "power_rule", "power": power, "sign": sign, "order": spec}))
    # Touches the integer 1 only at x = 0. The README says such orders are
    # accepted; the seed exits 2 on them, and the benchmark counts that.
    theta, beta = pairs[0]
    touch = f"1+{round(rng.uniform(0.3, 0.8), 3)}*abs(sin(x))"
    tasks.append({
        "id": "ex1_touch", "kind": "example1", "tol": tol[20], "ref": None,
        "argv": ["example1", "--theta", str(theta), "--beta", str(beta), "--N", "20",
                 "--order", touch, "--grid", str(GRID), "--length", str(LENGTH),
                 "--out", "ex1_touch.csv"]})
    return tasks


def _ivp_sweep(rng: random.Random, tol: dict) -> list[dict]:
    tasks = []
    for n in (1, 2):
        for q in range(2):
            theta, beta = _pair(rng)
            order, _ = _variable_order(rng, n)
            power = rng.randint(2, 4)
            a = round(rng.uniform(0.5, 2.0), 3)
            b = round(rng.uniform(0.5, 2.0), 3)
            c = f"{round(rng.uniform(0.5, 2.0), 3)}+{round(rng.uniform(-0.4, 0.4), 3)}*cos(x)"
            # u = x^power: u^(m) and D^rho u by the power rule, written out in
            # the expression language so the forcing goes through exprs
            m = n
            integer = (f"{power}*x^{power - 1}" if m == 1
                       else f"{power * (power - 1)}*x^{power - 2}")
            frac = f"gamma({power + 1})/gamma({power + 1}-({order}))*x^({power}-({order}))"
            forcing = f"{a}*{integer}+{b}*{frac}+({c})*x^{power}"
            for N in IVP_DEGREES[n]:
                config = {"mode": "solve", "theta": theta, "beta": beta, "N": N,
                          "order": order, "a": str(a), "b": str(b), "c": c, "f": forcing,
                          "m": m, "u0": 0.0, "exact": f"x^{power}"}
                if n == 2:
                    config["v0"] = 0.0
                tasks.append(_solve_task(f"ivp_w{n}_q{q}_N{N}", tol[N], config,
                                         {"kind": "power", "power": power}))
    return tasks


def _sin_forcing(rng: random.Random, tol: dict) -> list[dict]:
    # The mpmath forcing costs more the farther the nodes reach, and they
    # reach about 4N/beta: at beta = 1 a pass costs four times what it does at
    # beta = 6. Each pair is therefore drawn from a narrow band next to one of
    # the paper's example2 pairs (0, 1), (2, 4), (3, 6), so that the work per
    # pass does not depend on the seed. The slowest tasks, those at beta near
    # 1, set task_ms.p90, so beta keeps within 5% of the paper's value.
    pairs = [(round(t + rng.uniform(0.0, 0.5), 3), round(b * rng.uniform(1.0, 1.05), 3))
             for t, b in ((0.0, 1.0), (2.0, 4.0), (2.5, 6.0))]
    orders = [_constant_order(rng, 2), _variable_order(rng, 2)[0]]
    tasks = []
    for p, (theta, beta) in enumerate(pairs):
        for o, order in enumerate(orders):
            for N in (5, 10, 15, 20):
                tid = f"ex2_p{p}_o{o}_N{N}"
                tasks.append({
                    "id": tid, "kind": "example2", "tol": tol[N], "ref": None,
                    "argv": ["example2", "--theta", str(theta), "--beta", str(beta),
                             "--N", str(N), "--order", order, "--grid", str(GRID),
                             "--length", str(LENGTH), "--out", f"{tid}.csv"]})
    return tasks


def _solve_task(tid: str, tol: float, config: dict, ref: dict) -> dict:
    config = dict(config, length=LENGTH, grid=GRID, out=f"{tid}.csv")
    return {"id": tid, "kind": "solve", "tol": tol, "ref": ref, "config": config,
            "argv": ["solve", "--config", f"{tid}.json"]}


def make_tasks(workload: str, seed: int) -> list[dict]:
    """The task list of one pass; the same (workload, seed) gives the same list."""
    build = {"operators": _operators, "ivp_sweep": _ivp_sweep,
             "sin_forcing": _sin_forcing}[workload]
    return build(random.Random(f"{workload}:{seed}"), TOLERANCE[workload])


# ---- output checks -------------------------------------------------------

class OutputError(Exception):
    """An output file is missing or malformed."""


def _read_sections(path: Path) -> list[tuple[list[str], list[list[str]]]]:
    """Split a CSV into (header, rows) sections; a header starts with a letter."""
    try:
        with open(path, newline="", encoding="ascii") as handle:
            lines = list(csv.reader(handle))
    except OSError as exc:
        raise OutputError(f"cannot read {path.name}: {exc}") from exc
    sections = []
    for line in lines:
        if line and line[0][:1].isalpha():
            sections.append((line, []))
        elif sections:
            sections[-1][1].append(line)
        else:
            raise OutputError(f"{path.name}: data before the first header")
    return sections


def _column(section, name: str) -> list[float]:
    header, rows = section
    if name not in header:
        raise OutputError(f"missing column {name!r}")
    idx = header.index(name)
    try:
        return [float(row[idx]) for row in rows]
    except (IndexError, ValueError) as exc:
        raise OutputError(f"bad value in column {name!r}: {exc}") from exc


def _reference(ref: dict, xs: list[float]) -> list[float]:
    if ref["kind"] == "power":
        return [x ** ref["power"] for x in xs]
    power, sign = ref["power"], ref["sign"]
    out = []
    for x, rho in zip(xs, _order_values(ref["order"], xs)):
        shifted = power + sign * rho
        out.append(math.gamma(power + 1) / math.gamma(shifted + 1) * x ** shifted)
    return out


def check_outputs(task: dict, workdir: Path) -> tuple[float, list[Path]]:
    """Worst error of a task that exited 0, and the files it wrote.

    The error is the max_abs_error the program wrote; for solve configs it is
    the larger of that and the benchmark's own recomputation from the written
    values. Raises OutputError when a file is missing or malformed.
    """
    kind = task["kind"]
    out = workdir / (task["id"] + ".csv")
    files = [out]
    sections = _read_sections(out)
    if kind == "example1":
        if len(sections) != 1 or len(sections[0][1]) != 1:
            raise OutputError(f"{out.name}: expected one table row")
        return _column(sections[0], "max_abs_error")[0], files
    if kind == "example2":
        if len(sections) != 1 or len(sections[0][1]) != 1:
            raise OutputError(f"{out.name}: expected one table row")
        reported = _column(sections[0], "max_abs_error")[0]
        header, rows = sections[0]
        pointwise = workdir / rows[0][header.index("pointwise_file")]
        files.append(pointwise)
        points = _read_sections(pointwise)
        if len(points) != 1 or len(points[0][1]) != GRID:
            raise OutputError(f"{pointwise.name}: expected {GRID} rows")
        errors = _column(points[0], "abs_error")
        if max(errors) != reported:
            raise OutputError(f"{out.name}: table error {reported!r} is not the "
                              f"pointwise maximum {max(errors)!r}")
        return reported, files
    if len(sections) != 2 or len(sections[0][1]) != GRID or len(sections[1][1]) != 1:
        raise OutputError(f"{out.name}: expected {GRID} value rows and one report row")
    reported = _column(sections[1], "max_abs_error")[0]
    xs = _column(sections[0], "x")
    values = _column(sections[0], sections[0][0][1])
    recomputed = max(abs(v - r) for v, r in zip(values, _reference(task["ref"], xs)))
    return max(reported, recomputed), files


def judge(task: dict, exit_code, workdir: Path) -> dict:
    """Outcome of one task: failed, correct, error, bytes and rows written.

    A task fails when it exits nonzero or its error is non-finite or above
    the tolerance. Exit 2 is a numerical refusal: a counted failure, not a
    wrong answer. Anything else that fails (exit 1, an exception out of
    ``main``, a malformed file, an error above the tolerance) is also
    incorrect.
    """
    result = {"failed": True, "correct": True, "error": None, "bytes": 0, "rows": 0}
    if exit_code != 0:
        result["correct"] = exit_code == 2
        return result
    try:
        error, files = check_outputs(task, workdir)
    except OutputError:
        result["correct"] = False
        return result
    for path in files:
        data = path.read_bytes()
        result["bytes"] += len(data)
        result["rows"] += data.count(b"\n")
    ok = math.isfinite(error) and error <= task["tol"]
    result.update(failed=not ok, correct=ok, error=error)
    return result
