"""Checks on the benchmark itself, run at a tiny size (about half a minute).

Usage (from the root of a checkout): python3 bench/selfcheck.py

* the same seed generates the same tasks, another seed other tasks;
* every metric named in BENCHMARK.json is printed, with its unit, and the
  last line of output is the result object the benchmark promises;
* spans nest, self times sum to no more than the traced pass's wall time,
  and the tracer puts every original object back;
* a known failure (the origin-touching order) is counted, not hidden;
* ivp_sweep counts the same failed/attempted tasks for two seeds and two
  run lengths;
* without a source tree next to it, the benchmark exits nonzero and
  prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _check_output(outcome: dict, listed: list[dict]) -> list[str]:
    problems = []
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        print(json.dumps(run.report(outcome)))
    lines = buffer.getvalue().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed must be whole numbers, attempted >= 1")
    expected = {m["name"]: m["unit"] for m in listed}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        differ = sorted(set(printed) ^ set(expected))
        problems.append(f"{outcome['workload']}: metrics printed {differ} "
                        f"differ from BENCHMARK.json, or units differ")
    for name, metric in result["metrics"].items():
        if not (isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])):
            problems.append(f"{name} is not a finite number")
        if not any(line.split()[:1] == [name] and metric["unit"] in line.split()
                   for line in lines[:-1]):
            problems.append(f"{name} has no readable line with its unit")
    if not result["correct"]:
        problems.append(f"{outcome['workload']}: outputs judged incorrect: "
                        f"{outcome['tally']['problems']}")
    return problems


def check_seeds() -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        if workloads.make_tasks(name, 7) != workloads.make_tasks(name, 7):
            problems.append(f"{name}: seed 7 gave two different task lists")
        if workloads.make_tasks(name, 7) == workloads.make_tasks(name, 8):
            problems.append(f"{name}: seeds 7 and 8 gave the same task list")
    return problems


def check_runs() -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        tasks = workloads.make_tasks(name, 1)
        # the first tasks plus the last, which for operators is the known failure
        tiny = tasks[:2] + tasks[-1:]
        untraced = run.run(name, 1, 0.5, False, tasks=tiny, processes=2)
        problems += _check_output(untraced, SPEC["end_to_end"])
        traced = run.run(name, 1, 0.5, True, tasks=tiny)
        problems += _check_output(traced, SPEC["per_layer"])
        if name == "operators" and untraced["tally"]["failed"] < 1:
            problems.append("operators: the origin-touching order was not counted as failed")
    return problems


def check_counts() -> list[str]:
    """ivp_sweep fails the same tasks whatever the seed and the number of passes."""
    counts = set()
    for seed, seconds in ((1, 0.1), (2, 2.0)):
        tally = run.run("ivp_sweep", seed, seconds, False, processes=1)["tally"]
        counts.add((tally["attempted"], tally["failed"]))
    if len(counts) != 1:
        return [f"ivp_sweep failed/attempted differ between runs: {sorted(counts)}"]
    return []


def check_restore() -> list[str]:
    sys.path.insert(0, str(run.SRC))
    import lagfrac
    import lagfrac.cli  # noqa: F401  (tracer wraps the cli module too)

    def snapshot():
        owners = [lagfrac, lagfrac.fractional.OrderFunction] + [
            getattr(lagfrac, m) for m in tracer.MODULES]
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = snapshot()
    probe = tracer.Tracer()
    probe.install(lagfrac)
    wrapped = sum(1 for key, value in snapshot().items() if before.get(key) is not value)
    probe.uninstall()
    after = snapshot()
    problems = []
    if wrapped < 20:
        problems.append(f"tracer wrapped only {wrapped} functions")
    if any(after.get(key) is not value for key, value in before.items()):
        problems.append("tracer did not restore every original object")
    return problems


def check_missing_source() -> list[str]:
    with tempfile.TemporaryDirectory(prefix=".bench-selfcheck-", dir=run.ROOT) as tmp:
        shutil.copytree(run.BENCH, Path(tmp) / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                               "operators", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without src/ the benchmark must exit nonzero and print no result"]
    return []


def main() -> int:
    problems = (check_seeds() + check_restore() + check_missing_source() + check_runs()
                + check_counts())
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
