"""Benchmark for lagfrac: times ``lagfrac.cli.main`` on seeded task lists.

Usage (from the root of a checkout):

    python3 bench/run.py --workload operators|ivp_sweep|sin_forcing \\
        --seed N --seconds S --trace 0|1

The program is the source tree under ``src/`` of the same checkout. Each
task is one in-process ``lagfrac.cli.main(argv)`` call; one pass runs every
task of the workload once, in order, with one closed-loop client in one
process and BLAS pinned to one thread.

``--trace 0`` starts ``PROCESSES`` fresh worker processes one after the
other. Each times ``import lagfrac, lagfrac.cli``, runs one cold pass, then
warm passes for ``seconds / PROCESSES`` seconds. Spreading the passes over
several processes averages out the process-to-process variation this kind
of code shows on a shared machine. It reports the end-to-end metrics, each
time scaled as described below:

    setup_s      median import time of a fresh interpreter
    cold_pass_s  median time of the first pass after import
    run_s        median warm pass
    task_ms.p50  median per-task latency, pooled over warm passes
    task_ms.p90  90th percentile of the same (at least ten samples above it)
    peak_rss_mb  median over workers of the worker's peak resident memory

The times are the worker's CPU time (user plus system; one thread, since
BLAS is pinned). The work is CPU-bound and writes only to the page cache,
so on an idle machine this equals wall time; on a shared virtual machine
wall time also counts the time the hypervisor runs other guests (steal),
which swings by tens of percent within minutes. The wall-clock median
pass is printed on the readable lines for comparison.

CPU time is not steady either on a shared host: other guests slow the
processor for stretches of seconds to minutes, and a pass then takes up to
twice as long as the same pass a moment before. A median over the samples
of one run moved with the share of slow stretches that run happened to get.
So every worker also times a fixed pure-Python loop (``worker.reference``)
before and after each timed step, and each time is scaled by
``REFERENCE_S`` over the mean of the two loop times around it. The metrics
are thus seconds on a processor that runs the loop in ``REFERENCE_S``; a
slow stretch lengthens the step and the loops alike. The loop uses nothing
of lagfrac, so a change to the program moves only the steps. The unscaled
median pass is printed on the readable lines.

``--trace 1`` times the imports with ``python -X importtime``, then runs one
worker that alternates untraced and traced passes (see ``tracer.py``) and
reports the per-layer metrics per pass, as medians over traced passes.

Outputs are checked after every pass (see ``workloads.judge``).
``attempted`` and ``failed`` count distinct tasks of the list, each once
however many passes ran it, so they depend on the seed and the program but
not on how many passes fit in the time. Human readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

PROCESSES = 6
MIN_TASK_SAMPLES = 200
REFERENCE_S = 0.1  # nominal CPU time of worker.reference
RUN_LIMIT_S = 170  # every worker is killed once a run has taken this long

END_TO_END = (
    ("setup_s", "s"),
    ("cold_pass_s", "s"),
    ("run_s", "s"),
    ("task_ms.p50", "ms"),
    ("task_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# Public functions (a name in the module's __all__) that some workload
# calls, plus OrderFunction.from_callable.
FUNCTIONS = (
    "cli.main", "cli.cmd_example1", "cli.cmd_example2", "cli.cmd_solve",
    "exprs.parse", "exprs.evaluate",
    "laguerre.eval_basis", "laguerre.gauss_rule", "laguerre.interpolate",
    "laguerre.eval_interpolant",
    "fractional.OrderFunction.from_callable", "fractional.caputo_exp_exact",
    "fractional.caputo_of_sin",
    "special.log_gamma", "special.gamma_ratio", "special.reg_lower_incomplete_gamma",
    "solver.collocation_nodes", "solver.assemble", "solver.solve",
    "solver.max_abs_error",
)

# import metric -> the module families whose import time it sums
IMPORTS = {
    "import.lagfrac_s": ("lagfrac",),
    "import.scipy_special_s": ("scipy", "scipy.special"),
    "import.mpmath_s": ("mpmath",),
}

PER_LAYER = (
    tuple((f"{layer}.{kind}", unit) for layer in tracer.MODULES
          for kind, unit in (("calls", "count"), ("s", "s"), ("self_s", "s")))
    + tuple((name, "s") for name in IMPORTS)
    + tuple((f"{func}.{kind}", unit) for func in FUNCTIONS
            for kind, unit in (("calls", "count"), ("s", "s")))
    + (("solver.solve.self_s", "s"),
       ("fractional.ladder_cells", "count"),
       ("laguerre.basis_cells", "count"),
       ("solver.refused_ratio", "ratio"),
       ("trace.overhead_ratio", "ratio"),
       ("cli.bytes_written", "B"),
       ("cli.rows_written", "count"),
       ("check.max_abs_err", "1"))
)


class BenchError(Exception):
    """The benchmark could not measure: a worker failed or timed out."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _timeout(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def _run_worker(job: dict, work: Path, tag: str, deadline: float) -> dict:
    job = dict(job, root=str(ROOT), workdir=str(work), result=str(work / f"{tag}.out"))
    job_path = work / f"{tag}.job"
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                              env=_child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=_timeout(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} was still running after {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(Path(job["result"]).read_text())


def _in_family(name: str, family: tuple) -> bool:
    # "scipy" itself, but of its subpackages only the ones listed
    return any(name == f or (name.startswith(f + ".") and f != "scipy") for f in family)


def _import_breakdown(deadline: float, runs: int = 3) -> dict:
    """Import seconds per module family from ``-X importtime``, median of runs.

    ``-X importtime`` prints a module after its imports, one level deeper
    than its importer, with the cumulative time. A family's time is the sum
    over its lines that have no ancestor in the same family. Some packages
    (``scipy.special``) print no line of their own, only their submodules.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import lagfrac, lagfrac.cli"
    samples = {metric: [] for metric in IMPORTS}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              env=_child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=_timeout(deadline))
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        lines = []
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                name = fields[2].strip()
                lines.append((name, len(fields[2]) - len(fields[2].lstrip()),
                              int(fields[1]) / 1e6))
        for metric, family in IMPORTS.items():
            total = 0.0
            for i, (name, depth, cumulative) in enumerate(lines):
                if not _in_family(name, family):
                    continue
                nested = False
                for later, later_depth, _ in lines[i + 1:]:
                    if later_depth < depth:
                        depth = later_depth
                        if _in_family(later, family):
                            nested = True
                            break
                if not nested:
                    total += cumulative
            samples[metric].append(total)
    return {metric: statistics.median(values) for metric, values in samples.items()}


def _percentile_90(samples: list[float]) -> tuple[float, int]:
    value = statistics.quantiles(samples, n=10)[-1]
    return value, sum(1 for s in samples if s > value)


def _scaled(result: dict) -> tuple[float, float, list[float], list[float]]:
    """A measure worker's import, cold pass, warm passes and task times, scaled.

    Step i is scaled by REFERENCE_S over the mean of reference loops i and i + 1.
    """
    refs = result["reference_s"]
    scale = [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
    passes = [p * k for p, k in zip(result["pass_s"], scale[2:])]
    n = len(result["task_s"]) // len(passes)
    tasks = [t * scale[2 + i // n] for i, t in enumerate(result["task_s"])]
    return result["setup_s"] * scale[0], result["cold_pass_s"] * scale[1], passes, tasks


def measure(tasks: list[dict], work: Path, seconds: float, deadline: float,
            processes: int = PROCESSES) -> tuple[dict, dict, list]:
    """End-to-end metrics over ``processes`` workers; returns metrics, counts, notes."""
    min_passes = max(1, math.ceil(MIN_TASK_SAMPLES / (processes * len(tasks))))
    job = {"mode": "measure", "tasks": tasks, "seconds": seconds / processes,
           "min_passes": min_passes}
    results = [_run_worker(job, work, f"measure{i}", deadline) for i in range(processes)]
    setups, colds, passes, task_ms = [], [], [], []
    for result in results:
        setup, cold, warm, task_s = _scaled(result)
        setups.append(setup)
        colds.append(cold)
        passes += warm
        task_ms += [t * 1e3 for t in task_s]
    p90, beyond = _percentile_90(task_ms)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "cold_pass_s": (statistics.median(colds), len(colds)),
        "run_s": (statistics.median(passes), len(passes)),
        "task_ms.p50": (statistics.median(task_ms), len(task_ms)),
        "task_ms.p90": (p90, len(task_ms)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), len(results)),
    }
    cpu = [p for r in results for p in r["pass_s"]]
    walls = [p for r in results for p in r["wall_pass_s"]]
    refs = [x for r in results for x in r["reference_s"]]
    notes = [f"task_ms.p90 has {beyond} samples above it",
             f"unscaled median warm pass {statistics.median(cpu):.6g} s CPU, "
             f"{statistics.median(walls):.6g} s wall-clock; reference loop median "
             f"{statistics.median(refs):.6g} s, range {min(refs):.4g} to {max(refs):.4g} s"]
    if beyond < 10:
        raise BenchError(notes[0] + "; at least 10 are needed")
    return values, _merge_tallies(r["tally"] for r in results), notes


def trace(tasks: list[dict], work: Path, seconds: float,
          deadline: float) -> tuple[dict, dict, list]:
    """Per-layer metrics from one traced worker plus the import breakdown."""
    imports = _import_breakdown(deadline)
    result = _run_worker({"mode": "trace", "tasks": tasks, "seconds": seconds},
                         work, "trace", deadline)
    per_pass = result["per_pass"]
    n = len(per_pass)

    def median_of(key: str) -> float:
        return statistics.median(stats.get(key, 0) for stats in per_pass)

    values = {}
    for name, _unit in PER_LAYER:
        values[name] = (median_of(name), n)
    for name, value in imports.items():
        values[name] = (value, 3)
    values["solver.refused_ratio"] = (statistics.median(
        stats.get("solver.refused", 0) / stats["solver.solve.calls"]
        if stats.get("solver.solve.calls") else 0.0 for stats in per_pass), n)
    values["trace.overhead_ratio"] = (statistics.median(result["traced_pass_s"])
                                      / statistics.median(result["untraced_pass_s"]), n)
    values["cli.bytes_written"] = (median_of("bytes"), n)
    values["cli.rows_written"] = (median_of("rows"), n)
    tally = result["tally"]
    values["check.max_abs_err"] = (tally["max_err"], tally["passes"] * len(tasks))

    spans = json.loads((work / "spans.json").read_text())
    problems = tracer.check_spans(spans)
    cover = [sum(s.get(f"{layer}.self_s", 0.0) for layer in tracer.MODULES) / s["pass_s"]
             for s in per_pass]
    if max(cover) > 1.0:
        problems.append(f"per-layer self times sum to {max(cover):.4f} of a traced pass")
    notes = [f"{len(spans)} spans in the last traced pass",
             f"per-layer self times cover {statistics.median(cover):.4f} of the "
             f"traced pass wall time"] + problems
    merged = _merge_tallies([tally])
    merged["correct"] = merged["correct"] and not problems
    return values, merged, notes


def _merge_tallies(tallies) -> dict:
    """Distinct tasks attempted and failed over all workers, and pass count."""
    attempted, failed = set(), set()
    merged = {"passes": 0, "correct": True, "problems": []}
    for tally in tallies:
        attempted.update(tally["attempted"])
        failed.update(tally["failed"])
        merged["passes"] += tally["passes"]
        merged["correct"] = merged["correct"] and tally["correct"]
        merged["problems"] += tally["problems"]
    merged["attempted"], merged["failed"] = len(attempted), len(failed)
    return merged


def run(workload: str, seed: int, seconds: float, traced: bool,
        tasks: list[dict] | None = None, processes: int = PROCESSES) -> dict:
    """Run one benchmark; ``tasks`` and ``processes`` let the self-check shrink it."""
    if tasks is None:
        tasks = workloads.make_tasks(workload, seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        for task in tasks:
            if "config" in task:
                (work / f"{task['id']}.json").write_text(json.dumps(task["config"]))
        # one untimed import first, so compiling bytecode is not timed
        _run_worker({"mode": "measure", "tasks": [], "seconds": 0, "min_passes": 0},
                    work, "prime", deadline)
        if traced:
            values, tally, notes = trace(tasks, work, seconds, deadline)
            units = dict(PER_LAYER)
        else:
            values, tally, notes = measure(tasks, work, seconds, deadline, processes)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": workload, "tasks": len(tasks), "values": values, "units": units,
            "tally": tally, "notes": notes}


def report(outcome: dict) -> dict:
    """Print the readable lines; return the final JSON object."""
    tally = outcome["tally"]
    print(f"workload {outcome['workload']}: {outcome['tasks']} tasks per pass, "
          f"{tally['passes']} passes, failed/attempted tasks "
          f"{tally['failed']}/{tally['attempted']}, "
          f"correct {tally['correct']}")
    for problem in tally["problems"]:
        print(f"  incorrect: {problem}")
    for name, unit in outcome["units"].items():
        value, samples = outcome["values"][name]
        print(f"  {name:<44} {value:>14.6g} {unit:<6} n={samples}")
    for note in outcome["notes"]:
        print(f"  note: {note}")
    return {"correct": tally["correct"], "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": {name: {"value": outcome["values"][name][0], "unit": unit}
                        for name, unit in outcome["units"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so the running worker is killed and waited
    # for and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "lagfrac" / "__init__.py").is_file():
        print(f"error: no lagfrac source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
