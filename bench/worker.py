"""One benchmark process: import lagfrac, then run passes over a task list.

Usage: python3 worker.py JOB.json

The job names the checkout root, the work directory, the tasks, the mode
and the time budget; the worker writes its measurements to the job's
``result`` path. Modes:

    measure  time the import, run one cold pass, then warm passes until
             ``seconds`` have passed and at least ``min_passes`` warm passes ran;
             the import, passes and tasks are timed in process CPU time, and
             a reference loop is timed before and after each of those steps
    trace    one untimed pass, then untraced and traced passes alternately
             for ``seconds`` (at least two of each)

Every pass runs all tasks in order, one ``lagfrac.cli.main(argv)`` call at a
time in this process. The outputs are checked after the pass, outside the
timed region.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import workloads

REFERENCE_LOOPS = 600_000


def _import_lagfrac(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    start = time.process_time()
    import lagfrac
    import lagfrac.cli
    elapsed = time.process_time() - start
    if Path(lagfrac.__file__).resolve().parent != (src / "lagfrac").resolve():
        raise ImportError(f"lagfrac was imported from {lagfrac.__file__}, not {src}")
    return lagfrac, elapsed


def _run_pass(main, tasks: list[dict], clock=time.process_time) -> tuple[float, list[float], list]:
    codes, times = [], []
    start = clock()
    for task in tasks:
        began = clock()
        try:
            code = main(task["argv"])
        except Exception as exc:  # a crash is counted as an incorrect task
            code = f"{type(exc).__name__}: {exc}"
        times.append(clock() - began)
        codes.append(code)
    return clock() - start, times, codes


class Tally:
    """Failure and accuracy accounting over the passes a process runs.

    A task is counted once, however many passes run it: it is attempted
    when some pass ran it and failed when it failed in some pass. The time
    budget sets the number of passes, so counting runs would make the
    counts depend on the machine's speed.
    """

    def __init__(self, tasks: list[dict], workdir: Path):
        self.tasks, self.workdir = tasks, workdir
        self.passes = 0
        self.failed: set[str] = set()
        self.correct = True
        self.max_err = 0.0
        self.bytes = self.rows = 0
        self.problems: list[str] = []

    def add(self, codes: list) -> None:
        self.passes += 1
        self.bytes = self.rows = 0
        for task, code in zip(self.tasks, codes):
            outcome = workloads.judge(task, code, self.workdir)
            if outcome["failed"]:
                self.failed.add(task["id"])
            self.bytes += outcome["bytes"]
            self.rows += outcome["rows"]
            if outcome["error"] is not None:
                self.max_err = max(self.max_err, outcome["error"])
            if not outcome["correct"]:
                self.correct = False
                if len(self.problems) < 5:
                    self.problems.append(f"{task['id']}: exit {code}, "
                                         f"error {outcome['error']}")

    def as_dict(self) -> dict:
        return {"attempted": [t["id"] for t in self.tasks] if self.passes else [],
                "failed": sorted(self.failed), "passes": self.passes,
                "correct": self.correct, "max_err": self.max_err,
                "bytes": self.bytes, "rows": self.rows, "problems": self.problems}


def reference() -> float:
    """CPU seconds of a fixed pure-Python loop that uses nothing of lagfrac.

    It is timed between the timed steps of a measure worker, so that each
    step can be scaled by how fast the processor ran around it.
    """
    start = time.process_time()
    acc, table = 0.0, {}
    for i in range(REFERENCE_LOOPS):
        acc += math.sin(i * 1e-3) * 1.5
        table[i % 97] = acc
    return time.process_time() - start


def measure(cli, tasks, tally, seconds: float, min_passes: int, refs: list) -> dict:
    cold, _, codes = _run_pass(cli.main, tasks)
    refs.append(reference())
    tally.add(codes)
    passes, walls, task_times = [], [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        began = time.perf_counter()
        elapsed, times, codes = _run_pass(cli.main, tasks)
        walls.append(time.perf_counter() - began)
        refs.append(reference())
        tally.add(codes)
        passes.append(elapsed)
        task_times.extend(times)
    return {"cold_pass_s": cold, "pass_s": passes, "wall_pass_s": walls, "task_s": task_times}


def trace(lagfrac, tasks, tally, seconds: float) -> dict:
    from tracer import Tracer, aggregate

    # spans are wall-clock intervals, so the passes they are compared with are too
    main = lagfrac.cli.main
    wall = time.perf_counter
    _, _, codes = _run_pass(main, tasks, wall)
    tally.add(codes)
    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        elapsed, _, codes = _run_pass(main, tasks, wall)
        plain.append(elapsed)
        tally.add(codes)
        tracer.clear()
        tracer.install(lagfrac)
        try:
            # look the entry point up again so the wrapped main is the root span
            elapsed, _, codes = _run_pass(lagfrac.cli.main, tasks, wall)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        tally.add(codes)
        stats = aggregate(tracer.spans)
        stats.update(tracer.counts)
        stats["pass_s"] = elapsed
        stats["bytes"], stats["rows"] = tally.bytes, tally.rows
        per_pass.append(stats)
        spans = tracer.spans
    if main is not lagfrac.cli.main:
        raise RuntimeError("tracer did not restore lagfrac.cli.main")
    # the spans of the last traced pass go to disk once, after all timing
    Path("spans.json").write_text(json.dumps(spans))
    return {"untraced_pass_s": plain, "traced_pass_s": traced, "per_pass": per_pass}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    root, workdir = Path(job["root"]), Path(job["workdir"])
    # refs[i] and refs[i + 1] bracket the i-th timed step: the import, the
    # cold pass, then each warm pass
    refs = [reference()]
    lagfrac, setup = _import_lagfrac(root)
    refs.append(reference())
    os.chdir(workdir)
    tally = Tally(job["tasks"], workdir)
    quiet = open(os.devnull, "w")
    real_stdout, real_stderr = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = quiet
    try:
        if job["mode"] == "measure":
            result = measure(lagfrac.cli, job["tasks"], tally, job["seconds"],
                             job["min_passes"], refs)
        else:
            result = trace(lagfrac, job["tasks"], tally, job["seconds"])
    finally:
        sys.stdout, sys.stderr = real_stdout, real_stderr
        quiet.close()
    result["setup_s"] = setup
    result["reference_s"] = refs
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["tally"] = tally.as_dict()
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
