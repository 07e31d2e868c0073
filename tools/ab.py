"""A/B timing of two checkouts: alternating warm passes, a fresh worker per turn.

Usage (from the root of a checkout):

    python3 tools/ab.py --a PARENT --b CHANGE --workload ivp_sweep --seed 7 \\
        [--pairs 10] [--passes 10] [--tasks K]

The tasks are one pass of the workload at the seed, from ``bench/workloads.py``
of the checkout holding this script (imported and left as it is), or its
first K tasks. Each pair gives each side one turn, A first in even pairs and
B first in odd ones. A turn starts a new worker process that imports lagfrac
from ``CHECKOUT/src`` with BLAS pinned to one thread, writes the tasks'
config files into a directory of its own and runs one untimed pass there,
then PASSES timed passes in a row; the turn's time is their median, and the
worker is closed after it. A pass is one ``lagfrac.cli.main(argv)`` call per
task, in order, timed in the worker's process CPU time (user plus system).
A worker per turn keeps a bias of one process (its memory layout, say) from
deciding every pair the same way; it costs each turn an interpreter start,
the import and the untimed pass, 0.2-0.45 s of wall time on the
benchmark's workloads, none of it timed. On a shared host one pass of
about 0.1 s varies by tens of percent, so a single pass per turn resolves
a change of 5-10 % only over many pairs.

It prints each side's median turn time and quartiles, the ratio of B's
median to A's, how many pairs B won (ties count for neither side), and
whether B's gain can be claimed: B wins at least nine tenths of the pairs
and the medians differ by more than A's interquartile range. Exit 0, or 1 if
a worker fails; the failed-task counts of the two sides are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

# seconds a worker gets to exit once its stdin is closed
EXIT_WAIT_S = 60


def _serve(root: Path, tasks: list[dict]) -> None:
    """The worker: one untimed pass, then one timed pass per line read from stdin.

    Each timed pass answers one JSON line on stdout, its CPU seconds and
    failed tasks; what the tasks print is discarded.
    """
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import lagfrac.cli

    if Path(lagfrac.cli.__file__).resolve().parent != src / "lagfrac":
        raise ImportError(f"lagfrac was imported from {lagfrac.cli.__file__}, not {src}")
    channel = sys.stdout
    with tempfile.TemporaryDirectory(prefix="lagfrac-ab-") as tmp:
        os.chdir(tmp)
        for task in tasks:
            if "config" in task:
                Path(f"{task['id']}.json").write_text(json.dumps(task["config"]))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            _run_pass(lagfrac.cli.main, tasks)
            for _ in sys.stdin:
                sink.seek(0)
                sink.truncate()
                cpu_s, failed = _run_pass(lagfrac.cli.main, tasks)
                channel.write(json.dumps({"cpu_s": cpu_s, "failed": failed}) + "\n")
                channel.flush()


def _run_pass(main, tasks: list[dict]) -> tuple[float, int]:
    failed = 0
    start = time.process_time()
    for task in tasks:
        try:
            failed += main(task["argv"]) != 0
        except Exception:  # a crash counts as a failed task, as in the benchmark
            failed += 1
    return time.process_time() - start, failed


class _Worker:
    """One serving process for a checkout, for one turn."""

    def __init__(self, root: Path, task_args: list[str]):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve", str(root), *task_args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def timed_pass(self) -> dict:
        try:
            self.proc.stdin.write("pass\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        if not line:
            self.proc.wait()
            raise RuntimeError(f"worker exited with status {self.proc.returncode}")
        return json.loads(line)

    def close(self) -> None:
        try:
            with contextlib.suppress(BrokenPipeError):  # the worker exited first
                self.proc.stdin.close()
            self.proc.wait(timeout=EXIT_WAIT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def compare(a: list[float], b: list[float]) -> dict:
    """Quartiles (the median between), B/A ratio, B's wins and the claim rule over paired times."""
    qa, qb = (statistics.quantiles(t, n=4, method="inclusive") for t in (a, b))
    wins = sum(tb < ta for ta, tb in zip(a, b))
    iqr = qa[2] - qa[0]
    return {"a": qa, "b": qb, "ratio": qb[1] / qa[1], "wins": wins, "pairs": len(a),
            "iqr_a": iqr, "claimable": wins >= 0.9 * len(a) and qa[1] - qb[1] > iqr}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--a", type=Path, help="checkout A, the base")
    parser.add_argument("--b", type=Path, help="checkout B, the change")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--passes", type=int, default=10, help="passes per turn")
    parser.add_argument("--tasks", type=int, help="run only the first TASKS tasks")
    args = parser.parse_args(argv)
    if None in (args.workload, args.seed):
        parser.error("--workload and --seed are required")
    tasks = workloads.make_tasks(args.workload, args.seed)[:args.tasks]
    if args.serve is not None:
        _serve(args.serve, tasks)
        return 0
    if None in (args.a, args.b):
        parser.error("--a and --b are required")
    if args.pairs < 2 or args.passes < 1:
        parser.error("--pairs must be at least 2 and --passes at least 1")
    task_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tasks is not None:
        task_args += ["--tasks", str(args.tasks)]
    times = {"A": [], "B": []}
    failed = {}
    try:
        for pair in range(args.pairs):
            for side in ("AB" if pair % 2 == 0 else "BA"):
                worker = _Worker(getattr(args, side.lower()), task_args)
                try:
                    results = [worker.timed_pass() for _ in range(args.passes)]
                finally:
                    worker.close()
                times[side].append(statistics.median(r["cpu_s"] for r in results))
                failed[side] = results[-1]["failed"]
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats = compare(times["A"], times["B"])
    print(f"{args.workload} seed {args.seed}: {len(tasks)} tasks per pass, {stats['pairs']} "
          f"pairs of {args.passes}-pass turns, failed tasks A {failed['A']} B {failed['B']}")
    for side in ("A", "B"):
        low, median, high = stats[side.lower()]
        print(f"{side}  median {median:.5f} s  quartiles {low:.5f} {high:.5f}  "
              f"({getattr(args, side.lower())})")
    print(f"B/A {stats['ratio']:.4f}; B faster in {stats['wins']} of {stats['pairs']} pairs; "
          f"A's IQR {stats['iqr_a']:.5f} s; gain claimable: "
          f"{'yes' if stats['claimable'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
