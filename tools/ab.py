"""A/B timing of two checkouts: alternating turns, each one benchmark worker.

Usage (from the root of a checkout):

    python3 tools/ab.py --a PARENT --b CHANGE --workload ivp_sweep --seed 7 \\
        [--pairs 10] [--passes 10] [--tasks K]

The tasks are one pass of the workload at the seed, from ``bench/workloads.py``
of the checkout holding this script, or its first K tasks. Each pair gives
each side one turn, A first in even pairs and B first in odd ones. A turn
is one measure job of ``bench/worker.py``, also from the checkout holding
this script, so both sides are measured by the same benchmark code: a
fresh process with BLAS pinned to one thread imports lagfrac from
``CHECKOUT/src``, runs one cold pass over config files written into the
turn's own directory, then PASSES warm passes. Each pass is timed in
process CPU time and scaled by the reference loops around it
(``run._scaled``), and its outputs are checked by ``workloads.judge``,
exactly as the benchmark does; the turn's time is the median of its scaled
warm passes, and its failed tasks are the worker's tally.

A fresh worker per turn keeps a bias of one process (its memory layout,
say) from deciding every pair the same way. Besides the passes, a turn
costs an interpreter start, the import, the cold pass, the output checks
and a reference loop of about 0.1 s around every step, none of it in the
turn's time: 10 pairs of 6-pass operators turns took 26-38 s of wall time
on a shared 2-vCPU machine, against 10-18 s for a pass loop without checks
or reference loops timed in raw process CPU time. The scaling is what that
buys: in five same-tree A/A runs of that size, each beside one of the raw
loop, A's interquartile range read 2.6-7.6 % of its median (2.6 and 2.9 %
on a quiet host), against 5-61 % (8 and 12 %) with raw CPU time.

It prints each side's median turn time and quartiles, the ratio of B's
median to A's, how many pairs B won (ties count for neither side), and
whether B's gain can be claimed: B wins at least nine tenths of the pairs
and the medians differ by more than A's interquartile range. Exit 0, or 1 if
a worker fails; the failed-task counts of the two sides are printed too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import workloads  # noqa: E402


def _turn(root: Path, tasks: list[dict], passes: int) -> tuple[float, int]:
    """One measure job of bench/worker.py: its median scaled warm pass and failed tasks."""
    with tempfile.TemporaryDirectory(prefix="lagfrac-ab-") as tmp:
        work = Path(tmp)
        for task in tasks:
            if "config" in task:
                (work / f"{task['id']}.json").write_text(json.dumps(task["config"]))
        job = {"mode": "measure", "tasks": tasks, "seconds": 0, "min_passes": passes,
               "root": str(root.resolve()), "workdir": tmp, "result": str(work / "turn.out")}
        (work / "turn.job").write_text(json.dumps(job))
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(work / "turn.job")],
                              env=run._child_env(), stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with status {proc.returncode}")
        result = json.loads((work / "turn.out").read_text())
    return statistics.median(run._scaled(result)[2]), len(result["tally"]["failed"])


def compare(a: list[float], b: list[float]) -> dict:
    """Quartiles (the median between), B/A ratio, B's wins and the claim rule over paired times."""
    qa, qb = (statistics.quantiles(t, n=4, method="inclusive") for t in (a, b))
    wins = sum(tb < ta for ta, tb in zip(a, b))
    iqr = qa[2] - qa[0]
    return {"a": qa, "b": qb, "ratio": qb[1] / qa[1], "wins": wins, "pairs": len(a),
            "iqr_a": iqr, "claimable": wins >= 0.9 * len(a) and qa[1] - qb[1] > iqr}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="checkout A, the base")
    parser.add_argument("--b", type=Path, required=True, help="checkout B, the change")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--passes", type=int, default=10, help="passes per turn")
    parser.add_argument("--tasks", type=int, help="run only the first TASKS tasks")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.passes < 1:
        parser.error("--pairs must be at least 2 and --passes at least 1")
    tasks = workloads.make_tasks(args.workload, args.seed)[:args.tasks]
    times = {"A": [], "B": []}
    failed = {}
    try:
        for pair in range(args.pairs):
            for side in ("AB" if pair % 2 == 0 else "BA"):
                elapsed, failed[side] = _turn(getattr(args, side.lower()), tasks, args.passes)
                times[side].append(elapsed)
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
