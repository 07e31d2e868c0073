"""Byte-identity probe: run every benchmark task in process and hash what it leaves.

Usage (from the root of a checkout):

    python3 tools/probe.py --root CHECKOUT --out PROBE.json
    python3 tools/probe.py --compare A.json B.json

The first form imports lagfrac from ``CHECKOUT/src`` and runs every task of
the benchmark's workloads (``bench/workloads.py`` of the checkout holding
this script, imported and left as it is) at seeds 5 and 6, one
``lagfrac.cli.main(argv)`` call per task in a fresh directory, in the
benchmark's order and with BLAS pinned to one thread, as the benchmark
runs them. Per task it records the exit code and the sha256 of stdout, of
stderr (every warning printed) and of each file the task wrote. It then
runs the task a second time in the same directory, over the files the
first run left, as every benchmark pass after the first does, and records
the same digests after that rerun under ``rerun``.

The second form lists the tasks whose records differ between two probes,
or whose rerun left other bytes than their first run in either probe, and
exits 1 if any do, 0 if none do. A probe file that cannot be read as a JSON
object of task records is a usage error: exit 2, with one line naming it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

# before numpy loads: a multithreaded BLAS may round differently
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

SEEDS = (5, 6)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call(main, task: dict, work: Path, inputs: set) -> dict:
    """One main(argv) call in work: exit code and digests of what work then holds."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                code = main(task["argv"])
            except Exception as exc:  # recorded as the task's outcome
                code = f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    files = {path.name: _sha256(path.read_bytes()) for path in sorted(work.iterdir())
             if path.name not in inputs}
    return {"exit": code, "stdout": _sha256(out.getvalue().encode()),
            "stderr": _sha256(err.getvalue().encode()), "files": files}


def _run_task(main, task: dict) -> dict:
    """One task in a fresh directory, then its rerun over the files it left."""
    with tempfile.TemporaryDirectory(prefix="lagfrac-probe-") as tmp:
        work = Path(tmp)
        if "config" in task:
            (work / f"{task['id']}.json").write_text(json.dumps(task["config"]))
        inputs = set(os.listdir(work))
        record = _call(main, task, work, inputs)
        record["rerun"] = _call(main, task, work, inputs)
    return record


def probe(root: Path) -> dict:
    """Records of every task at every seed, keyed workload:seed:task id."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import lagfrac.cli

    if Path(lagfrac.cli.__file__).resolve().parent != src / "lagfrac":
        raise ImportError(f"lagfrac was imported from {lagfrac.cli.__file__}, not {src}")
    return {f"{workload}:{seed}:{task['id']}": _run_task(lagfrac.cli.main, task)
            for workload in workloads.WORKLOADS for seed in SEEDS
            for task in workloads.make_tasks(workload, seed)}


def _rerun_differs(record: dict) -> bool:
    return record["rerun"] != {key: value for key, value in record.items() if key != "rerun"}


def compare(a: dict, b: dict) -> list[str]:
    """The keys whose records differ, that only one probe holds, or whose
    rerun differs from its first run in either probe, sorted."""
    return sorted(key for key in a.keys() | b.keys()
                  if a.get(key) != b.get(key)
                  or any(_rerun_differs(probe[key]) for probe in (a, b) if key in probe))


def _load(parser: argparse.ArgumentParser, path: Path) -> dict:
    """The records of a probe file; an unreadable or malformed one is a usage error."""
    try:
        records = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        parser.error(f"cannot read probe file {path}: {exc}")
    if not (isinstance(records, dict)
            and all(isinstance(record, dict) and "rerun" in record for record in records.values())):
        parser.error(f"probe file {path} must hold a JSON object of task records")
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, help="checkout whose src/ runs the tasks")
    parser.add_argument("--out", type=Path, help="where to write the probe's JSON")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="two probe files to compare")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (_load(parser, path) for path in args.compare)
        differ = compare(a, b)
        for key in differ:
            print(f"differs: {key}")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} tasks differ")
        return 1 if differ else 0
    if args.root is None or args.out is None:
        parser.error("--root and --out are required unless --compare is given")
    records = probe(args.root)
    args.out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} tasks probed into {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
