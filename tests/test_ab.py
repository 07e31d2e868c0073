"""tools/ab.py, the alternating A/B timer over the benchmark's tasks."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"


def run_ab(*args):
    return subprocess.run([sys.executable, str(AB), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_ab_times_a_two_task_slice_of_this_tree_against_itself():
    proc = run_ab("--a", ROOT, "--b", ROOT, "--workload", "ivp_sweep", "--seed", 5,
                  "--pairs", 2, "--passes", 2, "--tasks", 2)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ("ivp_sweep seed 5: 2 tasks per pass, 2 pairs of 2-pass turns, "
                        "failed tasks A 0 B 0")
    for side, line in zip("AB", lines[1:3]):
        assert re.fullmatch(rf"{side}  median \d\.\d{{5}} s  quartiles \d\.\d{{5}} "
                            rf"\d\.\d{{5}}  \({re.escape(str(ROOT))}\)", line), line
    assert re.fullmatch(r"B/A \d+\.\d{4}; B faster in [0-2] of 2 pairs; "
                        r"A's IQR \d\.\d{5} s; gain claimable: (yes|no)", lines[3]), lines[3]
    assert len(lines) == 4


def test_ab_reports_a_worker_that_fails(tmp_path):
    proc = run_ab("--a", ROOT, "--b", tmp_path, "--workload", "ivp_sweep", "--seed", 5,
                  "--pairs", 2, "--passes", 1, "--tasks", 1)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines()[-1] == "error: worker exited with status 1"


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_claim_needs_nine_in_ten_wins_and_a_gap_wider_than_the_base_iqr():
    ab = load_ab()
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    stats = ab.compare(base, [t - 0.1 for t in base])
    assert (stats["wins"], stats["claimable"]) == (10, True)
    assert stats["ratio"] == stats["b"][1] / stats["a"][1]
    # a gap inside the base's interquartile range is not a gain, however many wins
    assert not ab.compare(base, [t - 0.005 for t in base])["claimable"]
    # nor are 8 wins of 10, however wide the gap
    eight = [t - 0.1 for t in base[:8]] + [t + 0.1 for t in base[8:]]
    assert (ab.compare(base, eight)["wins"], ab.compare(base, eight)["claimable"]) == (8, False)
    # a tied pair is no win for B
    tied = [t - 0.1 for t in base[:9]] + base[9:]
    assert (ab.compare(base, tied)["wins"], ab.compare(base, tied)["claimable"]) == (9, True)


def test_a_turn_is_one_worker_job_scaled_as_the_benchmark_scales(monkeypatch, capsys):
    ab = load_ab()
    tasks = ab.workloads.make_tasks("ivp_sweep", 5)[:2]
    jobs = []

    def worker(args, returncode=0, **kwargs):
        job = json.loads(Path(args[-1]).read_text())
        jobs.append(job)
        # every config file is in the work directory before the worker starts
        assert sorted(os.listdir(job["workdir"])) == sorted(
            [f"{t['id']}.json" for t in tasks if "config" in t] + ["turn.job"])
        # reference loops around the import, the cold pass and three warm passes;
        # the warm passes scale by 1, 2/3 and 4/5
        Path(job["result"]).write_text(json.dumps({
            "setup_s": 0.2, "cold_pass_s": 0.5, "pass_s": [0.3, 0.3, 0.1],
            "task_s": [0.1, 0.2, 0.1, 0.2, 0.05, 0.05],
            "reference_s": [0.1, 0.1, 0.1, 0.1, 0.2, 0.05],
            "tally": {"failed": [tasks[1]["id"]]}}))
        return subprocess.CompletedProcess(args, returncode)

    monkeypatch.setattr(ab.subprocess, "run", worker)
    elapsed, failed = ab._turn(ROOT, tasks, 3)
    # the raw median is 0.3; the scaled passes are 0.3, 0.2 and 0.08
    assert elapsed == pytest.approx(0.2) and failed == 1
    assert {key: jobs[0][key] for key in ("mode", "tasks", "seconds", "min_passes", "root")} == {
        "mode": "measure", "tasks": tasks, "seconds": 0, "min_passes": 3, "root": str(ROOT)}

    monkeypatch.setattr(ab.subprocess, "run", lambda args, **kwargs: worker(args, 3))
    assert ab.main(["--a", str(ROOT), "--b", str(ROOT), "--workload", "ivp_sweep", "--seed", "5",
                    "--pairs", "2", "--passes", "3", "--tasks", "2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: worker exited with status 3\n")
