"""tools/probe.py, the byte-identity probe over the benchmark's tasks."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / "tools" / "probe.py"


def run_probe(*args):
    return subprocess.run([sys.executable, str(PROBE), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_probe_of_this_tree_matches_itself(tmp_path):
    for name in ("a.json", "b.json"):
        proc = run_probe("--root", ROOT, "--out", tmp_path / name)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"213 tasks probed into {tmp_path / name}\n"
    proc = run_probe("--compare", tmp_path / "a.json", tmp_path / "b.json")
    assert (proc.returncode, proc.stdout) == (0, "0 of 213 tasks differ\n"), proc.stderr
    records = json.loads((tmp_path / "a.json").read_text())
    # the default example runs are probed besides the benchmark's tasks
    assert {f"presets:-:example{k}" for k in (1, 2, 3)} <= records.keys()
    # every task exits 0 with its files written, or 2 (a numerical refusal) with none
    assert {(r["exit"], bool(r["files"])) for r in records.values()} == {(0, True), (2, False)}
    # a rerun over the files of the first run leaves the same bytes
    for record in records.values():
        rerun = record.pop("rerun")
        assert rerun == record


def test_compare_lists_the_tasks_that_differ(tmp_path):
    first = {"exit": 0, "stdout": "0" * 64, "stderr": "1" * 64, "files": {"t.csv": "2" * 64}}
    record = dict(first, rerun=first)
    stale = dict(first, rerun=dict(first, files={"t.csv": "4" * 64}))
    a = {"w:5:same": record, "w:5:changed": record, "w:5:only_in_a": record,
         "w:5:rerun_in_a": stale, "w:5:rerun_in_b": record}
    b = {"w:5:same": record, "w:5:changed": dict(record, files={"t.csv": "3" * 64}),
         "w:5:rerun_in_a": stale, "w:5:rerun_in_b": stale}
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    proc = run_probe("--compare", tmp_path / "a.json", tmp_path / "b.json")
    assert proc.returncode == 1
    assert proc.stdout == ("differs: w:5:changed\ndiffers: w:5:only_in_a\n"
                           "differs: w:5:rerun_in_a\ndiffers: w:5:rerun_in_b\n"
                           "4 of 5 tasks differ\n")


def test_compare_refuses_an_unreadable_probe_file(tmp_path):
    # exit 1 means "tasks differ", so a file that is not a probe is a usage error (exit 2)
    (tmp_path / "good.json").write_text("{}")
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "numbers.json").write_text('{"w:5:t": 1}')
    for name, cause in [("missing.json", "cannot read probe file"),
                        ("bad.json", "cannot read probe file"),
                        ("list.json", "must hold a JSON object of task records"),
                        ("numbers.json", "must hold a JSON object of task records")]:
        proc = run_probe("--compare", tmp_path / "good.json", tmp_path / name)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        last = proc.stderr.splitlines()[-1]
        assert last.startswith("probe.py: error: ") and cause in last
        assert str(tmp_path / name) in last
        assert "Traceback" not in proc.stderr
