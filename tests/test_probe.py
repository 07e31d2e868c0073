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
        assert proc.stdout == f"210 tasks probed into {tmp_path / name}\n"
    proc = run_probe("--compare", tmp_path / "a.json", tmp_path / "b.json")
    assert (proc.returncode, proc.stdout) == (0, "0 of 210 tasks differ\n"), proc.stderr
    records = json.loads((tmp_path / "a.json").read_text())
    # every task exits 0 with its files written, or 2 (a numerical refusal) with none
    assert {(r["exit"], bool(r["files"])) for r in records.values()} == {(0, True), (2, False)}


def test_compare_lists_the_tasks_that_differ(tmp_path):
    record = {"exit": 0, "stdout": "0" * 64, "stderr": "1" * 64, "files": {"t.csv": "2" * 64}}
    a = {"w:5:same": record, "w:5:changed": record, "w:5:only_in_a": record}
    b = {"w:5:same": record, "w:5:changed": dict(record, files={"t.csv": "3" * 64})}
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    proc = run_probe("--compare", tmp_path / "a.json", tmp_path / "b.json")
    assert proc.returncode == 1
    assert proc.stdout == ("differs: w:5:changed\ndiffers: w:5:only_in_a\n"
                           "2 of 3 tasks differ\n")
