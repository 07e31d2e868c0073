import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    # each demo writes into demo_output/ under its working directory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # a numpy warning fails a demo, as it fails the in-process tests (pyproject.toml);
    # under -X dev a file left open, by a demo or by the CLI writer, fails it too
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error::RuntimeWarning",
                             "-W", "error::ResourceWarning", str(demo)],
                            cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # a ResourceWarning raised in a destructor is printed, not propagated to the exit code
    assert "ResourceWarning" not in result.stderr, result.stderr
    assert (tmp_path / "demo_output").is_dir()
