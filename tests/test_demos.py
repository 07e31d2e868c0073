import os
import re
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


def test_readme_python_blocks_run(capsys):
    # the fenced python blocks run in order in one namespace, as a reader pastes them
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text("utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    # each block prints the errors its comments quote, all near rounding level
    assert len(printed) >= 3
    assert all(0.0 <= float(value) <= 1e-10 for value in printed), printed
