"""Every script in demos/, and the README's library quickstart, runs to
completion against the package sources."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    return subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script, tmp_path):
    result = run_python([str(script)], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]


def test_readme_library_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.DOTALL)
    result = run_python(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
