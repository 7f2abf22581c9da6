import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_runs(tmp_path):
    """Each demo script exits 0, run the way README shows, within 60 s."""
    assert DEMOS
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in DEMOS:
        done = subprocess.run(
            [sys.executable, str(demo)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, f"{demo.name} exited {done.returncode}:\n{done.stderr}"
