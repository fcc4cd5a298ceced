import subprocess
import sys
from pathlib import Path

from conftest import child_env

REPO = Path(__file__).resolve().parents[1]


def test_every_demo_runs(tmp_path):
    # Demos write their outputs (frames, weights, datasets) into the working
    # directory, so each runs in a scratch directory against the source tree.
    demos = sorted((REPO / "demos").glob("*.py"))
    assert demos
    env = child_env()
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, f"{demo.name} failed:\n{proc.stderr}"
