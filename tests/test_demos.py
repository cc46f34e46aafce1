import os
import subprocess
import sys
from pathlib import Path

import pytest

import lmodecomp

# directory holding the imported `lmodecomp` package (`src/` in a checkout)
SRC_ROOT = Path(lmodecomp.__file__).resolve().parents[1]
DEMOS = SRC_ROOT.parent / "demos"


@pytest.mark.parametrize("demo", ["matrix_game.py", "nash_equilibrium.py",
                                  "resource_allocation.py", "resource_allocation.py --large"])
def test_demo_runs(demo, tmp_path):
    # each demo in a fresh interpreter, run as its docstring says
    script, *args = demo.split()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / script), *args], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
