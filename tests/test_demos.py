import os
import subprocess
import sys
from pathlib import Path

import pytest

import lmodecomp

# directory holding the imported `lmodecomp` package (`src/` in a checkout)
SRC_ROOT = Path(lmodecomp.__file__).resolve().parents[1]
DEMOS = SRC_ROOT.parent / "demos"
README = SRC_ROOT.parent / "README.md"


def run_fresh(args, cwd):
    """Run the interpreter with `args` in a fresh process that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=300)


@pytest.mark.parametrize("demo", ["matrix_game.py", "nash_equilibrium.py",
                                  "resource_allocation.py", "resource_allocation.py --large"])
def test_demo_runs(demo, tmp_path):
    # each demo in a fresh interpreter, run as its docstring says
    script, *args = demo.split()
    proc = run_fresh([str(DEMOS / script), *args], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_quick_start_runs(tmp_path):
    # the `python` block of the README's Quick start, as a reader would paste it
    quick_start = README.read_text().split("\n## Quick start\n", 1)[1]
    code = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip(), "the example prints its value, gap and strategy"
