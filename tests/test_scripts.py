"""Smoke test: each study script runs to completion on a small problem."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "rho_sweep.py": ["--points", "2", "--t-end", "0.05"],
    "actuator_study.py": ["--widths", "0.3"],
    "dt_front.py": ["--M", "16", "--t-end", "0.2", "--ref-dt", "1e-3"],
    "care_profile.py": ["--M", "16"],
    "step_profile.py": ["--M", "16", "--steps", "20", "--repeats", "1"],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
