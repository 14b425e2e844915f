"""Smoke test: each study script runs to completion on a small problem."""

import importlib.util
import json
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


def run_script(script, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    result = run_script(script, SCRIPTS[script], tmp_path)
    assert result.returncode == 0, result.stderr


def test_bench_writes_its_file(tmp_path):
    args = ["--label", "smoke", "--workloads", "rho_ensemble", "--seconds", "0.1", "--M", "16"]
    result = run_script("bench.py", args, tmp_path)
    assert result.returncode == 0, result.stderr
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert type(bench["src_lines"]) is int and bench["src_lines"] > 0
    row = bench["workloads"]["rho_ensemble"]
    assert row["correct"] and row["failed"] == 0
    assert row["wall_s"]["q1"] <= row["wall_s"]["median"] <= row["wall_s"]["q3"]
    # one traced run's per-layer metrics
    layers = row["layers"]
    assert layers["correct"] and layers["failed"] == 0
    assert layers["sim.calls"] > 0 and layers["sim.us_per_step"] > 0.0
    assert layers["lqr.calls"] == 1
    assert set(bench["step_profile"]["M=16"]) >= {
        "setup", "solve", "feedback", "remainder", "step", "recording"
    }
    assert set(bench["care_profile"]["M=16"]) >= {"first", "probe", "total", "peak"}
    # the derived columns are differences of two timings, clamped at 0
    for phase in ("feedback", "remainder", "recording"):
        assert bench["step_profile"]["M=16"][phase] >= 0.0
    assert bench["care_profile"]["M=16"]["rest"] >= 0.0


def test_bench_times_a_tier1_suite(tmp_path):
    # --tier1 runs the checkout's suite once and keeps its wall time, exit
    # code and summary line; here a checkout with one passing test
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_one.py").write_text("def test_one():\n    assert True\n")
    row = bench.run_tier1(tmp_path)
    assert row["exit"] == 0 and row["wall_s"] > 0.0
    assert "1 passed" in row["summary"]
