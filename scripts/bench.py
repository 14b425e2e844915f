#!/usr/bin/env python3
"""Write ``BENCH_<label>.json`` from the benchmark and the step and CARE profiles.

    python3 scripts/bench.py --label 17 [--seconds 25] [--workloads default rho_ensemble]
                             [--M 32 64 128 256] [--root CHECKOUT] [--tier1]

A thin driver with one timer of its own, for the tier-1 suite.  From the
checkout ``--root`` (default: the one this script sits in) it runs

    phasebench/run.py --workload W --seed 0 --seconds S --trace 0
        once per workload, each in its own process.  It keeps the end-to-end
        metrics of the run's last line and the median and quartiles of its
        per-iteration ``wall_s`` samples.
    phasebench/run.py --workload W --seed 0 --seconds S --trace 1
        once per workload after it, and keeps the per-layer metrics of that
        traced run's last line under the workload's ``layers`` (for
        example ``io.write_trajectory_csv_s`` and ``sim.us_per_step``).
    scripts/step_profile.py --M ...
        once.  It keeps the microseconds per step of each phase that the
        profile prints, whatever that checkout names them.
    scripts/care_profile.py --M ...
        once, at the same sizes.  It keeps the Riccati synthesis's milliseconds per phase and,
        where the checkout prints it, its ``peak`` memory in n^2 doubles.
    python -m pytest -q --continue-on-collection-errors
        once, with --tier1, the tier-1 suite with ``<root>/src`` on the path
        and one BLAS thread.  It keeps the suite's wall time in seconds,
        its exit code and its summary line (the counts of passed and failed
        tests).

and writes them, with the benchmark's environment line and ``src_lines``,
the line count of ``<root>/src/phasestab/*.py``, to
``BENCH_<label>.json`` in the directory it is run from.  Running
it with ``--root`` on a copy of an earlier commit gives that commit's file
from the same driver.  It exits 1 when a run fails or reports a failed
operation, after writing what it has.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("default", "thin_interface", "rho_ensemble")


def _spread(samples: list[float]) -> dict:
    """Median, quartiles and count of samples."""
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def _samples(lines: list[str], label: str) -> list[float]:
    """The numbers on the run's output line that starts with ``label``."""
    for line in lines:
        if line.startswith(label):
            return [float(v) for v in line[len(label) :].split()]
    raise ValueError(f"no {label!r} line in the benchmark output")


def run_bench(root: Path, workload: str, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """(last-line result, output lines) of one ``phasebench/run.py`` run.

    The result is {"exit": code} when the run fails or prints nothing.
    """
    cmd = [sys.executable, str(root / "phasebench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=1800)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        return {"exit": out.returncode}, lines
    return json.loads(lines[-1]), lines


def run_layers(root: Path, workload: str, seconds: float) -> dict:
    """{metric: value} of one ``--trace 1`` run, with its correctness; {"exit": code} on failure."""
    result, _ = run_bench(root, workload, seconds, 1)
    if "exit" in result:
        return result
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"], **layers}


def run_workload(root: Path, workload: str, seconds: float) -> tuple[dict, dict | None]:
    """(row, environment) of one ``phasebench/run.py --trace 0`` run."""
    result, lines = run_bench(root, workload, seconds, 0)
    if "exit" in result:
        return result, None
    env = None
    for line in lines:
        if " environment " in line:
            env = json.loads(line.split(" environment ", 1)[1])
    row = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "wall_s": _spread(_samples(lines, "wall samples")),
    }
    return row, env


def run_profile(root: Path, script: str, sizes: list[int], unit: str) -> dict | None:
    """{"M=..": {column: value}} from a checkout's profile table; None on failure.

    The column names are those of the header, the line above the first
    ``M=`` row; any lines above the header are kept as ``run``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(root / "scripts" / script), "--M", *map(str, sizes)]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=1800)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        return None
    lines = out.stdout.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("M="))
    names = lines[first - 1].split()[1:]
    table = {"unit": unit}
    if first > 1:
        table["run"] = " ".join(lines[: first - 1])
    for line in lines[first:]:
        if line.startswith("M="):
            name, *values = line.split()
            table[name] = dict(zip(names, map(float, values)))
    return table


def run_tier1(root: Path) -> dict:
    """Wall time, exit code and summary line of one tier-1 run in the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=3600)
    wall = time.perf_counter() - start
    lines = out.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": out.returncode, "summary": lines[-1] if lines else ""}


def count_src_lines(root: Path) -> int:
    """Lines in the package's modules, ``<root>/src/phasestab/*.py``."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "phasestab").glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--M", type=int, nargs="+", default=[32, 64, 128, 256])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument("--tier1", action="store_true", help="also time the tier-1 suite")
    args = parser.parse_args()
    root = args.root.resolve()
    out = Path(f"BENCH_{args.label}.json")

    bench = {"label": args.label, "seconds": args.seconds, "seed": 0, "environment": None,
             "src_lines": count_src_lines(root), "workloads": {}, "step_profile": None,
             "care_profile": None, "tier1": None}
    status = 0
    for workload in args.workloads:
        row, env = run_workload(root, workload, args.seconds)
        row["layers"] = run_layers(root, workload, args.seconds)
        bench["workloads"][workload] = row
        bench["environment"] = bench["environment"] or env
        status |= int(not (row.get("correct", False) and row["layers"].get("correct", False)))
        print(f"{workload}: {json.dumps(row.get('wall_s', row))}", flush=True)
    bench["step_profile"] = run_profile(root, "step_profile.py", args.M, "us per step")
    bench["care_profile"] = run_profile(
        root, "care_profile.py", args.M, "ms per call; peak in n^2 doubles"
    )
    status |= int(bench["step_profile"] is None or bench["care_profile"] is None)
    if args.tier1:
        bench["tier1"] = run_tier1(root)
        status |= int(bench["tier1"]["exit"] != 0)
        print(f"tier1: {json.dumps(bench['tier1'])}", flush=True)
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
