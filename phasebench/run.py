#!/usr/bin/env python3
"""phasestab benchmark: time to a certified decaying run.

    python3 phasebench/run.py --workload default --seed 0 --seconds 25 --trace 0
    python3 phasebench/run.py --workload all --seed 0 --seconds 25
    python3 phasebench/run.py --regenerate-references [--workload NAME]

Run from the repository root.  A run builds the workload's inputs from
``--seed``, measures the set-up several times in fresh interpreters, warms up
with one untimed iteration, then repeats the workload's iteration for
``--seconds`` seconds, checking every output.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``); the lines before it describe the run for a
reader.  ``--workload all`` runs the three workloads one after another, each
in its own process, and prints one table.  See README.md beside this file.
"""

import os

# Pinned before NumPy loads so every run, and every set-up child, uses the
# same BLAS thread count; one thread also keeps run-to-run spread low.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".phasebench"  # run directories (deleted after each run) and traces

SETUP_REPEATS = 5
MIN_SAMPLES = 3
WORKLOAD_NAMES = ("default", "thin_interface", "rho_ensemble")

SETUP_CHILD = """
import sys
sys.path.insert(0, {here!r})
from speed import SpeedProbe
with SpeedProbe() as probe:
    sys.path.insert(0, {src!r})
    import phasestab
    from phasestab.cli import build_materials
    from phasestab.config import load_config
    m = build_materials(load_config({cfg!r}))
print(probe.scaled, probe.busy, m.plant.N_unstable)
"""


def import_program():
    """Import phasestab from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "phasestab" / "__init__.py").is_file():
        print(f"error: no phasestab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import phasestab

    if Path(phasestab.__file__).resolve().parent != (SRC / "phasestab").resolve():
        print(f"error: imported phasestab from {phasestab.__file__}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
    }


def measure_setup(cfg_path: Path, n_unstable: int) -> tuple[list[float], list[float]]:
    """Import, config load and build_materials, each time in a fresh interpreter.

    Returns the set-up times at reference speed and as measured.
    """
    code = SETUP_CHILD.format(here=str(HERE), src=str(SRC), cfg=str(cfg_path))
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise RuntimeError(f"set-up child exited {out.returncode}")
        at_reference, measured, count = out.stdout.split()
        if int(count) != n_unstable:
            raise RuntimeError(f"set-up child found N={count}, in-process set-up N={n_unstable}")
        scaled.append(float(at_reference))
        raw.append(float(measured))
    return scaled, raw


def tail_percentile(samples: list[float]):
    """Highest of a few percentiles with at least ten samples above it, or None."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return p, cuts[int(round(p * 10)) - 1]
    return None


# -- per-layer metrics from spans ----------------------------------------------


def _dur(run, name):
    return sum(s["end"] - s["start"] for _, s in run if s["name"] == name)


def _count(run, name):
    return sum(1 for _, s in run if s["name"] == name)


def _total(run, name, key):
    return sum(s[key] for _, s in run if s["name"] == name)


def _top(run, name, key):
    return max((s[key] for _, s in run if s["name"] == name), default=0.0)


# metric -> (unit, value from one traced iteration's spans)
PER_ITERATION = {
    "sim.simulate_s": ("s", lambda r: _dur(r, "sim.simulate")),
    "sim.calls": ("count", lambda r: _count(r, "sim.simulate")),
    "sim.steps": ("count", lambda r: _total(r, "sim.simulate", "steps")),
    "sim.recorded_rows": ("count", lambda r: _total(r, "sim.simulate", "rows")),
    "actuator.build_actuator_s": ("s", lambda r: _dur(r, "actuator.build_actuator")),
    "actuator.null_control_s": ("s", lambda r: _dur(r, "actuator.null_control")),
    "actuator.steering_error": ("1", lambda r: _top(r, "actuator.null_control", "steering_error")),
    "lqr.solve_care_s": ("s", lambda r: _dur(r, "lqr.solve_care")),
    "lqr.calls": ("count", lambda r: _count(r, "lqr.solve_care")),
    "lqr.iterations": ("count", lambda r: _total(r, "lqr.solve_care", "iterations")),
    "lqr.residual_rel": ("1", lambda r: _top(r, "lqr.solve_care", "residual_rel")),
    "io.write_trajectory_csv_s": ("s", lambda r: _dur(r, "io.write_trajectory_csv")),
    "io.read_trajectory_csv_s": ("s", lambda r: _dur(r, "io.read_trajectory_csv")),
    "io.write_json_s": ("s", lambda r: _dur(r, "io.write_json")),
    "io.trajectory_bytes": ("B", lambda r: _total(r, "io.write_trajectory_csv", "bytes")),
    "cli.run_pipeline_s": ("s", lambda r: _dur(r, "cli.run_pipeline")),
    "cli.render_report_s": ("s", lambda r: _dur(r, "cli.render_report")),
    "cli.load_gain_s": ("s", lambda r: _dur(r, "cli.load_gain")),
    "cli.gain_reuse": ("count", lambda r: _total(r, "cli.load_gain", "reused")),
}

# metric -> (unit, value from the traced in-process set-up's spans)
PER_SETUP = {
    "stationary.solve_s": (
        "s",
        lambda r: _dur(r, "stationary.stationary_constant") + _dur(r, "stationary.stationary_minimize"),
    ),
    "stationary.iterations": (
        "count",
        lambda r: _total(r, "stationary.stationary_constant", "iterations")
        + _total(r, "stationary.stationary_minimize", "iterations"),
    ),
    "linearization.assemble_plant_s": ("s", lambda r: _dur(r, "linearization.assemble_plant")),
}


def run_figures(spans, run) -> dict:
    """Every layer figure of one traced run, ``cli.self_s`` included."""
    from spans import self_time

    r = [(i, s) for i, s in enumerate(spans) if s["run"] == run]
    figures = {name: fn(r) for table in (PER_ITERATION, PER_SETUP) for name, (_, fn) in table.items()}
    figures["cli.self_s"] = sum(self_time(spans, i) for i, s in r if s["name"] == "cli.run_pipeline")
    return figures


def layer_metrics(spans, traced_runs, traced_wall, plain_wall, artifact_bytes) -> tuple[dict, dict]:
    """The per-layer metrics, and the figures of each traced run they come from.

    Iteration metrics are medians over the traced runs; the ``stationary`` and
    ``linearization`` metrics are those of the traced set-up.
    """
    per_run = {run: run_figures(spans, run) for run in traced_runs}
    units = {**{name: unit for name, (unit, _) in PER_ITERATION.items()}, "cli.self_s": "s"}
    metrics = {
        name: {"value": statistics.median(f[name] for f in per_run.values()), "unit": unit}
        for name, unit in units.items()
    }
    steps, sim_s = metrics["sim.steps"]["value"], metrics["sim.simulate_s"]["value"]
    metrics["sim.us_per_step"] = {"value": 1e6 * sim_s / steps if steps else 0.0, "unit": "us"}
    setup = run_figures(spans, "setup")
    for name, (unit, _) in PER_SETUP.items():
        metrics[name] = {"value": setup[name], "unit": unit}
    metrics["artifact_bytes"] = {"value": artifact_bytes, "unit": "B"}
    metrics["trace.wall_s"] = {"value": statistics.median(traced_wall), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_wall) - statistics.median(plain_wall),
        "unit": "s",
    }
    return metrics, per_run


# -- one workload --------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import_program()
    import workloads as wl
    from phasestab import cli
    from phasestab.config import save_config
    from spans import TRACED, Tracer
    from speed import SpeedProbe

    instance = seed % wl.N_INSTANCES
    env = environment()
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    tracer = Tracer()
    try:
        cfg = wl.config_for(workload, instance)
        cfg_path = scratch / "config.json"
        save_config(cfg, cfg_path)

        if trace:
            tracer.run = "setup"
            with tracer.patched(cli, TRACED), tracer.span("bench.setup"):
                runner = wl.Runner(workload, instance, cfg_path)
        else:
            runner = wl.Runner(workload, instance, cfg_path)
            setup_scaled, setup_raw = measure_setup(cfg_path, runner.materials.plant.N_unstable)

        plain_api = SimpleNamespace(solve_care=wl.solve_care, simulate=wl.simulate)
        traced_api = SimpleNamespace(
            solve_care=tracer.wrap(wl.solve_care), simulate=tracer.wrap(wl.simulate)
        )

        def iteration(run, traced):
            """(seconds as measured, seconds at reference speed or None, checked result)."""
            run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
            if traced:
                tracer.run = run
                with tracer.patched(cli, TRACED), tracer.span("bench.iteration"):
                    t0 = time.perf_counter()
                    raw = runner.work(run_dir, traced_api)
                    elapsed, scaled = time.perf_counter() - t0, None
            else:
                with SpeedProbe() as probe:
                    raw = runner.work(run_dir, plain_api)
                elapsed, scaled = probe.busy, probe.scaled
            result = runner.check(raw, run_dir)
            shutil.rmtree(run_dir)
            return elapsed, scaled, result

        # first call in a fresh process pays lazy imports and cold caches: untimed
        _, _, warm = iteration("warmup", False)
        results, plain, scaled, traced, traced_runs = [warm], [], [], [], []
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            traced_now = trace and k % 2 == 1
            elapsed, at_reference, result = iteration(k, traced_now)
            results.append(result)
            if traced_now:
                traced.append(elapsed)
                traced_runs.append(k)
            else:
                plain.append(elapsed)
                scaled.append(at_reference)
            k += 1
            enough = len(plain) >= MIN_SAMPLES and (not trace or len(traced) >= MIN_SAMPLES)
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    outcomes = [o for r in results for o in r.outcomes]
    failures = [o for o in outcomes if o.failure]
    for o in failures[:10]:
        print(f"FAILED {o.op}: {o.failure}", file=sys.stderr)
    errs = [o.rel_err for o in outcomes if o.rel_err is not None]
    decay_rel_err = max(errs) if runner.ref is not None and errs else None
    artifact_bytes = results[-1].artifact_bytes

    print(f"workload {workload}  seed {seed}  instance {instance}  environment {json.dumps(env)}")
    if trace:
        metrics, per_run = layer_metrics(tracer.spans, traced_runs, traced, plain, artifact_bytes)
        out = WORK / "traces" / f"{workload}-seed{seed}.json"
        out.parent.mkdir(exist_ok=True)
        summary = {"decay_rel_err": decay_rel_err, "artifact_bytes": artifact_bytes}
        out.write_text(
            json.dumps(
                {"workload": workload, "seed": seed, "environment": env,
                 "traced_runs": traced_runs, "per_run": per_run, "summary": summary,
                 "spans": tracer.spans},
                indent=1,
            )
            + "\n"
        )
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        # timings at reference speed (speed.py); the raw figures are printed too
        setup = statistics.median(setup_scaled)
        wall = statistics.median(scaled)
        tail = tail_percentile(scaled)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(
            f"setup_s         {setup:.4f} s  (median of {len(setup_scaled)} set-ups at reference "
            f"speed; as measured {statistics.median(setup_raw):.4f} s)"
        )
        print(
            f"wall_s          {wall:.4f} s  (median of {len(scaled)} iterations at reference speed; "
            + (f"p{tail[0]:g} {tail[1]:.4f} s; " if tail else "too few samples for a tail percentile; ")
            + f"as measured {statistics.median(plain):.4f} s)"
        )
        print("wall samples    " + " ".join(f"{t:.3f}" for t in scaled))
        print("as measured     " + " ".join(f"{t:.3f}" for t in plain))
        print(f"decay_rel_err   {decay_rel_err if decay_rel_err is not None else 'absent (no reference)'}")
        print(f"artifact_bytes  {artifact_bytes} B")
        print(f"peak_rss_mb     {rss_mb:.1f} MB")
        print(f"error_rate      {len(failures) / len(outcomes):g}  ({len(failures)} of {len(outcomes)} operations failed)")
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        if decay_rel_err is not None:
            metrics["decay_rel_err"] = {"value": decay_rel_err, "unit": "1"}
    print(
        json.dumps(
            {"correct": not failures, "attempted": len(outcomes), "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


# -- all workloads, references -------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process; one table of the end-to-end metrics."""
    rows, status = [], 0
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(f"{workload}: exit {out.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= int(not result["correct"])
        rows.append((workload, result))
    names = ("setup_s", "wall_s", "decay_rel_err", "peak_rss_mb")
    print(f"{'workload':<16}" + "".join(f"{n:>16}" for n in names) + f"{'error_rate':>12}")
    for workload, result in rows:
        cells = []
        for n in names:
            m = result["metrics"].get(n)
            cells.append(f"{m['value']:>12.4g} {m['unit']:<3}" if m else f"{'absent':>16}")
        rate = result["failed"] / result["attempted"]
        print(f"{workload:<16}" + "".join(cells) + f"{rate:>12g}")
    return status


def regenerate_references(names) -> int:
    import_program()
    import workloads as wl

    for workload in names:
        entries = {}
        for instance in range(wl.N_INSTANCES):
            t0 = time.perf_counter()
            entries[str(instance)] = wl.reference_entry(workload, instance)
            print(f"{workload} instance {instance}: {time.perf_counter() - t0:.1f} s", flush=True)
        refs = wl.load_references()  # read late: another process may have written
        refs[workload] = entries
        wl.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)  # run_seconds in BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--regenerate-references", action="store_true",
        help="recompute references.json for --workload (default: all); untimed",
    )
    args = parser.parse_args()
    if args.regenerate_references:
        names = WORKLOAD_NAMES if args.workload in (None, "all") else (args.workload,)
        return regenerate_references(names)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
