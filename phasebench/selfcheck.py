#!/usr/bin/env python3
"""Self-checks of the benchmark's traced runs.

    python3 phasebench/selfcheck.py

For each workload, makes two short traced runs with one seed and checks that

* the counts and ``decay_rel_err`` repeat exactly between the two runs;
* every span lies inside its parent, in the same run, with self time >= 0,
  and spans under one parent do not overlap;
* in every traced iteration, the layer metrics of the pipeline's stages plus
  ``cli.self_s`` add up to ``cli.run_pipeline_s``, as ``run.py`` reports them;
* the predicted dominant layer holds: ``sim`` on ``default``, ``lqr`` inside
  the first ``thin_interface`` pipeline, and on ``rho_ensemble`` only ``lqr``
  and ``sim`` spans in the iterations (``stationary``, ``linearization`` and
  ``actuator.build_actuator`` only in the set-up).

Exits 0 when every check passes, 1 otherwise.
"""

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from spans import self_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REPEATED = (
    "sim.steps",
    "sim.recorded_rows",
    "lqr.calls",
    "lqr.iterations",
    "stationary.iterations",
    "io.trajectory_bytes",
    "artifact_bytes",
)
# run.py figures of the stages run_pipeline calls (read_trajectory_csv is
# called by render_report, outside the pipeline)
PIPELINE_STAGES = (
    "stationary.solve_s",
    "linearization.assemble_plant_s",
    "actuator.build_actuator_s",
    "actuator.null_control_s",
    "lqr.solve_care_s",
    "cli.load_gain_s",
    "sim.simulate_s",
    "io.write_trajectory_csv_s",
    "io.write_json_s",
)
EPS = 1e-9
SEED = 5
SECONDS = 1.0


def traced_run(workload: str):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload}: run.py exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    trace = json.loads((ROOT / ".phasebench" / "traces" / f"{workload}-seed{SEED}.json").read_text())
    return result, trace


def layer_totals(spans, indices):
    """Time per layer over the given spans, counting cli spans by self time only."""
    totals = defaultdict(float)
    for i in indices:
        s = spans[i]
        layer = s["name"].split(".")[0]
        if layer == "bench":
            continue
        totals[layer] += self_time(spans, i) if layer == "cli" else s["end"] - s["start"]
    return totals


def check_spans(spans) -> list[str]:
    problems = []
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["end"] < s["start"]:
            problems.append(f"span {i} {s['name']} ends before it starts")
        if self_time(spans, i) < -EPS:
            problems.append(f"span {i} {s['name']} has negative self time")
        p = s["parent"]
        if p is None:
            if not s["name"].startswith("bench."):
                problems.append(f"span {i} {s['name']} has no parent")
            continue
        parent = spans[p]
        if parent["run"] != s["run"]:
            problems.append(f"span {i} {s['name']} is in run {s['run']}, its parent in {parent['run']}")
        if s["start"] < parent["start"] - EPS or s["end"] > parent["end"] + EPS:
            problems.append(f"span {i} {s['name']} is not inside its parent {parent['name']}")
        children[p].append(i)
    for p, kids in children.items():
        kids.sort(key=lambda i: spans[i]["start"])
        for a, b in zip(kids, kids[1:]):
            if spans[b]["start"] < spans[a]["end"] - EPS:
                problems.append(f"spans {a} {spans[a]['name']} and {b} {spans[b]['name']} overlap")
    return problems


def check_accounting(per_run) -> list[str]:
    problems = []
    for run, f in per_run.items():
        if f["cli.run_pipeline_s"] == 0:
            continue
        parts = sum(f[name] for name in PIPELINE_STAGES) + f["cli.self_s"]
        if abs(parts - f["cli.run_pipeline_s"]) > EPS:
            problems.append(
                f"run {run}: stages plus cli.self_s = {parts!r} s, cli.run_pipeline_s = {f['cli.run_pipeline_s']!r} s"
            )
    return problems


def check_dominant(workload, spans, traced_runs) -> list[str]:
    problems = []
    for run in traced_runs:
        members = [i for i, s in enumerate(spans) if s["run"] == run]
        if workload == "default":
            totals = layer_totals(spans, members)
            top = max(totals, key=totals.get)
            if top != "sim":
                problems.append(f"run {run}: largest layer is {top}, not sim ({dict(totals)})")
        elif workload == "thin_interface":
            first = next(i for i in members if spans[i]["name"] == "cli.run_pipeline")
            inner = [i for i in members if spans[i]["parent"] == first]
            totals = layer_totals(spans, inner)
            top = max(totals, key=totals.get)
            if top != "lqr":
                problems.append(f"run {run}: first pipeline's largest layer is {top}, not lqr ({dict(totals)})")
        else:
            names = {spans[i]["name"] for i in members} - {"bench.iteration"}
            if not names <= {"lqr.solve_care", "sim.simulate"}:
                problems.append(f"run {run}: unexpected spans {sorted(names)}")
    if workload == "rho_ensemble":
        setup = {s["name"] for s in spans if s["run"] == "setup"} - {"bench.setup"}
        allowed = {"stationary.stationary_minimize", "linearization.assemble_plant", "actuator.build_actuator"}
        if not setup <= allowed:
            problems.append(f"set-up has unexpected spans {sorted(setup - allowed)}")
    return problems


def main() -> int:
    failed = False
    for workload in ("default", "thin_interface", "rho_ensemble"):
        (r1, t1), (r2, t2) = (traced_run(workload) for _ in range(2))
        checks = {}
        diff = [
            f"{n}: {r1['metrics'][n]['value']} vs {r2['metrics'][n]['value']}"
            for n in REPEATED
            if r1["metrics"][n]["value"] != r2["metrics"][n]["value"]
        ]
        if t1["summary"]["decay_rel_err"] != t2["summary"]["decay_rel_err"]:
            diff.append(f"decay_rel_err: {t1['summary']['decay_rel_err']} vs {t2['summary']['decay_rel_err']}")
        checks["counts repeat"] = diff
        checks["outputs correct"] = [
            f"run {i}: {r['failed']} of {r['attempted']} operations failed"
            for i, r in enumerate((r1, r2)) if not r["correct"]
        ]
        checks["spans nest"] = check_spans(t1["spans"]) + check_spans(t2["spans"])
        checks["pipeline accounted"] = check_accounting(t1["per_run"]) + check_accounting(t2["per_run"])
        checks["dominant layer"] = check_dominant(workload, t1["spans"], t1["traced_runs"]) + check_dominant(
            workload, t2["spans"], t2["traced_runs"]
        )
        for name, problems in checks.items():
            print(f"{'FAIL' if problems else 'ok  '}  {workload:<15} {name}")
            for p in problems:
                print(f"        {p}")
            failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
