"""The three benchmark workloads, their inputs and their output checks.

A workload is built from an *instance* (the benchmark seed modulo
``N_INSTANCES``); every seed the program sees is derived from it.  The
committed references in ``references.json`` hold, per workload and instance,
the spectrum count, the closed-loop margin, and for every ``simulate`` call
of one iteration the final decay norm and fitted rate of a fine-step
reference integration.

Each iteration returns one ``Outcome`` per operation (a ``run_pipeline``,
``render_report`` or ``simulate`` call); an operation fails on an exception,
a non-zero CLI exit, any non-finite number in its summary, or a check
against the reference and the certificates below.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from phasestab import cli
from phasestab.config import SimConfig, load_config
from phasestab.lqr import solve_care
from phasestab.sim import seeded_initial_state, simulate

N_INSTANCES = 16

RERUN_FACTOR = 2.0  # thin_interface: the rerun changes only sim.rho, by this factor
ENSEMBLE_RHOS = np.geomspace(1e-3, 1e-1, 8)

REF_DT = 1e-4  # reference integration: fixed scheme and step
REF_SCHEME = "imex2"

# closed-loop eigenvalues of the dense 2M x 2M matrix move by ~1e-6 with the
# BLAS kernel and thread count; a stale or wrong gain is off by far more
MARGIN_RTOL = 1e-4
RATE_RTOL = 1e-3
STEERING_MAX = 1e-8  # steering residual for a unit-norm xi0, as in the c03 oracle

REFERENCES = Path(__file__).with_name("references.json")


@dataclass
class Outcome:
    op: str
    failure: str | None = None
    rel_err: float | None = None  # |final decay norm - reference| / reference


@dataclass
class Iteration:
    outcomes: list[Outcome] = field(default_factory=list)
    artifact_bytes: int = 0


def config_for(workload: str, instance: int) -> SimConfig:
    """The workload's config for one instance.

    ``default`` and ``thin_interface`` keep the README's initial-data seed and
    take the initial decay norm from the instance, log-spaced over a factor 2
    around the README's 1e-2.  The shape of the initial data is kept because it
    decides which slow closed-loop mode dominates the final norm, and with it
    the time-stepping error (8.8e-5 to 1.25e-4 on ``default`` over eight
    seeds); the amplitude leaves both the error and the work unchanged.  ``rho_ensemble`` varies the shape instead: its members'
    seeds come from the instance, and it reports the worst member.
    """
    cfg = SimConfig()
    if workload in ("default", "thin_interface"):
        cfg.sim.rho = 1e-2 * 2.0 ** ((instance - (N_INSTANCES - 1) / 2) / (N_INSTANCES - 1))
    if workload == "thin_interface":
        cfg.params.nu = 0.02
        cfg.basis.M = 256
        cfg.sim.t_end = 2.0
    elif workload == "rho_ensemble":
        cfg.stationary.mode = "minimize"
        cfg.stationary.init_value = 0.3
        cfg.stationary.init_cos = 0.3
        cfg.sim.t_end = 2.5
        cfg.sim.record_every = 10
    elif workload != "default":
        raise ValueError(f"unknown workload {workload!r}")
    return cfg.validate()


def simulate_calls(workload: str, cfg: SimConfig, instance: int) -> list[tuple[float, int]]:
    """(rho, seed) of every simulate call one iteration makes, in order."""
    if workload == "default":
        return [(cfg.sim.rho, cfg.seed)]
    if workload == "thin_interface":
        return [(cfg.sim.rho, cfg.seed), (RERUN_FACTOR * cfg.sim.rho, cfg.seed)]
    return [(float(rho), 8 * instance + j) for j, rho in enumerate(ENSEMBLE_RHOS)]


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


# -- checks -----------------------------------------------------------------


def _nonfinite(value, where="") -> str | None:
    if isinstance(value, dict):
        for key, item in value.items():
            bad = _nonfinite(item, f"{where}.{key}")
            if bad:
                return bad
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            bad = _nonfinite(item, f"{where}[{i}]")
            if bad:
                return bad
    elif isinstance(value, float) and not math.isfinite(value):
        return f"non-finite {where.lstrip('.')} = {value}"
    return None


def _off(value, expected, rtol) -> bool:
    if value is None or expected is None:
        return value is not expected
    return abs(value - expected) > rtol * abs(expected)


def _check_run(cfg, n_unstable, margin, residual, rate, final, ref, call) -> tuple[str | None, float | None]:
    """Checks shared by a pipeline summary and a direct simulate call."""
    if residual > cfg.riccati.tol:
        return f"Riccati residual {residual:.3e} above riccati.tol {cfg.riccati.tol:.1e}", None
    if ref is None:
        return None, None
    expected = ref["calls"][call]
    if n_unstable != ref["N_unstable"]:
        return f"N_unstable {n_unstable} != reference {ref['N_unstable']}", None
    if _off(margin, ref["margin"], MARGIN_RTOL):
        return f"margin {margin!r} off reference {ref['margin']!r}", None
    if _off(rate, expected["fitted_rate"], RATE_RTOL):
        return f"fitted_rate {rate!r} off reference {expected['fitted_rate']!r}", None
    return None, abs(final - expected["final_xi_norm"]) / expected["final_xi_norm"]


def _check_pipeline(cfg, code, summary_text, ref, call) -> tuple[Outcome, dict | None]:
    out = Outcome("run_pipeline")
    if code != 0:
        out.failure = f"phasestab simulate exited {code}"
        return out, None
    if summary_text is None:
        out.failure = "exit 0 without summary.json"
        return out, None
    summary = json.loads(summary_text)
    out.failure = _nonfinite(summary)
    if out.failure:
        return out, summary
    steering = summary["controllability"]["steering_error"]
    if steering > STEERING_MAX:
        out.failure = f"steering error {steering:.3e} above {STEERING_MAX:.0e}"
        return out, summary
    synth, sim = summary["synth"], summary["simulate"]
    out.failure, out.rel_err = _check_run(
        cfg,
        summary["spectrum"]["N_unstable"],
        synth["margin"],
        synth["residual_rel"],
        sim["fitted_rate"],
        sim["final_xi_norm"],
        ref,
        call,
    )
    return out, summary


def _check_rerun(fresh: dict, rerun: dict) -> str | None:
    """The rerun's gain must be the fresh synthesis.

    ``simulate.margin`` is the margin of the gain the rerun simulated with,
    which ``load_gain`` read back from ``gain.npz``; ``synth`` is what the
    rerun reports, which on reuse is ``synth.json`` read back.  Both must equal
    the first pipeline's fresh synthesis exactly: the file round trips are
    lossless.
    """
    used = rerun["simulate"]["margin"]
    if used != fresh["synth"]["margin"]:
        return f"rerun simulated with margin {used!r}, fresh synthesis gave {fresh['synth']['margin']!r}"
    for key in ("margin", "residual_rel"):
        if rerun["synth"][key] != fresh["synth"][key]:
            return f"rerun reports synth {key} {rerun['synth'][key]!r}, fresh synthesis gave {fresh['synth'][key]!r}"
    return None


def _check_report(code, table, run_dir, ref) -> Outcome:
    out = Outcome("render_report")
    if code != 0:
        out.failure = f"phasestab report exited {code}"
        return out
    rows = dict(line.split(None, 1) for line in table.strip().splitlines())
    bad = [name for name, value in rows.items() if value.strip().lower() in ("nan", "inf", "-inf")]
    n_traj, n_decay = (_line_count(run_dir / n) for n in ("trajectory.csv", "decay.dat"))
    if bad:
        out.failure = f"report shows non-finite {bad}"
    elif ref is not None and rows.get("N_unstable", "").strip() != str(ref["N_unstable"]):
        out.failure = f"report N_unstable {rows.get('N_unstable')!r} != {ref['N_unstable']}"
    elif n_decay != n_traj:
        out.failure = f"decay.dat has {n_decay} lines, trajectory.csv {n_traj}"
    return out


# -- iterations -------------------------------------------------------------


def _main(argv: list[str]) -> tuple[int, str]:
    """Call the phasestab CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _simulate(argv: list[str], run_dir: Path) -> tuple[int, str | None]:
    """``phasestab simulate``; returns (exit code, text of the summary.json it wrote).

    The summary is read at once because a rerun in the same directory
    overwrites it; reading ~10 kB adds microseconds to a timing of seconds.
    """
    code, _ = _main(argv)
    path = run_dir / "summary.json"
    return code, path.read_text() if path.is_file() else None


def _guard(fn, *args):
    """Run one operation; an exception becomes exit code -1 and a traceback on stderr."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return -1, None


def _line_count(path: Path) -> int:
    return len(path.read_text().splitlines()) if path.is_file() else 0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Set-up state for one workload instance plus the timed iteration.

    Construction is the in-process set-up: load and validate the config and
    build the materials (stationary state, plant, actuator), which
    ``rho_ensemble`` reuses and the pipeline workloads rebuild per run.
    """

    def __init__(self, workload: str, instance: int, cfg_path: Path):
        self.workload = workload
        self.instance = instance
        self.cfg_path = cfg_path
        self.cfg = load_config(cfg_path)
        self.materials = cli.build_materials(self.cfg)
        self.ref = load_references().get(workload, {}).get(str(instance))
        calls = simulate_calls(workload, self.cfg, instance)
        if self.ref is not None and [(c["rho"], c["seed"]) for c in self.ref["calls"]] != calls:
            print(f"references.json is stale for {workload} instance {instance}; "
                  "regenerate it", file=sys.stderr)
            self.ref = None

    def work(self, run_dir: Path, api):
        """The timed part of one iteration; returns raw results for ``check``.

        ``api`` supplies ``solve_care`` and ``simulate`` for the direct calls
        of ``rho_ensemble``, so a traced run can pass wrapped versions.
        """
        argv = ["simulate", "--config", str(self.cfg_path), "--output-dir", str(run_dir)]
        if self.workload == "default":
            return [_guard(_simulate, argv, run_dir), _guard(_main, ["report", str(run_dir)])]
        if self.workload == "thin_interface":
            rerun = argv + ["--set", f"sim.rho={RERUN_FACTOR * self.cfg.sim.rho!r}"]
            return [_guard(_simulate, argv, run_dir), _guard(_simulate, rerun, run_dir)]
        return self._ensemble(api)

    def _ensemble(self, api):
        m, cfg = self.materials, self.cfg
        rc = cfg.riccati
        try:
            sol = api.solve_care(m.plant, m.act, method=rc.method, tol=rc.tol, max_iters=rc.max_iters)
        except Exception:
            traceback.print_exc()
            return None, []
        records = []
        for rho, seed in simulate_calls(self.workload, cfg, self.instance):
            y0, z0 = seeded_initial_state(m.basis, rho, seed)
            try:
                records.append(
                    api.simulate(
                        m.plant, y0, z0, dt=cfg.sim.dt, t_end=cfg.sim.t_end, sol=sol,
                        act=m.act, nonlinear=cfg.sim.nonlinear, scheme=cfg.sim.scheme,
                        stat=m.stat, record_every=cfg.sim.record_every,
                    )
                )
            except Exception:
                traceback.print_exc()
                records.append(None)
        return sol, records

    def check(self, raw, run_dir: Path) -> Iteration:
        """One Outcome per operation; output the checks cannot parse fails them all."""
        try:
            return self._check(raw, run_dir)
        except Exception as exc:
            traceback.print_exc()
            ops = ["simulate"] * len(ENSEMBLE_RHOS) if self.workload == "rho_ensemble" else [
                "run_pipeline", "render_report" if self.workload == "default" else "run_pipeline"
            ]
            return Iteration([Outcome(op, f"output check raised {exc!r}") for op in ops])

    def _check(self, raw, run_dir: Path) -> Iteration:
        it = Iteration()
        if self.workload == "rho_ensemble":
            it.outcomes = self._check_ensemble(*raw)
            return it
        (code1, summary1), (code2, text2) = raw
        first, summary = _check_pipeline(self.cfg, code1, summary1, self.ref, 0)
        if self.workload == "default":
            second = _check_report(code2, text2, run_dir, self.ref)
        else:
            second, rerun = _check_pipeline(self.cfg, code2, text2, self.ref, 1)
            if second.failure is None and summary is not None:
                second.failure = _check_rerun(summary, rerun)
        it.outcomes = [first, second]
        it.artifact_bytes = _dir_bytes(run_dir)
        return it

    def _check_ensemble(self, sol, records) -> list[Outcome]:
        outcomes = []
        for call, rec in enumerate(records or [None] * len(ENSEMBLE_RHOS)):
            out = Outcome("simulate")
            if sol is None or rec is None:
                out.failure = "exception"
            else:
                final = float(rec.xi_norms[-1])
                out.failure = _nonfinite(
                    {"xi_norms": rec.xi_norms.tolist(), "rate": rec.fitted_rate,
                     "margin": sol.margin, "residual": sol.residual_rel}
                )
                if out.failure is None:
                    out.failure, out.rel_err = _check_run(
                        self.cfg, self.materials.plant.N_unstable, sol.margin,
                        sol.residual_rel, rec.fitted_rate, final, self.ref, call,
                    )
            outcomes.append(out)
        return outcomes


# -- references -------------------------------------------------------------


def reference_entry(workload: str, instance: int) -> dict:
    """Fine-step reference values for one instance (untimed, about a minute)."""
    cfg = config_for(workload, instance)
    m = cli.build_materials(cfg)
    rc = cfg.riccati
    sol = solve_care(m.plant, m.act, method=rc.method, tol=rc.tol, max_iters=rc.max_iters)
    # record on the same time grid as the workload so the rate fit sees the same samples
    every = int(round(cfg.sim.dt * cfg.sim.record_every / REF_DT))
    calls = []
    for rho, seed in simulate_calls(workload, cfg, instance):
        y0, z0 = seeded_initial_state(m.basis, rho, seed)
        rec = simulate(
            m.plant, y0, z0, dt=REF_DT, t_end=cfg.sim.t_end, sol=sol, act=m.act,
            nonlinear=cfg.sim.nonlinear, scheme=REF_SCHEME, stat=m.stat, record_every=every,
        )
        calls.append(
            {"rho": rho, "seed": seed, "final_xi_norm": float(rec.xi_norms[-1]),
             "fitted_rate": rec.fitted_rate}
        )
    return {"N_unstable": m.plant.N_unstable, "margin": sol.margin, "calls": calls}
