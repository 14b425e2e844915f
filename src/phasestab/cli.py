"""Pipeline orchestration and the command line interface.

Subcommands wire the stages

    stationary -> spectrum -> controllability -> synth -> simulate -> report

into reproducible runs: every stage writes its artifacts (CSV fields,
trajectory CSV, JSON summaries) into the configured output directory, and a
fixed seed makes repeated runs byte-identical.  ``sweep`` repeats the
pipeline over a list of values for one config field.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .actuator import (
    Actuator,
    GramianConditionError,
    build_actuator,
    null_control,
)
from .config import ConfigError, SimConfig, apply_override, load_config, save_config
from .io import (
    read_json,
    read_trajectory_csv,
    write_field_collocation_csv,
    write_field_modal_csv,
    write_json,
    write_table,
    write_trajectory_csv,
)
from .linearization import LinearizedPlant, PhysicalParams, assemble_plant
from .lqr import RiccatiError, RiccatiSolution, solve_care
from .sim import (
    BlowUpError,
    ImplicitSolveError,
    TrajectoryRecord,
    seeded_initial_state,
    simulate,
)
from .spectral import ScalarField, SpectralBasis
from .stationary import (
    StationaryConvergenceError,
    StationaryState,
    chi_infinity,
    gbar_infinity,
    stationary_constant,
    stationary_minimize,
)

__all__ = ["Materials", "build_materials", "run_pipeline", "run_sweep", "main"]


@dataclass
class Materials:
    """Everything the later stages need, built once from the config."""

    cfg: SimConfig
    basis: SpectralBasis
    params: PhysicalParams
    stat: StationaryState
    plant: LinearizedPlant
    act: Actuator


def build_materials(cfg: SimConfig) -> Materials:
    basis = SpectralBasis(L=cfg.basis.L, M=cfg.basis.M)
    params = PhysicalParams(nu=cfg.params.nu, l0=cfg.params.l0, gamma0=cfg.params.gamma0)
    sc = cfg.stationary
    if sc.mode == "constant":
        stat = stationary_constant(sc.which, theta=sc.theta, basis=basis)
    else:
        init_values = sc.init_value + sc.init_cos * np.cos(np.pi * basis.nodes / basis.L)
        init = ScalarField.from_values(basis, init_values)
        stat = stationary_minimize(
            sc.C, init, nu=params.nu, tol=sc.tol, max_iters=sc.max_iters, theta=sc.theta
        )
    plant = assemble_plant(params, stat)
    act = build_actuator(plant, omega=(cfg.actuator.a, cfg.actuator.b))
    return Materials(cfg=cfg, basis=basis, params=params, stat=stat, plant=plant, act=act)


# -- stages ------------------------------------------------------------------


def stage_stationary(m: Materials, outdir: Path) -> dict:
    summary = {
        "C": m.stat.C_lagrange,
        "residual": m.stat.residual,
        "Upsilon": m.stat.upsilon,
        "chi_inf": chi_infinity(m.stat),
        "gbar_inf": gbar_infinity(m.stat),
        "theta_inf": m.stat.theta_inf,
        "mean_phi": m.stat.phi_inf.mean,
    }
    write_field_modal_csv(outdir / "stationary_phi_modes.csv", m.stat.phi_inf)
    write_field_collocation_csv(outdir / "stationary_phi.csv", m.stat.phi_inf)
    write_json(outdir / "stationary.json", summary)
    return summary


def stage_spectrum(m: Materials, outdir: Path) -> dict:
    plant = m.plant
    summary = {
        "F_bar": plant.F_bar,
        "F_l": plant.F_l,
        "N_unstable": plant.N_unstable,
        "eigenvalues": plant.eigenvalues,
        "gap": plant.lambda_gap,
    }
    write_json(outdir / "spectrum.json", summary)
    return summary


def stage_controllability(m: Materials, outdir: Path) -> dict:
    rng = np.random.default_rng(m.cfg.seed)
    xi0 = rng.standard_normal(m.act.N)
    xi0 /= np.linalg.norm(xi0)
    plan = null_control(m.act, xi0, T0=m.cfg.actuator.T0)
    summary = {
        "N": m.act.N,
        "det_D": plan.certificate.det,
        "lambda_min_D": plan.certificate.lambda_min,
        "gramian_cond": plan.gramian_cond,
        "T0": plan.T0,
        "steering_error": plan.steering_error,
        "control_energy": plan.energy,
    }
    header = "t," + ",".join(f"w_{j + 1}" for j in range(m.act.N))
    write_table(outdir / "control_samples.csv", header, [plan.t_nodes, *plan.W_samples.T])
    write_json(outdir / "controllability.json", summary)
    return summary


def stage_synth(m: Materials, outdir: Path) -> tuple[RiccatiSolution, dict]:
    rc = m.cfg.riccati
    sol = solve_care(m.plant, m.act, method=rc.method, tol=rc.tol, max_iters=rc.max_iters)
    np.savez(
        outdir / "gain.npz",
        R=sol.R_matrix,
        K=sol.K_gain,
        margin=sol.margin,
        residual_rel=sol.residual_rel,
        Q_diag=sol.Q_diag,
        min_real=sol.min_real,
        iterations=sol.iterations,
        config_digest=_gain_digest(m.cfg),
    )
    return sol, write_synth_summary(sol, outdir)


def write_synth_summary(sol: RiccatiSolution, outdir: Path) -> dict:
    """Write synth.json from the gain alone: a fresh and a reused gain write the same file."""
    summary = {
        "N": sol.K_gain.shape[0],
        "residual_rel": sol.residual_rel,
        "margin": sol.margin,
        "eig_extremes": {
            "max_real": -sol.margin,
            "min_real": sol.min_real,
        },
        "iterations": sol.iterations,
    }
    write_json(outdir / "synth.json", summary)
    return summary


def _gain_digest(cfg: SimConfig) -> str:
    """Hash of the config sections the gain depends on: all but sim, seed and output_dir."""
    sections = {
        name: asdict(getattr(cfg, name))
        for name in ("params", "basis", "stationary", "actuator", "riccati")
    }
    return hashlib.sha256(json.dumps(sections, sort_keys=True).encode()).hexdigest()


def load_gain(path: Path, m: Materials) -> RiccatiSolution | None:
    """Reuse a previously synthesized gain when it was made from the same config.

    None (synthesize afresh) when the file is missing, stale or unreadable,
    holds a plain .npy array rather than an npz archive, or lacks a member
    read here (a file written by older code).
    """
    if not path.exists():
        return None
    try:
        # opened as an npz archive whatever it holds (np.load would hand back a
        # plain .npy array, and it leaks a path it fails to read)
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh) as data:
            if "config_digest" not in data or str(data["config_digest"]) != _gain_digest(m.cfg):
                return None
            return RiccatiSolution(
                R_matrix=data["R"],
                K_gain=data["K"],
                residual_rel=float(data["residual_rel"]),
                margin=float(data["margin"]),
                min_real=float(data["min_real"]),
                Q_diag=data["Q_diag"],
                iterations=int(data["iterations"]),
            )
    except (ValueError, EOFError, KeyError, zipfile.BadZipFile):
        # not an npz archive (garbage, empty, truncated by an interrupted
        # write, a plain .npy array), a damaged member or a missing one
        return None


def stage_simulate(
    m: Materials, sol: RiccatiSolution | None, outdir: Path
) -> tuple[TrajectoryRecord, dict]:
    run = m.cfg.sim
    y0, z0 = seeded_initial_state(m.basis, run.rho, m.cfg.seed)
    record = simulate(
        m.plant,
        y0,
        z0,
        dt=run.dt,
        t_end=run.t_end,
        sol=sol if run.closed_loop else None,
        act=m.act if run.closed_loop else None,
        nonlinear=run.nonlinear,
        scheme=run.scheme,
        stat=m.stat,
        record_every=run.record_every,
    )
    summary = {
        "fitted_rate": record.fitted_rate,
        "fit_r2": record.fit_r2,
        "fit_window": list(record.fit_window),
        "initial_xi_norm": float(record.xi_norms[0]),
        "final_xi_norm": float(record.xi_norms[-1]),
        "final_h_norm": float(record.h_norms[-1]),
        "margin": sol.margin if (sol is not None and run.closed_loop) else None,
        "closed_loop": run.closed_loop,
        "nonlinear": run.nonlinear,
        "rho": run.rho,
        "seed": m.cfg.seed,
    }
    write_trajectory_csv(outdir / "trajectory.csv", record)
    write_json(outdir / "simulate.json", summary)
    return record, summary


def run_pipeline(cfg: SimConfig) -> dict:
    """Run every stage into cfg.output_dir and write the aggregate summary."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, outdir / "config.json")

    m = build_materials(cfg)
    summary = {"output_dir": str(outdir)}
    summary["stationary"] = stage_stationary(m, outdir)
    summary["spectrum"] = stage_spectrum(m, outdir)
    summary["controllability"] = stage_controllability(m, outdir)

    sol = load_gain(outdir / "gain.npz", m)
    if sol is None:
        sol, summary["synth"] = stage_synth(m, outdir)
    else:
        summary["synth"] = write_synth_summary(sol, outdir)

    _, sim_summary = stage_simulate(m, sol, outdir)
    summary["simulate"] = sim_summary
    summary["fitted_rate"] = sim_summary["fitted_rate"]
    write_json(outdir / "summary.json", summary)
    return summary


def run_sweep(cfg: SimConfig, param: str, values: list[str]) -> dict:
    """Re-run the pipeline for each value of one dotted config field."""
    base_dir = Path(cfg.output_dir)
    entries = []
    for i, raw in enumerate(values):
        sub = load_config(data=asdict(cfg))
        apply_override(sub, param, raw)
        sub.output_dir = str(base_dir / f"sweep_{i:03d}")
        sub.validate()
        summary = run_pipeline(sub)
        entries.append(
            {
                "value": raw,
                "output_dir": sub.output_dir,
                "fitted_rate": summary["fitted_rate"],
                "final_xi_norm": summary["simulate"]["final_xi_norm"],
            }
        )
    index = {"param": param, "runs": entries}
    base_dir.mkdir(parents=True, exist_ok=True)
    write_json(base_dir / "sweep.json", index)
    return index


# -- report ------------------------------------------------------------------


def render_report(run_dir: Path) -> str:
    """Text table of the run's metrics; also writes gnuplot-ready .dat files."""
    rows: list[tuple[str, str]] = []

    def add(name, value, fmt="{:.6g}"):
        rows.append((name, "absent" if value is None else fmt.format(value)))

    spectrum = _maybe_json(run_dir / "spectrum.json")
    if spectrum:
        add("N_unstable", spectrum["N_unstable"], "{:d}")
        add("lambda_min", spectrum["eigenvalues"][0])
        add("lambda_gap", spectrum["gap"])
        add("F_l", spectrum["F_l"])
        eigs = spectrum["eigenvalues"]
        write_table(
            run_dir / "spectrum.dat", "# i lambda_i", [np.arange(len(eigs)), eigs], sep=" "
        )

    stationary = _maybe_json(run_dir / "stationary.json")
    if stationary:
        add("stationary_residual", stationary["residual"], "{:.3e}")
        add("chi_inf", stationary["chi_inf"])
        add("gbar_inf", stationary["gbar_inf"])

    controllability = _maybe_json(run_dir / "controllability.json")
    if controllability:
        add("lambda_min_D", controllability["lambda_min_D"])
        add("gramian_cond", controllability["gramian_cond"])
        add("steering_error", controllability["steering_error"], "{:.3e}")

    synth = _maybe_json(run_dir / "synth.json")
    add("riccati_residual", synth.get("residual_rel") if synth else None, "{:.3e}")
    add("margin", synth.get("margin") if synth else None)

    sim = _maybe_json(run_dir / "simulate.json")
    if sim:
        add("fitted_rate", sim["fitted_rate"])
        add("fit_r2", sim["fit_r2"])
        add("final_xi_norm", sim["final_xi_norm"], "{:.3e}")

    traj_path = run_dir / "trajectory.csv"
    if traj_path.exists():
        data = read_trajectory_csv(traj_path)
        columns = ("t", "xi_norm", "h_norm", "physical_norm")
        header = "# " + " ".join(columns)
        write_table(run_dir / "decay.dat", header, [data[name] for name in columns], sep=" ")

    width = max(len(name) for name, _ in rows) if rows else 0
    table = "\n".join(f"{name:<{width}}  {val}" for name, val in rows)
    return table


def _maybe_json(path: Path) -> dict | None:
    return read_json(path) if path.exists() else None


# -- entry point -------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a config field, e.g. --set sim.rho=0.005",
    )
    parser.add_argument("--output-dir", type=str, default=None)


def _load(args) -> SimConfig:
    cfg = load_config(args.config)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects FIELD=VALUE, got {item!r}")
        dotted, raw = item.split("=", 1)
        apply_override(cfg, dotted, raw)
    if args.output_dir is not None:
        cfg.output_dir = args.output_dir
    return cfg.validate()


def _outdir(cfg: SimConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="phasestab",
        description="Spectral feedback stabilization of a conserved phase-field system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("stationary", "spectrum", "controllability", "synth", "simulate"):
        _add_common(sub.add_parser(name))
    report_p = sub.add_parser("report")
    report_p.add_argument("run_dir", type=str)
    sweep_p = sub.add_parser("sweep")
    _add_common(sweep_p)
    sweep_p.add_argument("--param", required=True, help="dotted config field to sweep")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            print(render_report(Path(args.run_dir)))
            return 0
        cfg = _load(args)
        if args.command == "stationary":
            stage_stationary(build_materials(cfg), _outdir(cfg))
        elif args.command == "spectrum":
            stage_spectrum(build_materials(cfg), _outdir(cfg))
        elif args.command == "controllability":
            stage_controllability(build_materials(cfg), _outdir(cfg))
        elif args.command == "synth":
            m = build_materials(cfg)
            stage_synth(m, _outdir(cfg))
        elif args.command == "simulate":
            summary = run_pipeline(cfg)
            rate = summary["fitted_rate"]
            print(f"fitted_rate = {rate if rate is not None else 'absent'}")
        elif args.command == "sweep":
            run_sweep(cfg, args.param, args.values.split(","))
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (
        RiccatiError,
        GramianConditionError,
        StationaryConvergenceError,
        BlowUpError,
        ImplicitSolveError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
