"""Pipeline orchestration and the command line interface.

Subcommands wire the stages

    stationary -> spectrum -> controllability -> synth -> simulate -> report

into reproducible runs: every stage writes its artifacts (CSV fields,
trajectory CSV, JSON summaries) into the configured output directory, and a
fixed seed makes repeated runs byte-identical.  ``sweep`` repeats the
pipeline over a list of values for one config field.

Exit codes: 0 success, 2 invalid configuration, or an input or output path
that cannot be used, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import lqr
from .actuator import Actuator, build_actuator, null_control
from .config import (
    ConfigError,
    NumericalError,
    SimConfig,
    apply_override,
    load_config,
    save_config,
)
# read_trajectory_csv is unused here, but phasebench's tracer wraps it by
# name in this module's namespace
from .io import (  # noqa: F401
    read_json,
    read_trajectory_csv,
    write_columns_dat,
    write_json,
    write_table,
    write_trajectory_csv,
)
from .linearization import LinearizedPlant, PhysicalParams, assemble_plant
from .lqr import RiccatiSolution, solve_care
from .sim import TrajectoryRecord, seeded_initial_state, simulate
from .spectral import ScalarField, SpectralBasis
from .stationary import (
    StationaryState,
    chi_infinity,
    gbar_infinity,
    stationary_constant,
    stationary_minimize,
)

__all__ = ["Materials", "build_materials", "run_pipeline", "run_sweep", "main"]


@dataclass
class Materials:
    """Everything the later stages need, built once; the parameters are ``plant.params``."""

    cfg: SimConfig
    basis: SpectralBasis
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
    return Materials(cfg=cfg, basis=basis, stat=stat, plant=plant, act=act)


# -- stages ------------------------------------------------------------------


def stage_stationary(m: Materials, outdir: Path) -> dict:
    # the plant leaves the linear term Lap(g y) to the remainder, so the
    # synthesized margin is the true loop's only when g_max is 0
    summary = {
        "C": m.stat.C_lagrange,
        "residual": m.stat.residual,
        "Upsilon": m.stat.upsilon,
        "chi_inf": chi_infinity(m.stat),
        "gbar_inf": gbar_infinity(m.stat),
        "theta_inf": m.stat.theta_inf,
        "mean_phi": m.stat.phi_inf.mean,
        "g_max": m.plant.g_max,
    }
    phi = m.stat.phi_inf
    write_table(outdir / "stationary_phi_modes.csv", "k,coeff", [np.arange(m.basis.M), phi.coeffs])
    write_table(outdir / "stationary_phi.csv", "x,value", [m.basis.nodes, phi.values])
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
    cert = plan.certificate
    summary = {
        "N": m.act.N,
        "det_D": cert.det,
        "lambda_min_D": cert.lambda_min,
        "gramian_cond": plan.gramian_cond,
        "T0": plan.T0,
        "steering_error": plan.steering_error,
        "control_energy": plan.energy,
        "n_omega": cert.n_omega,
        "lambda_max_D": cert.lambda_max,
    }
    write_json(outdir / "controllability.json", summary)
    return summary


# gain.npz holds each of these fields under its own name, plus config_digest
_GAIN_FIELDS = fields(RiccatiSolution)


def stage_synth(m: Materials, outdir: Path) -> tuple[RiccatiSolution, dict]:
    rc = m.cfg.riccati
    sol = solve_care(m.plant, m.act, method=rc.method, tol=rc.tol, max_iters=rc.max_iters)
    members = {f.name: getattr(sol, f.name) for f in _GAIN_FIELDS}
    np.savez(outdir / "gain.npz", config_digest=_gain_digest(m.cfg), **members)
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
    """Hash of the solver version and of every config section but sim, seed and output_dir."""
    sections = {
        name: asdict(getattr(cfg, name))
        for name in ("params", "basis", "stationary", "actuator", "riccati")
    }
    sections["solver_version"] = lqr.SOLVER_VERSION
    return hashlib.sha256(json.dumps(sections, sort_keys=True).encode()).hexdigest()


def load_gain(path: Path, m: Materials) -> RiccatiSolution | None:
    """Reuse a previously synthesized gain when it was made from the same config.

    None (synthesize afresh) when the file is missing, stale or unreadable,
    holds a plain .npy array rather than an npz archive, or lacks a field's
    member (a file written by older code, such as one that holds the dense
    ``R_matrix`` in place of R's compact members).  An array field is read
    as an array, every other field as Python numbers.
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
                **{
                    f.name: data[f.name] if f.type == "np.ndarray" else data[f.name].tolist()
                    for f in _GAIN_FIELDS
                }
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
    outdir = _outdir(cfg)
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
    write_json(_outdir(cfg) / "sweep.json", index)
    return index


# -- report ------------------------------------------------------------------


def render_report(run_dir: Path) -> str:
    """Text table of the run's metrics; also writes gnuplot-ready .dat files."""
    rows: list[tuple[str, str]] = []

    def add(name, value, fmt="{:.6g}"):
        rows.append((name, "absent" if value is None else fmt.format(value)))

    with _run_file(run_dir / "spectrum.json") as spectrum:
        if spectrum is not None:
            add("N_unstable", spectrum["N_unstable"], "{:d}")
            add("lambda_min", spectrum["eigenvalues"][0])
            add("lambda_gap", spectrum["gap"])
            add("F_l", spectrum["F_l"])
            eigs = spectrum["eigenvalues"]
            # a JSON number parses to an int or a float; anything else (null,
            # text, true, a list) would be written into spectrum.dat as is
            if not all(type(e) in (int, float) for e in eigs):
                raise TypeError("an eigenvalue is not a number")
            write_table(
                run_dir / "spectrum.dat", "# i lambda_i", [np.arange(len(eigs)), eigs], sep=" "
            )

    with _run_file(run_dir / "stationary.json") as stationary:
        if stationary is not None:
            add("stationary_residual", stationary["residual"], "{:.3e}")
            add("chi_inf", stationary["chi_inf"])
            add("gbar_inf", stationary["gbar_inf"])
            add("g_max", stationary.get("g_max"))

    with _run_file(run_dir / "controllability.json") as controllability:
        if controllability is not None:
            add("lambda_min_D", controllability["lambda_min_D"])
            add("gramian_cond", controllability["gramian_cond"])
            add("steering_error", controllability["steering_error"], "{:.3e}")

    with _run_file(run_dir / "synth.json") as synth:
        add("riccati_residual", synth.get("residual_rel") if synth else None, "{:.3e}")
        add("margin", synth.get("margin") if synth else None)

    with _run_file(run_dir / "simulate.json") as sim:
        if sim is not None:
            add("fitted_rate", sim["fitted_rate"])
            add("fit_r2", sim["fit_r2"])
            add("final_xi_norm", sim["final_xi_norm"], "{:.3e}")

    with _run_file(run_dir / "trajectory.csv", read=Path) as trajectory:
        if trajectory is not None:
            write_columns_dat(trajectory, run_dir / "decay.dat", ("t", "xi_norm", "h_norm"))

    width = max(len(name) for name, _ in rows) if rows else 0
    table = "\n".join(f"{name:<{width}}  {val}" for name, val in rows)
    return table


def _json_object(path: Path) -> dict:
    """The JSON value in path; TypeError when it is not an object."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise TypeError(f"holds a JSON {type(data).__name__}, not an object")
    return data


@contextmanager
def _run_file(path: Path, read=_json_object):
    """``read(path)``, by default the JSON object in path; None when the file is absent.

    ConfigError, naming the file, when it or a file the block writes cannot
    be opened, or when reading it or using it in the block meets a key or a
    column missing, a value of the wrong type, an empty array or text that
    is not JSON.
    """
    try:
        yield read(path) if path.exists() else None
    except OSError as exc:  # a directory, or unreadable
        raise ConfigError(f"cannot use run file {exc.filename or path}: {exc.strerror}") from None
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(
            f"run file {path} lacks a usable value ({type(exc).__name__}: {exc})"
        ) from None


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
    """cfg.output_dir, created if missing; ConfigError when it cannot be a directory."""
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out}: {exc.strerror}")
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
            run_dir = Path(args.run_dir)
            if not run_dir.is_dir():
                print(f"error: no run directory {run_dir}", file=sys.stderr)
                return 2
            print(render_report(run_dir))
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
    except OSError as exc:  # an artifact path that is a directory, or unwritable
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
