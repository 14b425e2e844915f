#!/usr/bin/env python3
"""Accuracy per second of the closed-loop time step: the table behind ``sim.dt``.

    PYTHONPATH=src python scripts/dt_front.py [--M 16] [--t-end 0.5] [--ref-dt 1e-4]

For each config below one gain is synthesized, and the closed loop is
integrated from the config's initial data with imex1 at dt = 1e-3 and with
imex2 at dt in {1e-3, 2.5e-3, 5e-3, 1e-2}.  Each row prints

    err      |final decay norm - reference| / reference, the reference being
             imex2 at --ref-dt
    rate     the fitted decay rate, or "absent" when the fit window (the
             second half of the run) holds fewer than 20 recorded rows or
             the fit is poor
    wall_s   the wall time of the simulate call (time.perf_counter)

Configs: ``default`` (the default config), ``thin_interface`` (nu = 0.02,
M = 256, t_end = 2) and ``short_sparse`` (the default at t_end = 2.5 and
record_every = 10, where the rate fit's row count bounds dt from above).
--M and --t-end override every config, for a quick run.  BLAS is pinned to
one thread unless the thread variables are already set.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import time  # noqa: E402

from phasestab.cli import build_materials  # noqa: E402
from phasestab.config import SimConfig  # noqa: E402
from phasestab.lqr import solve_care  # noqa: E402
from phasestab.sim import seeded_initial_state, simulate  # noqa: E402

CANDIDATES = [("imex1", 1e-3)] + [("imex2", dt) for dt in (1e-3, 2.5e-3, 5e-3, 1e-2)]


def configs(M: int | None, t_end: float | None) -> list[tuple[str, SimConfig]]:
    thin = SimConfig()
    thin.params.nu = 0.02
    thin.basis.M = 256
    thin.sim.t_end = 2.0
    short = SimConfig()
    short.sim.t_end = 2.5
    short.sim.record_every = 10
    out = []
    for name, cfg in (("default", SimConfig()), ("thin_interface", thin), ("short_sparse", short)):
        if M is not None:
            cfg.basis.M = M
        if t_end is not None:
            cfg.sim.t_end = t_end
        out.append((name, cfg.validate()))
    return out


def front(cfg: SimConfig, ref_dt: float) -> list[tuple[str, float, float, float | None, float]]:
    """(scheme, dt, err, rate, wall_s) for every candidate step."""
    m = build_materials(cfg)
    sol = solve_care(m.plant, m.act)
    run = cfg.sim
    y0, z0 = seeded_initial_state(m.basis, run.rho, cfg.seed)

    def integrate(scheme: str, dt: float, record_every: int):
        start = time.perf_counter()
        rec = simulate(
            m.plant, y0, z0, dt=dt, t_end=run.t_end, sol=sol, act=m.act,
            nonlinear=run.nonlinear, scheme=scheme, record_every=record_every,
        )
        return rec, time.perf_counter() - start

    # the reference records only its first and last rows
    ref, _ = integrate("imex2", ref_dt, max(1, round(run.t_end / ref_dt)))
    ref_norm = ref.xi_norms[-1]
    rows = []
    for scheme, dt in CANDIDATES:
        rec, wall = integrate(scheme, dt, run.record_every)
        err = abs(rec.xi_norms[-1] - ref_norm) / ref_norm
        rows.append((scheme, dt, err, rec.fitted_rate, wall))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--M", type=int, default=None, help="basis size for every config")
    parser.add_argument("--t-end", type=float, default=None, help="t_end for every config")
    parser.add_argument("--ref-dt", type=float, default=1e-4, help="imex2 reference step")
    args = parser.parse_args()

    print(f"{'config':<15} {'scheme':<6} {'dt':>7} {'err':>9} {'rate':>9} {'wall_s':>7}")
    for name, cfg in configs(args.M, args.t_end):
        for scheme, dt, err, rate, wall in front(cfg, args.ref_dt):
            shown = f"{rate:9.5f}" if rate is not None else f"{'absent':>9}"
            print(f"{name:<15} {scheme:<6} {dt:7.1e} {err:9.2e} {shown} {wall:7.3f}")


if __name__ == "__main__":
    main()
