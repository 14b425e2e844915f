#!/usr/bin/env python3
"""Probe how large the initial deviation can be before closed-loop decay degrades.

The smallness threshold of the local theory is not computable from first
principles, so we scan the initial norm rho geometrically and report, for
each value, whether the closed-loop nonlinear run still decays (and at what
fitted rate).  The largest rho that decays is the empirical stability radius
for this configuration.
"""

import argparse
import json

import numpy as np

from phasestab.cli import build_materials
from phasestab.config import NumericalError, SimConfig
from phasestab.lqr import solve_care
from phasestab.sim import seeded_initial_state, simulate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rho-min", type=float, default=1e-3)
    parser.add_argument("--rho-max", type=float, default=1.0)
    parser.add_argument("--points", type=int, default=7)
    parser.add_argument("--t-end", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--out", default="rho_sweep.json")
    args = parser.parse_args()

    cfg = SimConfig()
    m = build_materials(cfg)
    sol = solve_care(m.plant, m.act)

    rows = []
    for rho in np.geomspace(args.rho_min, args.rho_max, args.points):
        y0, z0 = seeded_initial_state(m.basis, rho, args.seed)
        try:
            rec = simulate(
                m.plant, y0, z0, dt=cfg.sim.dt, t_end=args.t_end,
                sol=sol, act=m.act, nonlinear=True, scheme=cfg.sim.scheme,
                record_every=10,
            )
            rows.append(
                {
                    "rho": float(rho),
                    "decayed": bool(rec.xi_norms[-1] < rec.xi_norms[0]),
                    "fitted_rate": rec.fitted_rate,
                    "final_xi_norm": float(rec.xi_norms[-1]),
                }
            )
            status = f"rate={rec.fitted_rate}"
        except NumericalError as exc:
            t = exc.facts.get("t")
            rows.append({"rho": float(rho), "decayed": False, "blowup_t": t})
            status = f"failed: {exc}" if t is None else f"blow-up at t={t:.2f}"
        print(f"rho={rho:.3e}  {status}")

    decayed = [r["rho"] for r in rows if r.get("decayed")]
    result = {
        "margin": sol.margin,
        "largest_decaying_rho": max(decayed) if decayed else None,
        "runs": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
    print(f"largest decaying rho: {result['largest_decaying_rho']}")


if __name__ == "__main__":
    main()
