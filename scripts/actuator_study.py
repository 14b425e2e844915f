#!/usr/bin/env python3
"""How the control patch placement shapes the closed-loop decay margin.

Sweeps the patch width (centered patches) and reports the coupling strength
lambda_min(D), the steering Gramian condition number, and the synthesized
margin.  The conserved mean modes are steered with gain proportional to the
integral of the bump over the patch, so the margin grows with patch mass.
"""

import argparse
import json

import numpy as np

from phasestab.actuator import build_actuator, kalman_certificate, null_control
from phasestab.cli import build_materials
from phasestab.config import SimConfig
from phasestab.lqr import solve_care


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--widths", default="0.1,0.2,0.3,0.5,0.7,0.9")
    parser.add_argument("--out", default="actuator_study.json")
    args = parser.parse_args()

    cfg = SimConfig()
    m = build_materials(cfg)

    rows = []
    for width in (float(w) for w in args.widths.split(",")):
        a = 0.5 - width / 2.0
        omega = (a, a + width)
        act = build_actuator(m.plant, omega=omega)
        cert = kalman_certificate(act)
        plan = null_control(act, np.ones(act.N) / np.sqrt(act.N), T0=1.0)
        sol = solve_care(m.plant, act)
        mass = float(np.sum(act.weight.values) * m.basis.quad_weight)
        rows.append(
            {
                "omega": list(omega),
                "bump_mass": mass,
                "lambda_min_D": cert.lambda_min,
                "gramian_cond": plan.gramian_cond,
                "margin": sol.margin,
            }
        )
        print(
            f"omega=({omega[0]:.2f},{omega[1]:.2f})  mass={mass:.4f}  "
            f"lambda_min(D)={cert.lambda_min:.3e}  margin={sol.margin:.4f}"
        )

    with open(args.out, "w") as fh:
        json.dump(rows, fh, indent=2)


if __name__ == "__main__":
    main()
