#!/usr/bin/env python3
"""Per-phase cost of one closed-loop step of ``phasestab.sim.simulate``.

    PYTHONPATH=src python scripts/step_profile.py [--M 64 256] [--steps 2000] [--repeats 5]

For each basis size M the default config is built at that M (stationary
state, plant, actuator and the Newton-Kleinman gain), a short closed-loop run
warms up every cache, and each phase of one step of the config's scheme and
dt is then timed with ``time.perf_counter`` on the run's final state:

    remainder   the unscaled remainder analysis q = C^T f(C y) on the
                dealiasing grid, written into an output buffer
                (``_remainder_analysis`` with ``out`` and ``grid``)
    solve       the in-place implicit solve of the scheme's steady step: the
                folded 2x2 block inverse v = (J/3) r on (2, M) views, then
                the rank-N Woodbury feedback w = (-C^{-1} K) v and
                x = v + JU w (``_ClosedLoopSolve``)
    rhs         step minus remainder minus solve: the scaling h = e q, the
                right-hand side [4 x - x_old; 2 h - h_old] with its h part
                added into its y part, and the step's own Python overhead
    step        one whole stepper step, advancing the stepper's own state
    recording   one recorded row: simulate at record_every = 1 minus simulate
                recording only the first and last rows, per step.  simulate
                fills its norms in passes over blocks of 256 rows, so this
                figure spans whole blocks: the default 2000 steps give 2001
                rows, 8 blocks.  The two simulate figures are medians of
                separate timing loops, so this difference is noisy; it is
                clamped at 0 and is a floor
    simulate    simulate at record_every = 1, per step

Every figure is in microseconds per step, the median of --repeats timed
loops of --steps calls.  BLAS is pinned to one thread, as in the benchmark,
unless the thread variables are already set.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from phasestab.cli import build_materials  # noqa: E402
from phasestab.config import SimConfig  # noqa: E402
from phasestab.lqr import solve_care  # noqa: E402
from phasestab.sim import (  # noqa: E402
    _remainder_analysis,
    _Stepper,
    seeded_initial_state,
    simulate,
)

PHASES = ("remainder", "solve", "rhs", "step", "recording", "simulate")


def _us_per_call(fn, calls: int, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def profile(M: int, steps: int, repeats: int) -> dict[str, float]:
    cfg = SimConfig()
    cfg.basis.M = M
    cfg.validate()
    m = build_materials(cfg)
    sol = solve_care(m.plant, m.act)
    run = cfg.sim
    y0, z0 = seeded_initial_state(m.basis, run.rho, cfg.seed)

    def run_simulate(record_every: int):
        return simulate(
            m.plant, y0, z0, dt=run.dt, t_end=steps * run.dt, sol=sol, act=m.act,
            nonlinear=True, scheme=run.scheme, stat=m.stat, record_every=record_every,
        )

    final = run_simulate(1).final_state
    x = np.concatenate([final.y.coeffs, final.z.coeffs])
    stepper = _Stepper(m.plant, run.dt, sol, m.act, True, run.scheme)
    stepper.start(x)
    stepper.step()  # imex2 takes its steady form from the second step on
    solve = stepper.bdf2 or stepper.euler
    solve.r[: 2 * M] = x
    q, x_out, w_out = np.empty(M), np.empty(2 * M), np.empty(m.act.N)
    x_out2 = x_out.reshape(2, M)
    C, phi3, g, grid = stepper.C, stepper.phi3_padded, stepper.g_padded, stepper.grid

    out = {
        "remainder": _us_per_call(
            lambda: _remainder_analysis(C, x[:M], phi3, g, q, grid), steps, repeats
        ),
        "solve": _us_per_call(lambda: solve(x_out2, x_out, w_out), steps, repeats),
        "step": _us_per_call(stepper.step, steps, repeats),
    }
    out["rhs"] = out["step"] - out["remainder"] - out["solve"]
    every_step = _us_per_call(lambda: run_simulate(1), 1, repeats) / steps
    ends_only = _us_per_call(lambda: run_simulate(steps), 1, repeats) / steps
    out["recording"] = max(every_step - ends_only, 0.0)
    out["simulate"] = every_step
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--M", type=int, nargs="+", default=[64, 256])
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    run = SimConfig().sim
    print(f"scheme {run.scheme}, dt {run.dt:g}")
    print("us/step  " + "  ".join(f"{name:>9}" for name in PHASES))
    for M in args.M:
        row = profile(M, args.steps, args.repeats)
        print(f"M={M:<5}  " + "  ".join(f"{row[name]:9.1f}" for name in PHASES))


if __name__ == "__main__":
    main()
