#!/usr/bin/env python3
"""Per-phase cost of the closed-loop time loop of ``phasestab.sim.simulate``.

    PYTHONPATH=src python scripts/step_profile.py [--M 64 256] [--steps 2000] [--repeats 5]

For each basis size M the default config is built at that M (stationary
state, plant, actuator and the Newton-Kleinman gain), and a short closed-loop
run warms up every cache.  Every step phase is then timed on the loop that
``simulate`` runs, ``_Stepper.run``, from the warm-up run's final state with
the config's scheme and dt, as a whole loop of --steps steps or as the
difference of two such loops:

    setup       one ``_Stepper`` build of the closed nonlinear loop, in
                microseconds per build: both implicit solves' block inverses,
                the capacitance checks, -C^{-1} K and the remainder's grid
                values
    solve       the linear open loop: the right-hand side, the folded 2x2
                block inverse on (2, M) views and the loop itself
    feedback    the linear closed loop minus the linear open loop: the
                rank-N Woodbury correction w = (-C^{-1} K) v, x = v + JU w
    remainder   the nonlinear closed loop minus the linear closed loop: the
                remainder on the folded dealiasing grid
                (``_remainder_analysis``), two two-row products against the
                top half H of the cosine matrix, [(-1)^k y; y] H^T and T H,
                with T = V^3 on the default config's phi_inf = 0, where the
                stepper drops the zero rows 3 phi_inf and g and their terms;
                the signed scaling of their two rows into the right-hand
                side; and the refresh of (-1)^k y after the solve
    step        the nonlinear closed loop, the step ``simulate`` takes
    recording   one recorded row: simulate at record_every = 1 minus simulate
                recording only the first and last rows, per step.  simulate
                fills its norms in passes over blocks of 256 rows, so this
                figure spans whole blocks: the default 2000 steps give 2001
                rows, 8 blocks
    simulate    simulate at record_every = 1, per step

Every figure except setup is in microseconds per step.  The loops that a
figure compares are timed in turn, once per round, for --repeats rounds
(setup: --repeats timed batches of 50 builds), so a drift in the host's load
reaches both sides of a difference.  A whole loop's figure is the median of
its rounds; feedback, remainder and recording are medians of the per-round
differences, which can still be negative on a noisy host, so each is clamped
at 0 and is a floor.  BLAS is pinned to one thread, as in the benchmark,
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
from phasestab.sim import _Stepper, seeded_initial_state, simulate  # noqa: E402

PHASES = ("setup", "solve", "feedback", "remainder", "step", "recording", "simulate")
SETUP_BUILDS = 50  # stepper builds per timed batch


def _rounds(fns, per: int, repeats: int) -> list[list[float]]:
    """Per fn, its ``repeats`` timings in microseconds divided by ``per``.

    Each round calls every fn once, in turn.
    """
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for fn, out in zip(fns, samples):
            start = time.perf_counter()
            fn()
            out.append((time.perf_counter() - start) / per * 1e6)
    return samples


def _floor_of_difference(a: list[float], b: list[float]) -> float:
    """Median of the per-round differences a - b, clamped at 0."""
    return max(statistics.median(x - y for x, y in zip(a, b)), 0.0)


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
            nonlinear=True, scheme=run.scheme, record_every=record_every,
        )

    def build(closed: bool, nonlinear: bool) -> _Stepper:
        return _Stepper(
            m.plant, run.dt, sol if closed else None, m.act if closed else None,
            nonlinear, run.scheme,
        )

    x = run_simulate(1).final_x

    def builds():
        for _ in range(SETUP_BUILDS):
            build(True, True)

    def loop(stepper: _Stepper):
        def run_loop():
            for _ in stepper.run(x, steps, steps):
                pass

        return run_loop

    open_linear, closed_linear, step = _rounds(
        [loop(build(False, False)), loop(build(True, False)), loop(build(True, True))],
        steps, repeats,
    )
    every_step, ends_only = _rounds(
        [lambda: run_simulate(1), lambda: run_simulate(steps)], steps, repeats
    )
    return {
        "setup": statistics.median(_rounds([builds], SETUP_BUILDS, repeats)[0]),
        "solve": statistics.median(open_linear),
        "feedback": _floor_of_difference(closed_linear, open_linear),
        "remainder": _floor_of_difference(step, closed_linear),
        "step": statistics.median(step),
        "recording": _floor_of_difference(every_step, ends_only),
        "simulate": statistics.median(every_step),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--M", type=int, nargs="+", default=[64, 256])
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    run = SimConfig().sim
    print(f"scheme {run.scheme}, dt {run.dt:g}; setup in us per build")
    print("us/step  " + "  ".join(f"{name:>9}" for name in PHASES))
    for M in args.M:
        row = profile(M, args.steps, args.repeats)
        print(f"M={M:<5}  " + "  ".join(f"{row[name]:9.1f}" for name in PHASES))


if __name__ == "__main__":
    main()
