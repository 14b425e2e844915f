#!/usr/bin/env python3
"""Per-phase cost of the Newton-Kleinman Riccati synthesis ``phasestab.lqr.solve_care``.

    PYTHONPATH=src python scripts/care_profile.py [--M 32 64 128 256] [--repeats 5]

For each basis size M the default config is built at that M (stationary
state, plant and actuator) and one whole ``solve_care`` call is timed.  Each
phase of the solve is then timed alone:

    first       the start gain on the unstable block and the closed-form
                real Schur pair (T, Z) of its closed loop (once per solve)
    schur       the dense real Schur form A_cl^T = Z T Z^T of a later closed
                loop, timed on the converged one A_cl = -(Op + B K)
                (iterations - 1 times; none when Newton stops after one step)
    sylvester   the recursive blocked solve of T Y + Y T^T = Z^T rhs Z, timed
                on the first step's (T, Z) and rhs -(Q + K0^T K0)
                (once per iteration)
    transforms  the basis changes Z^T rhs Z and Z Y Z^T (once per iteration)
    eigvals     the closed-loop eigenvalues that give the margin (once per solve)
    probe       the quadratic-form residual: 32 probes per iteration and 100
                for the reported residual
    rest        total minus the phases above: assembling the dense operator,
                each right-hand side and closed loop, and the gain K = B^T R
    total       one whole solve_care call

The per-iteration phases are multiplied by their call counts, so the
phases add up to the total.  Every time is in milliseconds, the median of
--repeats timed calls.  BLAS is pinned to one thread, as in the benchmark,
unless the thread variables are already set.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from phasestab.cli import build_materials  # noqa: E402
from phasestab.config import SimConfig  # noqa: E402
from phasestab.lqr import (  # noqa: E402
    _PROBE_SAMPLES,
    _REPORT_SAMPLES,
    _lyapunov_schur,
    _probe_residual,
    _start,
    solve_care,
)

PHASES = ("first", "schur", "sylvester", "transforms", "eigvals", "probe", "rest", "total")


def _ms_per_call(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def profile(M: int, repeats: int) -> tuple[dict[str, float], int, float]:
    cfg = SimConfig()
    cfg.basis.M = M
    cfg.validate()
    m = build_materials(cfg)
    sol = solve_care(m.plant, m.act)  # warm-up, and the closed loop to profile

    plant, act = m.plant, m.act
    A_op, B, Q_diag, K = plant.operator_matrix(), act.B_matrix, sol.Q_diag, sol.K_gain
    A_cl = -(A_op + B @ K)

    def first():
        return _start(plant.eigenvalues, plant.eigenvectors, B, act.D_matrix, Q_diag)

    K0, (T, Z) = first()
    rhs = -(np.diag(Q_diag) + K0.T @ K0)
    F = Z.T @ rhs @ Z
    Y = F.copy()
    _lyapunov_schur(T, Y)

    def transforms():
        Z.T @ rhs @ Z
        Z @ Y @ Z.T

    iters = sol.iterations
    row = {
        "first": _ms_per_call(first, repeats),
        "schur": (iters - 1)
        * _ms_per_call(lambda: scipy.linalg.schur(A_cl.T, output="real"), repeats)
        if iters > 1
        else 0.0,
        "sylvester": iters * _ms_per_call(lambda: _lyapunov_schur(T, F.copy()), repeats),
        "transforms": iters * _ms_per_call(transforms, repeats),
        "eigvals": _ms_per_call(lambda: np.linalg.eigvals(A_cl), repeats),
        "probe": iters * _ms_per_call(
            lambda: _probe_residual(
                sol.R_matrix, A_op, B, Q_diag, _PROBE_SAMPLES, np.random.default_rng(0)
            ),
            repeats,
        )
        + _ms_per_call(
            lambda: _probe_residual(
                sol.R_matrix, A_op, B, Q_diag, _REPORT_SAMPLES, np.random.default_rng(0)
            ),
            repeats,
        ),
        "total": _ms_per_call(lambda: solve_care(plant, act), repeats),
    }
    row["rest"] = row["total"] - sum(row[name] for name in PHASES[:-2])
    return row, iters, sol.margin


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--M", type=int, nargs="+", default=[32, 64, 128, 256])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    print("ms       " + "  ".join(f"{name:>10}" for name in PHASES) + "  iters      margin")
    for M in args.M:
        row, iters, margin = profile(M, args.repeats)
        print(
            f"M={M:<5}  "
            + "  ".join(f"{row[name]:10.2f}" for name in PHASES)
            + f"  {iters:5d}  {margin:10.6f}"
        )


if __name__ == "__main__":
    main()
