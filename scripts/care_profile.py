#!/usr/bin/env python3
"""Per-phase cost of the Newton-Kleinman Riccati synthesis ``phasestab.lqr.solve_care``.

    PYTHONPATH=src python scripts/care_profile.py [--M 32 64 128 256] [--repeats 5]

For each basis size M the default config is built at that M (stationary
state, plant and actuator) and one whole ``solve_care`` call is timed.  Each
phase of the solve is then timed alone:

    first       the first Newton step, formed in the plant's eigenbasis: the
                start gain, its closed loop's N x N Schur form, the blocked
                Lyapunov solve and the gathers through the eigenvectors
    margin      the closed-loop margin from the head of the spectrum
    probe       the quadratic-form residual: 32 probes per iteration and 100
                for the reported residual
    rest        total minus the phases above: assembling the dense operator,
                the gain K = B^T R, and any Newton step after the first
    total       one whole solve_care call

Newton steps after the first factor the dense closed loop; rest holds
them (iters - 1 of them).  So that their cost shows also where Newton stops
after one step, one such dense step is timed apart, outside the total, on
the converged closed loop A_cl = -(Op + B K):

    schur       the real Schur form A_cl^T = Z T Z^T
    sylvester   the recursive blocked solve of T Y + Y T^T = Z^T rhs Z,
                rhs = -(Q + K^T K)
    transforms  the basis changes Z^T rhs Z and Z Y Z^T

Every time is in milliseconds, the median of --repeats timed calls.  BLAS is
pinned to one thread, as in the benchmark, unless the thread variables are
already set.
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
    _first_step,
    _lyapunov_schur,
    _margin,
    _probe_residual,
    solve_care,
)

PHASES = ("first", "margin", "probe", "rest", "total")
DENSE_STEP = ("schur", "sylvester", "transforms")


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
    plant, act = m.plant, m.act
    rc = cfg.riccati

    def solve():
        return solve_care(plant, act, tol=rc.tol, max_iters=rc.max_iters)

    sol = solve()  # warm-up, and the converged closed loop to profile
    lam, V = plant.eigenvalues, plant.eigenvectors
    A_op, B, Q_diag = plant.operator_matrix(), act.B_matrix, sol.Q_diag
    R, K = sol.R_matrix, sol.K_gain
    b, k = V.T @ B, V.T @ K.T

    def probe(samples):
        return _ms_per_call(
            lambda: _probe_residual(R, A_op, B, Q_diag, samples, np.random.default_rng(0)),
            repeats,
        )

    A_cl = -(A_op + B @ K)
    T, Z = scipy.linalg.schur(A_cl.T, output="real")
    rhs = -(np.diag(Q_diag) + K.T @ K)
    F = Z.T @ rhs @ Z
    Y = F.copy()
    _lyapunov_schur(T, Y)

    def transforms():
        Z.T @ rhs @ Z
        Z @ Y @ Z.T

    row = {
        "first": _ms_per_call(lambda: _first_step(lam, V, B, act.D_matrix, Q_diag), repeats),
        "margin": _ms_per_call(lambda: _margin(lam, b, k), repeats),
        "probe": sol.iterations * probe(_PROBE_SAMPLES) + probe(_REPORT_SAMPLES),
        "total": _ms_per_call(solve, repeats),
        "schur": _ms_per_call(lambda: scipy.linalg.schur(A_cl.T, output="real"), repeats),
        "sylvester": _ms_per_call(lambda: _lyapunov_schur(T, F.copy()), repeats),
        "transforms": _ms_per_call(transforms, repeats),
    }
    row["rest"] = row["total"] - row["first"] - row["margin"] - row["probe"]
    return row, sol.iterations, sol.margin


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--M", type=int, nargs="+", default=[32, 64, 128, 256])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    columns = PHASES + DENSE_STEP
    print("ms       " + "  ".join(f"{name:>10}" for name in columns) + "  iters      margin")
    for M in args.M:
        row, iters, margin = profile(M, args.repeats)
        print(
            f"M={M:<5}  "
            + "  ".join(f"{row[name]:10.2f}" for name in columns)
            + f"  {iters:5d}  {margin:10.6f}"
        )


if __name__ == "__main__":
    main()
