#!/usr/bin/env python3
"""Per-phase cost of the Newton-Kleinman Riccati synthesis ``phasestab.lqr.solve_care``.

    PYTHONPATH=src python scripts/care_profile.py [--M 32 64 128 256] [--repeats 5]

For each basis size M the default config is built at that M (stationary
state, plant and actuator) and one whole ``solve_care`` call is timed.  Each
phase of the solve is then timed alone:

    first       the first Newton step, formed in the plant's eigenbasis: the
                start gain on the actuator's unstable block, the block
                solves of its closed loop's Lyapunov equation, mode by mode
                where it is block diagonal, and R kept as the unstable
                cross plus the modes' 2x2 blocks
    margin      the closed-loop margin from the head of the spectrum
    probe       the quadratic-form residual: 32 probes per iteration and 100
                for the reported residual, R applied in its compact form
    rest        total minus the phases above: the gain K = B^T R, its
                eigen-coordinates, and any Newton step after the first.
                The phases are medians of separate timing loops, so this
                difference is noisy; it is clamped at 0 and is a floor
    total       one whole solve_care call
    peak        not a time: the tracemalloc peak of one solve_care call above
                its inputs, in n^2 doubles (n = 2M).  No n x n array is
                formed, so this does not scale as n^2: it falls as M grows
                (one 32-row probe block and O(n N) arrays)

Newton steps after the first factor the dense closed loop; rest holds
them (iters - 1 of them).  So that their cost shows also where Newton stops
after one step, one such dense step is timed apart, outside the total, on
the converged closed loop A_cl = -(Op + B K):

    dense       the package's dense step ``_dense_step`` on the gain K, whole
    schur       the real Schur form A_cl^T = Z T Z^T
    sylvester   the Lyapunov solve T Y + Y T^T = Z^T rhs Z, rhs = -(Q + K^T K),
                as the recursive blocked Sylvester solve with B = T
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
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from phasestab.cli import build_materials  # noqa: E402
from phasestab.config import SimConfig  # noqa: E402
from phasestab.lqr import (  # noqa: E402
    _PROBE_SAMPLES,
    _REPORT_SAMPLES,
    _apply_R,
    _dense_step,
    _first_step,
    _margin,
    _probe_residual,
    _sylvester_schur,
    solve_care,
)

PHASES = ("first", "margin", "probe", "rest", "total", "peak")
DENSE_STEP = ("dense", "schur", "sylvester", "transforms")


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
    tracemalloc.start()
    solve()
    peak = tracemalloc.get_traced_memory()[1] / (8.0 * (2 * M) ** 2)
    tracemalloc.stop()
    A_op, B, Q_diag = plant.operator_matrix(), act.B_matrix, plant.state_weight_diagonal()
    K = sol.K_gain
    b, k = plant.to_eigenbasis(B), plant.to_eigenbasis(K.T)

    def apply_R(X):
        return _apply_R(X, sol.R_rows, sol.R_cross, sol.R_blocks)

    def probe(samples):
        return _ms_per_call(
            lambda: _probe_residual(
                apply_R, plant.apply_operator, B, Q_diag, samples, np.random.default_rng(0)
            ),
            repeats,
        )

    A_cl = -(A_op + B @ K)
    T, Z = scipy.linalg.schur(A_cl.T, output="real")
    rhs = -(np.diag(Q_diag) + K.T @ K)
    F = Z.T @ rhs @ Z
    Y = F.copy()
    _sylvester_schur(T, T, Y)

    def transforms():
        Z.T @ rhs @ Z
        Z @ Y @ Z.T

    row = {
        "first": _ms_per_call(lambda: _first_step(plant, act), repeats),
        "margin": _ms_per_call(lambda: _margin(plant.eigenvalues, b, k), repeats),
        "probe": sol.iterations * probe(_PROBE_SAMPLES) + probe(_REPORT_SAMPLES),
        "total": _ms_per_call(solve, repeats),
        "dense": _ms_per_call(lambda: _dense_step(A_op, B, Q_diag, K), repeats),
        "schur": _ms_per_call(lambda: scipy.linalg.schur(A_cl.T, output="real"), repeats),
        "sylvester": _ms_per_call(lambda: _sylvester_schur(T, T, F.copy()), repeats),
        "transforms": _ms_per_call(transforms, repeats),
    }
    row["rest"] = max(row["total"] - row["first"] - row["margin"] - row["probe"], 0.0)
    row["peak"] = peak
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
