import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from phasestab import lqr
from phasestab.actuator import build_actuator
from phasestab.cli import build_materials, main
from phasestab.config import NumericalError, SimConfig, apply_override
from phasestab.linearization import F_second_parts, PhysicalParams, assemble_plant
from phasestab.lqr import solve_care
from phasestab.spectral import ScalarField, SpectralBasis
from phasestab.stationary import stationary_constant

import oracles
from oracles import (
    apply_B,
    eigenvectors,
    riccati_residual,
    solve_care_dense,
    solve_care_integrated,
)
from phasebench.workloads import config_for

OMEGA = (0.25, 0.75)  # the actuator interval of the problem fixture


@pytest.fixture(scope="module")
def problem():
    basis = SpectralBasis(L=1.0, M=64)
    params = PhysicalParams(nu=0.1, l0=1.0, gamma0=1.0)
    state = stationary_constant(0, basis=basis)
    plant = assemble_plant(params, state)
    act = build_actuator(plant, omega=OMEGA)
    return basis, plant, act


@pytest.fixture(scope="module")
def solution(problem):
    _, plant, act = problem
    return solve_care(plant, act, method="newton")


class TestScalarOracles:
    def test_no_actuation_closed_form(self):
        # 2 r lam = q
        lam, q = 2.0, 3.0
        R, _, _ = solve_care_dense(np.array([[lam]]), np.array([[0.0]]), np.array([q]))
        assert R[0, 0] == pytest.approx(q / (2 * lam), rel=1e-10)

    @pytest.mark.parametrize("lam", [2.0, -0.5])
    def test_actuated_closed_form(self, lam):
        # 2 r lam + r^2 b^2 = q  =>  r = (-lam + sqrt(lam^2 + b^2 q)) / b^2
        b, q = 0.7, 1.3
        R, _, _ = solve_care_dense(np.array([[lam]]), np.array([[b]]), np.array([q]))
        expected = (-lam + np.sqrt(lam**2 + b**2 * q)) / b**2
        assert R[0, 0] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("method", ["newton", "integrate"])
    def test_both_methods_on_scalar(self, method):
        lam, b, q = -0.5, 0.7, 1.3
        R, _, _ = solve_care_dense(
            np.array([[lam]]), np.array([[b]]), np.array([q]), method=method
        )
        expected = (-lam + np.sqrt(lam**2 + b**2 * q)) / b**2
        assert R[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_stable_dense_operator_without_actuation(self):
        # a stable operator and no actuation: the zero start gain is optimal,
        # and R solves Op R + R Op = diag(q)
        rng = np.random.default_rng(27)
        V = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        lam, q = np.linspace(0.5, 3.0, 5), np.linspace(1.0, 2.0, 5)
        A_op = V @ np.diag(lam) @ V.T
        A_op = 0.5 * (A_op + A_op.T)
        R, iterations, _ = solve_care_dense(A_op, np.zeros((5, 1)), q)
        assert iterations == 1
        R_ref = scipy.linalg.solve_continuous_lyapunov(A_op, np.diag(q))
        assert np.abs(R - R_ref).max() <= 1e-12 * np.abs(R_ref).max()

    def test_uncontrollable_unstable_raises(self):
        with pytest.raises(NumericalError):
            solve_care_dense(np.array([[-1.0]]), np.array([[0.0]]), np.array([1.0]))


class TestRiccatiSolution:
    def test_residual_below_target(self, solution):
        assert solution.residual_rel <= 1e-6

    def test_symmetry(self, solution):
        R = solution.R_matrix
        assert np.abs(R - R.T).max() / np.abs(R).max() <= 1e-12

    def test_positivity_on_random_vectors(self, problem, solution):
        _, plant, _ = problem
        rng = np.random.default_rng(21)
        R = solution.R_matrix
        for _ in range(100):
            x = rng.standard_normal(2 * plant.M)
            assert x @ R @ x > 0

    def test_rayleigh_bounds_in_decay_norm(self, problem, solution):
        # empirical two-sided bounds of x^T R x against the squared decay norm
        basis, plant, _ = problem
        rng = np.random.default_rng(22)
        R = solution.R_matrix
        wy = basis.mu**0.5
        wz = basis.mu**0.25
        ratios = []
        for _ in range(100):
            x = rng.standard_normal(2 * plant.M)
            xi_sq = np.sum((wy * x[: basis.M]) ** 2) + np.sum(
                (wz * x[basis.M :]) ** 2
            )
            ratios.append((x @ R @ x) / xi_sq)
        ratios = np.array(ratios)
        assert np.all(np.isfinite(ratios))
        assert ratios.min() > 0

    def test_newton_monotone_residual_history(self, problem):
        _, plant, act = problem
        sol = solve_care(plant, act, method="newton", tol=1e-14, max_iters=12)
        hist = sol.residual_history
        assert len(hist) >= 1
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-14

    def test_perturbation_inflates_residual(self, problem, solution):
        _, plant, act = problem
        from dataclasses import replace

        rng = np.random.default_rng(23)
        R = solution.R_matrix
        bump = rng.standard_normal(R.shape)
        bump = 0.5 * (bump + bump.T)
        bump *= 0.01 * np.abs(R).max() / np.abs(bump).max()
        # R + bump in the compact form of a dense iterate
        perturbed = replace(
            solution, R_rows=np.arange(len(R)), R_cross=0.5 * (R + bump),
            R_blocks=np.zeros_like(solution.R_blocks),
        )
        assert riccati_residual(perturbed, plant, act, samples=100) > 1e-3

    def test_fresh_probe_residual(self, problem, solution):
        _, plant, act = problem
        assert riccati_residual(solution, plant, act, samples=100, seed=99) <= 1e-6

    def test_integrated_route_not_in_package(self, problem):
        _, plant, act = problem
        with pytest.raises(ValueError, match="tests/oracles.py"):
            solve_care(plant, act, method="integrate")


def _apply(sol):
    """X -> X R through the package's compact form of sol."""
    return lambda X: lqr._apply_R(X, sol.R_rows, sol.R_cross, sol.R_blocks)


def _loop_probe_residual(R, A_op, B, Q_diag, samples, rng):
    """One probe vector at a time: the reference for the batched _probe_residual."""
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(R.shape[0])
        x /= np.linalg.norm(x)
        Rx = R @ x
        quad = 2.0 * Rx @ (A_op @ x) + np.sum((B.T @ Rx) ** 2)
        target = Q_diag @ (x * x)
        worst = max(worst, abs(quad - target) / target)
    return worst


@pytest.mark.parametrize("samples, seed", [(32, 12345), (100, 202), (100, 0)])
def test_probe_residual_matches_loop(problem, solution, samples, seed):
    _, plant, act = problem
    B, Q_diag = act.B_matrix, plant.state_weight_diagonal()
    batched = lqr._probe_residual(
        _apply(solution), plant.apply_operator, B, Q_diag, samples, np.random.default_rng(seed)
    )
    looped = _loop_probe_residual(
        solution.R_matrix, plant.operator_matrix(), B, Q_diag, samples,
        np.random.default_rng(seed),
    )
    # the residual is a difference of O(1) quadratic forms over their size:
    # summation order moves it by a few eps
    assert batched == pytest.approx(looped, rel=0, abs=64 * np.finfo(float).eps)


@pytest.mark.parametrize("workload", ["default", "thin_interface"])
def test_block_probe_matches_dense_probe(workload):
    # the probe applies Op through its 2 x 2 blocks, four multiplies on the
    # (samples, M) halves; the dense operator's product gives the same residual
    m = _materials(workload)
    sol = solve_care(m.plant, m.act)
    A_op = m.plant.operator_matrix()
    for samples, seed in [(lqr._PROBE_SAMPLES, lqr._PROBE_SEED), (lqr._REPORT_SAMPLES, 0)]:
        block, dense = (
            lqr._probe_residual(
                _apply(sol), apply_op, m.act.B_matrix, m.plant.state_weight_diagonal(), samples,
                np.random.default_rng(seed),
            )
            for apply_op in (m.plant.apply_operator, lambda X: X @ A_op.T)
        )
        assert block == pytest.approx(dense, rel=1e-12)


def _one_draw_probe_residual(apply_R, apply_op, B, Q_diag, samples, rng):
    """The probe with all its samples drawn and applied at once, as one (samples, n) block."""
    X = rng.standard_normal((samples, B.shape[0]))
    X /= np.linalg.norm(X, axis=1)[:, None]
    RX = apply_R(X)
    quad = 2.0 * np.sum(RX * apply_op(X), axis=1) + np.sum((RX @ B) ** 2, axis=1)
    target = (X * X) @ Q_diag
    return float(np.max(np.abs(quad - target) / target))


@pytest.mark.parametrize("workload", ["default", "thin_interface"])
def test_blocked_probe_equals_one_draw_probe(workload):
    # blocks of _PROBE_BLOCK rows from one generator are the rows of one
    # draw, and each row's value is its own: the residual is bit-identical
    m = _materials(workload)
    sol = solve_care(m.plant, m.act)
    args = (_apply(sol), m.plant.apply_operator, m.act.B_matrix, m.plant.state_weight_diagonal())
    for samples, seed in [
        (lqr._PROBE_SAMPLES, lqr._PROBE_SEED), (lqr._REPORT_SAMPLES, lqr._REPORT_SEED), (45, 0),
        (33, 0), (65, 1),
    ]:
        blocked = lqr._probe_residual(*args, samples, np.random.default_rng(seed))
        assert blocked == _one_draw_probe_residual(*args, samples, np.random.default_rng(seed))
    assert sol.residual_rel == _one_draw_probe_residual(
        *args, lqr._REPORT_SAMPLES, np.random.default_rng(lqr._REPORT_SEED)
    )


@pytest.mark.parametrize("samples", [1, 2, 32, 33, 64, 65, 129])
def test_probe_has_no_one_row_block(problem, solution, samples):
    # a one-row product goes to BLAS gemv, which rounds unlike gemm: a
    # one-row tail joins the block before it, and the blocks cover the draw
    _, plant, act = problem
    rows = []

    def apply_R(X):
        rows.append(X.shape[0])
        return _apply(solution)(X)

    lqr._probe_residual(
        apply_R, plant.apply_operator, act.B_matrix, plant.state_weight_diagonal(), samples,
        np.random.default_rng(0),
    )
    assert sum(rows) == samples
    assert max(rows) <= lqr._PROBE_BLOCK + 1
    assert samples == 1 or min(rows) > 1


def _split_points(lo: int, hi: int) -> list[int]:
    """Midpoints the recursive solve splits [lo, hi) at, before any block move."""
    if hi - lo <= lqr._LEAF:
        return []
    h = lo + (hi - lo) // 2
    return [h, *_split_points(lo, h), *_split_points(h, hi)]


@st.composite
def stable_quasi_triangular(draw):
    """A random stable real Schur form, with 2x2 complex-pair blocks."""
    n = draw(st.one_of(st.integers(1, 130), st.sampled_from([47, 48, 49, 50, 96, 97, 98, 99])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = set(draw(st.lists(st.integers(0, max(n - 2, 0)), max_size=n // 2)))
    if draw(st.booleans()):
        starts |= {h - 1 for h in _split_points(0, n)}  # pairs across every split
    T = np.triu(rng.standard_normal((n, n))) / np.sqrt(n)
    i = 0
    while i < n:
        if i in starts and i + 1 < n:
            # standardized block: eigenvalues a +- i sqrt(b c)
            a, (b, c) = -rng.uniform(0.1, 5.0), rng.uniform(0.2, 3.0, 2)
            T[i : i + 2, i : i + 2] = [[a, b], [-c, a]]
            i += 2
        else:
            T[i, i] = -rng.uniform(0.1, 5.0)
            i += 1
    return T, rng


class TestLyapunovSchur:
    @settings(max_examples=60, deadline=None)
    @given(stable_quasi_triangular())
    def test_matches_dense_oracle(self, case):
        T, rng = case
        F = rng.standard_normal(T.shape)
        F = F + F.T
        Y = F.copy()
        lqr._sylvester_schur(T, T, Y)
        ref = scipy.linalg.solve_continuous_lyapunov(T, F)
        assert np.linalg.norm(Y - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(T @ Y + Y @ T.T - F) <= 1e-12 * np.linalg.norm(F)

    @pytest.mark.parametrize("n", [2, 100])
    def test_zero_eigenvalue_sum_raises(self, n):
        # lambda_0 + lambda_{n-1} = 0: a leaf solve (n = 2) or an off-diagonal
        # Sylvester leaf (n = 100) meets a singular operator
        T = np.diag(np.linspace(-2.0, -0.5, n))
        T[0, 0], T[-1, -1] = 1.0, -1.0
        with pytest.raises(NumericalError, match="trsyl"):
            lqr._sylvester_schur(T, T, np.eye(n))


def _dense_newton_kleinman(A, B, Q_diag, K0, tol, max_iters):
    """Newton-Kleinman with an eigvals check and SciPy's dense Lyapunov solve: the oracle."""
    Q = np.diag(Q_diag)
    K = K0
    history = []
    for it in range(max_iters):
        A_cl = A - B @ K
        margin = -float(np.max(np.linalg.eigvals(A_cl).real))
        assert margin > 0
        X = scipy.linalg.solve_continuous_lyapunov(A_cl.T, -(Q + K.T @ K))
        X = 0.5 * (X + X.T)
        K = B.T @ X
        res = lqr._probe_residual(
            lambda Z: Z @ X, lambda Z: -Z @ A.T, B, Q_diag, lqr._PROBE_SAMPLES,
            np.random.default_rng(lqr._PROBE_SEED),
        )
        history.append({"iteration": it, "margin": margin, "residual": res})
        if res <= tol:
            break
    return X, history


def _schur_newton_kleinman(A_op, B, Q_diag, K, iterations):
    """Kleinman steps from the gain K, each closed loop factored by one real Schur form.

    Each later gain is B^T X as the package applies a dense iterate X: through
    its compact form, every column in the cross and zero mode blocks.
    """
    Q = np.diag(Q_diag)
    M = len(Q_diag) // 2
    for _ in range(iterations):
        T, Z = scipy.linalg.schur((-A_op - B @ K).T, output="real")
        assert np.max(np.diag(T)) < 0
        Y = Z.T @ (-(Q + K.T @ K)) @ Z
        lqr._sylvester_schur(T, T, Y)
        X = Z @ Y @ Z.T
        X = 0.5 * (X + X.T)
        K = lqr._apply_R(B.T, np.arange(2 * M), 0.5 * X, np.zeros((M, 2, 2)))
    return X


def _fresh_interpreter(code: str) -> str:
    """Stripped stdout of code run by a new interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.strip()


@pytest.fixture
def schur_shapes(monkeypatch):
    """Shapes of the matrices handed to scipy.linalg.schur, in call order."""
    shapes, schur = [], scipy.linalg.schur

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", recorded)
    return shapes


@functools.cache
def _materials(workload):
    """The plant and actuator of a benchmark workload's first instance."""
    return build_materials(config_for(workload, 0))


def _start_gain(plant, act):
    """(K0, P_u D): the start gain (P_u D)^T V_U^T from the unstable block's LQR solution."""
    N, V = act.N, eigenvectors(plant)
    Q_u = V[:, :N].T @ np.diag(plant.state_weight_diagonal()) @ V[:, :N]
    PD = lqr._care_hamiltonian(-np.diag(plant.eigenvalues[:N]), act.D_matrix, Q_u) @ act.D_matrix
    return PD.T @ V[:, :N].T, PD


def _package_first_step(plant, act):
    """X1 as ``solve_care`` forms it, in the eigenbasis, scattered into a dense array."""
    X1, _ = lqr._first_step(plant, act)
    return oracles.scatter_R(*X1)


def _scaled_lyapunov_residual(plant, act, K0, X):
    """||Ahat^{-1/2} (A_cl^T X + X A_cl + Q + K0^T K0) Ahat^{-1/2}||_2 for A_cl = -(Op + B K0).

    A_cl is taken in the plant's closed-form eigenbasis, V^T A_cl V =
    -(Lambda + V^T B K0 V), so the dense operator's rounding stays out.
    """
    lam, V = plant.eigenvalues, eigenvectors(plant)
    Q_diag = plant.state_weight_diagonal()
    A_e = -(np.diag(lam) + (V.T @ act.B_matrix) @ (K0 @ V))
    X_e = V.T @ X @ V
    K_e = K0 @ V
    E = A_e.T @ X_e + X_e @ A_e + V.T @ np.diag(Q_diag) @ V + K_e.T @ K_e
    w = Q_diag**-0.5
    return float(np.linalg.norm(w[:, None] * (V @ E @ V.T) * w[None, :], 2))


class TestNewtonSchur:
    @pytest.mark.parametrize("workload", ["default", "thin_interface"])
    def test_matches_dense_lyapunov_route(self, workload):
        # the oracle runs Newton from the same start gain, factoring the dense
        # first closed loop with backward error eps ||Op||; the package's
        # eigenbasis first step is the more accurate side, so R agrees to that
        # error, not to rounding
        m = _materials(workload)
        A, B = -m.plant.operator_matrix(), m.act.B_matrix
        Q_diag = m.plant.state_weight_diagonal()
        sol = solve_care(m.plant, m.act)
        K0, _ = _start_gain(m.plant, m.act)
        R_ref, history = _dense_newton_kleinman(A, B, Q_diag, K0, 1e-9, 50)
        assert sol.iterations == len(history)
        assert np.abs(sol.R_matrix - R_ref).max() <= 1e-9 * np.abs(R_ref).max()
        ref_margin = -float(np.max(np.linalg.eigvals(A - B @ B.T @ R_ref).real))
        assert sol.margin == pytest.approx(ref_margin, rel=1e-6)
        X1 = _package_first_step(m.plant, m.act)
        X1_ref, _ = _dense_newton_kleinman(A, B, Q_diag, K0, 0.0, 1)
        assert _scaled_lyapunov_residual(m.plant, m.act, K0, X1) < _scaled_lyapunov_residual(
            m.plant, m.act, K0, X1_ref
        )

    def test_one_schur_form_and_no_eigvals_per_iteration(
        self, monkeypatch, schur_shapes, problem
    ):
        _, plant, act = problem
        eigvals_shapes, eigvals = [], np.linalg.eigvals

        def recorded_eigvals(a, *args, **kwargs):
            eigvals_shapes.append(np.shape(a))
            return eigvals(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", recorded_eigvals)
        _, iterations, _ = lqr._solve_care_core(plant, act, tol=0.0, max_iters=3)
        assert iterations == 3
        # the first step takes no Schur form, only the eigenvalues of its
        # N x N unstable block for the margin; each later step takes one
        # dense Schur form and no eigen-solve
        N, n = act.N, 2 * plant.M
        assert schur_shapes == [(n, n), (n, n)]
        assert eigvals_shapes == [(N, N)]

    def test_destabilizing_gain_rejected(self, problem):
        _, plant, act = problem
        B = act.B_matrix
        with pytest.raises(NumericalError, match="lost the stabilizing property"):
            lqr._dense_step(
                plant.operator_matrix(), B, plant.state_weight_diagonal(), -10.0 * B.T
            )

    @pytest.mark.parametrize("re", [0.1, 0.0])
    def test_unstable_complex_pair_rejected(self, re):
        # the real part of a complex pair sits on its 2x2 block's diagonal
        A = np.array([[re, 1.0, 0.0], [-1.0, re, 0.0], [0.0, 0.0, -1.0]])
        with pytest.raises(NumericalError, match="lost the stabilizing property"):
            lqr._dense_step(-A, np.zeros((3, 1)), np.ones(3), np.zeros((1, 3)))

    def test_step_failure_names_iterate_and_carries_history(self, monkeypatch, problem):
        _, plant, act = problem

        def failing_step(*args):
            raise NumericalError("the closed loop lost the stabilizing property")

        monkeypatch.setattr(lqr, "_dense_step", failing_step)
        with pytest.raises(NumericalError, match="^iterate 1: the closed loop") as info:
            lqr._solve_care_core(plant, act, tol=0.0, max_iters=3)
        # the first step's probe entry, and nothing of the failed iterate
        assert len(info.value.facts["history"]) == 1

    def test_later_steps_match_schur_newton_kleinman(self):
        # at M = 16 the probe asks for two dense steps; the one loop gives the
        # R of a separate Kleinman loop from the first step's gain, bit for bit
        cfg = SimConfig()
        cfg.basis.M = 16
        m = build_materials(cfg.validate())
        A_op, B = m.plant.operator_matrix(), m.act.B_matrix
        Q_diag = m.plant.state_weight_diagonal()
        sol = solve_care(m.plant, m.act)
        assert sol.iterations == 3
        X1, _ = lqr._first_step(m.plant, m.act)
        R_ref = _schur_newton_kleinman(A_op, B, Q_diag, lqr._apply_R(B.T, *X1), iterations=2)
        assert np.array_equal(sol.R_matrix, R_ref)

    def test_far_start_later_steps_reach_dense_care(self):
        # nu = 0.02, L = 2 puts N = 6 eigenpairs in the unstable block, and the
        # start's probe residual is 6.1e-2, far from the M = 16 default's
        # 3.3e-6: the later dense steps converge to SciPy's CARE solution
        cfg = SimConfig()
        cfg.params.nu, cfg.basis.M, cfg.basis.L = 0.02, 16, 2.0
        cfg.actuator.a, cfg.actuator.b = 0.5, 1.5
        m = build_materials(cfg.validate())
        assert m.act.N == 6
        sol = solve_care(m.plant, m.act)
        assert sol.residual_history[0] > 1e-2
        assert sol.iterations >= 4
        A, B = -m.plant.operator_matrix(), m.act.B_matrix
        Q = np.diag(m.plant.state_weight_diagonal())
        R_ref = scipy.linalg.solve_continuous_are(A, B, Q, np.eye(m.act.N))
        assert np.abs(sol.R_matrix - R_ref).max() <= 1e-8 * np.abs(R_ref).max()
        ref_margin = -float(np.max(np.linalg.eigvals(A - B @ B.T @ R_ref).real))
        assert sol.margin == pytest.approx(ref_margin, rel=1e-9)

    def test_default_run_leaves_scipy_linalg_unloaded(self, tmp_path):
        # Newton stops after its eigenbasis first step, so a whole default run
        # (materials, synthesis, a short simulation) never imports SciPy's linalg
        code = (
            "import sys, phasestab\n"
            "from phasestab.cli import main\n"
            f"assert main(['simulate', '--set', 'sim.t_end=0.5', '--output-dir', {str(tmp_path)!r}]) == 0\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        # main prints the fitted rate first
        assert _fresh_interpreter(code).splitlines()[-1] == "False"

    def test_later_step_loads_scipy_linalg(self):
        code = (
            "import sys\n"
            "from phasestab.cli import build_materials\n"
            "from phasestab.config import SimConfig\n"
            "from phasestab.lqr import solve_care\n"
            "cfg = SimConfig()\n"
            "cfg.basis.M = 16\n"
            "m = build_materials(cfg.validate())\n"
            "loaded = 'scipy.linalg' in sys.modules\n"
            "print(loaded, solve_care(m.plant, m.act).iterations, 'scipy.linalg' in sys.modules)\n"
        )
        assert _fresh_interpreter(code) == "False 3 True"


class TestFirstStep:
    @pytest.mark.parametrize("workload", ["default", "thin_interface"])
    def test_scaled_lyapunov_residual(self, workload):
        # a dense Schur of the first loop leaves 1.5e-7 (M = 64) and 9.9e-6
        # (M = 256) here; the eigenbasis step about 2e-14 and 2e-12
        m = _materials(workload)
        K0, _ = _start_gain(m.plant, m.act)
        X1 = _package_first_step(m.plant, m.act)
        assert _scaled_lyapunov_residual(m.plant, m.act, K0, X1) <= 1e-10

    @pytest.mark.parametrize("workload", ["default", "thin_interface"])
    def test_schur_pair_structure(self, workload):
        # the block triangular loop the first step solves with,
        # T = [[A_u, C], [0, -Lam_S]], A_u = -(Lam_U + P_u D D^T) and
        # C = -P_u D b_S^T, is the start gain's transposed loop in the eigenbasis
        m = _materials(workload)
        lam, V, B = m.plant.eigenvalues, eigenvectors(m.plant), m.act.B_matrix
        N, eps = m.act.N, np.finfo(float).eps
        K0, PD = _start_gain(m.plant, m.act)
        T = np.diag(-lam)
        T[:N, :N] = -(np.diag(lam[:N]) + PD @ m.act.D_matrix.T)
        T[:N, N:] = -PD @ (V[:, N:].T @ B).T
        A_cl = -(m.plant.operator_matrix() + B @ K0)
        assert np.linalg.norm(V.T @ A_cl.T @ V - T) <= 64 * eps * np.linalg.norm(A_cl)

    def test_synthesis_transient_is_one_probe_block(self):
        # at M = 256, above its inputs, solve_care holds one 32-row block of
        # probe samples and O(n N) arrays at a time (0.31 n^2 doubles; 1.31
        # with R scattered into a dense n x n array, 1.80 with the report
        # probe's 100 rows drawn at once); the dense operator and a dense
        # eigenvector matrix are never formed (5.09 with them)
        m = _materials("thin_interface")
        n = 2 * m.plant.M
        solve_care(m.plant, m.act)  # warm every cache first
        tracemalloc.start()
        try:
            solve_care(m.plant, m.act)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * n * n * 8

    def test_first_step_holds_no_dense_array(self):
        # at M = 256 the first step keeps X1 as the unstable cross plus the
        # mode blocks, and forms no n x n array (1.25 n^2 doubles with X1
        # scattered into one, 2.33 with the eigenbasis iterate Y formed
        # densely)
        m = _materials("thin_interface")
        n = 2 * m.plant.M
        lqr._first_step(m.plant, m.act)  # warm every cache first
        tracemalloc.start()
        try:
            lqr._first_step(m.plant, m.act)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * n * n * 8

    def test_stable_only_plant_takes_no_dense_schur(self, schur_shapes):
        # the set-up of test_stable_only_plant_margin_positive: only the two
        # zero mean modes need the feedback, and Newton stops after one step
        basis = SpectralBasis(L=1.0, M=64)
        params = PhysicalParams(nu=100.0, l0=1.0, gamma0=1.0)
        plant = assemble_plant(params, stationary_constant(0, basis=basis))
        sol = solve_care(plant, build_actuator(plant))
        assert sol.iterations == 1
        assert schur_shapes == []

    @pytest.mark.parametrize("workload", ["default", "thin_interface", "rho_ensemble"])
    def test_workloads_take_no_schur(self, schur_shapes, workload):
        m = _materials(workload)
        assert solve_care(m.plant, m.act).iterations == 1
        assert schur_shapes == []


class TestCompactR:
    @pytest.mark.parametrize("workload", ["default", "thin_interface", "rho_ensemble"])
    def test_R_matrix_equals_scatter_assembly(self, workload):
        # R_matrix assembles the compact form as I R; each entry is one term
        # or an exact sum, so it equals the scatter into a zeroed array bit
        # for bit, and X R agrees with the dense product to rounding
        m = _materials(workload)
        sol = solve_care(m.plant, m.act)
        R = sol.R_matrix
        assert np.array_equal(R, oracles.scatter_R(sol.R_rows, sol.R_cross, sol.R_blocks))
        X = np.random.default_rng(5).standard_normal((7, len(R)))
        XR = _apply(sol)(X)
        assert np.abs(XR - X @ R).max() <= 1e-13 * np.abs(X @ R).max()

    def test_dense_iterate_reassembles_exactly(self, monkeypatch):
        # at M = 16 Newton takes two dense steps; the last one's X, kept as
        # every column in the cross with zero blocks, reassembles exactly
        cfg = SimConfig()
        cfg.basis.M = 16
        m = build_materials(cfg.validate())
        iterates, dense_step = [], lqr._dense_step

        def recorded(*args):
            X, margin = dense_step(*args)
            iterates.append(X)
            return X, margin

        monkeypatch.setattr(lqr, "_dense_step", recorded)
        sol = solve_care(m.plant, m.act)
        assert sol.iterations == 3 and len(iterates) == 2
        assert np.array_equal(sol.R_rows, np.arange(2 * m.plant.M))
        assert np.array_equal(sol.R_matrix, iterates[-1])
        assert np.array_equal(oracles.scatter_R(sol.R_rows, sol.R_cross, sol.R_blocks), iterates[-1])


def _secular_root(lam, b, k, z0):
    """Real root of det(I + k^T (Lambda - z)^{-1} b) near z0, at 40 digits.

    By the matrix determinant lemma its roots are the eigenvalues of
    Lambda + b k^T for the given float entries, free of their rounding.
    """
    N = b.shape[1]
    with mpmath.workdps(40):
        lam_mp, b_mp, k_mp = (
            [[mpmath.mpf(float(x)) for x in np.atleast_1d(row)] for row in a] for a in (lam, b, k)
        )

        def det(z):
            S = mpmath.eye(N)
            for (li,), bi, ki in zip(lam_mp, b_mp, k_mp):
                w = 1 / (li - z)
                for p in range(N):
                    for q in range(N):
                        S[p, q] += w * ki[p] * bi[q]
            return mpmath.det(S)

        return float(mpmath.findroot(det, mpmath.mpf(z0)))


@pytest.fixture
def factored_shapes(monkeypatch):
    """Shapes of the matrices handed to a Schur form or an eigen-solve, in call order."""
    shapes = []
    for module, name in [(scipy.linalg, "schur"), (np.linalg, "eigvals"), (np.linalg, "eig")]:
        original = getattr(module, name)

        def recorded(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    return shapes


def _dense_margin(lam, b, k):
    return float(np.min(np.linalg.eigvals(np.diag(lam) + b @ k.T).real))


class TestMargin:
    @pytest.mark.parametrize("workload", ["default", "thin_interface", "rho_ensemble"])
    def test_matches_secular_root(self, workload):
        # the dense eigen-solve of the 2M x 2M loop is off by 1e-8 to 4e-7
        # here; the head's eigenproblem agrees with the exact root to ~1e-13
        m = _materials(workload)
        sol = solve_care(m.plant, m.act)
        V = eigenvectors(m.plant)
        b, k = V.T @ m.act.B_matrix, V.T @ sol.K_gain.T
        root = _secular_root(m.plant.eigenvalues, b, k, sol.margin)
        assert sol.margin == pytest.approx(root, rel=1e-11)

    @pytest.mark.parametrize("workload", ["default", "thin_interface"])
    def test_nothing_larger_than_the_head_factored(self, factored_shapes, workload):
        m = _materials(workload)
        sol = solve_care(m.plant, m.act)
        assert sol.iterations == 1
        assert factored_shapes
        assert max(max(shape) for shape in factored_shapes) <= lqr._HEAD

    def test_complex_pair_with_a_strongly_coupled_tail(self, factored_shapes):
        # the leftmost eigenvalues are a complex pair of the head block, and
        # the tail shifts them by 0.1: the head alone is far off, S(z) is not
        rng = np.random.default_rng(5)
        n, m = 48, lqr._HEAD
        lam = np.concatenate([[-0.5, 0.0], 2.0 + 3.0 * np.arange(n - 2)])
        b, k = np.zeros((n, 2)), np.zeros((n, 2))
        b[:2], k[:2] = np.eye(2), [[1.0, -2.0], [2.0, 1.0]]
        b[m:], k[m:] = rng.standard_normal((2, n - m, 2))
        dense = np.linalg.eigvals(np.diag(lam) + b @ k.T)
        head = np.linalg.eigvals(np.diag(lam[:m]) + b[:m] @ k[:m].T)
        assert np.iscomplex(dense[np.argmin(dense.real)])
        assert abs(np.min(head.real) - np.min(dense.real)) > 1e-3
        factored_shapes.clear()
        margin = lqr._margin(lam, b, k)
        assert margin == pytest.approx(np.min(dense.real), rel=1e-12)
        assert set(factored_shapes) == {(m, m)}

    def test_settled_branch_not_the_leftmost(self, factored_shapes):
        # head mode 0 couples to tail mode 16 (c = 3 - 2 = 1): their 2 x 2
        # loop has eigenvalues -0.2 and 0.5, and its branch of S(z) starts at
        # -0.1, right of the uncoupled head mode at -0.15.  The iteration
        # settles on -0.15 at once, a fixed point left of c that is not the
        # leftmost one; S(-0.15) shows -0.178 left of it, so m doubles
        n = 40
        lam = np.concatenate(
            [[-1.0, -0.15], 1.5 + 0.1 * np.arange(14), [3.0], 3.5 + np.arange(n - 17)]
        )
        b, k = np.zeros((n, 1)), np.zeros((n, 1))
        b[0], k[0] = 1.0, 0.3
        b[16], k[16] = 1.0, -2.0
        margin = lqr._margin(lam, b, k)
        assert [shape[0] for shape in factored_shapes] == [16, 16, 32, 32]
        assert margin == pytest.approx(-0.2, rel=1e-12)
        assert margin == pytest.approx(_dense_margin(lam, b, k), rel=1e-12)

    def test_head_grows_to_the_whole_spectrum(self, factored_shapes):
        # one strongly coupled last mode keeps the Bauer-Fike bound c right
        # of 0 but left of the head's fixed point until the tail is empty
        rng = np.random.default_rng(7)
        n = 40
        lam = np.concatenate([[0.5], 1.0 + 0.01 * np.arange(n - 1)])
        b, k = 0.05 * rng.standard_normal((2, n, 2))
        b[-1] = k[-1] = [1.0, 0.0]
        margin = lqr._margin(lam, b, k)
        assert [shape[0] for shape in factored_shapes] == [16, 32, n, n]
        assert margin == pytest.approx(_dense_margin(lam, b, k), rel=1e-12)


class TestMethodAgreement:
    def test_newton_vs_integrate_m8(self):
        basis = SpectralBasis(L=1.0, M=8)
        params = PhysicalParams(nu=0.1, l0=1.0, gamma0=1.0)
        plant = assemble_plant(params, stationary_constant(0, basis=basis))
        act = build_actuator(plant)
        sol_n = solve_care(plant, act, method="newton")
        R_i = solve_care_integrated(plant, act)
        scale = np.abs(sol_n.R_matrix).max()
        assert np.abs(sol_n.R_matrix - R_i).max() <= 1e-6 * scale
        fro = np.linalg.norm(sol_n.R_matrix - R_i)
        assert fro <= 1e-6 * np.linalg.norm(sol_n.R_matrix)


def feedback(sol, act, y, z):
    """Feedback forcing B w and amplitudes w = -B^T R (y, z), through apply_B."""
    w = -(sol.K_gain @ np.concatenate([y.coeffs, z.coeffs]))
    return apply_B(act, w), w


def closed_loop_margin(sol, plant, act):
    """Margin of -(Op + B K) from an eigen-solve independent of solve_care's."""
    eigs = np.linalg.eigvals(-(plant.operator_matrix() + act.B_matrix @ sol.K_gain))
    return -float(np.max(eigs.real))


class TestFeedback:
    def test_zero_state_zero_forcing(self, problem, solution):
        basis, _, act = problem
        (fy, fz), w = feedback(
            solution, act, ScalarField.constant(basis, 0.0), ScalarField.constant(basis, 0.0)
        )
        assert np.abs(fy.coeffs).max() == 0.0
        assert np.abs(fz.coeffs).max() == 0.0
        assert np.abs(w).max() == 0.0

    def test_forcing_supported_in_omega(self, problem, solution):
        basis, _, act = problem
        rng = np.random.default_rng(24)
        y = ScalarField(basis, rng.standard_normal(basis.M))
        z = ScalarField(basis, rng.standard_normal(basis.M))
        (fy, fz), _ = feedback(solution, act, y, z)
        outside = (basis.nodes <= OMEGA[0]) | (basis.nodes >= OMEGA[1])
        assert np.all(np.abs(fy.values[outside]) <= 1e-300)
        assert np.all(np.abs(fz.values[outside]) <= 1e-300)

    def test_dissipation_identity(self, problem, solution):
        # <-B B* R x, R x> = -||B* R x||^2
        basis, plant, act = problem
        rng = np.random.default_rng(25)
        y = ScalarField(basis, rng.standard_normal(basis.M))
        z = ScalarField(basis, rng.standard_normal(basis.M))
        (fy, fz), w = feedback(solution, act, y, z)
        Rx = solution.R_matrix @ np.concatenate([y.coeffs, z.coeffs])
        pairing = fy.coeffs @ Rx[: basis.M] + fz.coeffs @ Rx[basis.M :]
        bstar = act.B_matrix.T @ Rx
        assert pairing == pytest.approx(-np.sum(bstar**2), rel=1e-10)
        assert pairing <= 0

    def test_amplitudes_match_gain(self, problem, solution):
        basis, _, act = problem
        rng = np.random.default_rng(26)
        y = ScalarField(basis, rng.standard_normal(basis.M))
        z = ScalarField(basis, rng.standard_normal(basis.M))
        _, w = feedback(solution, act, y, z)
        x = np.concatenate([y.coeffs, z.coeffs])
        assert np.allclose(w, -(solution.K_gain @ x), rtol=0, atol=1e-14)


class TestClosedLoopSpectrum:
    def test_default_margin_positive(self, problem, solution):
        _, plant, act = problem
        margin = closed_loop_margin(solution, plant, act)
        assert margin > 0
        # the dense eigen-solve is off by eps ||Op|| / margin, about 1e-8 here
        assert margin == pytest.approx(solution.margin, rel=1e-6)

    def test_stable_only_plant_margin_positive(self):
        basis = SpectralBasis(L=1.0, M=64)
        params = PhysicalParams(nu=100.0, l0=1.0, gamma0=1.0)
        plant = assemble_plant(params, stationary_constant(0, basis=basis))
        act = build_actuator(plant)
        assert plant.N_unstable == 2
        sol = solve_care(plant, act, method="newton")
        assert sol.margin > 0

    def test_zero_gain_not_stable(self, problem, solution):
        _, plant, act = problem
        from dataclasses import replace

        zeroed = replace(
            solution, K_gain=np.zeros_like(solution.K_gain)
        )
        assert closed_loop_margin(zeroed, plant, act) <= 0


def _kink_overrides(nu, L, M, tol=1e-8):
    """--set items of the minimize state from 0 + 0.6 cos(pi x / L): a kink, with g != 0."""
    return [
        f"params.nu={nu}", f"basis.L={L}", f"basis.M={M}", "stationary.mode=minimize",
        "stationary.init_value=0.0", "stationary.init_cos=0.6", f"stationary.tol={tol}",
    ]


def _kink_materials(*args, **kwargs):
    cfg = SimConfig()
    for item in _kink_overrides(*args, **kwargs):
        apply_override(cfg, *item.split("="))
    return build_materials(cfg.validate())


class TestTrueLoopCertificate:
    """On a nonconstant state the margin is the true closed loop's, Op + diag(kappa) G_hat + B K."""

    @pytest.fixture(scope="class")
    def kink(self):
        m = _kink_materials(0.05, 1.0, 64)
        assert m.plant.g_max > lqr.TRUE_LOOP_G_MAX
        return m, solve_care(m.plant, m.act)

    def test_true_operator_matches_oracle_matrix(self, kink):
        # G_hat = (L/P) C^T diag(g) C on the whole P = 2M grid, from g's
        # coefficients; the package takes it through the folded pair
        m, _ = kink
        basis, M = m.basis, m.plant.M
        P = 2 * M
        C = oracles.cosine_matrix(basis, P)
        g = F_second_parts(m.stat.phi_inf)[1].coeffs
        G_hat = (basis.L / P) * (C.T @ ((C @ g)[:, None] * C))
        expected = m.plant.operator_matrix()
        expected[:M, :M] += basis.kappa[:, None] * G_hat
        actual = lqr._true_operator(m.plant)
        assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(actual - m.plant.operator_matrix()).max() > 1.0  # g y is not small

    def test_margin_is_the_true_loops_abscissa(self, kink):
        # the dense abscissa of the shipped gain's true closed loop; the
        # model's own loop reports 0.0948782
        m, sol = kink
        true_loop = lqr._true_operator(m.plant) + m.act.B_matrix @ sol.K_gain
        spectrum = np.linalg.eigvals(true_loop).real
        assert sol.margin == pytest.approx(0.1063419, abs=1e-6)
        assert sol.margin == pytest.approx(spectrum.min(), rel=1e-9)
        assert sol.min_real == pytest.approx(-spectrum.max(), rel=1e-9)

    def test_unstable_true_loop_exits_3(self, tmp_path, capsys):
        # the model's gain, with margin 0.0511579 on the model, leaves the
        # true loop of the nu = 0.03, L = 2 kink an eigenvalue at -0.2834412
        overrides = _kink_overrides(0.03, 2.0, 128, tol=1e-6)
        args = [arg for item in overrides for arg in ("--set", item)]
        assert main(["simulate", *args, "--output-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "true closed loop" in err and "-2.834e-01" in err
        assert not (tmp_path / "synth.json").exists() and not (tmp_path / "gain.npz").exists()
        m = _kink_materials(0.03, 2.0, 128, tol=1e-6)
        with pytest.raises(NumericalError) as info:
            solve_care(m.plant, m.act)
        assert info.value.facts["margin"] == pytest.approx(-0.2834412, abs=1e-6)

    @pytest.mark.parametrize("workload", ["default", "thin_interface", "rho_ensemble"])
    def test_constant_states_take_no_true_loop_check(self, workload, monkeypatch):
        # every workload sits on a constant state, g_max = 0 exactly: the
        # margin stays the eigenbasis one, and no dense operator is formed
        m = _materials(workload)
        assert m.plant.g_max == 0.0

        def forbidden(plant):
            raise AssertionError("the true operator was formed")

        monkeypatch.setattr(lqr, "_true_operator", forbidden)
        assert solve_care(m.plant, m.act).margin > 0.0
