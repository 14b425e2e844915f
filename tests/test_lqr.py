import functools

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from phasestab import lqr
from phasestab.actuator import apply_B, apply_B_star, build_actuator
from phasestab.cli import build_materials
from phasestab.linearization import PhysicalParams, assemble_plant
from phasestab.lqr import RiccatiError, solve_care
from phasestab.spectral import ScalarField, SpectralBasis
from phasestab.stationary import stationary_constant

from oracles import riccati_residual, solve_care_dense, solve_care_integrated
from phasebench.workloads import config_for


@pytest.fixture(scope="module")
def problem():
    basis = SpectralBasis(L=1.0, M=64)
    params = PhysicalParams(nu=0.1, l0=1.0, gamma0=1.0)
    state = stationary_constant(0, basis=basis)
    plant = assemble_plant(params, state)
    act = build_actuator(plant, omega=(0.25, 0.75))
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

    def test_uncontrollable_unstable_raises(self):
        with pytest.raises(RiccatiError):
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
            x = rng.standard_normal(plant.dim)
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
            x = rng.standard_normal(plant.dim)
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
        bump = rng.standard_normal(solution.R_matrix.shape)
        bump = 0.5 * (bump + bump.T)
        bump *= 0.01 * np.abs(solution.R_matrix).max() / np.abs(bump).max()
        perturbed = replace(solution, R_matrix=solution.R_matrix + bump)
        assert riccati_residual(perturbed, plant, act, samples=100) > 1e-3

    def test_fresh_probe_residual(self, problem, solution):
        _, plant, act = problem
        assert riccati_residual(solution, plant, act, samples=100, seed=99) <= 1e-6

    def test_integrated_route_not_in_package(self, problem):
        _, plant, act = problem
        with pytest.raises(ValueError, match="tests/oracles.py"):
            solve_care(plant, act, method="integrate")


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
    args = (solution.R_matrix, plant.operator_matrix(), act.B_matrix, solution.Q_diag)
    batched = lqr._probe_residual(*args, samples, np.random.default_rng(seed))
    looped = _loop_probe_residual(*args, samples, np.random.default_rng(seed))
    # the residual is a difference of O(1) quadratic forms over their size:
    # summation order moves it by a few eps
    assert batched == pytest.approx(looped, rel=0, abs=64 * np.finfo(float).eps)


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
        lqr._lyapunov_schur(T, Y)
        ref = scipy.linalg.solve_continuous_lyapunov(T, F)
        assert np.linalg.norm(Y - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(T @ Y + Y @ T.T - F) <= 1e-12 * np.linalg.norm(F)

    @pytest.mark.parametrize("n", [2, 100])
    def test_zero_eigenvalue_sum_raises(self, n):
        # lambda_0 + lambda_{n-1} = 0: a leaf solve (n = 2) or an off-diagonal
        # Sylvester leaf (n = 100) meets a singular operator
        T = np.diag(np.linspace(-2.0, -0.5, n))
        T[0, 0], T[-1, -1] = 1.0, -1.0
        with pytest.raises(RiccatiError, match="trsyl"):
            lqr._lyapunov_schur(T, np.eye(n))


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
            X, -A, B, Q_diag, lqr._PROBE_SAMPLES, np.random.default_rng(lqr._PROBE_SEED)
        )
        history.append({"iteration": it, "margin": margin, "residual": res})
        if res <= tol:
            break
    return X, history


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
    """(K0, (PD, t, z)): the start gain (P_u D)^T V_U^T and ``lqr._start``'s output."""
    N, V = act.N, plant.eigenvectors
    Q_u = V[:, :N].T @ np.diag(plant.state_weight_diagonal()) @ V[:, :N]
    PD, t, z = lqr._start(plant.eigenvalues[:N], act.D_matrix, Q_u)
    return PD.T @ V[:, :N].T, (PD, t, z)


def _package_first_step(plant, act):
    """X1 as ``solve_care`` forms it, in the eigenbasis."""
    X1, _ = lqr._first_step(
        plant.eigenvalues,
        plant.eigenvectors,
        act.B_matrix,
        act.D_matrix,
        plant.state_weight_diagonal(),
    )
    return X1


def _scaled_lyapunov_residual(plant, act, K0, X):
    """||Ahat^{-1/2} (A_cl^T X + X A_cl + Q + K0^T K0) Ahat^{-1/2}||_2 for A_cl = -(Op + B K0).

    A_cl is taken in the plant's closed-form eigenbasis, V^T A_cl V =
    -(Lambda + V^T B K0 V), so the dense operator's rounding stays out.
    """
    lam, V = plant.eigenvalues, plant.eigenvectors
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
        calls = {"eigvals": 0}
        eigvals = np.linalg.eigvals

        def counted_eigvals(*args, **kwargs):
            calls["eigvals"] += 1
            return eigvals(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        _, iterations, _ = lqr._solve_care_core(
            plant.operator_matrix(),
            act.B_matrix,
            plant.state_weight_diagonal(),
            plant.eigenvalues,
            plant.eigenvectors,
            act.D_matrix,
            tol=0.0,
            max_iters=3,
        )
        assert iterations == 3
        # the first closed loop's Schur form is the N x N one of the unstable
        # block; the later ones are dense
        N, n = act.N, plant.dim
        assert schur_shapes == [(N, N), (n, n), (n, n)]
        assert calls == {"eigvals": 0}

    def test_destabilizing_gain_rejected(self, problem):
        _, plant, act = problem
        B = act.B_matrix
        with pytest.raises(RiccatiError, match="lost the stabilizing property"):
            lqr._newton_kleinman(
                -plant.operator_matrix(), B, plant.state_weight_diagonal(),
                K0=-10.0 * B.T, tol=1e-9, max_iters=5,
            )

    @pytest.mark.parametrize("re", [0.1, 0.0])
    def test_unstable_complex_pair_rejected(self, re):
        # the real part of a complex pair sits on its 2x2 block's diagonal
        A = np.array([[re, 1.0, 0.0], [-1.0, re, 0.0], [0.0, 0.0, -1.0]])
        with pytest.raises(RiccatiError, match="lost the stabilizing property"):
            lqr._newton_kleinman(
                A, np.zeros((3, 1)), np.ones(3), K0=np.zeros((1, 3)), tol=1e-9, max_iters=5
            )


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
        # the Schur pair the first step solves with, T = [[t, C], [0, -Lam_S]]
        # and Z = V diag(z, I), assembled densely from lqr._start's output
        m = _materials(workload)
        lam, V, B = m.plant.eigenvalues, m.plant.eigenvectors, m.act.B_matrix
        N, n, eps = m.act.N, m.plant.dim, np.finfo(float).eps
        K0, (PD, t, z) = _start_gain(m.plant, m.act)
        T = np.diag(-lam)
        T[:N, :N] = t
        T[:N, N:] = -(z.T @ PD) @ (V[:, N:].T @ B).T
        Z = V.copy()
        Z[:, :N] = V[:, :N] @ z
        assert np.abs(Z.T @ Z - np.eye(n)).max() <= 64 * eps
        A_cl = -(m.plant.operator_matrix() + B @ K0)
        assert np.linalg.norm(Z @ T @ Z.T - A_cl.T) <= 64 * eps * np.linalg.norm(A_cl)
        # quasi-upper-triangular: nothing below the subdiagonal, no two
        # adjacent subdiagonal entries, and each 2x2 block a complex pair
        assert not np.tril(T, -2).any()
        sub = np.flatnonzero(np.diag(T, -1))
        assert np.all(np.diff(sub) > 1)
        for i in sub:
            assert np.iscomplex(np.linalg.eigvals(T[i : i + 2, i : i + 2])).all()

    def test_stable_only_plant_takes_no_dense_schur(self, schur_shapes):
        # the set-up of test_stable_only_plant_margin_positive: only the two
        # zero mean modes need the feedback, and Newton stops after one step
        basis = SpectralBasis(L=1.0, M=64)
        params = PhysicalParams(nu=100.0, l0=1.0, gamma0=1.0)
        plant = assemble_plant(params, stationary_constant(0, basis=basis))
        sol = solve_care(plant, build_actuator(plant))
        assert sol.iterations == 1
        assert schur_shapes == [(2, 2)]

    def test_no_unstable_modes_takes_no_schur(self, schur_shapes):
        # a stable operator and no actuation: the zero start gain is optimal,
        # and R solves Op R + R Op = diag(q)
        rng = np.random.default_rng(27)
        V = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        lam, q = np.linspace(0.5, 3.0, 5), np.linspace(1.0, 2.0, 5)
        A_op = V @ np.diag(lam) @ V.T
        A_op = 0.5 * (A_op + A_op.T)
        R, iterations, _ = solve_care_dense(A_op, np.zeros((5, 1)), q)
        assert iterations == 1
        assert schur_shapes == []
        R_ref = scipy.linalg.solve_continuous_lyapunov(A_op, np.diag(q))
        assert np.abs(R - R_ref).max() <= 1e-12 * np.abs(R_ref).max()


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
        V = m.plant.eigenvectors
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
            solution, act, ScalarField.zero(basis), ScalarField.zero(basis)
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
        outside = (basis.nodes <= act.omega[0]) | (basis.nodes >= act.omega[1])
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
        Ry, Rz = ScalarField(basis, Rx[: basis.M]), ScalarField(basis, Rx[basis.M :])
        pairing = fy.coeffs @ Ry.coeffs + fz.coeffs @ Rz.coeffs
        bstar = apply_B_star(act, (Ry, Rz))
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
