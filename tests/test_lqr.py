import numpy as np
import pytest

from phasestab.actuator import apply_B, apply_B_star, build_actuator
from phasestab.linearization import PhysicalParams, assemble_plant
from phasestab.lqr import (
    RiccatiError,
    riccati_residual,
    solve_care,
    solve_care_dense,
)
from phasestab.spectral import ScalarField, SpectralBasis
from phasestab.stationary import stationary_constant


@pytest.fixture(scope="module")
def problem():
    basis = SpectralBasis(L=1.0, M=64)
    params = PhysicalParams(nu=0.1, l0=1.0, gamma0=1.0)
    state = stationary_constant(0, basis=basis)
    plant = assemble_plant(params, state, basis)
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

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            solve_care_dense(
                np.array([[1.0]]), np.array([[1.0]]), np.array([1.0]), method="qr"
            )


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

    def test_commutator_diagnostic_reported(self, solution):
        assert np.isfinite(solution.commutator_ratio)
        assert solution.commutator_ratio >= 0


class TestMethodAgreement:
    def test_newton_vs_integrate_m8(self):
        basis = SpectralBasis(L=1.0, M=8)
        params = PhysicalParams(nu=0.1, l0=1.0, gamma0=1.0)
        plant = assemble_plant(params, stationary_constant(0, basis=basis), basis)
        act = build_actuator(plant)
        sol_n = solve_care(plant, act, method="newton")
        sol_i = solve_care(plant, act, method="integrate")
        scale = np.abs(sol_n.R_matrix).max()
        assert np.abs(sol_n.R_matrix - sol_i.R_matrix).max() <= 1e-6 * scale
        fro = np.linalg.norm(sol_n.R_matrix - sol_i.R_matrix)
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
        assert margin == pytest.approx(solution.margin, rel=1e-9)

    def test_stable_only_plant_margin_positive(self):
        basis = SpectralBasis(L=1.0, M=64)
        params = PhysicalParams(nu=100.0, l0=1.0, gamma0=1.0)
        plant = assemble_plant(params, stationary_constant(0, basis=basis), basis)
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
