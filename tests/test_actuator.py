import functools

import mpmath
import numpy as np
import pytest

from phasestab.actuator import (
    _gauss_legendre,
    build_actuator,
    bump_weight,
    kalman_certificate,
    null_control,
)
from phasestab.config import NumericalError
from phasestab.linearization import PhysicalParams, assemble_plant
from phasestab.sim import fit_exponential_rate
from phasestab.spectral import ScalarField, SpectralBasis, _values_on_grid
from phasestab.stationary import stationary_constant

from oracles import (
    apply_B,
    eigenvectors,
    plan_control,
    propagate_linear_with_control,
    rk4_propagate,
)


def b_star(act, q):
    """(B* q)_i = int w (phi_i q_1 + psi_i q_2) dx: the transpose of B_matrix."""
    return act.B_matrix.T @ np.concatenate([q[0].coeffs, q[1].coeffs])


OMEGA = (0.25, 0.75)  # the actuator interval of the setup fixture


@pytest.fixture(scope="module")
def setup():
    basis = SpectralBasis(L=1.0, M=64)
    params = PhysicalParams(nu=0.1, l0=1.0, gamma0=1.0)
    state = stationary_constant(0, basis=basis)
    plant = assemble_plant(params, state)
    act = build_actuator(plant, omega=OMEGA)
    return basis, plant, act


class TestBumpWeight:
    def test_midpoint_value(self, setup):
        basis, _, _ = setup
        w = bump_weight((0.25, 0.75), basis)
        # no node sits exactly at the midpoint; evaluate the formula there
        s = 0.0
        assert np.exp(-1.0 / (1.0 - s**2)) == pytest.approx(np.exp(-1.0))
        mid_idx = np.argmin(np.abs(basis.nodes - 0.5))
        assert w.values[mid_idx] == pytest.approx(np.exp(-1.0), rel=1e-3)

    def test_support_is_exactly_zero_outside(self, setup):
        basis, _, _ = setup
        w = bump_weight((0.25, 0.75), basis)
        outside = (basis.nodes <= 0.25) | (basis.nodes >= 0.75)
        assert np.all(np.abs(w.values[outside]) <= 1e-300)

    def test_positive_on_inner_interval(self, setup):
        basis, _, act = setup
        w = act.weight
        # omega_0, the middle half of omega
        a, b = OMEGA
        a0, b0 = a + 0.25 * (b - a), b - 0.25 * (b - a)
        inner = (basis.nodes > a0) & (basis.nodes < b0)
        assert np.all(w.values[inner] > 0)

    def test_symmetry(self, setup):
        basis, _, _ = setup
        a, b = 0.25, 0.75
        w = bump_weight((a, b), basis)
        # w(a + t) = w(b - t) for the node offsets
        for t in (0.05, 0.1, 0.2):
            left = np.interp(a + t, basis.nodes, w.values)
            right = np.interp(b - t, basis.nodes, w.values)
            assert left == pytest.approx(right, abs=1e-14)

    def test_interval_validation(self, setup):
        basis, _, _ = setup
        with pytest.raises(ValueError):
            bump_weight((0.5, 0.4), basis)
        with pytest.raises(ValueError):
            bump_weight((-0.1, 0.5), basis)
        with pytest.raises(ValueError):
            bump_weight((0.5, 1.5), basis)


class TestBMaps:
    def test_zero_amplitudes_give_zero_forcing(self, setup):
        _, _, act = setup
        fy, fz = apply_B(act, np.zeros(act.N))
        assert np.abs(fy.coeffs).max() == 0.0
        assert np.abs(fz.coeffs).max() == 0.0

    def test_unit_vector_reproduces_column(self, setup):
        basis, _, act = setup
        M = basis.M
        phi_values = _values_on_grid(basis, act.modes[:M], M)
        psi_values = _values_on_grid(basis, act.modes[M:], M)
        for j in range(act.N):
            e = np.zeros(act.N)
            e[j] = 1.0
            fy, fz = apply_B(act, e)
            assert np.array_equal(fy.values, act.weight.values * phi_values[:, j])
            assert np.array_equal(fz.values, act.weight.values * psi_values[:, j])

    def test_dimension_mismatch(self, setup):
        _, _, act = setup
        with pytest.raises(ValueError):
            apply_B(act, np.zeros(act.N + 1))

    def test_b_matrix_matches_nodal_form(self, setup):
        # the stepper applies B as B_matrix @ W; it must be the nodal map
        _, _, act = setup
        rng = np.random.default_rng(6)
        for _ in range(20):
            W = rng.standard_normal(act.N)
            fy, fz = apply_B(act, W)
            nodal = np.concatenate([fy.coeffs, fz.coeffs])
            assert np.abs(act.B_matrix @ W - nodal).max() <= 1e-14 * np.abs(nodal).max()

    def test_adjointness(self, setup):
        basis, _, act = setup
        rng = np.random.default_rng(7)
        for _ in range(50):
            W = rng.standard_normal(act.N)
            q = (
                ScalarField(basis, rng.standard_normal(basis.M)),
                ScalarField(basis, rng.standard_normal(basis.M)),
            )
            fy, fz = apply_B(act, W)
            lhs = fy.coeffs @ q[0].coeffs + fz.coeffs @ q[1].coeffs
            rhs = W @ b_star(act, q)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_adjointness_by_direct_quadrature(self, setup):
        # oracle: both pairings evaluated as collocation quadratures
        basis, _, act = setup
        rng = np.random.default_rng(8)
        W = rng.standard_normal(act.N)
        q_vals = rng.standard_normal((2, basis.M))
        q = (
            ScalarField.from_values(basis, q_vals[0]),
            ScalarField.from_values(basis, q_vals[1]),
        )
        fy, fz = apply_B(act, W)
        lhs = basis.quad_weight * np.sum(fy.values * q_vals[0] + fz.values * q_vals[1])
        rhs = W @ b_star(act, q)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_b_star_of_zero(self, setup):
        basis, _, act = setup
        zero = (ScalarField.constant(basis, 0.0), ScalarField.constant(basis, 0.0))
        assert np.abs(b_star(act, zero)).max() == 0.0

    def test_b_star_on_eigenpairs_gives_coupling_columns(self, setup):
        basis, _, act = setup
        M = basis.M
        for j in range(act.N):
            q = (
                ScalarField(basis, act.modes[:M, j]),
                ScalarField(basis, act.modes[M:, j]),
            )
            col = b_star(act, q)
            assert np.abs(col - act.D_matrix[:, j]).max() <= 1e-12
            assert col[j] == pytest.approx(act.D_matrix[j, j], rel=1e-12)

    def test_unstable_projection_of_B_equals_D(self, setup):
        # Gram identity: projecting B W onto the unstable eigenpairs is D W
        _, plant, act = setup
        rng = np.random.default_rng(9)
        for _ in range(10):
            W = rng.standard_normal(act.N)
            fy, fz = apply_B(act, W)
            stacked = np.concatenate([fy.coeffs, fz.coeffs])
            proj = act.modes.T @ stacked
            assert np.abs(proj - act.D_matrix @ W).max() <= 1e-10


class TestKalmanCertificate:
    def test_default_actuator_is_controllable(self, setup):
        _, _, act = setup
        cert = kalman_certificate(act)
        assert cert.ok
        assert cert.lambda_min > 0
        assert cert.det > 0

    def test_d_matrix_is_unstable_block_of_b(self, setup):
        # one input map: D is read off B_matrix, not assembled a second way
        _, _, act = setup
        assert np.array_equal(act.D_matrix, act.modes.T @ act.B_matrix)

    def test_d_matrix_symmetry(self, setup):
        _, _, act = setup
        assert np.abs(act.D_matrix - act.D_matrix.T).max() <= 1e-12

    def test_d_matrix_positive_semidefinite(self, setup):
        _, _, act = setup
        eigs = np.linalg.eigvalsh(act.D_matrix)
        assert eigs.min() >= -1e-14

    def test_profile_vanishing_on_omega_fails(self, setup):
        # synthetic N=1 degenerate case: the coupled profile is zero on omega
        basis, plant, act = setup
        from dataclasses import replace

        profile = np.where(basis.nodes < 0.2, 1.0, 0.0)
        root = np.sqrt(act.weight.values * basis.quad_weight)
        d = np.array([[np.sum((root * profile) ** 2)]])
        degenerate = replace(
            act,
            lambdas=act.lambdas[:1],
            modes=act.modes[:, :1],
            D_matrix=d,
            B_matrix=act.B_matrix[:, :1],
        )
        cert = kalman_certificate(degenerate)
        assert cert.lambda_min == 0.0
        assert not cert.ok
        # many nodes lie inside omega for one mode, so the failure names no
        # node count
        with pytest.raises(NumericalError) as info:
            null_control(degenerate, np.ones(1))
        assert str(info.value) == "coupling matrix is numerically singular (lambda_min=0.000e+00)"

    def test_records_nodes_in_omega_and_largest_eigenvalue(self, setup):
        basis, _, act = setup
        cert = kalman_certificate(act)
        assert cert.n_omega == np.count_nonzero(act.weight.values > 0.0)
        # the M = 64 midpoint grid puts 32 nodes inside (0.25, 0.75)
        assert cert.n_omega == np.count_nonzero((basis.nodes > 0.25) & (basis.nodes < 0.75)) == 32
        eigs = np.linalg.eigvalsh(act.D_matrix)
        assert (cert.lambda_min, cert.lambda_max) == (eigs[0], eigs[-1])


class TestNullControl:
    def test_quadrature_rule_cached_and_read_only(self):
        nodes, weights = _gauss_legendre(64)
        again = _gauss_legendre(64)
        assert again[0] is nodes and again[1] is weights
        assert not nodes.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize("n", [5, 64, 512])
    def test_quadrature_nodes_match_leggauss(self, n):
        # NumPy's companion-matrix rule is the node oracle
        np.testing.assert_array_max_ulp(
            _gauss_legendre(n)[0], np.polynomial.legendre.leggauss(n)[0], maxulp=4
        )

    def test_quadrature_weights_match_40_digit_rule(self):
        # 40-digit nodes by mpmath's root finder on its own P_n, from the
        # float nodes; leggauss's weights sit 1.3e-12 from these
        n = 64
        nodes, weights = _gauss_legendre(n)
        expected = []
        with mpmath.workdps(40):
            for x0 in nodes:
                x = mpmath.findroot(lambda s: mpmath.legendre(n, s), mpmath.mpf(float(x0)))
                dp = n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)
                expected.append(float(2 / ((1 - x * x) * dp * dp)))
        assert np.max(np.abs(weights - expected) / expected) <= 2e-13

    def test_samples_match_evaluate(self, setup):
        _, plant, act = setup
        xi0 = np.random.default_rng(13).standard_normal(act.N)
        plan = null_control(act, xi0, T0=1.0)
        expected = np.array([plan_control(plan, act, t) for t in plan.t_nodes])
        assert plan.W_samples.shape == expected.shape
        assert np.abs(plan.W_samples - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_zero_initial_data(self, setup):
        _, plant, act = setup
        plan = null_control(act, np.zeros(act.N), T0=1.0)
        assert np.abs(plan.W_samples).max() == 0.0
        assert plan.energy == 0.0

    def test_linearity_and_energy_scaling(self, setup):
        _, plant, act = setup
        rng = np.random.default_rng(10)
        xi0 = rng.standard_normal(act.N)
        plan1 = null_control(act, xi0, T0=1.0)
        plan2 = null_control(act, 2.0 * xi0, T0=1.0)
        scale = np.abs(plan1.W_samples).max()
        assert np.abs(plan2.W_samples - 2.0 * plan1.W_samples).max() <= 1e-10 * scale
        assert plan2.energy == pytest.approx(4.0 * plan1.energy, rel=1e-10)

    def test_steering_by_independent_rk4(self, setup):
        _, plant, act = setup
        rng = np.random.default_rng(11)
        xi0 = rng.standard_normal(act.N)
        xi0 /= np.linalg.norm(xi0)
        plan = null_control(act, xi0, T0=1.0)

        def ode(t, xi):
            return -act.lambdas * xi + act.D_matrix @ plan_control(plan, act, t)

        xi_T = rk4_propagate(ode, xi0, 0.0, 1.0, 10_000)
        assert np.linalg.norm(xi_T) <= 1e-8 * np.linalg.norm(xi0)
        assert plan.steering_error <= 1e-8 * np.linalg.norm(xi0)

    def test_gramian_condition_reported_and_bounded(self, setup):
        _, plant, act = setup
        plan = null_control(act, np.ones(act.N), T0=1.0)
        assert plan.gramian_cond < 1e10

    def test_ill_conditioned_horizon_raises(self, setup):
        _, plant, act = setup
        with pytest.raises(NumericalError):
            null_control(act, np.ones(act.N), T0=400.0)

    def test_bad_horizon_rejected(self, setup):
        _, plant, act = setup
        with pytest.raises(ValueError):
            null_control(act, np.ones(act.N), T0=0.0)


class TestOpenLoopExtension:
    def test_zero_after_horizon(self, setup):
        _, plant, act = setup
        plan = null_control(act, np.ones(act.N), T0=1.0)
        control = functools.partial(plan_control, plan, act)
        assert np.abs(control(1.0)).max() == 0.0
        assert np.abs(control(3.7)).max() == 0.0

    @pytest.mark.parametrize("nu, M", [(0.1, 64), (0.02, 256)])
    def test_matches_plan_before_horizon(self, nu, M):
        # plan_control is a matrix-vector product and W_samples one matrix
        # product; the two kernels round alike only by coincidence (at
        # nu = 0.02, M = 256 they differ in the last bit), so each sample
        # must agree to 4 ulp of its largest entry
        basis = SpectralBasis(L=1.0, M=M)
        plant = assemble_plant(PhysicalParams(nu=nu), stationary_constant(0, basis=basis))
        act = build_actuator(plant, omega=(0.25, 0.75))
        plan = null_control(act, np.ones(act.N), T0=1.0)
        evaluated = np.array([plan_control(plan, act, t) for t in plan.t_nodes])
        scale = np.abs(plan.W_samples).max(axis=1, keepdims=True)
        eps = np.finfo(float).eps
        assert np.all(np.abs(evaluated - plan.W_samples) <= 4 * eps * scale)


def exact_state_after_steering(plant, act, plan, xi_start, T0):
    """Closed-form leg-1 propagation: the forcing is a sum of exponentials."""
    lam = plant.eigenvalues
    V = eigenvectors(plant)
    B_e = V.T @ act.B_matrix
    lam_u = act.lambdas
    c = np.exp(-lam_u * T0) * plan.eta
    A = B_e @ act.D_matrix.T
    denom = lam[:, None] + lam_u[None, :]
    grow = np.exp(lam_u[None, :] * T0)
    decayed = np.exp(-lam[:, None] * T0)  # stiff modes underflow cleanly to 0
    integral = np.where(
        np.abs(denom) > 1e-12,
        (grow - decayed) / np.where(denom == 0.0, 1.0, denom),
        T0 * grow,
    )
    return np.exp(-lam * T0) * xi_start + (A * integral) @ c


class TestStableTailDecay:
    def test_tail_rate_and_gap_bound(self, setup):
        # after steering, the tail decays no slower than the first stable
        # eigenvalue; the measured rate matches the slowest mode the control
        # actually excited (same-mode fast branches receive no forcing)
        _, plant, act = setup
        rng = np.random.default_rng(12)
        xi0 = rng.standard_normal(act.N)
        xi0 /= np.linalg.norm(xi0)
        T0 = 1.0
        plan = null_control(act, xi0, T0=T0)
        xi_start = eigenvectors(plant).T @ (act.modes @ xi0)
        xi_T0 = exact_state_after_steering(plant, act, plan, xi_start, T0)
        assert np.abs(xi_T0[: act.N]).max() <= 1e-12

        lam = plant.eigenvalues
        ts = np.linspace(T0, 2 * T0, 201)
        tails = xi_T0 * np.exp(-lam * (ts[:, None] - T0))
        hnorms = np.linalg.norm(tails, axis=1)

        gap = plant.lambda_gap
        bound = hnorms[0] * np.exp(-gap * (ts - T0))
        assert np.all(hnorms <= bound * (1.0 + 1e-9))

        stable = np.abs(xi_T0) > 1e-8 * np.linalg.norm(xi_T0)
        stable[: act.N] = False
        slowest_excited = lam[stable].min()
        rate, r2 = fit_exponential_rate(ts, hnorms, (T0, 2 * T0))
        assert r2 > 0.99
        assert abs(rate - slowest_excited) <= 0.05 * slowest_excited

    def test_first_stable_mode_decays_at_gap_rate(self, setup):
        # a state placed on the first stable eigenvector decays at the gap;
        # fit on [0, 1] before the amplitude reaches the noise floor
        _, plant, act = setup
        plan = null_control(act, np.zeros(act.N), T0=1.0)
        control = functools.partial(plan_control, plan, act)
        x0 = eigenvectors(plant)[:, act.N]
        ts = np.linspace(0.0, 1.0, 201)
        states = propagate_linear_with_control(
            plant, act, control, x0, t_end=1.0, dt=1e-4, record_times=ts
        )
        hnorms = np.linalg.norm(states, axis=1)
        rate, _ = fit_exponential_rate(ts, hnorms, (0.0, 1.0))
        assert abs(rate - plant.lambda_gap) <= 0.05 * plant.lambda_gap

    def test_etd_propagator_matches_exact_tail(self, setup):
        # cross-check of the two linear propagation routes
        _, plant, act = setup
        rng = np.random.default_rng(13)
        xi0 = rng.standard_normal(act.N)
        xi0 /= np.linalg.norm(xi0)
        T0 = 1.0
        plan = null_control(act, xi0, T0=T0)
        xi_start = eigenvectors(plant).T @ (act.modes @ xi0)
        exact_T0 = exact_state_after_steering(plant, act, plan, xi_start, T0)

        states = propagate_linear_with_control(
            plant,
            act,
            # the control formula without plan_control's cutoff at T0
            lambda t: act.D_matrix.T @ (np.exp(-act.lambdas * (T0 - t)) * plan.eta),
            act.modes @ xi0,
            t_end=T0,
            dt=2e-5,
            record_times=np.array([T0]),
        )
        err = np.abs(states[0] - exact_T0).max()
        assert err <= 1e-7 * max(1.0, np.abs(exact_T0).max())
