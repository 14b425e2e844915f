import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from phasestab.actuator import build_actuator
from phasestab.cli import build_materials
from phasestab.config import SimConfig
from phasestab.linearization import PhysicalParams, assemble_plant, g_field
from phasestab.lqr import solve_care
from phasestab.sim import (
    BlowUpError,
    ImplicitSolveError,
    StateYZ,
    _decay_norm,
    _remainder_coeffs,
    _Stepper,
    fit_exponential_rate,
    from_physical,
    remainder_G_direct,
    seeded_initial_state,
    simulate,
    physical_deviation_norm,
    to_physical,
)
from phasestab.spectral import ScalarField, SpectralBasis, norm_D_alpha
from phasestab.stationary import stationary_constant

from oracles import remainder_G_expanded


@pytest.fixture(scope="module")
def world():
    basis = SpectralBasis(L=1.0, M=64)
    params = PhysicalParams(nu=0.1, l0=1.0, gamma0=1.0)
    state = stationary_constant(0, basis=basis)
    plant = assemble_plant(params, state)
    act = build_actuator(plant)
    sol = solve_care(plant, act)
    return basis, params, state, plant, act, sol


def smooth_random_field(basis, seed, amplitude=1.0):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(basis.M) * np.exp(-0.25 * np.arange(basis.M))
    f = ScalarField(basis, coeffs)
    scale = amplitude / max(amplitude, np.abs(f.values).max())
    return scale * f


class TestRemainderTerm:
    def test_zero_input(self, world):
        basis, _, state, plant, _, _ = world
        out = remainder_G_direct(ScalarField.zero(basis), state.phi_inf, plant.g)
        assert np.abs(out.coeffs).max() == 0.0

    def test_constant_input_constant_background(self, world):
        basis, *_ = world
        phi = ScalarField.constant(basis, 1.0)
        g = g_field(phi)
        y = ScalarField.constant(basis, 0.25)
        out = remainder_G_direct(y, phi, g)
        assert np.abs(out.coeffs).max() < 1e-12

    def test_direct_vs_expanded_constant_background(self, world):
        basis, *_ = world
        phi = ScalarField.constant(basis, 1.0)
        g = g_field(phi)
        for seed in range(50):
            y = smooth_random_field(basis, seed)
            d = remainder_G_direct(y, phi, g)
            e = remainder_G_expanded(y, phi, g)
            assert np.abs(d.coeffs - e.coeffs).max() <= 1e-8 * (
                1.0 + np.abs(d.coeffs).max()
            )

    def test_direct_vs_expanded_varying_background(self, world):
        basis, *_ = world
        phi = ScalarField.from_values(
            basis, 0.4 * np.cos(np.pi * basis.nodes) + 0.2
        )
        g = g_field(phi)
        for seed in range(50):
            y = smooth_random_field(basis, seed + 100)
            d = remainder_G_direct(y, phi, g)
            e = remainder_G_expanded(y, phi, g)
            assert np.abs(d.coeffs - e.coeffs).max() <= 1e-8 * (
                1.0 + np.abs(d.coeffs).max()
            )

    def test_background_terms_vanish_for_constant_phi(self, world):
        # with constant phi_inf the g-dependent pieces drop out exactly
        basis, *_ = world
        phi = ScalarField.constant(basis, 0.8)
        g = g_field(phi)
        assert np.abs(g.coeffs).max() < 1e-14
        y = smooth_random_field(basis, 3)
        zero_g = remainder_G_direct(y, phi, ScalarField.zero(basis))
        with_g = remainder_G_direct(y, phi, g)
        assert np.abs(zero_g.coeffs - with_g.coeffs).max() < 1e-12

    def test_quadratic_scaling(self, world):
        # around phi_inf = 1 the 3 phi_inf y^2 term dominates: quadratic order
        basis, *_ = world
        phi = ScalarField.constant(basis, 1.0)
        g = g_field(phi)
        e1 = ScalarField.from_values(basis, basis.basis_function(1, basis.nodes))
        norms = []
        for eps in (1e-2, 1e-3):
            out = remainder_G_expanded(eps * e1, phi, g)
            norms.append(out.norm_L2())
        ratio = norms[0] / norms[1]
        assert abs(ratio - 100.0) <= 5.0

    def test_cubic_scaling_around_zero(self, world):
        # around phi_inf = 0 the remainder is purely cubic
        basis, _, state, plant, _, _ = world
        e1 = ScalarField.from_values(basis, basis.basis_function(1, basis.nodes))
        norms = []
        for eps in (1e-2, 1e-3):
            out = remainder_G_expanded(eps * e1, state.phi_inf, plant.g)
            norms.append(out.norm_L2())
        ratio = norms[0] / norms[1]
        assert abs(ratio - 1000.0) <= 50.0

    def test_mean_annihilated(self, world):
        basis, _, state, plant, _, _ = world
        y = smooth_random_field(basis, 4)
        out = remainder_G_direct(y, state.phi_inf, plant.g)
        assert out.coeffs[0] == 0.0

    @pytest.mark.parametrize("M", [2, 3, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_mean_coefficient_exactly_zero(self, M, L):
        # the k = 0 coefficient must vanish exactly for the means to be conserved
        basis = SpectralBasis(L=L, M=M)
        rng = np.random.default_rng(M)
        P = 2 * M
        out = _remainder_coeffs(
            basis, rng.standard_normal(M), rng.standard_normal(P), rng.standard_normal(P)
        )
        assert out[0] == 0.0


def final_state(plant, y0, z0, dt, n_steps, **kwargs):
    """State after n_steps IMEX steps of simulate."""
    return simulate(plant, y0, z0, dt=dt, t_end=n_steps * dt, **kwargs).final_state


class TestStepImex:
    def test_zero_state_is_fixed_point(self, world):
        basis, _, state, plant, _, _ = world
        zero = ScalarField.zero(basis)
        s1 = final_state(plant, zero, zero, 1e-3, 1)
        assert np.abs(s1.y.coeffs).max() == 0.0
        assert np.abs(s1.z.coeffs).max() == 0.0

    def test_linear_eigenmode_recursion(self, world):
        basis, _, state, plant, _, _ = world
        lam = plant.eigenvalues[plant.N_unstable]
        v = plant.eigenvectors[:, plant.N_unstable]
        dt, n = 1e-3, 50
        s = final_state(
            plant, ScalarField(basis, v[:64]), ScalarField(basis, v[64:]), dt, n,
            nonlinear=False, scheme="imex1",
        )
        amp = np.hypot(np.linalg.norm(s.y.coeffs), np.linalg.norm(s.z.coeffs))
        assert amp == pytest.approx((1.0 + dt * lam) ** (-n), rel=1e-10)

    def test_mean_conservation_over_1000_steps(self, world):
        basis, _, state, plant, _, _ = world
        y0, z0 = seeded_initial_state(basis, 0.05, seed=5)
        rec = simulate(plant, y0, z0, dt=1e-3, t_end=1.0, nonlinear=True, stat=state)
        assert np.abs(rec.mean_y - rec.mean_y[0]).max() <= 1e-10
        assert np.abs(rec.mean_z - rec.mean_z[0]).max() <= 1e-10

    def test_dt_validation(self, world):
        basis, _, state, plant, _, _ = world
        zero = ScalarField.zero(basis)
        with pytest.raises(ValueError):
            simulate(plant, zero, zero, dt=-1e-3, t_end=1e-3)

    def test_dt_beyond_invertibility_bound_rejected(self, world):
        # the k=1 block has negative determinant, so huge steps lose
        # invertibility of I + dt * block
        basis, _, state, plant, _, _ = world
        zero = ScalarField.zero(basis)
        with pytest.raises(ValueError, match="invertibility"):
            simulate(plant, zero, zero, dt=20.0, t_end=20.0)

    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    def test_invertibility_error_names_the_schemes_dt_bound(self, world, scheme):
        # both schemes solve with theta = dt (imex2 on its first step)
        basis, _, state, plant, _, _ = world
        zero = ScalarField.zero(basis)
        bound = _Stepper._dt_bound(plant.A_blocks)
        message = re.escape(f"keep dt below {bound:.3e} for {scheme}")
        with pytest.raises(ImplicitSolveError, match=message):
            simulate(plant, zero, zero, dt=1.1 * bound, t_end=1.1 * bound, scheme=scheme)
        simulate(plant, zero, zero, dt=0.9 * bound, t_end=0.9 * bound, scheme=scheme)

    def test_singular_capacitance_rejected(self, world):
        # a gain with K J theta B = -I makes I + theta (Op + B K) singular
        # although every 2x2 block is invertible
        basis, _, state, plant, act, sol = world
        dt = 1e-2
        JU = _Stepper(plant, dt, sol, act, True, "imex1").euler.JU
        bad = dataclasses.replace(sol, K_gain=-np.linalg.pinv(JU))
        zero = ScalarField.zero(basis)
        with pytest.raises(ImplicitSolveError, match="capacitance"):
            simulate(plant, zero, zero, dt=dt, t_end=dt, sol=bad, act=act)

    @pytest.mark.parametrize("nu, M", [(0.1, 64), (0.02, 256), (0.005, 32), (100.0, 16)])
    def test_dt_bound_matches_root_loop(self, nu, M):
        # reference: smallest positive real root of det(I + dt A_k), per block
        basis = SpectralBasis(L=1.0, M=M)
        plant = assemble_plant(PhysicalParams(nu=nu), stationary_constant(0, basis=basis))
        expected = np.inf
        for (a, b), (_, c) in plant.A_blocks:
            roots = np.roots([a * c - b * b, a + c, 1.0])
            positive = roots[(roots.imag == 0) & (roots.real > 0)].real
            if a * c - b * b < 0 and positive.size:
                expected = min(expected, float(positive.min()))
        bound = _Stepper._dt_bound(plant.A_blocks)
        if np.isinf(expected):
            assert np.isinf(bound)
        else:
            assert bound == pytest.approx(expected, rel=1e-12)

    def test_gain_without_actuator_rejected(self, world):
        basis, _, state, plant, _, sol = world
        zero = ScalarField.zero(basis)
        with pytest.raises(ValueError):
            simulate(plant, zero, zero, dt=1e-3, t_end=1e-3, sol=sol, act=None)


class TestSimulate:
    def test_closed_loop_decay(self, world):
        basis, _, state, plant, act, sol = world
        y0, z0 = seeded_initial_state(basis, 1e-2, seed=1234)
        rec = simulate(
            plant, y0, z0, dt=1e-3, t_end=20.0, sol=sol, act=act,
            nonlinear=True, stat=state, record_every=10,
        )
        assert rec.fitted_rate is not None and rec.fitted_rate > 0
        # decay consistent with the synthesized margin (the conserved means
        # are the slowest closed-loop directions)
        assert rec.fitted_rate >= 0.9 * sol.margin
        assert rec.xi_norms[-1] <= rec.xi_norms[0] * 1.5 * np.exp(-sol.margin * 20.0)
        assert rec.fit_r2 > 0.99

    def test_open_loop_unstable_growth(self, world):
        basis, _, state, plant, _, _ = world
        lam1 = plant.eigenvalues[0]
        v1 = plant.eigenvectors[:, 0]
        y0 = ScalarField(basis, 1e-3 * v1[:64])
        z0 = ScalarField(basis, 1e-3 * v1[64:])
        rec = simulate(plant, y0, z0, dt=1e-4, t_end=1.0, nonlinear=False, stat=state)
        growth = rec.xi_norms[-1] / rec.xi_norms[0]
        assert growth == pytest.approx(np.exp(-lam1), rel=0.02)

    def test_rate_insensitive_to_amplitude(self, world):
        basis, _, state, plant, act, sol = world
        rates = []
        for rho in (1e-2, 5e-3):
            y0, z0 = seeded_initial_state(basis, rho, seed=1234)
            rec = simulate(
                plant, y0, z0, dt=1e-3, t_end=20.0, sol=sol, act=act,
                nonlinear=True, stat=state, record_every=20,
            )
            rates.append(rec.fitted_rate)
        assert abs(rates[0] - rates[1]) <= 0.1 * rates[0]

    def test_first_order_convergence(self, world):
        basis, _, state, plant, _, _ = world
        y0, z0 = seeded_initial_state(basis, 0.1, seed=7)

        def final(dt):
            rec = simulate(
                plant, y0, z0, dt=dt, t_end=1.0, nonlinear=True, stat=state,
                scheme="imex1",
            )
            return np.concatenate(
                [rec.final_state.y.coeffs, rec.final_state.z.coeffs]
            )

        ref = final(4e-3 / 8.0)
        e_coarse = np.linalg.norm(final(4e-3) - ref)
        e_fine = np.linalg.norm(final(2e-3) - ref)
        assert e_coarse / e_fine == pytest.approx(2.0, rel=0.2)

    def test_imex2_second_order_and_linear_exactness(self, world):
        basis, _, state, plant, _, _ = world
        # SBDF2 amplitude on a single eigenmode matches the scalar recursion
        # a_{n+1} = (4 a_n - a_{n-1}) / (3 + 2 dt lam), started by one Euler step
        lam = plant.eigenvalues[plant.N_unstable]
        v = plant.eigenvectors[:, plant.N_unstable]
        dt, n = 1e-3, 20
        s = final_state(
            plant, ScalarField(basis, v[:64]), ScalarField(basis, v[64:]), dt, n,
            nonlinear=False, scheme="imex2",
        )
        amp = np.hypot(np.linalg.norm(s.y.coeffs), np.linalg.norm(s.z.coeffs))
        prev, expected = 1.0, 1.0 / (1.0 + dt * lam)
        for _ in range(n - 1):
            prev, expected = expected, (4.0 * expected - prev) / (3.0 + 2.0 * dt * lam)
        assert amp == pytest.approx(expected, rel=1e-10)

        # ratio of trajectory errors approaches second order
        y0, z0 = seeded_initial_state(basis, 0.1, seed=8)

        def final(dt):
            rec = simulate(
                plant, y0, z0, dt=dt, t_end=1.0, nonlinear=True, stat=state,
                scheme="imex2",
            )
            return np.concatenate(
                [rec.final_state.y.coeffs, rec.final_state.z.coeffs]
            )

        ref = final(1e-4)
        e_coarse = np.linalg.norm(final(2e-3) - ref)
        e_fine = np.linalg.norm(final(1e-3) - ref)
        assert e_coarse / e_fine > 2.5

    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    def test_control_amplitudes_are_feedback_at_recorded_state(self, world, scheme):
        # row i holds w_i = -K x(t_i), the implicit feedback's amplitude;
        # later rows come from the Woodbury solve, equal to -K x to rounding
        basis, _, state, plant, act, sol = world
        y0, z0 = seeded_initial_state(basis, 1e-2, seed=3)
        rec = simulate(
            plant, y0, z0, dt=5e-3, t_end=0.5, sol=sol, act=act, stat=state,
            scheme=scheme, record_every=7,
        )
        x0 = np.concatenate([y0.coeffs, z0.coeffs])
        np.testing.assert_array_equal(rec.control_amplitudes[0], -(sol.K_gain @ x0))
        final = rec.final_state
        w_end = -(sol.K_gain @ np.concatenate([final.y.coeffs, final.z.coeffs]))
        assert np.abs(rec.control_amplitudes[-1] - w_end).max() <= 1e-13 * np.abs(w_end).max()

    def test_implicit_feedback_takes_large_steps_on_thin_interface(self):
        # at nu = 0.02 max|eig(BK)| is about 100: explicit feedback blew up
        # at dt = 2e-2, the implicit solve does not limit the step
        basis = SpectralBasis(L=1.0, M=64)
        state = stationary_constant(0, basis=basis)
        plant = assemble_plant(PhysicalParams(nu=0.02), state)
        act = build_actuator(plant)
        sol = solve_care(plant, act)
        y0, z0 = seeded_initial_state(basis, 1e-2, seed=1234)

        def final_norm(dt):
            rec = simulate(
                plant, y0, z0, dt=dt, t_end=2.0, sol=sol, act=act, stat=state,
                scheme="imex2",
            )
            return rec.xi_norms[-1]

        coarse = final_norm(2e-2)
        assert coarse < 1e-2
        assert coarse == pytest.approx(final_norm(1e-3), rel=1e-5)

    def test_sbdf2_stable_on_phi_inf_one(self):
        # about phi_inf = +1 the remainder holds the stiff explicit term
        # Lap(6 phi_inf ybar dy), here with ybar0 = 0.085; it tips a scheme
        # whose factor tends to -1 on stiff modes (Crank-Nicolson/AB2) past
        # -1 in modes k = 8-15, which put the decay norm at t = 5 and
        # dt = 5e-3 2.5 % off dt = 1e-3
        cfg = SimConfig()
        cfg.stationary.mode = "minimize"
        cfg.stationary.init_value = cfg.stationary.init_cos = 0.3
        m = build_materials(cfg.validate())
        assert np.allclose(m.stat.phi_inf.values, 1.0)
        sol = solve_care(m.plant, m.act)
        y0, z0 = seeded_initial_state(m.basis, 0.1, seed=103)

        def final_norm(dt):
            rec = simulate(
                m.plant, y0, z0, dt=dt, t_end=5.0, sol=sol, act=m.act, stat=m.stat,
                scheme="imex2", record_every=int(round(0.1 / dt)),
            )
            return rec.xi_norms[-1]

        assert final_norm(5e-3) == pytest.approx(final_norm(1e-3), rel=1e-6)

    def test_closed_loop_order_against_matrix_exponential(self):
        # linear closed loop: x(1) = expm(-(Op + B K)) x0
        basis = SpectralBasis(L=1.0, M=32)
        state = stationary_constant(0, basis=basis)
        plant = assemble_plant(PhysicalParams(nu=0.1), state)
        act = build_actuator(plant)
        sol = solve_care(plant, act)
        closed = plant.operator_matrix() + act.B_matrix @ sol.K_gain
        y0, z0 = seeded_initial_state(basis, 1e-2, seed=0)
        exact = scipy.linalg.expm(-closed) @ np.concatenate([y0.coeffs, z0.coeffs])

        for scheme, ratio in (("imex1", 2.0), ("imex2", 4.0)):
            errors = []
            for dt in (2e-2, 1e-2, 5e-3):
                s = final_state(
                    plant, y0, z0, dt, int(round(1.0 / dt)), sol=sol, act=act,
                    nonlinear=False, scheme=scheme,
                )
                errors.append(np.linalg.norm(np.concatenate([s.y.coeffs, s.z.coeffs]) - exact))
            assert errors[0] / errors[1] == pytest.approx(ratio, rel=0.1)
            assert errors[1] / errors[2] == pytest.approx(ratio, rel=0.1)

    def test_blowup_guard_triggers(self, world):
        basis, _, state, plant, _, _ = world
        v1 = plant.eigenvectors[:, 0]
        y0 = ScalarField(basis, 1e-3 * v1[:64])
        z0 = ScalarField(basis, 1e-3 * v1[64:])
        with pytest.raises(BlowUpError) as info:
            simulate(
                plant, y0, z0, dt=1e-3, t_end=5.0, nonlinear=False, stat=state,
                blowup_factor=1.0 + 1e-4,
            )
        assert info.value.norm > 0
        assert 0 < info.value.t <= 5.0

    @pytest.mark.parametrize("record_every", [50, 100, 1000])
    def test_blowup_guard_catches_non_finite_norm(self, world, record_every):
        # at rho = 10 the closed loop overflows to NaN, which a plain
        # "norm > factor * initial" comparison lets through
        basis, _, state, plant, act, sol = world
        y0, z0 = seeded_initial_state(basis, 10.0, seed=1234)
        with np.errstate(all="ignore"), pytest.raises(BlowUpError) as info:
            simulate(
                plant, y0, z0, dt=1e-3, t_end=2.0, sol=sol, act=act,
                stat=state, record_every=record_every,
            )
        assert not np.isfinite(info.value.norm)

    @pytest.mark.parametrize("every", [1, 3, 7])
    def test_sparse_recording_matches_every_step(self, world, every):
        basis, params, state, plant, act, sol = world
        y0, z0 = seeded_initial_state(basis, 1e-2, seed=1234)

        def run(record_every):
            return simulate(
                plant, y0, z0, dt=1e-3, t_end=0.05, sol=sol, act=act,
                stat=state, record_every=record_every,
            )

        full, sparse = run(1), run(every)
        n_steps = 50
        rows = sorted(set(range(0, n_steps + 1, every)) | {n_steps})
        assert len(sparse.times) == n_steps // every + 1 + (n_steps % every != 0)
        assert len(sparse.times) == len(rows)
        for name in (
            "times", "xi_norms", "h_norms", "physical_norms",
            "mean_y", "mean_z", "control_amplitudes",
        ):
            np.testing.assert_array_equal(getattr(sparse, name), getattr(full, name)[rows])
        # the last step is recorded once, also when it is not a multiple of every
        assert np.count_nonzero(sparse.times == full.times[-1]) == 1
        assert np.all(np.diff(sparse.times) > 0)
        assert sparse.physical_norms[-1] == physical_deviation_norm(
            sparse.final_state, state, params
        )

    def test_control_forcing_localized_along_run(self, world):
        # replay the recorded amplitudes through the actuator: node values
        # outside omega stay at exact zero
        basis, _, state, plant, act, sol = world
        from phasestab.actuator import apply_B

        y0, z0 = seeded_initial_state(basis, 1e-2, seed=9)
        rec = simulate(
            plant, y0, z0, dt=1e-3, t_end=0.2, sol=sol, act=act,
            nonlinear=True, stat=state,
        )
        outside = (basis.nodes <= act.omega[0]) | (basis.nodes >= act.omega[1])
        for i in range(0, len(rec.times), 20):
            fy, fz = apply_B(act, rec.control_amplitudes[i])
            assert np.all(np.abs(fy.values[outside]) <= 1e-300)
            assert np.all(np.abs(fz.values[outside]) <= 1e-300)


class TestPhysicalMap:
    @pytest.fixture
    def nontrivial(self):
        basis = SpectralBasis(L=1.0, M=32)
        params = PhysicalParams(nu=0.2, l0=2.0, gamma0=0.5)
        state = stationary_constant(+1, theta=0.3, basis=basis)
        return basis, params, state

    def test_zero_state_maps_to_target(self, nontrivial):
        basis, params, state = nontrivial
        s0 = StateYZ(ScalarField.zero(basis), ScalarField.zero(basis))
        phi, theta = to_physical(s0, state, params)
        assert np.abs(phi.values - 1.0).max() < 1e-12
        assert np.abs(theta.values - 0.3).max() < 1e-12

    def test_round_trip(self, nontrivial):
        basis, params, state = nontrivial
        rng = np.random.default_rng(10)
        s0 = StateYZ(
            ScalarField(basis, rng.standard_normal(basis.M)),
            ScalarField(basis, rng.standard_normal(basis.M)),
        )
        phi, theta = to_physical(s0, state, params)
        back = from_physical(phi, theta, state, params)
        assert np.abs(back.y.coeffs - s0.y.coeffs).max() < 1e-12
        assert np.abs(back.z.coeffs - s0.z.coeffs).max() < 1e-12

    def test_unit_parameters_give_sigma_theta_plus_phi(self):
        basis = SpectralBasis(L=1.0, M=32)
        params = PhysicalParams(nu=0.1, l0=1.0, gamma0=1.0)
        assert params.alpha0 == 1.0
        state = stationary_constant(0, basis=basis)
        rng = np.random.default_rng(11)
        phi = ScalarField(basis, rng.standard_normal(basis.M))
        theta = ScalarField(basis, rng.standard_normal(basis.M))
        st = from_physical(phi, theta, state, params)
        assert np.abs(st.z.coeffs - (theta.coeffs + phi.coeffs)).max() < 1e-12

    def test_theorem_norm_identity(self, nontrivial):
        basis, params, state = nontrivial
        rng = np.random.default_rng(12)
        s0 = StateYZ(
            ScalarField(basis, 0.01 * rng.standard_normal(basis.M)),
            ScalarField(basis, 0.01 * rng.standard_normal(basis.M)),
        )
        assert physical_deviation_norm(s0, state, params) == pytest.approx(
            norm_D_alpha(s0.y, 0.5) + norm_D_alpha(s0.z, 0.25), abs=1e-12
        )

    @given(
        M=st.sampled_from([8, 16, 64, 256]),
        L=st.floats(0.5, 4.0),
        smoothness=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_decay_norm_is_sum_of_graph_norms_bit_for_bit(self, M, L, smoothness, seed):
        # one weighted norm: the stepper's decay norm and norm_D_alpha agree exactly
        basis = SpectralBasis(L=L, M=M)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2 * M) * np.tile(basis.mu, 2) ** -smoothness
        y, z = ScalarField(basis, x[:M]), ScalarField(basis, x[M:])
        assert norm_D_alpha(y, 0.5) + norm_D_alpha(z, 0.25) == _decay_norm(basis, x)

    def test_zero_deviation_norm(self, nontrivial):
        basis, params, state = nontrivial
        s0 = StateYZ(ScalarField.zero(basis), ScalarField.zero(basis))
        assert physical_deviation_norm(s0, state, params) == pytest.approx(0.0, abs=1e-14)


class TestFitting:
    def test_pure_exponential_recovered(self):
        t = np.linspace(0, 10, 200)
        v = 3.0 * np.exp(-0.7 * t)
        rate, r2 = fit_exponential_rate(t, v, (2.0, 10.0))
        assert rate == pytest.approx(0.7, rel=1e-10)
        assert r2 > 0.999999

    def test_floor_rejects_fit(self):
        t = np.linspace(0, 10, 100)
        v = np.full_like(t, 1e-15)
        rate, r2 = fit_exponential_rate(t, v, (0.0, 10.0))
        assert rate is None

    def test_too_few_samples_rejected(self):
        t = np.linspace(0, 10, 10)
        v = np.exp(-t)
        rate, _ = fit_exponential_rate(t, v, (0.0, 10.0))
        assert rate is None

    def test_poor_fit_rejected(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 10, 100)
        v = np.exp(rng.standard_normal(100))
        rate, r2 = fit_exponential_rate(t, v, (0.0, 10.0))
        assert rate is None
        assert r2 is not None and r2 < 0.99
