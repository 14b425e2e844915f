import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from phasestab import sim
from phasestab.actuator import build_actuator
from phasestab.cli import build_materials
from phasestab.config import NumericalError, SimConfig
from phasestab.linearization import F_second_parts, PhysicalParams, assemble_plant
from phasestab.lqr import solve_care
from phasestab.sim import (
    BLOWUP_FACTOR,
    NORM_FLOOR,
    _decay_norm,
    _record_block_rows,
    _remainder_analysis,
    _Stepper,
    fit_exponential_rate,
    seeded_initial_state,
    simulate,
)
from phasestab.spectral import (
    ScalarField,
    SpectralBasis,
    _folded_values,
    _half_cosine_matrix,
    _weighted_norm,
)
from phasestab.stationary import stationary_constant

import oracles
from oracles import (
    apply_B,
    basis_function,
    eigenvectors,
    from_physical,
    physical_norm,
    remainder_G_expanded,
    to_physical,
)
from phasebench.workloads import config_for

OMEGA = (0.25, 0.75)  # the actuator interval of the world fixture


@pytest.fixture(scope="module")
def world():
    basis = SpectralBasis(L=1.0, M=64)
    params = PhysicalParams(nu=0.1, l0=1.0, gamma0=1.0)
    state = stationary_constant(0, basis=basis)
    plant = assemble_plant(params, state)
    act = build_actuator(plant, omega=OMEGA)
    sol = solve_care(plant, act)
    return basis, params, state, plant, act, sol


def graph_norm(basis, coeffs, alpha):
    """||A^alpha f||_{L^2} = sqrt(sum mu_k^{2 alpha} c_k^2) of coefficients."""
    return float(_weighted_norm(basis.mu ** (2.0 * alpha), coeffs))


def fold(values):
    """Values on the 2M-point midpoint grid as the (2, M) array [bottom half reversed; top half]."""
    M = len(values) // 2
    return np.stack([values[M:][::-1], values[:M]])


def remainder_direct(y, phi, g):
    """G(y) = -kappa (L/P) q from the stepper's folded kernel, q = Zt + (-1)^k Zb."""
    basis, M, P = y.basis, y.basis.M, 2 * y.basis.M
    sign = (-1.0) ** np.arange(M)
    pv, gv = (_folded_values(basis, f.coeffs) for f in (phi, g))
    H = _half_cosine_matrix(basis)
    Zb, Zt = _remainder_analysis(H, H.T, np.stack([sign * y.coeffs, y.coeffs]), 3.0 * pv, gv)
    return ScalarField(basis, -basis.kappa * (basis.L / P) * (Zt + sign * Zb))


def first_guard_crossing(plant, y0, z0, dt, t_end, sol, act, nonlinear, record_every, factor):
    """(t, decay norm) of the first recorded step past simulate's blow-up bound.

    Runs the stepper's own loop and takes each recorded state's norm as the
    sum of its two graph norms; None when no step crosses.
    """
    basis = plant.basis
    M = basis.M

    def norm(x):
        return graph_norm(basis, x[:M], 0.5) + graph_norm(basis, x[M:], 0.25)

    stepper = _Stepper(plant, dt, sol, act, nonlinear, "imex2")
    x = np.concatenate([y0.coeffs, z0.coeffs])
    bound = factor * max(norm(x), NORM_FLOOR)
    n_steps = int(round(t_end / dt))
    for row, (x, _) in enumerate(stepper.run(x, n_steps, record_every), 1):
        xi = norm(x)
        if not np.isfinite(xi) or xi > bound:
            return min(row * record_every, n_steps) * dt, xi
    return None


def smooth_random_field(basis, seed, amplitude=1.0):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(basis.M) * np.exp(-0.25 * np.arange(basis.M))
    f = ScalarField(basis, coeffs)
    scale = amplitude / max(amplitude, np.abs(f.values).max())
    return ScalarField(basis, scale * coeffs)


class TestRemainderTerm:
    def test_zero_input(self, world):
        basis, _, state, _, _, _ = world
        g = F_second_parts(state.phi_inf)[1]
        out = remainder_direct(ScalarField.constant(basis, 0.0), state.phi_inf, g)
        assert np.abs(out.coeffs).max() == 0.0

    def test_constant_input_constant_background(self, world):
        basis, *_ = world
        phi = ScalarField.constant(basis, 1.0)
        g = F_second_parts(phi)[1]
        y = ScalarField.constant(basis, 0.25)
        out = remainder_direct(y, phi, g)
        assert np.abs(out.coeffs).max() < 1e-12

    def test_direct_vs_expanded_constant_background(self, world):
        basis, *_ = world
        phi = ScalarField.constant(basis, 1.0)
        g = F_second_parts(phi)[1]
        for seed in range(50):
            y = smooth_random_field(basis, seed)
            d = remainder_direct(y, phi, g)
            e = remainder_G_expanded(y, phi, g)
            assert np.abs(d.coeffs - e.coeffs).max() <= 1e-8 * (
                1.0 + np.abs(d.coeffs).max()
            )

    def test_direct_vs_expanded_varying_background(self, world):
        basis, *_ = world
        phi = ScalarField.from_values(
            basis, 0.4 * np.cos(np.pi * basis.nodes) + 0.2
        )
        g = F_second_parts(phi)[1]
        for seed in range(50):
            y = smooth_random_field(basis, seed + 100)
            d = remainder_direct(y, phi, g)
            e = remainder_G_expanded(y, phi, g)
            assert np.abs(d.coeffs - e.coeffs).max() <= 1e-8 * (
                1.0 + np.abs(d.coeffs).max()
            )

    def test_background_terms_vanish_for_constant_phi(self, world):
        # with constant phi_inf the g-dependent pieces drop out exactly
        basis, *_ = world
        phi = ScalarField.constant(basis, 0.8)
        g = F_second_parts(phi)[1]
        assert np.abs(g.coeffs).max() < 1e-14
        y = smooth_random_field(basis, 3)
        zero_g = remainder_direct(y, phi, ScalarField.constant(basis, 0.0))
        with_g = remainder_direct(y, phi, g)
        assert np.abs(zero_g.coeffs - with_g.coeffs).max() < 1e-12

    def test_quadratic_scaling(self, world):
        # around phi_inf = 1 the 3 phi_inf y^2 term dominates: quadratic order
        basis, *_ = world
        phi = ScalarField.constant(basis, 1.0)
        g = F_second_parts(phi)[1]
        e1 = ScalarField.from_values(basis, basis_function(basis, 1, basis.nodes))
        norms = []
        for eps in (1e-2, 1e-3):
            y = ScalarField(basis, eps * e1.coeffs)
            out = remainder_G_expanded(y, phi, g)
            norms.append(np.linalg.norm(out.coeffs))
        ratio = norms[0] / norms[1]
        assert abs(ratio - 100.0) <= 5.0

    def test_cubic_scaling_around_zero(self, world):
        # around phi_inf = 0 the remainder is purely cubic
        basis, _, state, _, _, _ = world
        g = F_second_parts(state.phi_inf)[1]
        e1 = ScalarField.from_values(basis, basis_function(basis, 1, basis.nodes))
        norms = []
        for eps in (1e-2, 1e-3):
            y = ScalarField(basis, eps * e1.coeffs)
            out = remainder_G_expanded(y, state.phi_inf, g)
            norms.append(np.linalg.norm(out.coeffs))
        ratio = norms[0] / norms[1]
        assert abs(ratio - 1000.0) <= 50.0

    def test_mean_annihilated(self, world):
        basis, _, state, _, _, _ = world
        y = smooth_random_field(basis, 4)
        out = remainder_direct(y, state.phi_inf, F_second_parts(state.phi_inf)[1])
        assert out.coeffs[0] == 0.0

    @pytest.mark.parametrize("M", [2, 3, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_mean_coefficient_exactly_zero(self, M, L):
        # the k = 0 coefficient of the explicit term must vanish exactly for
        # the means to be conserved: both rows [(-1)^k e; e] of the stepper's
        # folded factors have a zero mean entry, and the mean block of J is
        # the identity
        basis = SpectralBasis(L=L, M=M)
        plant = assemble_plant(PhysicalParams(nu=0.1), stationary_constant(0, basis=basis))
        stepper = _Stepper(plant, 1e-3, None, None, True, "imex2")
        assert len(stepper.e) == 2 and all(np.all(e[:, 0] == 0.0) for e in stepper.e)
        rng = np.random.default_rng(M)
        x = rng.standard_normal(2 * M)
        x_next, _ = next(stepper.run(x, 1, 1))
        assert x_next[0] == x[0]


class TestFoldedRemainder:
    """The folded kernel against full-grid products, and the ring's [ys; y] pairs."""

    @pytest.mark.parametrize("M", [2, 3, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_matches_full_grid_products(self, M, L):
        # the stepper's inputs, the cached half H and the plant's folded
        # rows, against the whole oracle matrix C
        basis = SpectralBasis(L=L, M=M)
        P = 2 * M
        C = oracles.cosine_matrix(basis, P)
        sign = (-1.0) ** np.arange(M)
        rng = np.random.default_rng(P)
        y, phi3, g = rng.standard_normal((3, M)) * np.exp(-0.25 * np.arange(M))
        phi3_full, g_full = C @ phi3, C @ g
        grid = (np.empty((2, M)), np.empty((2, M)))
        H = _half_cosine_matrix(basis)
        phi3_folded, g_folded = _folded_values(basis, phi3), _folded_values(basis, g)
        for folded, full in ((phi3_folded, phi3_full), (g_folded, g_full)):
            assert np.abs(folded - fold(full)).max() <= 1e-14 * np.abs(full).max()
        Zb, Zt = _remainder_analysis(
            H, H.T, np.stack([sign * y, y]), phi3_folded, g_folded, None, grid
        )
        # synthesis: the kernel's first grid buffer holds C y folded
        values = C @ y
        assert np.abs(grid[0] - fold(values)).max() <= 1e-14 * np.abs(values).max()
        # analysis: q = Zt + (-1)^k Zb is C^T f(C y) on the whole grid
        full = C.T @ (values * (values * (values + phi3_full) + g_full))
        assert np.abs(Zt + sign * Zb - full).max() <= 1e-14 * np.abs(full).max()

    @pytest.mark.parametrize("M", [2, 3, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_ring_holds_signed_copies(self, M, L):
        basis = SpectralBasis(L=L, M=M)
        plant = assemble_plant(PhysicalParams(nu=0.1), stationary_constant(0, basis=basis))
        stepper = _Stepper(plant, 1e-3, None, None, True, "imex2")
        y0, z0 = seeded_initial_state(basis, 0.1, seed=M)
        for _ in stepper.run(np.concatenate([y0.coeffs, z0.coeffs]), 5, 1):
            pass
        sign = (-1.0) ** np.arange(M)
        # every slot [ys; y; z; Zb; Zt; w] keeps ys = (-1)^k y exactly
        for row in stepper.ring:
            assert np.abs(row[M : 2 * M]).max() > 0.0
            assert np.array_equal(row[:M], sign * row[M : 2 * M])

    def test_stepper_reads_the_plants_folded_rows(self, kink):
        # the plant keeps 3 phi_inf and g folded and C-contiguous, and the
        # stepper multiplies by them and by the cached half as they are; on
        # a nonconstant state neither row is dropped
        _, plant, act, sol = kink
        stepper = _Stepper(plant, 5e-3, sol, act, True, "imex2")
        assert plant.remainder_grid.shape == (2, 2, plant.M)
        for mine, theirs in zip((stepper.phi3, stepper.g), plant.remainder_grid):
            assert mine.flags.c_contiguous and mine.shape == (2, plant.M)
            assert np.shares_memory(mine, theirs)
        assert stepper.H is _half_cosine_matrix(plant.basis)
        assert plant.g_max == np.abs(plant.remainder_grid[1]).max() > 0.5

    def test_ring_holds_signed_copies_closed_loop(self, world):
        basis, _, _, plant, act, sol = world
        M = basis.M
        stepper = _Stepper(plant, 5e-3, sol, act, True, "imex2")
        y0, z0 = seeded_initial_state(basis, 0.1, seed=3)
        for _ in stepper.run(np.concatenate([y0.coeffs, z0.coeffs]), 7, 3):
            pass
        sign = (-1.0) ** np.arange(M)
        for row in stepper.ring:
            assert np.array_equal(row[:M], sign * row[M : 2 * M])


@pytest.fixture(scope="module")
def zero_row_plants():
    """Constant states, whose g row is zero: phi_inf = -1, 0, +1 and rho_ensemble's minimizer."""
    configs = {"rho_ensemble": config_for("rho_ensemble", 0)}
    for which in (-1, 0, 1):
        cfg = SimConfig()
        cfg.basis.M = 16
        cfg.stationary.which = which
        configs[f"phi_inf={which}"] = cfg.validate()
    plants = {}
    for name, cfg in configs.items():
        m = build_materials(cfg)
        plants[name] = m.plant, m.act, solve_care(m.plant, m.act)
    return plants


class _FullRowStepper(_Stepper):
    """A stepper that keeps both of the plant's rows, zero or not."""

    def __init__(self, plant, *args):
        super().__init__(plant, *args)
        self.phi3, self.g = plant.remainder_grid


class TestZeroRemainderRows:
    """Rows of the remainder that are identically zero are dropped, bit for bit."""

    @pytest.mark.parametrize("name", ["phi_inf=-1", "phi_inf=0", "phi_inf=1", "rho_ensemble"])
    def test_stepper_drops_exactly_the_zero_rows(self, zero_row_plants, name):
        plant, act, sol = zero_row_plants[name]
        stepper = _Stepper(plant, 5e-3, sol, act, True, "imex2")
        assert plant.g_max == 0.0 and stepper.g is None
        # rho_ensemble's minimizer is phi_inf = +1
        assert (stepper.phi3 is None) == (name == "phi_inf=0")
        if stepper.phi3 is not None:
            assert np.shares_memory(stepper.phi3, plant.remainder_grid[0])

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    @pytest.mark.parametrize("name", ["phi_inf=-1", "phi_inf=0", "phi_inf=1", "rho_ensemble"])
    def test_simulate_matches_the_full_rows(
        self, zero_row_plants, name, scheme, record_every, monkeypatch
    ):
        plant, act, sol = zero_row_plants[name]
        y0, z0 = seeded_initial_state(plant.basis, 0.1, seed=5)

        def run():
            return simulate(
                plant, y0, z0, dt=5e-3, t_end=0.5, sol=sol, act=act, nonlinear=True,
                scheme=scheme, record_every=record_every,
            )

        dropped = run()
        monkeypatch.setattr(sim, "_Stepper", _FullRowStepper)
        full = run()
        assert dropped.control_amplitudes.shape[1] == act.N > 0
        for field in ("times", "xi_norms", "h_norms", "mean_y", "mean_z",
                      "control_amplitudes", "final_x"):
            assert np.array_equal(getattr(dropped, field), getattr(full, field)), field

    @pytest.mark.parametrize("rows", ["phi3", "g", "neither"])
    def test_none_rows_equal_zero_rows_bit_for_bit(self, rows):
        M = 32
        basis = SpectralBasis(L=1.0, M=M)
        H = _half_cosine_matrix(basis)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(M) * np.exp(-0.1 * np.arange(M))
        y2 = np.stack([(-1.0) ** np.arange(M) * y, y])
        phi3, g = rng.standard_normal((2, 2, M))
        zero = np.zeros((2, M))
        phi3, g = (phi3 if rows == "phi3" else None), (g if rows == "g" else None)
        given = _remainder_analysis(H, H.T, y2, phi3, g)
        zeros = _remainder_analysis(
            H, H.T, y2, zero if phi3 is None else phi3, zero if g is None else g
        )
        assert np.array_equal(given, zeros)
        out, grid = np.empty((2, M)), (np.empty((2, M)), np.empty((2, M)))
        assert _remainder_analysis(H, H.T, y2, phi3, g, out, grid) is out
        assert np.array_equal(out, zeros)


def final_x(plant, y0, z0, dt, n_steps, **kwargs):
    """State [y; z] after n_steps IMEX steps of simulate."""
    return simulate(plant, y0, z0, dt=dt, t_end=n_steps * dt, **kwargs).final_x


class TestStepImex:
    def test_zero_state_is_fixed_point(self, world):
        basis, _, state, plant, _, _ = world
        zero = ScalarField.constant(basis, 0.0)
        assert np.abs(final_x(plant, zero, zero, 1e-3, 1)).max() == 0.0

    def test_linear_eigenmode_recursion(self, world):
        basis, _, state, plant, _, _ = world
        lam = plant.eigenvalues[plant.N_unstable]
        v = eigenvectors(plant)[:, plant.N_unstable]
        dt, n = 1e-3, 50
        x = final_x(
            plant, ScalarField(basis, v[:64]), ScalarField(basis, v[64:]), dt, n,
            nonlinear=False, scheme="imex1",
        )
        amp = np.linalg.norm(x)
        assert amp == pytest.approx((1.0 + dt * lam) ** (-n), rel=1e-10)

    def test_mean_conservation_over_1000_steps(self, world):
        basis, _, state, plant, _, _ = world
        y0, z0 = seeded_initial_state(basis, 0.05, seed=5)
        rec = simulate(plant, y0, z0, dt=1e-3, t_end=1.0, nonlinear=True)
        assert np.abs(rec.mean_y - rec.mean_y[0]).max() <= 1e-10
        assert np.abs(rec.mean_z - rec.mean_z[0]).max() <= 1e-10

    def test_dt_validation(self, world):
        basis, _, state, plant, _, _ = world
        zero = ScalarField.constant(basis, 0.0)
        with pytest.raises(ValueError):
            simulate(plant, zero, zero, dt=-1e-3, t_end=1e-3)

    def test_dt_beyond_invertibility_bound_rejected(self, world):
        # the k=1 block has negative determinant, so huge steps lose
        # invertibility of I + dt * block
        basis, _, state, plant, _, _ = world
        zero = ScalarField.constant(basis, 0.0)
        with pytest.raises(NumericalError, match="invertibility"):
            simulate(plant, zero, zero, dt=20.0, t_end=20.0)

    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    def test_invertibility_error_names_the_schemes_dt_bound(self, world, scheme):
        # both schemes solve with theta = dt (imex2 on its first step)
        basis, _, state, plant, _, _ = world
        zero = ScalarField.constant(basis, 0.0)
        bound = _Stepper._dt_bound(plant.A_blocks)
        message = re.escape(f"keep dt below {bound:.3e} for {scheme}")
        with pytest.raises(NumericalError, match=message):
            simulate(plant, zero, zero, dt=1.1 * bound, t_end=1.1 * bound, scheme=scheme)
        simulate(plant, zero, zero, dt=0.9 * bound, t_end=0.9 * bound, scheme=scheme)

    def test_singular_capacitance_rejected(self, world):
        # a gain with K J theta B = -I makes I + theta (Op + B K) singular
        # although every 2x2 block is invertible
        basis, _, state, plant, act, sol = world
        dt = 1e-2
        JU = _Stepper(plant, dt, sol, act, True, "imex1").JU[0]
        bad = dataclasses.replace(sol, K_gain=-np.linalg.pinv(JU))
        zero = ScalarField.constant(basis, 0.0)
        with pytest.raises(NumericalError, match="capacitance"):
            simulate(plant, zero, zero, dt=dt, t_end=dt, sol=bad, act=act)

    def test_singular_sbdf2_capacitance_rejected(self, world):
        # the same singular gain built at SBDF2's theta = 2 dt/3 leaves the
        # theta = dt capacitance, which imex1 uses, regular
        basis, _, state, plant, act, sol = world
        dt = 1e-2
        JU = _Stepper(plant, dt, sol, act, True, "imex2").JU[1]
        bad = dataclasses.replace(sol, K_gain=-np.linalg.pinv(JU))
        zero = ScalarField.constant(basis, 0.0)
        with pytest.raises(NumericalError, match="capacitance"):
            simulate(plant, zero, zero, dt=dt, t_end=dt, sol=bad, act=act, scheme="imex2")
        simulate(plant, zero, zero, dt=dt, t_end=dt, sol=bad, act=act, scheme="imex1")

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
        zero = ScalarField.constant(basis, 0.0)
        with pytest.raises(ValueError):
            simulate(plant, zero, zero, dt=1e-3, t_end=1e-3, sol=sol, act=None)

    @pytest.mark.parametrize("t_end", [1e-3, 0.0124, 2.5e-3])
    def test_t_end_not_a_whole_number_of_steps_rejected(self, world, t_end):
        # round(t_end / dt) steps would end the run at 0, 2 dt or 0 (or dt)
        # and still report t_end
        basis, _, state, plant, _, _ = world
        zero = ScalarField.constant(basis, 0.0)
        with pytest.raises(ValueError, match=re.escape(f"sim.t_end = {t_end!r}")):
            simulate(plant, zero, zero, dt=5e-3, t_end=t_end)
        assert len(simulate(plant, zero, zero, dt=5e-3, t_end=0.015).times) == 4


class ReferenceStep:
    """The stepper's schemes written out unfused, from the ``_Stepper`` formulas.

        imex1  theta = dt       r = x_n + dt G(x_n)
        imex2  theta = 2 dt/3   r = (4 x_n - x_{n-1}) / 3
                                    + (2 dt/3) (2 G(x_n) - G(x_{n-1}))

    then x_next = (I + theta (Op + B K))^{-1} r, by ``np.linalg.solve`` on
    the dense matrix, with G from the expanded product-rule oracle about
    phi_inf and its g.
    """

    def __init__(self, phi_inf, plant, dt, sol, act, nonlinear):
        self.plant, self.dt, self.nonlinear = plant, dt, nonlinear
        self.phi_inf, self.g = phi_inf, F_second_parts(phi_inf)[1]
        closed = plant.operator_matrix()
        if sol is not None:
            closed = closed + act.B_matrix @ sol.K_gain
        self.closed = closed
        self.K = sol.K_gain if sol is not None else None

    def G(self, x):
        M = self.plant.basis.M
        out = np.zeros(2 * M)
        if self.nonlinear:
            y = ScalarField(self.plant.basis, x[:M])
            out[:M] = remainder_G_expanded(y, self.phi_inf, self.g).coeffs
        return out

    def step(self, x, x_old=None):
        """(x_next, -K x_next); an SBDF2 step when x_old is given, else IMEX Euler."""
        dt = self.dt
        if x_old is None:
            theta, r = dt, x + dt * self.G(x)
        else:
            theta = 2.0 * dt / 3.0
            r = (4.0 * x - x_old) / 3.0 + theta * (2.0 * self.G(x) - self.G(x_old))
        x_next = np.linalg.solve(np.eye(len(x)) + theta * self.closed, r)
        w = -(self.K @ x_next) if self.K is not None else np.zeros(0)
        return x_next, w


def rel_dev(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.fixture(scope="module")
def kink():
    """A nonconstant minimize state (nu = 0.05, L = 1, M = 16): g is not zero."""
    cfg = SimConfig()
    cfg.basis.M = 16
    cfg.params.nu = 0.05
    cfg.stationary.mode = "minimize"
    cfg.stationary.init_value, cfg.stationary.init_cos = 0.0, 0.6
    m = build_materials(cfg.validate())
    assert m.plant.g_max > 0.5
    return m.stat.phi_inf, m.plant, m.act, solve_care(m.plant, m.act)


@pytest.fixture(scope="module")
def constant_plants():
    out = {}
    for M in (8, 16, 64):
        basis = SpectralBasis(L=1.0, M=M)
        state = stationary_constant(0, basis=basis)
        plant = assemble_plant(PhysicalParams(nu=0.1), state)
        act = build_actuator(plant)
        out[M] = state.phi_inf, plant, act, solve_care(plant, act)
    return out


class TestFoldedStep:
    """The folded step against ``ReferenceStep``, per step and along 200 steps."""

    STEPS = 200
    TOL = 1e-12

    def check(self, phi_inf, plant, act, sol, scheme, closed, nonlinear, rho=0.1, dt=5e-3):
        sol, act = (sol, act) if closed else (None, None)
        stepper = _Stepper(plant, dt, sol, act, nonlinear, scheme)
        ref = ReferenceStep(phi_inf, plant, dt, sol, act, nonlinear)
        y0, z0 = seeded_initial_state(plant.basis, rho, seed=11)
        x = x_ref = np.concatenate([y0.coeffs, z0.coeffs])
        old = old_ref = None
        for x_next, w in stepper.run(x, self.STEPS, 1):
            # one reference step from the stepper's own states
            expected, w_expected = ref.step(x, old if scheme == "imex2" else None)
            assert rel_dev(x_next, expected) <= self.TOL
            if closed:
                assert rel_dev(w, w_expected) <= self.TOL
            # and the reference trajectory run on its own
            x_ref, old_ref = ref.step(x_ref, old_ref if scheme == "imex2" else None)[0], x_ref
            assert rel_dev(x_next, x_ref) <= self.TOL
            x, old = x_next, x
        assert np.abs(x).max() > 1e-6  # the run did not decay to nothing

    @pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "linear"])
    @pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    @pytest.mark.parametrize("M", [8, 16, 64])
    def test_constant_state(self, constant_plants, M, scheme, closed, nonlinear):
        self.check(*constant_plants[M], scheme, closed, nonlinear)

    @pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    def test_nonconstant_state(self, kink, scheme, closed):
        # the g y term of the remainder is live only on a nonconstant state
        self.check(*kink, scheme, closed, nonlinear=True)


def test_steady_step_allocates_less_than_one_state(world):
    # every intermediate of a step is a buffer of the stepper, and the state
    # lives in its ring: 100 steady steps of one run trace less than one
    # 2M-value state
    basis, _, _, plant, act, sol = world
    stepper = _Stepper(plant, 5e-3, sol, act, True, "imex2")
    y0, z0 = seeded_initial_state(basis, 0.1, seed=11)
    steps = stepper.run(np.concatenate([y0.coeffs, z0.coeffs]), 103, 1)
    for _ in range(3):
        next(steps)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for x, w in steps:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(x).all() and np.abs(x).max() > 1e-6 and w.shape == (act.N,)
    assert peak - before < 2 * basis.M * x.itemsize


@pytest.fixture(scope="module")
def thin():
    """The thin_interface workload's plant (nu = 0.02, M = 256), actuator and gain."""
    m = build_materials(config_for("thin_interface", 0))
    return m.basis, m.plant, m.act, solve_care(m.plant, m.act)


class TestRecordBlocks:
    def test_blocks_are_sized_by_bytes(self):
        # 256 KiB of stacked (2M,) states: 256 rows at M = 64, 64 at M = 256
        assert [_record_block_rows(M) for M in (64, 256, 4096, 10**6)] == [256, 64, 4, 1]

    def test_rows_at_m256_match_256_row_blocks(self, thin, monkeypatch):
        # the 401 rows of a thin_interface run, recorded through 64-row blocks,
        # are byte for byte those of the 256-row blocks that took 1 MiB
        basis, plant, act, sol = thin
        y0, z0 = seeded_initial_state(basis, 1e-2, seed=1234)

        def run():
            return simulate(plant, y0, z0, dt=5e-3, t_end=2.0, sol=sol, act=act)

        rec = run()
        monkeypatch.setattr(sim, "_RECORD_BLOCK_BYTES", 256 * 2 * basis.M * 8)
        assert sim._record_block_rows(basis.M) == 256
        wide = run()
        assert len(rec.times) == 401
        for name in (
            "times", "xi_norms", "h_norms", "mean_y", "mean_z", "control_amplitudes", "final_x",
        ):
            assert getattr(rec, name).tobytes() == getattr(wide, name).tobytes(), name
        assert rec.fitted_rate == wide.fitted_rate


class TestSimulate:
    def test_closed_loop_decay(self, world):
        basis, _, state, plant, act, sol = world
        y0, z0 = seeded_initial_state(basis, 1e-2, seed=1234)
        rec = simulate(
            plant, y0, z0, dt=1e-3, t_end=20.0, sol=sol, act=act,
            nonlinear=True, record_every=10,
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
        v1 = eigenvectors(plant)[:, 0]
        y0 = ScalarField(basis, 1e-3 * v1[:64])
        z0 = ScalarField(basis, 1e-3 * v1[64:])
        rec = simulate(plant, y0, z0, dt=1e-4, t_end=1.0, nonlinear=False)
        growth = rec.xi_norms[-1] / rec.xi_norms[0]
        assert growth == pytest.approx(np.exp(-lam1), rel=0.02)

    def test_rate_insensitive_to_amplitude(self, world):
        basis, _, state, plant, act, sol = world
        rates = []
        for rho in (1e-2, 5e-3):
            y0, z0 = seeded_initial_state(basis, rho, seed=1234)
            rec = simulate(
                plant, y0, z0, dt=1e-3, t_end=20.0, sol=sol, act=act,
                nonlinear=True, record_every=20,
            )
            rates.append(rec.fitted_rate)
        assert abs(rates[0] - rates[1]) <= 0.1 * rates[0]

    def test_first_order_convergence(self, world):
        basis, _, state, plant, _, _ = world
        y0, z0 = seeded_initial_state(basis, 0.1, seed=7)

        def final(dt):
            rec = simulate(
                plant, y0, z0, dt=dt, t_end=1.0, nonlinear=True,
                scheme="imex1",
            )
            return rec.final_x

        ref = final(4e-3 / 8.0)
        e_coarse = np.linalg.norm(final(4e-3) - ref)
        e_fine = np.linalg.norm(final(2e-3) - ref)
        assert e_coarse / e_fine == pytest.approx(2.0, rel=0.2)

    def test_imex2_second_order_and_linear_exactness(self, world):
        basis, _, state, plant, _, _ = world
        # SBDF2 amplitude on a single eigenmode matches the scalar recursion
        # a_{n+1} = (4 a_n - a_{n-1}) / (3 + 2 dt lam), started by one Euler step
        lam = plant.eigenvalues[plant.N_unstable]
        v = eigenvectors(plant)[:, plant.N_unstable]
        dt, n = 1e-3, 20
        x = final_x(
            plant, ScalarField(basis, v[:64]), ScalarField(basis, v[64:]), dt, n,
            nonlinear=False, scheme="imex2",
        )
        amp = np.linalg.norm(x)
        prev, expected = 1.0, 1.0 / (1.0 + dt * lam)
        for _ in range(n - 1):
            prev, expected = expected, (4.0 * expected - prev) / (3.0 + 2.0 * dt * lam)
        assert amp == pytest.approx(expected, rel=1e-10)

        # ratio of trajectory errors approaches second order
        y0, z0 = seeded_initial_state(basis, 0.1, seed=8)

        def final(dt):
            rec = simulate(
                plant, y0, z0, dt=dt, t_end=1.0, nonlinear=True,
                scheme="imex2",
            )
            return rec.final_x

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
            plant, y0, z0, dt=5e-3, t_end=0.5, sol=sol, act=act,
            scheme=scheme, record_every=7,
        )
        x0 = np.concatenate([y0.coeffs, z0.coeffs])
        np.testing.assert_array_equal(rec.control_amplitudes[0], -(sol.K_gain @ x0))
        w_end = -(sol.K_gain @ rec.final_x)
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
                plant, y0, z0, dt=dt, t_end=2.0, sol=sol, act=act,
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
                m.plant, y0, z0, dt=dt, t_end=5.0, sol=sol, act=m.act,
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
                x = final_x(
                    plant, y0, z0, dt, int(round(1.0 / dt)), sol=sol, act=act,
                    nonlinear=False, scheme=scheme,
                )
                errors.append(np.linalg.norm(x - exact))
            assert errors[0] / errors[1] == pytest.approx(ratio, rel=0.1)
            assert errors[1] / errors[2] == pytest.approx(ratio, rel=0.1)

    def test_blowup_guard_triggers(self, world, monkeypatch):
        basis, _, state, plant, _, _ = world
        v1 = eigenvectors(plant)[:, 0]
        y0 = ScalarField(basis, 1e-3 * v1[:64])
        z0 = ScalarField(basis, 1e-3 * v1[64:])
        monkeypatch.setattr("phasestab.sim.BLOWUP_FACTOR", 1.0 + 1e-4)
        with pytest.raises(NumericalError) as info:
            simulate(plant, y0, z0, dt=1e-3, t_end=5.0, nonlinear=False)
        assert info.value.facts["norm"] > 0
        assert 0 < info.value.facts["t"] <= 5.0

    @pytest.mark.parametrize("record_every", [50, 100, 1000])
    def test_blowup_guard_catches_non_finite_norm(self, world, record_every):
        # at rho = 10 the closed loop overflows to NaN, which a plain
        # "norm > factor * initial" comparison lets through; the overflow
        # raises no NumPy warning (an error in this suite) before the guard
        basis, _, state, plant, act, sol = world
        y0, z0 = seeded_initial_state(basis, 10.0, seed=1234)
        with pytest.raises(NumericalError) as info:
            simulate(
                plant, y0, z0, dt=1e-3, t_end=2.0, sol=sol, act=act,
                record_every=record_every,
            )
        assert not np.isfinite(info.value.facts["norm"])
        with np.errstate(all="ignore"):
            t, norm = first_guard_crossing(
                plant, y0, z0, 1e-3, 2.0, sol, act, True, record_every, BLOWUP_FACTOR
            )
        assert info.value.facts["t"] == t
        np.testing.assert_equal(info.value.facts["norm"], norm)

    @pytest.mark.parametrize("record_every", [1, 3])
    def test_blowup_guard_reports_first_row_past_bound_inside_a_block(
        self, world, record_every, monkeypatch
    ):
        # the guard runs once per block of recorded rows; it must still name
        # the first row past the bound, here a finite overshoot mid-block
        basis, _, state, plant, _, _ = world
        v1 = eigenvectors(plant)[:, 0]
        y0 = ScalarField(basis, 1e-3 * v1[:64])
        z0 = ScalarField(basis, 1e-3 * v1[64:])
        dt, t_end, factor = 0.05, 50.0, 10.0
        monkeypatch.setattr("phasestab.sim.BLOWUP_FACTOR", factor)
        with pytest.raises(NumericalError) as info:
            simulate(
                plant, y0, z0, dt=dt, t_end=t_end, nonlinear=False,
                record_every=record_every,
            )
        t, norm = first_guard_crossing(
            plant, y0, z0, dt, t_end, None, None, False, record_every, factor
        )
        assert info.value.facts["t"] == t
        assert info.value.facts["norm"] == norm
        row, rows = round(t / dt) // record_every, _record_block_rows(basis.M)
        assert row % rows not in (0, rows - 1)

    # 700 steps give the full run 701 rows, three blocks of recorded rows, so
    # a row must get the same values at any place in a block
    @pytest.mark.parametrize(
        "every, n_steps",
        [
            pytest.param(1, 50, id="1"),
            pytest.param(3, 50, id="3"),
            pytest.param(7, 50, id="7"),
            pytest.param(2, 700, id="2-700"),
            pytest.param(3, 700, id="3-700"),
        ],
    )
    def test_sparse_recording_matches_every_step(self, world, every, n_steps):
        basis, _, state, plant, act, sol = world
        y0, z0 = seeded_initial_state(basis, 1e-2, seed=1234)

        def run(record_every):
            return simulate(
                plant, y0, z0, dt=1e-3, t_end=n_steps * 1e-3, sol=sol, act=act,
                record_every=record_every,
            )

        full, sparse = run(1), run(every)
        rows = sorted(set(range(0, n_steps + 1, every)) | {n_steps})
        assert len(sparse.times) == n_steps // every + 1 + (n_steps % every != 0)
        assert len(sparse.times) == len(rows)
        for name in (
            "times", "xi_norms", "h_norms", "mean_y", "mean_z", "control_amplitudes",
        ):
            np.testing.assert_array_equal(getattr(sparse, name), getattr(full, name)[rows])
        # the last step is recorded once, also when it is not a multiple of every
        assert np.count_nonzero(sparse.times == full.times[-1]) == 1
        assert np.all(np.diff(sparse.times) > 0)
        assert sparse.xi_norms[-1] == _decay_norm(basis, sparse.final_x)

    def test_control_forcing_localized_along_run(self, world):
        # replay the recorded amplitudes through the actuator: node values
        # outside omega stay at exact zero
        basis, _, state, plant, act, sol = world
        y0, z0 = seeded_initial_state(basis, 1e-2, seed=9)
        rec = simulate(
            plant, y0, z0, dt=1e-3, t_end=0.2, sol=sol, act=act,
            nonlinear=True,
        )
        outside = (basis.nodes <= OMEGA[0]) | (basis.nodes >= OMEGA[1])
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
        zero = np.zeros(basis.M)
        phi, theta = to_physical(zero, zero, state, params)
        assert np.abs(ScalarField(basis, phi).values - 1.0).max() < 1e-12
        assert np.abs(ScalarField(basis, theta).values - 0.3).max() < 1e-12

    def test_round_trip(self, nontrivial):
        basis, params, state = nontrivial
        rng = np.random.default_rng(10)
        y, z = rng.standard_normal((2, basis.M))
        phi, theta = to_physical(y, z, state, params)
        y_back, z_back = from_physical(phi, theta, state, params)
        assert np.abs(y_back - y).max() < 1e-12
        assert np.abs(z_back - z).max() < 1e-12

    def test_unit_parameters_give_sigma_theta_plus_phi(self):
        basis = SpectralBasis(L=1.0, M=32)
        params = PhysicalParams(nu=0.1, l0=1.0, gamma0=1.0)
        assert params.alpha0 == 1.0
        state = stationary_constant(0, basis=basis)
        rng = np.random.default_rng(11)
        phi, theta = rng.standard_normal((2, basis.M))
        _, z = from_physical(phi, theta, state, params)
        assert np.abs(z - (theta + phi)).max() < 1e-12

    def test_theorem_norm_identity(self, nontrivial):
        # the decay norm of (y, z) is the theorem's norm of (phi, theta), row by row
        basis, params, state = nontrivial
        rng = np.random.default_rng(12)
        x = 0.01 * rng.standard_normal((16, 2 * basis.M))
        y, z = x[:, : basis.M], x[:, basis.M :]
        phys = physical_norm(*to_physical(y, z, state, params), state, params)
        np.testing.assert_allclose(phys, _decay_norm(basis, x), rtol=0, atol=1e-12)

    @given(
        M=st.sampled_from([8, 16, 64, 256]),
        L=st.floats(0.5, 4.0),
        smoothness=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_decay_norm_is_sum_of_graph_norms_bit_for_bit(self, M, L, smoothness, seed):
        # one weighted norm: the stepper's decay norm and the graph norms agree exactly
        basis = SpectralBasis(L=L, M=M)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2 * M) * np.tile(basis.mu, 2) ** -smoothness
        graph = graph_norm(basis, x[:M], 0.5) + graph_norm(basis, x[M:], 0.25)
        assert graph == _decay_norm(basis, x)

    @pytest.mark.parametrize("M", [32, 256])
    @pytest.mark.parametrize("k", [1, 2, 255, 256, 257])
    def test_row_norms_independent_of_stack_height(self, M, k):
        # simulate evaluates its recorded norms on blocks of rows: each row of
        # a k-row stack must get the bits of the one-row call
        basis = SpectralBasis(L=1.0, M=M)
        rng = np.random.default_rng(k)
        x = rng.standard_normal((k, 2 * M)) * np.tile(basis.mu, 2) ** -1.0
        xi, h = _decay_norm(basis, x), _weighted_norm(1.0, x[:, :M])
        assert xi.shape == h.shape == (k,)
        for i in range(k):
            assert xi[i] == _decay_norm(basis, x[i])
            assert h[i] == _weighted_norm(1.0, x[i, :M])

    def test_norms_into_buffers_allocate_nothing_of_block_size(self):
        # simulate's record pass hands the norms one-per-row outputs and one
        # (rows, M) scratch allocated once: the bits stay those of the
        # allocating calls, and what is allocated is NumPy's ufunc iterator
        # buffers (at most 8192 values each), not arrays of a block's size
        M = 256
        basis = SpectralBasis(L=1.0, M=M)
        k = 256
        x = np.random.default_rng(M).standard_normal((k, 2 * M)) * np.tile(basis.mu, 2) ** -1.0
        y = x[:, :M]
        xi, h, scratch = np.empty(k), np.empty(k), np.empty((k, M))
        tracemalloc.start()
        try:
            _decay_norm(basis, x, xi, scratch)
            _weighted_norm(1.0, y, h, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < k * M * 8 // 2
        assert xi.tobytes() == _decay_norm(basis, x).tobytes()
        assert h.tobytes() == _weighted_norm(1.0, y).tobytes()

    def test_zero_deviation_norm(self, nontrivial):
        basis, params, state = nontrivial
        zero = np.zeros(basis.M)
        phi, theta = to_physical(zero, zero, state, params)
        assert physical_norm(phi, theta, state, params) == pytest.approx(0.0, abs=1e-14)


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
