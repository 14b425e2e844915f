import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasestab import stationary
from phasestab.cli import build_materials
from phasestab.config import NumericalError
from phasestab.lqr import solve_care
from phasestab.spectral import (
    ScalarField,
    SpectralBasis,
    _cosine_matrix,
    _folded_values,
    gradient_values,
)
from phasestab.stationary import (
    StationaryState,
    _euler_lagrange,
    chi_infinity,
    gbar_infinity,
    stationary_constant,
    stationary_minimize,
)

from phasebench.workloads import config_for


@pytest.fixture
def basis():
    return SpectralBasis(L=1.0, M=64)


def residual_norm(phi, nu, C):
    """L2 norm of nu*Lap(phi) - phi^3 + phi - C."""
    return np.linalg.norm(_euler_lagrange(phi.basis, phi.coeffs, nu, C)[1])


def upsilon(phi, nu, C):
    """Energy int( nu/2 |phi'|^2 + (phi^2-1)^2/4 + C*phi ) dx of phi."""
    return _euler_lagrange(phi.basis, phi.coeffs, nu, C)[0]


class TestConstantStates:
    def test_zero_branch(self, basis):
        s = stationary_constant(0, basis=basis)
        assert s.phi_inf.mean == 0.0
        assert s.C_lagrange == 0.0
        assert s.residual == 0.0

    def test_plus_one_branch(self, basis):
        s = stationary_constant(+1, basis=basis)
        assert s.phi_inf.mean == pytest.approx(1.0, rel=1e-14)
        assert s.C_lagrange == 0.0
        # residual recomputed from scratch stays at numerical zero
        assert residual_norm(s.phi_inf, nu=0.5, C=0.0) < 1e-13

    def test_minus_one_with_theta(self, basis):
        s = stationary_constant(-1, theta=0.3, basis=basis)
        assert s.phi_inf.mean == pytest.approx(-1.0, rel=1e-14)
        assert s.theta_inf == 0.3

    @pytest.mark.parametrize("which", [-1, 0, 1])
    @pytest.mark.parametrize("L", [1.0, 2.0])
    def test_closed_form_energy(self, which, L):
        # a constant has no gradient energy; the well integrates to
        # L (which^2 - 1)^2 / 4 exactly, with no rounding of a quadrature
        s = stationary_constant(which, basis=SpectralBasis(L=L, M=64))
        assert s.upsilon == L * (which**2 - 1) ** 2 / 4

    def test_invalid_branch(self, basis):
        with pytest.raises(ValueError):
            stationary_constant(2, basis=basis)


class TestMinimize:
    def test_flow_from_near_well(self, basis):
        init = ScalarField.constant(basis, 0.9)
        s = stationary_minimize(0.0, init, nu=0.1, tol=1e-8)
        assert s.residual <= 1e-8
        assert s.phi_inf.mean == pytest.approx(1.0, abs=1e-9)

    def test_exact_root_stays_put(self, basis):
        init = ScalarField.constant(basis, 0.0)
        s = stationary_minimize(0.0, init, nu=0.1, tol=1e-8, max_iters=5)
        assert s.residual < 1e-12
        assert np.abs(s.phi_inf.coeffs).max() < 1e-12

    def test_large_nu_flattens_perturbation(self, basis):
        # above the first bifurcation the reachable minimizers are constants;
        # verified by the gradient norm, not assumed
        init = ScalarField.from_values(basis, 0.1 * np.cos(np.pi * basis.nodes))
        s = stationary_minimize(0.0, init, nu=1.0, tol=1e-8)
        assert s.residual <= 1e-8
        assert np.abs(gradient_values(s.phi_inf)).max() < 1e-6

    def test_upsilon_monotone_along_flow(self, basis):
        rng = np.random.default_rng(1)
        init = ScalarField.from_values(
            basis, 0.5 + 0.2 * rng.standard_normal(basis.M)
        )
        s = stationary_minimize(0.0, init, nu=0.2, tol=1e-8)
        ups = np.array(s.upsilon_history)
        assert np.all(np.diff(ups) <= 1e-15 * np.maximum(1.0, np.abs(ups[:-1])))

    def test_nonzero_C_satisfies_equation(self, basis):
        init = ScalarField.constant(basis, 1.1)
        s = stationary_minimize(0.1, init, nu=0.1, tol=1e-10)
        assert residual_norm(s.phi_inf, nu=0.1, C=0.1) <= 1e-10

    def test_zero_start_steps_past_a_singular_shift(self, basis):
        # at phi = 0 the first shift I/delta - J is exactly singular in the
        # constant mode (delta = 1, J_00 = 1); that step counts as rejected
        init = ScalarField.constant(basis, 0.0)
        s = stationary_minimize(0.1, init, nu=0.1, tol=1e-8)
        assert residual_norm(s.phi_inf, nu=0.1, C=0.1) <= 1e-8
        ups = np.array(s.upsilon_history)
        assert np.all(np.diff(ups) <= 1e-15 * np.maximum(1.0, np.abs(ups[:-1])))

    def test_two_interface_start_reaches_the_well(self):
        # from 0.1 + 0.6 cos(pi x / L) at nu = 0.02, L = 2 the interfaces
        # move exponentially slowly (Carr & Pego); the growing pseudo-time
        # step still carries the solve to +1 within the default budget
        basis = SpectralBasis(L=2.0, M=64)
        init = ScalarField.from_values(basis, 0.1 + 0.6 * np.cos(np.pi * basis.nodes / basis.L))
        s = stationary_minimize(0.0, init, nu=0.02, tol=1e-8)
        assert s.residual <= 1e-12
        assert np.abs(s.phi_inf.values - 1.0).max() < 1e-12

    def test_kink_matches_reference(self):
        # the antisymmetric start keeps the solve on the one-interface kink;
        # reference energy and range of a gradient flow with Newton polish
        basis = SpectralBasis(L=1.0, M=64)
        init = ScalarField.from_values(basis, 0.6 * np.cos(np.pi * basis.nodes))
        s = stationary_minimize(0.0, init, nu=0.05, tol=1e-8)
        assert s.residual <= 1e-12
        assert s.upsilon == pytest.approx(0.20609782497016405, abs=1e-10)
        assert np.abs(s.phi_inf.values).max() == pytest.approx(0.8054302749248982, abs=1e-10)

    def test_nonconvergence_raises(self, basis):
        init = ScalarField.constant(basis, 0.9)
        with pytest.raises(NumericalError) as info:
            stationary_minimize(0.0, init, nu=0.1, tol=1e-8, max_iters=2)
        assert info.value.facts["iterations"] == 2
        assert info.value.facts["last_residual"] > 0

    def test_nan_residual_raises(self, basis):
        # phi = 1e200 overflows phi^3: NaN > tol is false, and NaN must not pass
        init = ScalarField.constant(basis, 1e200)
        with pytest.raises(NumericalError, match="residual nan") as info:
            stationary_minimize(0.0, init, nu=0.1)
        assert np.isnan(info.value.facts["last_residual"])


class TestOneSynthesisPerIterate:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Count syntheses on the P = 2M dealiasing grid, and steps (one linear solve each)."""
        syntheses, steps = [], []
        linalg_solve = np.linalg.solve

        def counting(basis, coeffs):
            syntheses.append(True)
            return _folded_values(basis, coeffs)

        def counting_solve(a, b):
            x = linalg_solve(a, b)
            steps.append(True)
            return x

        monkeypatch.setattr(stationary, "_folded_values", counting)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        return syntheses, steps

    def _check(self, counts, C, init, nu, tol):
        # one for the starting iterate and one per candidate, accepted or
        # rejected; the result's energy is the last accepted candidate's
        syntheses, steps = counts
        s = stationary_minimize(C, init, nu=nu, tol=tol)
        assert s.residual <= 1e-12
        assert sum(syntheses) == len(steps) + 1
        accepted = len(s.upsilon_history) - 1
        return accepted, len(steps) - accepted

    def test_rho_ensemble_state(self, counts):
        cfg = config_for("rho_ensemble", 0)
        sc, basis = cfg.stationary, SpectralBasis(L=cfg.basis.L, M=cfg.basis.M)
        values = sc.init_value + sc.init_cos * np.cos(np.pi * basis.nodes / basis.L)
        init = ScalarField.from_values(basis, values)
        assert self._check(counts, sc.C, init, cfg.params.nu, sc.tol) == (7, 0)
        assert sum(counts[0]) == 8

    def test_flow_with_rejected_steps(self, counts):
        basis = SpectralBasis(L=1.0, M=32)
        init = ScalarField.from_values(basis, np.random.default_rng(1).standard_normal(32))
        n, r = self._check(counts, 0.0, init, nu=0.1, tol=1e-12)
        assert r > 0


def _upsilon_on_4m_grid(phi, nu, C):
    """The energy's whole integrand, gradient included, by the midpoint rule on 4M points."""
    basis = phi.basis
    P = 4 * basis.M
    v = _cosine_matrix(basis, P) @ phi.coeffs
    g = gradient_values(phi, P)
    integrand = 0.5 * nu * g * g + 0.25 * (v * v - 1.0) ** 2 + C * v
    return float(integrand.sum() * basis.L / P)


class TestUpsilon:
    def test_constant_one_has_zero_potential(self, basis):
        phi = ScalarField.constant(basis, 1.0)
        assert upsilon(phi, nu=1.0, C=0.0) == pytest.approx(0.0, abs=1e-14)

    def test_quartic_quadrature_exact(self, basis):
        # cos(pi x): int (cos^2-1)^2/4 = int sin^4/4 = 3L/32
        phi = ScalarField.from_values(basis, np.cos(np.pi * basis.nodes))
        val = upsilon(phi, nu=0.0, C=0.0)
        assert val == pytest.approx(3.0 / 32.0, rel=1e-12)

    def test_gradient_term(self, basis):
        # nu/2 int |pi sin(pi x)|^2 = nu pi^2 L / 4
        phi = ScalarField.from_values(basis, np.cos(np.pi * basis.nodes))
        val = upsilon(phi, nu=2.0, C=0.0) - upsilon(phi, nu=0.0, C=0.0)
        assert val == pytest.approx(np.pi**2 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_matches_4m_grid(self, M, L):
        basis = SpectralBasis(L=L, M=M)
        rng = np.random.default_rng(M)
        coeffs = rng.standard_normal(M) / (1.0 + np.arange(M))
        phi = ScalarField(basis, coeffs)
        for nu, C in [(0.1, 0.0), (0.02, 0.3)]:
            assert upsilon(phi, nu, C) == pytest.approx(_upsilon_on_4m_grid(phi, nu, C), rel=1e-13)

    def test_rho_ensemble_state_and_margin(self, monkeypatch):
        # the gradient flow accepts steps by the energy; its minimizer and the
        # gain's margin stay where the 4M-grid energy puts them
        cfg = config_for("rho_ensemble", 0)
        m = build_materials(cfg)

        def euler_lagrange_4m(basis, coeffs, nu, C):
            _, res, cubic = _euler_lagrange(basis, coeffs, nu, C)
            return _upsilon_on_4m_grid(ScalarField(basis, coeffs), nu, C), res, cubic

        monkeypatch.setattr(stationary, "_euler_lagrange", euler_lagrange_4m)
        ref = build_materials(cfg)
        phi, phi_ref = m.stat.phi_inf.coeffs, ref.stat.phi_inf.coeffs
        assert np.abs(phi - phi_ref).max() <= 1e-12 * np.abs(phi_ref).max()
        margin, margin_ref = (solve_care(x.plant, x.act).margin for x in (m, ref))
        assert margin == pytest.approx(margin_ref, rel=1e-12)


def synthetic_state(basis, values, theta=0.0):
    phi = ScalarField.from_values(basis, values)
    return StationaryState(
        phi_inf=phi, theta_inf=theta, C_lagrange=0.0, residual=np.nan
    )


class TestSmallnessDiagnostics:
    def test_constant_state_has_zero_chi(self, basis):
        s = stationary_constant(+1, basis=basis)
        assert chi_infinity(s) == 0.0
        assert gbar_infinity(s) == 0.0

    def test_cosine_chi_value(self, basis):
        # sup norms are taken over the collocation nodes
        eps = 0.01
        s = synthetic_state(basis, eps * np.cos(np.pi * basis.nodes))
        sin_max = np.abs(np.sin(np.pi * basis.nodes)).max()
        cos_max = np.abs(np.cos(np.pi * basis.nodes)).max()
        expected = eps * np.pi * sin_max + eps * np.pi**2 * cos_max
        assert chi_infinity(s) == pytest.approx(expected, rel=1e-6)
        # half-cell node offset keeps this within 0.1% of the continuum value
        assert chi_infinity(s) == pytest.approx(eps * (np.pi + np.pi**2), rel=1e-3)

    def test_cosine_gbar_value(self, basis):
        s = synthetic_state(basis, np.cos(np.pi * basis.nodes))
        sin_max = np.abs(np.sin(np.pi * basis.nodes)).max()
        cos_max = np.abs(np.cos(np.pi * basis.nodes)).max()
        expected = (
            cos_max * np.pi * sin_max
            + cos_max * np.pi**2 * cos_max
            + (np.pi * sin_max) ** 2
        )
        assert gbar_infinity(s) == pytest.approx(expected, rel=1e-6)

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_chi_homogeneity(self, scale):
        b = SpectralBasis(L=1.0, M=32)
        base = synthetic_state(b, 0.05 * np.cos(np.pi * b.nodes))
        scaled = synthetic_state(b, scale * 0.05 * np.cos(np.pi * b.nodes))
        assert chi_infinity(scaled) == pytest.approx(
            scale * chi_infinity(base), rel=1e-12
        )

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_gbar_quadratic_scaling(self, scale):
        b = SpectralBasis(L=1.0, M=32)
        base = synthetic_state(b, 0.05 * np.cos(np.pi * b.nodes))
        scaled = synthetic_state(b, scale * 0.05 * np.cos(np.pi * b.nodes))
        assert gbar_infinity(scaled) == pytest.approx(
            scale**2 * gbar_infinity(base), rel=1e-10
        )
