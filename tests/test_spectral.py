import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from phasestab.spectral import (
    PAD_FACTOR,
    ScalarField,
    SpectralBasis,
    _coeffs_from_grid,
    _cosine_matrix,
    _values_on_grid,
    apply_A_power,
    gradient_squared,
    gradient_values,
    laplacian,
    norm_D_alpha,
    pointwise_product,
    transform_forward,
    transform_inverse,
)


@pytest.fixture
def basis():
    return SpectralBasis(L=1.0, M=64)


def random_field(basis, seed=0, decay=0.0):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(basis.M) * (1.0 + np.arange(basis.M)) ** (-decay)
    return ScalarField(basis, coeffs)


class TestBasis:
    def test_eigenvalue_layout(self, basis):
        assert basis.kappa[0] == 0.0
        assert np.all(np.diff(basis.kappa) > 0)
        assert np.array_equal(basis.mu, 1.0 + basis.kappa)

    def test_gram_matrix_is_identity(self, basis):
        # discrete orthonormality of the sampled basis functions
        E = np.column_stack(
            [basis.basis_function(k, basis.nodes) for k in range(basis.M)]
        )
        gram = E.T @ E * basis.quad_weight
        assert np.abs(gram - np.eye(basis.M)).max() < 1e-12

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SpectralBasis(L=-1.0, M=8)
        with pytest.raises(ValueError):
            SpectralBasis(L=1.0, M=1)


class TestTransforms:
    def test_constant_field_is_mode_zero(self, basis):
        c = 2.7
        coeffs = transform_forward(basis, np.full(basis.M, c))
        assert coeffs[0] == pytest.approx(c * np.sqrt(basis.L), abs=1e-13)
        assert np.abs(coeffs[1:]).max() < 1e-13

    def test_single_mode_maps_to_unit_vector(self, basis):
        values = basis.basis_function(1, basis.nodes)
        coeffs = transform_forward(basis, values)
        assert coeffs[1] == pytest.approx(1.0, abs=1e-12)
        mask = np.ones(basis.M, dtype=bool)
        mask[1] = False
        assert np.abs(coeffs[mask]).max() < 1e-12

    @pytest.mark.parametrize("M", [8, 64, 256])
    def test_round_trip(self, M):
        b = SpectralBasis(L=1.0, M=M)
        rng = np.random.default_rng(M)
        v = rng.standard_normal(M)
        back = transform_inverse(b, transform_forward(b, v))
        assert np.abs(back - v).max() < 1e-12 * max(1.0, np.abs(v).max())

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed):
        b = SpectralBasis(L=2.0, M=32)
        v = np.random.default_rng(seed).uniform(-10, 10, size=32)
        back = transform_inverse(b, transform_forward(b, v))
        assert np.abs(back - v).max() < 1e-12 * max(1.0, np.abs(v).max())

    def test_parseval(self, basis):
        f = random_field(basis, seed=3)
        lhs = np.sum(f.coeffs**2)
        rhs = basis.quad_weight * np.sum(f.values**2)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_mean_from_mode_zero(self, basis):
        f = random_field(basis, seed=4)
        assert f.mean == pytest.approx(np.mean(f.values), rel=1e-12)

    def test_length_mismatch_raises(self, basis):
        with pytest.raises(ValueError):
            transform_forward(basis, np.zeros(basis.M + 1))
        with pytest.raises(ValueError):
            transform_inverse(basis, np.zeros(basis.M - 1))


class TestAPowers:
    def test_alpha_zero_is_identity(self, basis):
        f = random_field(basis, seed=5)
        assert np.array_equal(apply_A_power(f, 0.0).coeffs, f.coeffs)

    def test_eigenvalue_on_mode_one(self, basis):
        f = ScalarField.from_values(basis, basis.basis_function(1, basis.nodes))
        out = apply_A_power(f, 1.0)
        assert out.coeffs[1] == pytest.approx(1.0 + np.pi**2, rel=1e-12)

    @given(
        alpha=st.floats(-1.0, 1.5),
        beta=st.floats(-1.0, 1.5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_semigroup_property(self, alpha, beta, seed):
        b = SpectralBasis(L=1.0, M=32)
        f = random_field(b, seed=seed)
        once = apply_A_power(f, alpha + beta)
        twice = apply_A_power(apply_A_power(f, alpha), beta)
        scale = np.abs(once.coeffs).max()
        assert np.abs(once.coeffs - twice.coeffs).max() < 1e-12 * max(1.0, scale)

    def test_half_twice_equals_one(self, basis):
        f = random_field(basis, seed=6)
        once = apply_A_power(f, 1.0)
        twice = apply_A_power(apply_A_power(f, 0.5), 0.5)
        assert np.abs(once.coeffs - twice.coeffs).max() < 1e-12 * np.abs(
            once.coeffs
        ).max()


class TestNorms:
    def test_zero_field(self, basis):
        assert norm_D_alpha(ScalarField.zero(basis), 0.7) == 0.0

    def test_mode_one_half_power(self, basis):
        f = ScalarField.from_values(basis, basis.basis_function(1, basis.nodes))
        assert norm_D_alpha(f, 0.5) == pytest.approx(np.sqrt(1 + np.pi**2), rel=1e-12)

    def test_matches_compose_and_norm_oracle(self, basis):
        f = random_field(basis, seed=7)
        direct = norm_D_alpha(f, 1.5)
        oracle = apply_A_power(f, 1.5).norm_L2()
        assert direct == pytest.approx(oracle, rel=1e-12)


class TestLaplacian:
    def test_constant_maps_to_zero(self, basis):
        f = ScalarField.constant(basis, 3.0)
        assert np.abs(laplacian(f).coeffs).max() == 0.0

    def test_mode_two_eigenvalue(self, basis):
        f = ScalarField.from_values(basis, basis.basis_function(2, basis.nodes))
        out = laplacian(f)
        assert out.coeffs[2] == pytest.approx(-4 * np.pi**2, rel=1e-12)

    def test_identity_with_A(self, basis):
        f = random_field(basis, seed=8)
        lhs = laplacian(f).coeffs
        rhs = f.coeffs - apply_A_power(f, 1.0).coeffs
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_mean_mode_annihilated_bit_exact(self, basis):
        f = random_field(basis, seed=9)
        assert laplacian(f).coeffs[0] == 0.0


def cosine_amplitudes(f):
    """Convert orthonormal coefficients to plain cosine amplitudes."""
    L = f.basis.L
    amps = f.coeffs * np.sqrt(2.0 / L)
    amps[0] = f.coeffs[0] / np.sqrt(L)
    return amps


def convolve_cosine(a, b, M):
    """Direct product of two cosine series: cos j cos k = (cos(j+k)+cos|j-k|)/2."""
    out = np.zeros(2 * M)
    for j, aj in enumerate(a):
        for k, bk in enumerate(b):
            out[j + k] += 0.5 * aj * bk
            out[abs(j - k)] += 0.5 * aj * bk
    return out[:M]


class TestPointwiseProduct:
    def test_multiply_by_one(self, basis):
        f = random_field(basis, seed=10)
        one = ScalarField.constant(basis, 1.0)
        out = pointwise_product([f, one])
        assert np.abs(out.coeffs - f.coeffs).max() < 1e-12 * np.abs(f.coeffs).max()

    def test_constants_multiply(self, basis):
        out = pointwise_product(
            [ScalarField.constant(basis, 2.0), ScalarField.constant(basis, -1.5)]
        )
        assert out.mean == pytest.approx(-3.0, rel=1e-13)
        assert np.abs(out.coeffs[1:]).max() < 1e-13

    def test_cos_squared_identity(self, basis):
        f = ScalarField.from_values(basis, np.cos(np.pi * basis.nodes))
        out = pointwise_product([f, f])
        expected = 0.5 + 0.5 * np.cos(2 * np.pi * basis.nodes)
        assert np.abs(out.values - expected).max() < 1e-10

    def test_dealiased_product_matches_convolution(self, basis):
        # factors band-limited to M/2: dealiased product is an exact projection
        rng = np.random.default_rng(11)
        half = basis.M // 2
        ca = np.zeros(basis.M)
        cb = np.zeros(basis.M)
        ca[:half] = rng.standard_normal(half)
        cb[:half] = rng.standard_normal(half)
        fa, fb = ScalarField(basis, ca), ScalarField(basis, cb)
        out = pointwise_product([fa, fb])
        amps = convolve_cosine(cosine_amplitudes(fa), cosine_amplitudes(fb), basis.M)
        expected = amps * np.sqrt(basis.L / 2.0)
        expected[0] = amps[0] * np.sqrt(basis.L)
        assert np.abs(out.coeffs - expected).max() < 1e-12 * max(
            1.0, np.abs(expected).max()
        )

    def test_triple_product_of_constants(self, basis):
        fields = [ScalarField.constant(basis, v) for v in (0.5, 2.0, -3.0)]
        out = pointwise_product(fields)
        assert out.mean == pytest.approx(-3.0, rel=1e-13)

    def test_basis_mismatch_raises(self, basis):
        other = SpectralBasis(L=1.0, M=32)
        with pytest.raises(ValueError):
            pointwise_product([ScalarField.zero(basis), ScalarField.zero(other)])

    def test_wrong_arity_raises(self, basis):
        with pytest.raises(ValueError):
            pointwise_product([ScalarField.zero(basis)])


class TestGradientSquared:
    def test_constant_gives_zero(self, basis):
        out = gradient_squared(ScalarField.constant(basis, 4.0))
        assert np.abs(out.coeffs).max() < 1e-14

    def test_cosine_identity(self, basis):
        f = ScalarField.from_values(basis, np.cos(np.pi * basis.nodes))
        out = gradient_squared(f)
        expected = np.pi**2 * (0.5 - 0.5 * np.cos(2 * np.pi * basis.nodes))
        assert np.abs(out.values - expected).max() < 1e-10

    def test_finite_difference_oracle(self, basis):
        # smooth random field; mirrored 4th-order central differences, 4096 nodes
        rng = np.random.default_rng(12)
        coeffs = rng.standard_normal(basis.M) * np.exp(-0.5 * np.arange(basis.M))
        f = ScalarField(basis, coeffs)
        P = 4096
        vals = _values_on_grid(basis, f.coeffs, P)
        h = basis.L / P
        # even extension about both endpoints of the midpoint grid
        padded = np.concatenate([vals[1::-1], vals, vals[:-3:-1]])
        grad_fd = (
            -padded[4:] + 8 * padded[3:-1] - 8 * padded[1:-3] + padded[:-4]
        ) / (12 * h)
        gsq = _values_on_grid(basis, gradient_squared(f).coeffs, P)
        assert np.abs(gsq - grad_fd**2).max() < 1e-6

    def test_matches_direct_gradient_values(self, basis):
        f = random_field(basis, seed=13, decay=2.0)
        g = gradient_values(f, 2 * basis.M)
        expected = _coeffs_from_grid(basis, g * g)
        assert np.abs(gradient_squared(f).coeffs - expected).max() < 1e-13


class TestCosineMatrix:
    @pytest.mark.parametrize("M", [2, 3, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_matches_fft_transforms(self, M, L):
        # reference: the orthonormal DCT-II pair, zero-padded to P points
        basis = SpectralBasis(L=L, M=M)
        P = PAD_FACTOR * M
        C = _cosine_matrix(basis, P)
        assert C.shape == (P, M)
        rng = np.random.default_rng(M)
        for shape in ((), (3,)):
            coeffs = rng.standard_normal((M, *shape))
            values = rng.standard_normal((P, *shape))
            padded = np.zeros((P, *shape))
            padded[:M] = coeffs
            synthesis = scipy.fft.idct(padded, type=2, norm="ortho", axis=0) / np.sqrt(L / P)
            analysis = scipy.fft.dct(values, type=2, norm="ortho", axis=0)[:M] * np.sqrt(L / P)
            out = _values_on_grid(basis, coeffs, P)
            assert out.shape == synthesis.shape
            assert np.abs(out - synthesis).max() <= 1e-13 * np.abs(synthesis).max()
            out = _coeffs_from_grid(basis, values)
            assert out.shape == analysis.shape
            assert np.abs(out - analysis).max() <= 1e-13 * np.abs(analysis).max()

    @pytest.mark.parametrize("M", [2, 3, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_constant_grid_vector_has_zero_higher_coefficients(self, M, L, factor):
        basis = SpectralBasis(L=L, M=M)
        P = factor * M
        rng = np.random.default_rng(P)
        constants = np.concatenate([[0.1, 1.0 / 3.0, -0.7, 1.0], rng.standard_normal(3)])
        # c_0 comes from a sum of P terms: recursive summation bound P eps
        rtol = P * np.finfo(float).eps
        for c in constants:
            out = _coeffs_from_grid(basis, np.full(P, c))
            assert np.all(out[1:] == 0.0)
            assert out[0] == pytest.approx(np.sqrt(L) * c, rel=rtol)
        columns = np.tile(constants[-3:], (P, 1))
        out = _coeffs_from_grid(basis, columns)
        assert out.shape == (M, 3)
        assert np.all(out[1:] == 0.0)
        np.testing.assert_allclose(out[0], np.sqrt(L) * constants[-3:], rtol=rtol)

    def test_package_does_not_import_scipy_fft(self):
        # one transform route: building the default materials never loads scipy.fft
        code = (
            "import sys, phasestab\n"
            "from phasestab.cli import build_materials\n"
            "from phasestab.config import SimConfig\n"
            "build_materials(SimConfig())\n"
            "print('scipy.fft' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.strip() == "False"

    def test_cached_and_read_only(self, basis):
        C = _cosine_matrix(basis, 2 * basis.M)
        assert _cosine_matrix(basis, 2 * basis.M) is C
        assert not C.flags.writeable
