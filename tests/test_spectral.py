import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from phasestab.cli import run_pipeline
from phasestab.config import SimConfig
from phasestab.spectral import (
    ScalarField,
    SpectralBasis,
    _coeffs_from_grid,
    _cosine_matrix,
    _folded_coeffs,
    _folded_values,
    _half_cosine_matrix,
    _weighted_norm,
    gradient_values,
    laplacian,
)
from phasestab.linearization import F_second_parts
from phasestab.stationary import _euler_lagrange

import oracles
from oracles import basis_function


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
            [basis_function(basis, k, basis.nodes) for k in range(basis.M)]
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
        coeffs = ScalarField.from_values(basis, np.full(basis.M, c)).coeffs
        assert coeffs[0] == pytest.approx(c * np.sqrt(basis.L), abs=1e-13)
        assert np.abs(coeffs[1:]).max() < 1e-13

    def test_single_mode_maps_to_unit_vector(self, basis):
        values = basis_function(basis, 1, basis.nodes)
        coeffs = ScalarField.from_values(basis, values).coeffs
        assert coeffs[1] == pytest.approx(1.0, abs=1e-12)
        mask = np.ones(basis.M, dtype=bool)
        mask[1] = False
        assert np.abs(coeffs[mask]).max() < 1e-12

    @pytest.mark.parametrize("M", [8, 64, 256])
    def test_round_trip(self, M):
        b = SpectralBasis(L=1.0, M=M)
        rng = np.random.default_rng(M)
        v = rng.standard_normal(M)
        # a new field: from_values keeps v itself as the field's values
        back = ScalarField(b, ScalarField.from_values(b, v).coeffs).values
        assert np.abs(back - v).max() < 1e-12 * max(1.0, np.abs(v).max())

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed):
        b = SpectralBasis(L=2.0, M=32)
        v = np.random.default_rng(seed).uniform(-10, 10, size=32)
        back = ScalarField(b, ScalarField.from_values(b, v).coeffs).values
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
        for n in (basis.M - 1, basis.M + 1):
            with pytest.raises(ValueError, match=f"expected {basis.M} collocation values"):
                ScalarField.from_values(basis, np.zeros(n))


def graph_norm(f, alpha):
    """||A^alpha f||_{L^2} through the package's one weighted norm."""
    return float(_weighted_norm(f.basis.mu ** (2.0 * alpha), f.coeffs))


class TestAPowers:
    # A^alpha = (-Laplacian + I)^alpha is diagonal with weights mu_k^alpha;
    # the graph norm sqrt(sum mu_k^{2 alpha} c_k^2) must honour its algebra
    def test_alpha_zero_is_identity(self, basis):
        f = random_field(basis, seed=5)
        assert graph_norm(f, 0.0) == pytest.approx(np.linalg.norm(f.coeffs), rel=1e-15)

    def test_eigenvalue_on_mode_one(self, basis):
        f = ScalarField.from_values(basis, basis_function(basis, 1, basis.nodes))
        assert f.coeffs[1] * basis.mu[1] == pytest.approx(1.0 + np.pi**2, rel=1e-12)

    @given(
        alpha=st.floats(-1.0, 1.5),
        beta=st.floats(-1.0, 1.5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_semigroup_property(self, alpha, beta, seed):
        b = SpectralBasis(L=1.0, M=32)
        f = random_field(b, seed=seed)
        # ||A^(alpha + beta) f|| = ||A^beta (A^alpha f)||
        once = graph_norm(f, alpha + beta)
        twice = graph_norm(ScalarField(b, f.coeffs * b.mu**alpha), beta)
        assert twice == pytest.approx(once, rel=1e-12)

    def test_half_twice_equals_one(self, basis):
        f = random_field(basis, seed=6)
        half = ScalarField(basis, f.coeffs * basis.sqrt_mu)
        assert graph_norm(half, 0.5) == pytest.approx(graph_norm(f, 1.0), rel=1e-12)


class TestNorms:
    def test_zero_field(self, basis):
        assert graph_norm(ScalarField(basis, np.zeros(basis.M)), 0.7) == 0.0

    def test_mode_one_half_power(self, basis):
        f = ScalarField.from_values(basis, basis_function(basis, 1, basis.nodes))
        assert graph_norm(f, 0.5) == pytest.approx(np.sqrt(1 + np.pi**2), rel=1e-12)

    def test_matches_compose_and_norm_oracle(self, basis):
        f = random_field(basis, seed=7)
        direct = graph_norm(f, 1.5)
        oracle = np.linalg.norm(f.coeffs * basis.mu**1.5)
        assert direct == pytest.approx(oracle, rel=1e-12)


class TestLaplacian:
    def test_constant_maps_to_zero(self, basis):
        f = ScalarField.constant(basis, 3.0)
        assert np.abs(laplacian(f).coeffs).max() == 0.0

    def test_mode_two_eigenvalue(self, basis):
        f = ScalarField.from_values(basis, basis_function(basis, 2, basis.nodes))
        out = laplacian(f)
        assert out.coeffs[2] == pytest.approx(-4 * np.pi**2, rel=1e-12)

    def test_identity_with_A(self, basis):
        f = random_field(basis, seed=8)
        lhs = laplacian(f).coeffs
        rhs = f.coeffs - basis.mu * f.coeffs
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


def orthonormal_coeffs(amps, L):
    """Convert plain cosine amplitudes to orthonormal coefficients."""
    coeffs = amps * np.sqrt(L / 2.0)
    coeffs[0] = amps[0] * np.sqrt(L)
    return coeffs


def square_coeffs(f):
    """Coefficients of f^2, read back from F_second_parts' (3 mean(f^2) - 1, 3 f^2 - its mean)."""
    F_bar, g = F_second_parts(f)
    sq = g.coeffs / 3.0
    sq[0] = (F_bar + 1.0) / 3.0 * np.sqrt(f.basis.L)
    return sq


def cube_coeffs(f):
    """Coefficients of f^3, the cubic of the stationary solver's one synthesis."""
    return _euler_lagrange(f.basis, f.coeffs, 0.0, 0.0)[2]


def band_limited_field(basis, band, seed):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(basis.M)
    coeffs[:band] = rng.standard_normal(band)
    return ScalarField(basis, coeffs)


class TestPointwiseProduct:
    # the package's two dealiased products: the square of phi_inf in
    # F_second_parts and the cube of each stationary iterate
    def test_multiply_by_one(self, basis):
        # multiplying the values by one is exact, so the cube equals the
        # analysis of a product over three factors seeded with ones, bit for
        # bit; both run on the folded 2M grid
        f = random_field(basis, seed=10)
        v = _folded_values(basis, f.coeffs)
        seeded = np.ones((2, basis.M))
        for _ in range(3):
            seeded *= v
        assert np.array_equal(cube_coeffs(f), _folded_coeffs(basis, seeded))

    def test_constants_multiply(self, basis):
        sq = square_coeffs(ScalarField.constant(basis, -1.5))
        assert sq[0] / np.sqrt(basis.L) == pytest.approx(2.25, rel=1e-13)
        assert np.abs(sq[1:]).max() < 1e-13

    def test_cos_squared_identity(self, basis):
        f = ScalarField.from_values(basis, np.cos(np.pi * basis.nodes))
        out = ScalarField(basis, square_coeffs(f))
        expected = 0.5 + 0.5 * np.cos(2 * np.pi * basis.nodes)
        assert np.abs(out.values - expected).max() < 1e-10
        out = ScalarField(basis, cube_coeffs(f))
        expected = 0.75 * np.cos(np.pi * basis.nodes) + 0.25 * np.cos(3 * np.pi * basis.nodes)
        assert np.abs(out.values - expected).max() < 1e-10

    def test_dealiased_product_matches_convolution(self, basis):
        # factors band-limited to M/2 (square) and M/3 (cube): the dealiased
        # products are exact projections
        f = band_limited_field(basis, basis.M // 2, seed=11)
        a = cosine_amplitudes(f)
        expected = orthonormal_coeffs(convolve_cosine(a, a, basis.M), basis.L)
        assert np.abs(square_coeffs(f) - expected).max() < 1e-12 * max(
            1.0, np.abs(expected).max()
        )
        f = band_limited_field(basis, basis.M // 3, seed=12)
        a = cosine_amplitudes(f)
        amps = convolve_cosine(convolve_cosine(a, a, basis.M), a, basis.M)
        expected = orthonormal_coeffs(amps, basis.L)
        assert np.abs(cube_coeffs(f) - expected).max() < 1e-12 * max(
            1.0, np.abs(expected).max()
        )

    def test_triple_product_of_constants(self, basis):
        cube = cube_coeffs(ScalarField.constant(basis, -1.5))
        assert cube[0] / np.sqrt(basis.L) == pytest.approx(-3.375, rel=1e-13)
        assert np.abs(cube[1:]).max() < 1e-13


class TestGradientSquared:
    # |f'|^2 on a grid, the form the remainder oracle squares gradients in
    def test_constant_gives_zero(self, basis):
        grad = gradient_values(ScalarField.constant(basis, 4.0), 2 * basis.M)
        assert np.abs(grad * grad).max() < 1e-14

    def test_cosine_identity(self, basis):
        f = ScalarField.from_values(basis, np.cos(np.pi * basis.nodes))
        grad = gradient_values(f)
        expected = np.pi**2 * (0.5 - 0.5 * np.cos(2 * np.pi * basis.nodes))
        assert np.abs(grad * grad - expected).max() < 1e-10

    def test_finite_difference_oracle(self, basis):
        # smooth random field; mirrored 4th-order central differences, 4096 nodes
        rng = np.random.default_rng(12)
        coeffs = rng.standard_normal(basis.M) * np.exp(-0.5 * np.arange(basis.M))
        f = ScalarField(basis, coeffs)
        P = 4096
        vals = _cosine_matrix(basis, P) @ f.coeffs
        h = basis.L / P
        # even extension about both endpoints of the midpoint grid
        padded = np.concatenate([vals[1::-1], vals, vals[:-3:-1]])
        grad_fd = (
            -padded[4:] + 8 * padded[3:-1] - 8 * padded[1:-3] + padded[:-4]
        ) / (12 * h)
        gsq = gradient_values(f, P) ** 2
        assert np.abs(gsq - grad_fd**2).max() < 1e-6

    def test_matches_direct_gradient_values(self, basis):
        # reference: the derivative of each e_k summed at the padded nodes
        f = random_field(basis, seed=13, decay=2.0)
        P = 2 * basis.M
        x = (np.arange(P) + 0.5) * basis.L / P
        k = np.arange(basis.M)[:, None]
        de = -np.sqrt(2.0 / basis.L) * (k * np.pi / basis.L) * np.sin(k * np.pi * x / basis.L)
        expected = f.coeffs @ de
        grad = gradient_values(f, P)
        assert np.abs(grad - expected).max() < 1e-13 * np.abs(expected).max()
        assert np.abs(grad * grad - expected**2).max() < 1e-12 * (expected**2).max()


class TestCosineMatrix:
    @pytest.mark.parametrize("M", [2, 3, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_matches_fft_transforms(self, M, L):
        # reference: the orthonormal DCT-II pair, zero-padded to P points; it
        # checks the whole oracle matrix and, unfolded, the package's folded
        # synthesis and analysis on the 2M grid
        basis = SpectralBasis(L=L, M=M)
        P = 2 * M
        C = oracles.cosine_matrix(basis, P)
        assert C.shape == (P, M)
        rng = np.random.default_rng(M)
        for shape in ((), (3,)):
            coeffs = rng.standard_normal((M, *shape))
            values = rng.standard_normal((P, *shape))
            padded = np.zeros((P, *shape))
            padded[:M] = coeffs
            synthesis = scipy.fft.idct(padded, type=2, norm="ortho", axis=0) / np.sqrt(L / P)
            analysis = scipy.fft.dct(values, type=2, norm="ortho", axis=0)[:M] * np.sqrt(L / P)
            for out in (C @ coeffs, unfold(_folded_values(basis, coeffs))):
                assert out.shape == synthesis.shape
                assert np.abs(out - synthesis).max() <= 1e-13 * np.abs(synthesis).max()
            for out in ((L / P) * (C.T @ values), _folded_coeffs(basis, fold(values))):
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

    @pytest.mark.parametrize("M", [2, 3, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_mirror_symmetric(self, M, L):
        # e_k(x_{P-1-j}) = (-1)^k e_k(x_j) on the P = 2M midpoint grid, so the
        # top M rows carry the whole matrix; the package's cached half is
        # those rows
        basis = SpectralBasis(L=L, M=M)
        C = oracles.cosine_matrix(basis, 2 * M)
        sign = (-1.0) ** np.arange(M)
        assert np.abs(C[::-1] - sign * C).max() <= 4 * np.finfo(float).eps * np.abs(C).max()
        H = _half_cosine_matrix(basis)
        assert H.shape == (M, M)
        assert np.abs(H - C[:M]).max() <= 4 * np.finfo(float).eps * np.abs(C).max()

    def test_cached_and_read_only(self, basis):
        for matrix in (lambda: _half_cosine_matrix(basis), lambda: _cosine_matrix(basis, basis.M)):
            C = matrix()
            assert matrix() is C
            assert not C.flags.writeable

    @pytest.mark.parametrize("M", [2, 3, 5, 64, 256, 257])
    def test_cached_matrices_start_on_a_cache_line(self, M):
        # the stepper's products against H slow by a third at M = 256 when
        # malloc leaves H off a 64-byte boundary
        basis = SpectralBasis(L=1.0, M=M)
        for C in (_half_cosine_matrix(basis), _cosine_matrix(basis, M)):
            assert C.ctypes.data % 64 == 0
            assert C.flags.c_contiguous and C.shape[1] == M


def fold(values):
    """Values on the 2M-point grid (or (2M, n)) as [bottom half reversed; top half]."""
    M = len(values) // 2
    return np.stack([values[M:][::-1], values[:M]])


def unfold(folded):
    """The 2M grid values (or (2M, n)) of a folded (2, M) (or (2, M, n)) array."""
    return np.concatenate([folded[1], folded[0][::-1]])


class TestFoldedPair:
    """The folded synthesis and analysis on the 2M grid against the whole oracle matrix."""

    @pytest.mark.parametrize("M", [2, 3, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_matches_oracle_matrix(self, M, L):
        basis = SpectralBasis(L=L, M=M)
        P = 2 * M
        C = oracles.cosine_matrix(basis, P)
        rng = np.random.default_rng(P + 1)
        for shape in ((), (3,)):
            coeffs = rng.standard_normal((M, *shape)) * np.exp(-0.1 * np.arange(M)).reshape(
                (M,) + (1,) * len(shape)
            )
            folded = _folded_values(basis, coeffs)
            assert folded.shape == (2, M, *shape)
            values = C @ coeffs
            assert np.abs(unfold(folded) - values).max() <= 1e-13 * np.abs(values).max()
            grid = rng.standard_normal((P, *shape))
            expected = (L / P) * (C.T @ grid)
            out = _folded_coeffs(basis, fold(grid))
            assert out.shape == (M, *shape)
            assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("M", [2, 3, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_exact_on_constant_fields(self, M, L):
        # a constant's synthesis is the oracle's bit for bit, and a constant
        # grid analyses to exactly zero higher coefficients, with the c_0 of
        # the unfolded grid's mean
        basis = SpectralBasis(L=L, M=M)
        C = oracles.cosine_matrix(basis, 2 * M)
        for c in (0.1, 1.0 / 3.0, -0.7, 1.0, 3.0):
            field = ScalarField.constant(basis, c)
            values = _folded_values(basis, field.coeffs)
            assert np.array_equal(unfold(values), C @ field.coeffs)
            assert np.all(values == values[0, 0])
            out = _folded_coeffs(basis, np.full((2, M), c))
            assert np.all(out[1:] == 0.0)
            assert out[0] == np.sqrt(L) * np.full(2 * M, c).mean()
        columns = np.tile([0.1, -0.7, 3.0], (2, M, 1))
        out = _folded_coeffs(basis, columns)
        assert out.shape == (M, 3)
        assert np.all(out[1:] == 0.0)
        assert np.array_equal(out[0], np.sqrt(L) * columns.reshape(2 * M, 3).mean(axis=0))

    def test_pipeline_caches_no_full_dealiasing_matrix(self, tmp_path):
        # a run caches the 2M grid's top half and the node grid's matrix,
        # M^2 doubles each: no (2M) x M matrix, though a nonconstant state
        # synthesizes on the 2M grid in its stationary solve, F_second_parts,
        # assemble_plant and every step
        _cosine_matrix.cache_clear()
        _half_cosine_matrix.cache_clear()
        cfg = SimConfig()
        cfg.basis.M = 32
        cfg.params.nu = 0.05
        cfg.stationary.mode = "minimize"
        cfg.stationary.init_value = 0.0
        cfg.stationary.init_cos = 0.6
        cfg.sim.t_end = 0.05
        cfg.output_dir = str(tmp_path)
        run_pipeline(cfg.validate())
        basis = SpectralBasis(L=cfg.basis.L, M=32)
        assert _half_cosine_matrix.cache_info().currsize == 1
        assert _cosine_matrix.cache_info().currsize == 1
        assert _half_cosine_matrix(basis).nbytes == 32 * 32 * 8
        assert _cosine_matrix(basis, 32).nbytes == 32 * 32 * 8
        assert _cosine_matrix.cache_info().currsize == 1
