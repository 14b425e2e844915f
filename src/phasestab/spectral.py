"""Cosine-spectral discretization of the interval (0, L) with Neumann boundaries.

The discretization uses the orthonormal cosine basis

    e_0(x) = sqrt(1/L),   e_k(x) = sqrt(2/L) cos(k pi x / L),  k = 1..M-1,

sampled at the M midpoint collocation nodes x_j = (j + 1/2) L / M.  On this
basis every operator we need is diagonal:

    -Laplacian           ->  kappa_k = (k pi / L)^2
    A = -Laplacian + I   ->  mu_k    = 1 + kappa_k
    A^alpha              ->  mu_k^alpha   (any real alpha, since mu_k >= 1)

There is one transform between coefficients and grid values, a cached
matrix of the basis functions at the grid's midpoints.  On the P-point grid
it is the P x M matrix C (``_cosine_matrix``): synthesis is C c; analysis is
(L/P) C^T v, the midpoint rule, which is exact for the retained modes, so
round trips at P = M are exact to round-off and the discrete Parseval
identity sum_k c_k^2 = (L/M) sum_j f_j^2 holds.  Analysis first projects out
the grid mean and sets c_0 from it: the k >= 1 columns sum to zero on the
midpoint grid, and without the projection their round-off would give a
constant field spurious higher coefficients of order 1e-16, which the
Laplacian then amplifies by kappa_k.

Pointwise (nonlinear) products are evaluated on a zero-padded grid of
P = 2M points, and every caller writes that grid as 2M.  It must be 2M for
two reasons.  The 3/2 rule keeps only quadratic products alias-free; 2M
does the same for cubic products of band-limited fields in the retained M
modes.  And the 2M-point midpoint grid is mirror-symmetric,
C[P-1-j] = (-1)^k C[j], so its top half H = C[:M], an M x M matrix, carries
the whole of C: this module caches only H (``_half_cosine_matrix``) and
holds the grid's values folded, as the (2, M) array
[bottom half reversed; top half] = [H (-1)^k c; H c].  ``_folded_values``
and ``_folded_coeffs`` are that synthesis and analysis, the latter with the
same mean projection; the analysis of a folded v is
(L/P) (H^T v_top + (-1)^k H^T v_bottom).  Each caller synthesizes its field
once there and analyses the product of the values:
``linearization.F_second_parts`` the square, ``assemble_plant`` the
remainder's coefficient functions, ``stationary._euler_lagrange`` the cube,
from the one synthesis per iterate that also gives Upsilon and the
Euler-Lagrange residual, and the time stepper (``sim._Stepper``) its
remainder.  The node grid (P = M, which may be odd) keeps its full matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralBasis",
    "ScalarField",
    "laplacian",
    "gradient_values",
]

_ALIGN = 64  # bytes: the cached cosine matrices start on a cache line


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal cosine basis on (0, L) with M modes and midpoint nodes."""

    L: float = 1.0
    M: int = 64
    kappa: np.ndarray = field(init=False, repr=False, compare=False)
    mu: np.ndarray = field(init=False, repr=False, compare=False)
    sqrt_mu: np.ndarray = field(init=False, repr=False, compare=False)  # decay-norm weight of z
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"domain length must be positive, got {self.L}")
        if self.M < 2:
            raise ValueError(f"need at least 2 modes, got {self.M}")
        k = np.arange(self.M)
        object.__setattr__(self, "kappa", (k * np.pi / self.L) ** 2)
        object.__setattr__(self, "mu", 1.0 + self.kappa)
        object.__setattr__(self, "sqrt_mu", np.sqrt(self.mu))
        object.__setattr__(self, "nodes", (k + 0.5) * self.L / self.M)

    @property
    def quad_weight(self) -> float:
        """Midpoint quadrature weight L/M for the collocation nodes."""
        return self.L / self.M


def _values_on_grid(basis: SpectralBasis, coeffs: np.ndarray, P: int) -> np.ndarray:
    """Values on the P-point midpoint grid of the M coefficients (or of each (M, n) column)."""
    return _cosine_matrix(basis, P) @ coeffs


def _coeffs_from_grid(basis: SpectralBasis, values: np.ndarray) -> np.ndarray:
    """The M coefficients of values on a P-point midpoint grid (or of each (P, n) column).

    The mean is projected out before the k >= 1 columns are applied, twice so
    that a constant grid vector leaves exactly zero (one pass leaves the
    rounding error of the mean itself), and c_0 is set from it.
    """
    P = len(values)
    mean = values.mean(axis=0)
    deviation = values - mean
    deviation -= deviation.mean(axis=0)
    coeffs = (basis.L / P) * (_cosine_matrix(basis, P).T @ deviation)
    coeffs[0] = np.sqrt(basis.L) * mean
    return coeffs


@dataclass
class ScalarField:
    """One scalar unknown: modal coefficients plus cached collocation values."""

    basis: SpectralBasis
    coeffs: np.ndarray
    _values: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_values(cls, basis: SpectralBasis, values) -> "ScalarField":
        """The field with the given values at the M collocation nodes."""
        values = np.asarray(values, dtype=float)
        if values.shape != (basis.M,):
            raise ValueError(f"expected {basis.M} collocation values, got shape {values.shape}")
        return cls(basis, _coeffs_from_grid(basis, values), values.copy())

    @classmethod
    def constant(cls, basis: SpectralBasis, value: float) -> "ScalarField":
        coeffs = np.zeros(basis.M)
        coeffs[0] = value * np.sqrt(basis.L)
        return cls(basis, coeffs)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _values_on_grid(self.basis, self.coeffs, self.basis.M)
        return self._values

    @property
    def mean(self) -> float:
        """Spatial mean (1/L) int f dx, carried exactly by the k=0 coefficient."""
        return float(self.coeffs[0]) / np.sqrt(self.basis.L)


def _weighted_norm(weights, coeffs: np.ndarray, out=None, scratch=None):
    """sqrt(sum_k w_k c_k^2) over the last axis of coeffs, one value per row.

    Weights mu_k^{2 alpha} give the graph norm ||A^alpha f||_{L^2}; a 1-D
    coeffs gives a scalar.  The decay norm (``sim._decay_norm``) and the
    plain product-space norm the trajectory records both go through it.
    A stack of (1 x M) @ (M x 1) products is one dot product per row, so a
    row's value does not depend on how many rows are stacked with it and
    equals the 1-D ``c @ (w * c)``; ``simulate`` relies on that to record
    its norms in blocks.  Given ``out`` (one entry per row) and ``scratch``
    (coeffs' shape), the norms go into out, w c into scratch, and no array
    is allocated; the arithmetic is the same either way.
    """
    wc = np.multiply(weights, coeffs, scratch)
    sq = None if out is None else out[..., None, None]
    return np.sqrt(np.matmul(coeffs[..., None, :], wc[..., None], sq)[..., 0, 0], out)


def laplacian(f: ScalarField) -> ScalarField:
    """Neumann Laplacian, diagonal with weights -kappa_k; annihilates the mean."""
    return ScalarField(f.basis, -f.basis.kappa * f.coeffs)


def _midpoint_angles(basis: SpectralBasis, P: int, rows: int) -> np.ndarray:
    """rows x M angles k pi x_j / L on the first ``rows`` rows of the P-point midpoint grid.

    k pi x_j / L = pi k (2j + 1) / (2P); reducing k (2j + 1) modulo 4P in
    integers keeps every angle accurate to round-off, in [0, 2 pi).
    """
    turns = np.outer(2 * np.arange(rows) + 1, np.arange(basis.M)) % (4 * P)
    return turns * (np.pi / (2 * P))


@functools.lru_cache(maxsize=16)
def _sine_matrix(basis: SpectralBasis, P: int) -> np.ndarray:
    """P x M matrix  sin(k pi x_j / L)  on the P-point midpoint grid (cached, read-only)."""
    mat = np.sin(_midpoint_angles(basis, P, P))
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=16)
def _cosine_matrix(basis: SpectralBasis, P: int) -> np.ndarray:
    """P x M matrix  e_k(x_j)  on the P-point midpoint grid (cached, read-only).

    ``C @ c`` gives values on the grid and ``(L/P) C.T @ v`` the coefficients
    of grid values.  The package reads it on the node grid, P = M; the 2M
    dealiasing grid goes through its top half (``_half_cosine_matrix``).
    """
    return _cosine_rows(basis, P, P)


def _cosine_rows(basis: SpectralBasis, P: int, rows: int) -> np.ndarray:
    """The first ``rows`` rows of the P-point grid's cosine matrix (read-only).

    The matrix starts on a cache line (``_ALIGN`` bytes) whatever address
    malloc returns: with H off a 64-byte boundary, the closed-loop time
    step, whose two products read H, took 34 % longer at M = 256 and 11 %
    at M = 64 (one BLAS thread; the products are the same bit for bit).
    """
    size = rows * basis.M
    buf = np.empty(size + _ALIGN // 8)
    start = (-buf.ctypes.data % _ALIGN) // 8
    mat = buf[start : start + size].reshape(rows, basis.M)
    np.multiply(np.sqrt(2.0 / basis.L), np.cos(_midpoint_angles(basis, P, rows)), mat)
    mat[:, 0] = np.sqrt(1.0 / basis.L)
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=16)
def _half_cosine_matrix(basis: SpectralBasis) -> np.ndarray:
    """M x M top half H = C[:M] of the 2M-point grid's cosine matrix (cached, read-only).

    The 2M-point midpoint grid is mirror-symmetric, C[P-1-j] = (-1)^k C[j],
    so H carries all of C in M^2 doubles (0.5 MiB at M = 256, 128 MiB at
    M = 4096), half of what C would take; its entries are those of C[:M]
    bit for bit.
    """
    return _cosine_rows(basis, 2 * basis.M, basis.M)


def _mirror_sign(M: int) -> np.ndarray:
    """(-1)^k for k = 0..M-1: C[P-1-j, k] = (-1)^k C[j, k] on the 2M-point grid."""
    sign = np.ones(M)
    sign[1::2] = -1.0
    return sign


def _folded_values(basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
    """Values on the 2M-point grid of the M coefficients (or of each (M, n) column), folded.

    The result is [bottom half reversed; top half] = [H (-1)^k c; H c], of
    shape (2, M) or (2, M, n): C c with its rows P-1-j and j side by side.
    """
    M = basis.M
    c = coeffs.reshape(M, -1)
    folded = _half_cosine_matrix(basis) @ np.stack([_mirror_sign(M)[:, None] * c, c])
    return folded.reshape((2,) + coeffs.shape)


def _folded_coeffs(basis: SpectralBasis, values: np.ndarray) -> np.ndarray:
    """The M coefficients (or (M, n)) of folded values (2, M) (or (2, M, n)) on the 2M grid.

    The analysis (L/P) C^T v of the whole grid, as (L/P) (H^T v_top +
    (-1)^k H^T v_bottom), with ``_coeffs_from_grid``'s mean projection: the
    mean is projected out twice, over both halves, so a constant leaves
    exactly zero higher coefficients, and c_0 is set from it.
    """
    M = basis.M
    flat = values.reshape((2 * M,) + values.shape[2:])
    mean = flat.mean(axis=0)
    deviation = flat - mean
    deviation -= deviation.mean(axis=0)
    Z = _half_cosine_matrix(basis).T @ deviation.reshape(2, M, -1)
    coeffs = (basis.L / (2 * M)) * (Z[1] + _mirror_sign(M)[:, None] * Z[0])
    coeffs[0] = np.sqrt(basis.L) * mean
    return coeffs.reshape(values.shape[1:])


def gradient_values(f: ScalarField, P: int | None = None) -> np.ndarray:
    """Values of f' on a P-point midpoint grid via sine-series differentiation.

    d/dx e_k = -sqrt(2/L) (k pi / L) sin(k pi x / L); the k = 0 column is zero.
    """
    basis = f.basis
    if P is None:
        P = basis.M
    k = np.arange(basis.M)
    sine_coeffs = -f.coeffs * np.sqrt(2.0 / basis.L) * (k * np.pi / basis.L)
    return _sine_matrix(basis, P) @ sine_coeffs
