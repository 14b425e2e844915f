"""Cosine-spectral discretization of the interval (0, L) with Neumann boundaries.

The discretization uses the orthonormal cosine basis

    e_0(x) = sqrt(1/L),   e_k(x) = sqrt(2/L) cos(k pi x / L),  k = 1..M-1,

sampled at the M midpoint collocation nodes x_j = (j + 1/2) L / M.  On this
basis every operator we need is diagonal:

    -Laplacian           ->  kappa_k = (k pi / L)^2
    A = -Laplacian + I   ->  mu_k    = 1 + kappa_k
    A^alpha              ->  mu_k^alpha   (any real alpha, since mu_k >= 1)

There is one transform between coefficients and grid values: the cached
P x M matrix C of the basis functions at the P midpoint nodes
(``_cosine_matrix``).  Synthesis is C c; analysis is (L/P) C^T v, the
midpoint rule, which is exact for the retained modes, so round trips at
P = M are exact to round-off and the discrete Parseval identity
sum_k c_k^2 = (L/M) sum_j f_j^2 holds.  Analysis first projects out the grid
mean and sets c_0 from it: the k >= 1 columns sum to zero on the midpoint
grid, and without the projection their round-off would give a constant field
spurious higher coefficients of order 1e-16, which the Laplacian then
amplifies by kappa_k.

Pointwise (nonlinear) products are evaluated on a zero-padded grid of
P = 2M points, and every caller writes that grid as 2M.  It must be 2M for
two reasons.  The 3/2 rule keeps only quadratic products alias-free; 2M
does the same for cubic products of band-limited fields in the retained M
modes.  And the time stepper folds the grid onto its mirror half
(``sim._Stepper``), whose M rows are exactly the top half of the 2M-point
grid.  Each caller synthesizes its field once there and analyses the
product of the values: ``linearization.F_second_parts`` the square, and
``stationary._euler_lagrange`` the cube, from the one synthesis per
iterate that also gives Upsilon and the Euler-Lagrange residual.
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


def _midpoint_angles(basis: SpectralBasis, P: int) -> np.ndarray:
    """P x M angles k pi x_j / L on the P-point midpoint grid, reduced to [0, 2 pi).

    k pi x_j / L = pi k (2j + 1) / (2P); reducing k (2j + 1) modulo 4P in
    integers keeps every angle accurate to round-off.
    """
    turns = np.outer(2 * np.arange(P) + 1, np.arange(basis.M)) % (4 * P)
    return turns * (np.pi / (2 * P))


@functools.lru_cache(maxsize=16)
def _sine_matrix(basis: SpectralBasis, P: int) -> np.ndarray:
    """P x M matrix  sin(k pi x_j / L)  on the P-point midpoint grid (cached, read-only)."""
    mat = np.sin(_midpoint_angles(basis, P))
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=16)
def _cosine_matrix(basis: SpectralBasis, P: int) -> np.ndarray:
    """P x M matrix  e_k(x_j)  on the P-point midpoint grid (cached, read-only).

    ``C @ c`` gives values on the grid and ``(L/P) C.T @ v`` the coefficients
    of grid values.  The midpoint grid is mirror-symmetric,
    C[P-1-j] = (-1)^k C[j], so the top half C[:P/2] carries the whole matrix
    when P is even: the time stepper's two products per step read only that
    half (``sim._remainder_analysis``).  The cache holds all P M doubles
    (1 MiB at M = 256, P = 2M), which ``linearization``, ``_values_on_grid``
    and ``_coeffs_from_grid`` read.
    """
    mat = np.sqrt(2.0 / basis.L) * np.cos(_midpoint_angles(basis, P))
    mat[:, 0] = np.sqrt(1.0 / basis.L)
    mat.flags.writeable = False
    return mat


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
