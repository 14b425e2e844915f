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

Pointwise (nonlinear) products are evaluated on a zero-padded grid of 2M
points.  This exceeds the 3/2-rule padding and makes quadratic *and* cubic
products of band-limited fields alias-free in the retained M modes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralBasis",
    "ScalarField",
    "transform_forward",
    "transform_inverse",
    "apply_A_power",
    "norm_D_alpha",
    "laplacian",
    "pointwise_product",
    "gradient_values",
    "gradient_squared",
]

# Padding multiplier for dealiased products; 2M >= ceil(3M/2) and is exact for
# cubic terms, which the 3/2 rule alone is not.
PAD_FACTOR = 2


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

    def basis_function(self, k: int, x: np.ndarray) -> np.ndarray:
        """Evaluate e_k at arbitrary points x."""
        x = np.asarray(x, dtype=float)
        if k == 0:
            return np.full_like(x, np.sqrt(1.0 / self.L))
        return np.sqrt(2.0 / self.L) * np.cos(k * np.pi * x / self.L)

    @property
    def quad_weight(self) -> float:
        """Midpoint quadrature weight L/M for the collocation nodes."""
        return self.L / self.M


def transform_forward(basis: SpectralBasis, values: np.ndarray) -> np.ndarray:
    """Collocation values -> coefficients of the orthonormal cosine basis."""
    values = np.asarray(values, dtype=float)
    if values.shape != (basis.M,):
        raise ValueError(
            f"expected {basis.M} collocation values, got shape {values.shape}"
        )
    return _coeffs_from_grid(basis, values)


def transform_inverse(basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients -> values at the M midpoint collocation nodes."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.M,):
        raise ValueError(f"expected {basis.M} coefficients, got shape {coeffs.shape}")
    return _values_on_grid(basis, coeffs, basis.M)


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
    def from_coeffs(cls, basis: SpectralBasis, coeffs) -> "ScalarField":
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (basis.M,):
            raise ValueError(f"expected {basis.M} coefficients, got {coeffs.shape}")
        return cls(basis, coeffs)

    @classmethod
    def from_values(cls, basis: SpectralBasis, values) -> "ScalarField":
        values = np.asarray(values, dtype=float)
        return cls(basis, transform_forward(basis, values), values.copy())

    @classmethod
    def zero(cls, basis: SpectralBasis) -> "ScalarField":
        return cls(basis, np.zeros(basis.M))

    @classmethod
    def constant(cls, basis: SpectralBasis, value: float) -> "ScalarField":
        coeffs = np.zeros(basis.M)
        coeffs[0] = value * np.sqrt(basis.L)
        return cls(basis, coeffs)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = transform_inverse(self.basis, self.coeffs)
        return self._values

    @property
    def mean(self) -> float:
        """Spatial mean (1/L) int f dx, carried exactly by the k=0 coefficient."""
        return float(self.coeffs[0]) / np.sqrt(self.basis.L)

    def norm_L2(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _check_same_basis(self, other)
        return ScalarField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _check_same_basis(self, other)
        return ScalarField(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.basis, self.coeffs * float(scalar))

    __rmul__ = __mul__


def _check_same_basis(*fields: ScalarField) -> SpectralBasis:
    basis = fields[0].basis
    for f in fields[1:]:
        if f.basis is not basis and (f.basis.L != basis.L or f.basis.M != basis.M):
            raise ValueError("fields live on different bases")
    return basis


def apply_A_power(f: ScalarField, alpha: float) -> ScalarField:
    """Apply A^alpha = (-Laplacian + I)^alpha, diagonal with weights mu_k^alpha."""
    return ScalarField(f.basis, f.coeffs * f.basis.mu**alpha)


def norm_D_alpha(f: ScalarField, alpha: float) -> float:
    """Graph norm ||A^alpha f||_{L^2} = sqrt(sum mu_k^{2 alpha} c_k^2)."""
    return _weighted_norm(f.basis.mu ** (2.0 * alpha), f.coeffs)


def _weighted_norm(weights: np.ndarray, coeffs: np.ndarray) -> float:
    """sqrt(sum w_k c_k^2) of raw coefficients; weights mu_k^{2 alpha} give norm_D_alpha.

    The decay norm, ``norm_D_alpha`` and the physical-variable norm all go
    through this one function, so they agree bit for bit on equal weights.
    """
    return math.sqrt(coeffs @ (weights * coeffs))


def laplacian(f: ScalarField) -> ScalarField:
    """Neumann Laplacian, diagonal with weights -kappa_k; annihilates the mean."""
    return ScalarField(f.basis, -f.basis.kappa * f.coeffs)


def pointwise_product(fs: list[ScalarField]) -> ScalarField:
    """Pointwise product of 2 or 3 fields, dealiased by zero padding.

    The factors are evaluated on a 2M-point grid (>= the ceil(3M/2) padding
    required by the 3/2 rule), multiplied pointwise and truncated back to M
    modes; products of band-limited factors are then exact projections.
    """
    if len(fs) not in (2, 3):
        raise ValueError(f"pointwise_product takes 2 or 3 fields, got {len(fs)}")
    basis = _check_same_basis(*fs)
    P = PAD_FACTOR * basis.M
    prod = np.ones(P)
    for f in fs:
        prod *= _values_on_grid(basis, f.coeffs, P)
    return ScalarField(basis, _coeffs_from_grid(basis, prod))


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
    of grid values; the time stepper applies it twice per step.  The matrix
    holds P M doubles (1 MiB at M = 256, P = 2M).
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


def gradient_squared(f: ScalarField) -> ScalarField:
    """|f'|^2 as a field: differentiate spectrally, square on the padded grid."""
    basis = f.basis
    P = PAD_FACTOR * basis.M
    grad = gradient_values(f, P)
    return ScalarField(basis, _coeffs_from_grid(basis, grad * grad))
