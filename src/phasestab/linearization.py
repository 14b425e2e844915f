"""Linearization around a stationary state: block operator and spectrum.

Working in the transformed variables (y, z) the linear part of the dynamics
is d/dt (y, z) + Op (y, z) = forcing, where the self-adjoint operator

    Op = [[ nu Lap^2 - F_l Lap ,  gamma Lap ],
          [ gamma Lap          ,  -Lap      ]]

is exactly block-diagonal over cosine modes.  On mode k (Laplacian
eigenvalue -kappa_k) the 2x2 block is

    [[ nu kappa^2 + F_l kappa ,  -gamma kappa ],
     [ -gamma kappa           ,   kappa       ]]

with F_l = mean of F''(phi_inf) + l.  The k = 0 block is identically zero:
those are the conserved mean modes and always contribute a double zero
eigenvalue, on the axes with the y mode first.  Every other eigenpair is
obtained in closed form, vectorized over the blocks, and one sort on
(lambda, k, branch) orders them all; the number N of eigenvalues <= 0 is
finite and the feedback will act only through them.

The spatially varying part g(x) of F''(phi_inf) is excluded from the operator
(it is handled with the nonlinear remainder), which is what keeps the blocks
exactly decoupled.  F_l and g come from one dealiased square of phi_inf.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectral import ScalarField, SpectralBasis, pointwise_product
from .stationary import StationaryState

__all__ = [
    "PhysicalParams",
    "LinearizedPlant",
    "mean_F_second",
    "g_field",
    "assemble_plant",
]

ZERO_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants (nu, l0, gamma0) and the derived (alpha0, gamma, l).

    alpha0 = sqrt(gamma0 / l0) is chosen so that gamma0 / alpha0 = alpha0 * l0,
    the common value being gamma; l = gamma0 * l0 (= gamma^2).
    """

    nu: float = 0.1
    l0: float = 1.0
    gamma0: float = 1.0
    alpha0: float = field(init=False)
    gamma: float = field(init=False)
    l: float = field(init=False)

    def __post_init__(self):
        if self.nu <= 0 or self.l0 <= 0 or self.gamma0 <= 0:
            raise ValueError("nu, l0, gamma0 must all be strictly positive")
        alpha0 = np.sqrt(self.gamma0 / self.l0)
        object.__setattr__(self, "alpha0", float(alpha0))
        object.__setattr__(self, "gamma", float(alpha0 * self.l0))
        object.__setattr__(self, "l", float(self.gamma0 * self.l0))


@dataclass
class LinearizedPlant:
    """Assembled modal operator with its full eigendecomposition.

    eigenvectors[:, i] holds the i-th eigenpair in stacked modal coordinates
    (y coefficients in rows 0..M-1, z coefficients in rows M..2M-1);
    eigenvalues are ascending.
    """

    params: PhysicalParams
    basis: SpectralBasis
    F_bar: float
    F_l: float
    g: ScalarField
    A_blocks: np.ndarray  # (M, 2, 2)
    eigenvalues: np.ndarray  # (2M,) ascending
    eigenvectors: np.ndarray  # (2M, 2M) orthonormal columns
    N_unstable: int
    phi_inf: ScalarField

    @property
    def M(self) -> int:
        return self.basis.M

    @property
    def dim(self) -> int:
        return 2 * self.basis.M

    def operator_matrix(self) -> np.ndarray:
        """Dense 2M x 2M matrix of the operator in stacked modal coordinates."""
        M = self.M
        out = np.zeros((2 * M, 2 * M))
        blocks = self.A_blocks
        out[np.arange(M), np.arange(M)] = blocks[:, 0, 0]
        out[np.arange(M), M + np.arange(M)] = blocks[:, 0, 1]
        out[M + np.arange(M), np.arange(M)] = blocks[:, 1, 0]
        out[M + np.arange(M), M + np.arange(M)] = blocks[:, 1, 1]
        return out

    @property
    def lambda_gap(self) -> float:
        """First stable eigenvalue lambda_{N+1}."""
        return float(self.eigenvalues[self.N_unstable])

    def state_weight_diagonal(self) -> np.ndarray:
        """Diagonal of the cost weight: mu_k^3 on y slots, mu_k^{3/2} on z slots."""
        mu = self.basis.mu
        return np.concatenate([mu**3, mu**1.5])


def _F_second_parts(phi_inf: ScalarField) -> tuple[float, ScalarField]:
    """(mean_F_second, g_field) of phi_inf from one dealiased square."""
    sq = pointwise_product([phi_inf, phi_inf]).coeffs
    L = phi_inf.basis.L
    F_bar = float(3.0 * (sq[0] * np.sqrt(L)) / L - 1.0)
    g = 3.0 * sq
    g[0] = 0.0  # subtracting the mean zeroes the k=0 coefficient exactly
    return F_bar, ScalarField(phi_inf.basis, g)


def mean_F_second(phi_inf: ScalarField) -> float:
    """Domain average of F''(phi_inf) = 3 phi_inf^2 - 1, i.e. (3/L) int phi^2 - 1."""
    return _F_second_parts(phi_inf)[0]


def g_field(phi_inf: ScalarField) -> ScalarField:
    """Mean-free part of F''(phi_inf): g = 3 phi_inf^2 - (3/L) int phi_inf^2."""
    return _F_second_parts(phi_inf)[1]


def assemble_plant(params: PhysicalParams, state: StationaryState) -> LinearizedPlant:
    """Build the modal blocks and the globally sorted eigendecomposition."""
    basis = state.basis
    phi_inf = state.phi_inf
    F_bar, g = _F_second_parts(phi_inf)
    F_l = F_bar + params.l

    M = basis.M
    kap = basis.kappa
    blocks = np.zeros((M, 2, 2))
    blocks[:, 0, 0] = params.nu * kap**2 + F_l * kap
    blocks[:, 0, 1] = -params.gamma * kap
    blocks[:, 1, 0] = -params.gamma * kap
    blocks[:, 1, 1] = kap

    # closed-form eigenpairs of all blocks k >= 1, [[a, b], [b, c]] with
    # b = -gamma kappa_k != 0: the root of larger magnitude is cancellation-
    # free, the other comes from the determinant, the rotation from atan2
    a, b, c = blocks[1:, 0, 0], blocks[1:, 0, 1], blocks[1:, 1, 1]
    half_tr = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    big = np.where(half_tr >= 0, half_tr + rad, half_tr - rad)
    other = (a * c - b * b) / big
    theta = 0.5 * np.arctan2(2.0 * b, a - c)
    ct, st = np.cos(theta), np.sin(theta)
    # entry branch * M + k is root `branch` (0 the smaller) of block k with
    # eigenvector (vy, vz); the zero k = 0 block keeps the axes, y first
    lam = np.concatenate([[0.0], np.minimum(big, other), [0.0], np.maximum(big, other)])
    vy = np.concatenate([[1.0], -st, [0.0], ct])
    vz = np.concatenate([[0.0], ct, [1.0], st])
    branch, k = np.divmod(np.arange(2 * M), M)
    order = np.lexsort((branch, k, lam))  # by lambda, then k, then branch
    eigenvalues, k, vy, vz = lam[order], k[order], vy[order], vz[order]
    # deterministic sign: dominant component positive, y component first
    flip = np.where(np.abs(vy) >= np.abs(vz), vy < 0, vz < 0)
    vectors = np.zeros((2 * M, 2 * M))
    vectors[k, np.arange(2 * M)] = np.where(flip, -vy, vy)
    vectors[M + k, np.arange(2 * M)] = np.where(flip, -vz, vz)

    N_unstable = int(np.sum(eigenvalues <= ZERO_EIGENVALUE_TOL))

    near_zero = np.abs(eigenvalues) <= ZERO_EIGENVALUE_TOL
    if near_zero.sum() != 2:
        warnings.warn(
            f"expected exactly the two conserved-mean zeros within "
            f"{ZERO_EIGENVALUE_TOL:.0e} of 0, found {int(near_zero.sum())}; "
            "the unstable/stable split may be ill-conditioned",
            stacklevel=2,
        )

    return LinearizedPlant(
        params=params,
        basis=basis,
        F_bar=F_bar,
        F_l=F_l,
        g=g,
        A_blocks=blocks,
        eigenvalues=eigenvalues,
        eigenvectors=vectors,
        N_unstable=N_unstable,
        phi_inf=phi_inf,
    )
