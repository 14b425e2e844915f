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
eigenvalue.  Every eigenpair is obtained in closed form per block; the number
N of eigenvalues <= 0 is finite and the feedback will act only through them.

The spatially varying part g(x) of F''(phi_inf) is excluded from the operator
(it is handled with the nonlinear remainder), which is what keeps the blocks
exactly decoupled.
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

    def apply_operator(self, x: np.ndarray) -> np.ndarray:
        """Apply the block-diagonal operator to stacked modal coordinates."""
        M = self.M
        y, z = x[:M], x[M:]
        blocks = self.A_blocks
        return np.concatenate(
            [
                blocks[:, 0, 0] * y + blocks[:, 0, 1] * z,
                blocks[:, 1, 0] * y + blocks[:, 1, 1] * z,
            ]
        )

    @property
    def lambda_gap(self) -> float:
        """First stable eigenvalue lambda_{N+1}."""
        return float(self.eigenvalues[self.N_unstable])

    def state_weight_diagonal(self) -> np.ndarray:
        """Diagonal of the cost weight: mu_k^3 on y slots, mu_k^{3/2} on z slots."""
        mu = self.basis.mu
        return np.concatenate([mu**3, mu**1.5])


def mean_F_second(phi_inf: ScalarField) -> float:
    """Domain average of F''(phi_inf) = 3 phi_inf^2 - 1, i.e. (3/L) int phi^2 - 1."""
    sq = pointwise_product([phi_inf, phi_inf])
    integral = sq.coeffs[0] * np.sqrt(phi_inf.basis.L)
    return float(3.0 * integral / phi_inf.basis.L - 1.0)


def g_field(phi_inf: ScalarField) -> ScalarField:
    """Mean-free part of F''(phi_inf): g = 3 phi_inf^2 - (3/L) int phi_inf^2."""
    sq = pointwise_product([phi_inf, phi_inf])
    coeffs = 3.0 * sq.coeffs
    coeffs[0] = 0.0  # subtracting the mean zeroes the k=0 coefficient exactly
    return ScalarField(phi_inf.basis, coeffs)


def _eig_2x2_symmetric(a: float, b: float, c: float):
    """Closed-form eigendecomposition of [[a, b], [b, c]].

    Returns (lam_minus, lam_plus, v_minus, v_plus) with orthonormal vectors.
    The formulas avoid cancellation by building the rotation from atan2.
    """
    if b == 0.0:
        if a <= c:
            return a, c, np.array([1.0, 0.0]), np.array([0.0, 1.0])
        return c, a, np.array([0.0, 1.0]), np.array([1.0, 0.0])
    half_tr = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    # the root of larger magnitude is cancellation-free; recover the other
    # from the determinant (roots of lam^2 - 2 half_tr lam + det)
    lam_big = half_tr + rad if half_tr >= 0 else half_tr - rad
    lam_other = (a * c - b * b) / lam_big
    lam_minus, lam_plus = min(lam_big, lam_other), max(lam_big, lam_other)
    theta = 0.5 * np.arctan2(2.0 * b, a - c)
    ct, st = np.cos(theta), np.sin(theta)
    v_plus = np.array([ct, st])  # eigenvector of lam_plus
    v_minus = np.array([-st, ct])
    return lam_minus, lam_plus, v_minus, v_plus


def assemble_plant(
    params: PhysicalParams, state: StationaryState, basis: SpectralBasis | None = None
) -> LinearizedPlant:
    """Build the modal blocks and the globally sorted eigendecomposition."""
    if basis is None:
        basis = state.basis
    phi_inf = state.phi_inf
    if phi_inf.basis.M != basis.M or phi_inf.basis.L != basis.L:
        raise ValueError("stationary state and basis disagree")

    F_bar = mean_F_second(phi_inf)
    F_l = F_bar + params.l
    g = g_field(phi_inf)

    M = basis.M
    kap = basis.kappa
    blocks = np.zeros((M, 2, 2))
    blocks[:, 0, 0] = params.nu * kap**2 + F_l * kap
    blocks[:, 0, 1] = -params.gamma * kap
    blocks[:, 1, 0] = -params.gamma * kap
    blocks[:, 1, 1] = kap

    eigenvalues = np.empty(2 * M)
    vectors = np.zeros((2 * M, 2 * M))

    order = []  # (lambda, k, branch) for the deterministic global sort
    per_block = []
    for k in range(M):
        lam_m, lam_p, v_m, v_p = _eig_2x2_symmetric(
            blocks[k, 0, 0], blocks[k, 0, 1], blocks[k, 1, 1]
        )
        per_block.append(((lam_m, v_m), (lam_p, v_p)))
        order.append((lam_m, k, 0))
        order.append((lam_p, k, 1))
    order.sort()

    for i, (lam, k, branch) in enumerate(order):
        eigenvalues[i] = lam
        vec = per_block[k][branch][1]
        # deterministic sign: dominant component positive, y component first
        if abs(vec[0]) >= abs(vec[1]):
            if vec[0] < 0:
                vec = -vec
        elif vec[1] < 0:
            vec = -vec
        vectors[k, i] = vec[0]
        vectors[M + k, i] = vec[1]

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
