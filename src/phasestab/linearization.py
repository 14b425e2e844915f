"""Linearization around a stationary state: block operator and spectrum.

Working in the transformed variables (y, z) the linear part of the dynamics
is d/dt (y, z) + Op (y, z) = forcing, where the self-adjoint operator

    Op = [[ nu Lap^2 - F_l Lap ,  gamma Lap ],
          [ gamma Lap          ,  -Lap      ]]

is block-diagonal over cosine modes.  On mode k (Laplacian eigenvalue
-kappa_k) the 2x2 block is

    [[ nu kappa^2 + F_l kappa ,  -gamma kappa ],
     [ -gamma kappa           ,   kappa       ]]

with F_l = mean of F''(phi_inf) + l.  The k = 0 block is identically zero:
those are the conserved mean modes and always contribute a double zero
eigenvalue, on the axes with the y mode first.  Every other eigenpair is
obtained in closed form, vectorized over the blocks, and one sort on
(lambda, k, branch) orders them all; the number N of eigenvalues <= 0 is
finite and the feedback will act only through them.  An eigenvector lives
on one mode's two rows, so the 2M x 2M eigenvector matrix is kept
compactly, as each mode's two eigen indices ``eig_pos`` and its 2x2
rotation ``eig_rot``, through which ``to_eigenbasis`` and
``from_eigenbasis`` apply V^T and V; the operator is applied through its
blocks, and the plant holds no 2M x 2M array.

The spatially varying part g(x) of F''(phi_inf) is excluded from the operator
(it is handled with the nonlinear remainder), which is what keeps the blocks
decoupled.  So Op is the whole linearization only on a constant state, where
g = 0; on a nonconstant state the linear term Lap(g y) sits in the remainder,
which is then not superlinear.  F_l and g come from one dealiased square of
phi_inf, and the plant keeps the remainder's two coefficient functions,
3 phi_inf and g, as their folded values on the P = 2M dealiasing grid
(``spectral._folded_values``), which the time stepper, ``g_max`` and the
Riccati synthesis's true-loop check read as they are.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectral import ScalarField, SpectralBasis, _folded_coeffs, _folded_values
from .stationary import StationaryState

__all__ = [
    "PhysicalParams",
    "LinearizedPlant",
    "F_second_parts",
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
    """Assembled modal operator with its full eigendecomposition, held compactly.

    The orthonormal eigenvector matrix V has the i-th eigenpair in column i,
    in stacked modal coordinates (y coefficients in rows 0..M-1, z
    coefficients in rows M..2M-1); eigenvalues are ascending.  Rows k and
    M + k belong to cosine mode k and are nonzero only in the columns of
    that mode's two eigenpairs, so V is kept per mode: eig_pos[k, b] is the
    eigen index of mode k's branch b (a permutation of range(2M)), and
    V[c M + k, eig_pos[k, b]] = eig_rot[c, k, b], every other entry zero.
    No field holds (2M)^2 entries; ``to_eigenbasis`` and ``from_eigenbasis``
    apply V through the two.  ``remainder_grid`` holds 3 phi_inf and g, the
    coefficient functions of the remainder
    F_r(y) + g y = y^3 + 3 phi_inf y^2 + g y, on the P = 2M dealiasing grid,
    each folded to [bottom half reversed; top half]
    (``spectral._folded_values``): remainder_grid[0] and [1] are C-contiguous
    (2, M) arrays, the layout the time stepper multiplies by.
    """

    params: PhysicalParams
    basis: SpectralBasis
    F_bar: float
    F_l: float
    remainder_grid: np.ndarray  # (2, 2, M) [3 phi_inf; g], folded on the dealiasing grid
    A_blocks: np.ndarray  # (M, 2, 2)
    eigenvalues: np.ndarray  # (2M,) ascending
    eig_pos: np.ndarray  # (M, 2) eigen index of each mode's two branches
    eig_rot: np.ndarray  # (2, M, 2) each mode's 2x2 rotation, component first
    N_unstable: int

    @property
    def M(self) -> int:
        return self.basis.M

    @property
    def g_max(self) -> float:
        """Largest |g| on the dealiasing grid: 0 when Op is the whole linearization."""
        return float(np.max(np.abs(self.remainder_grid[1])))

    def apply_operator(self, X: np.ndarray) -> np.ndarray:
        """X Op^T: the operator applied to each row of X (stacked modal coordinates).

        Four multiplies on the (rows, M) halves, one per block entry.
        """
        M, blocks = self.M, self.A_blocks
        y, z = X[:, :M], X[:, M:]
        return np.concatenate(
            [blocks[:, 0, 0] * y + blocks[:, 0, 1] * z, blocks[:, 1, 0] * y + blocks[:, 1, 1] * z],
            axis=1,
        )

    def to_eigenbasis(self, X: np.ndarray) -> np.ndarray:
        """V^T X for X of 2M rows in stacked modal coordinates."""
        pos, rot = self.eig_pos, self.eig_rot
        x = X.reshape(2, self.M, 1, -1)
        out = np.empty((2 * self.M, x.shape[-1]))
        out[pos] = rot[0, :, :, None] * x[0] + rot[1, :, :, None] * x[1]
        return out.reshape(X.shape)

    def from_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V x for x of 2M rows in eigen coordinates."""
        pos, rot = self.eig_pos, self.eig_rot
        xb = x.reshape(2 * self.M, -1)[pos]  # (M, 2, columns): mode k's branch b
        out = rot[:, :, 0, None] * xb[:, 0] + rot[:, :, 1, None] * xb[:, 1]
        return out.reshape(x.shape)

    def operator_matrix(self) -> np.ndarray:
        """Dense 2M x 2M matrix of the operator in stacked modal coordinates."""
        return self.apply_operator(np.eye(2 * self.M)).T

    @property
    def lambda_gap(self) -> float:
        """First stable eigenvalue lambda_{N+1}."""
        return float(self.eigenvalues[self.N_unstable])

    def state_weight_diagonal(self) -> np.ndarray:
        """Diagonal of the cost weight: mu_k^3 on y slots, mu_k^{3/2} on z slots."""
        mu = self.basis.mu
        return np.concatenate([mu**3, mu**1.5])


def F_second_parts(phi_inf: ScalarField) -> tuple[float, ScalarField]:
    """(F_bar, g): the mean of F''(phi_inf) = 3 phi_inf^2 - 1 and its mean-free part.

    Both come from one dealiased square of phi_inf: the analysis of v^2 for
    its one synthesis v on the P = 2M grid, held folded.
    """
    basis = phi_inf.basis
    v = _folded_values(basis, phi_inf.coeffs)
    sq = _folded_coeffs(basis, v * v)
    L = basis.L
    F_bar = float(3.0 * (sq[0] * np.sqrt(L)) / L - 1.0)
    g = 3.0 * sq
    g[0] = 0.0  # subtracting the mean zeroes the k=0 coefficient exactly
    return F_bar, ScalarField(basis, g)


def assemble_plant(params: PhysicalParams, state: StationaryState) -> LinearizedPlant:
    """Build the modal blocks and the globally sorted eigendecomposition."""
    basis = state.basis
    phi_inf = state.phi_inf
    F_bar, g = F_second_parts(phi_inf)
    F_l = F_bar + params.l

    M = basis.M
    remainder_grid = np.stack([_folded_values(basis, c) for c in (3.0 * phi_inf.coeffs, g.coeffs)])
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
    # argsort inverts the sort: mode k's pair lands at argsort(order)[[k, M + k]]
    eig_pos = np.argsort(order).reshape(2, M).T.copy()
    eigenvalues = lam[order]
    # deterministic sign: dominant component positive; eig_rot[c, k, b] is
    # component c (y first) of mode k's branch b
    flip = np.where(np.abs(vy) >= np.abs(vz), vy < 0, vz < 0)
    signed = np.where(flip, -np.stack([vy, vz]), np.stack([vy, vz]))
    eig_rot = np.ascontiguousarray(signed.reshape(2, 2, M).transpose(0, 2, 1))

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
        remainder_grid=remainder_grid,
        A_blocks=blocks,
        eigenvalues=eigenvalues,
        eig_pos=eig_pos,
        eig_rot=eig_rot,
        N_unstable=N_unstable,
    )
