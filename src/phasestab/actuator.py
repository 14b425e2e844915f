"""Localized actuation through the unstable modes.

The control enters both equations through a fixed smooth bump w = 1*_omega
supported in an interval omega = (a, b):

    w(x) = exp(-1 / (1 - s^2)),   s = (2x - a - b) / (b - a)   on (a, b),

and zero elsewhere (so w(midpoint) = 1/e and w > 0 on the middle half
omega_0).  Given the N unstable eigenpairs (phi_i, psi_i) of the plant, the
input map and its adjoint are

    B W    = ( sum_i w phi_i W_i ,  sum_i w psi_i W_i ),
    (B* q)_i = int w (phi_i q_1 + psi_i q_2) dx,

and the modal coupling matrix is the weighted Gram matrix

    d_ij = int w (phi_i phi_j + psi_i psi_j) dx,

which is exactly the input matrix of the unstable modal ODEs
xi_i' + lambda_i xi_i = sum_j d_ij W_j.  Its smallest eigenvalue certifies
controllability; the minimum-energy open-loop control that nulls xi(T0) is
built from the finite-horizon Gramian of that small ODE system.

The input map has one representation, the modal matrix ``B_matrix``: its
columns are the transforms of the node values w phi_i and w psi_i, formed
with the exact node values of w, so B W vanishes at every node outside
omega and B* is ``B_matrix.T``.  D is the unstable block
``modes.T @ B_matrix`` of that one map; the midpoint rule is exact on the
retained modes, so it is the Gram matrix above, symmetric to rounding.

The null control's steering error is the quadrature residual of the
variation-of-constants formula on the plan's own Gauss nodes, which does not
go through the Gramian.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import ActuatorConfig, NumericalError
from .linearization import LinearizedPlant
from .spectral import ScalarField, SpectralBasis, _coeffs_from_grid, _cosine_matrix

__all__ = [
    "Actuator",
    "KalmanCertificate",
    "NullControlPlan",
    "bump_weight",
    "build_actuator",
    "kalman_certificate",
    "null_control",
]

GRAMIAN_CONDITION_LIMIT = 1e12
# Gauss-Legendre nodes of the null control's steering residual and energy
NULL_CONTROL_NODES = 512


def bump_weight(omega: tuple[float, float], basis: SpectralBasis) -> ScalarField:
    """Smooth bump supported in omega, evaluated exactly at the nodes."""
    a, b = omega
    if not (0.0 < a < b < basis.L):
        raise ValueError(f"control interval {omega} must satisfy 0 < a < b < L={basis.L}")
    x = basis.nodes
    values = np.zeros_like(x)
    s = (2.0 * x - a - b) / (b - a)
    inside = np.abs(s) < 1.0
    values[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return ScalarField.from_values(basis, values)


@dataclass
class Actuator:
    """Bump weight, unstable eigenpairs and the realized B / B* / D matrices."""

    weight: ScalarField  # on omega; its basis is the plant's
    lambdas: np.ndarray  # (N,) unstable eigenvalues, ascending
    modes: np.ndarray  # (2M, N) unstable eigenvectors, modal coordinates
    D_matrix: np.ndarray  # (N, N) = modes.T @ B_matrix
    B_matrix: np.ndarray  # (2M, N)

    @property
    def N(self) -> int:
        return len(self.lambdas)


def build_actuator(
    plant: LinearizedPlant, omega: tuple[float, float] = (ActuatorConfig.a, ActuatorConfig.b)
) -> Actuator:
    """Assemble the actuator for the plant's unstable subspace."""
    basis = plant.basis
    M = basis.M
    weight = bump_weight(omega, basis)
    w = weight.values

    N = plant.N_unstable
    modes = plant.from_eigenbasis(np.eye(2 * M, N))  # the first N columns of V
    lambdas = plant.eigenvalues[:N].copy()

    # the y and z components phi_i, psi_i of the eigenpairs at the nodes,
    # weighted by w and transformed back
    to_values = _cosine_matrix(basis, M)
    B = np.concatenate(
        [_coeffs_from_grid(basis, w[:, None] * (to_values @ m)) for m in (modes[:M], modes[M:])]
    )

    return Actuator(weight=weight, lambdas=lambdas, modes=modes, D_matrix=modes.T @ B, B_matrix=B)


@dataclass(frozen=True)
class KalmanCertificate:
    det: float
    lambda_min: float
    lambda_max: float
    n_omega: int  # grid nodes with w > 0
    ok: bool


def kalman_certificate(act: Actuator) -> KalmanCertificate:
    """Controllability check on the coupling matrix D.

    Uses the smallest eigenvalue of the Gram matrix D (symmetric positive
    semidefinite up to rounding; ``eigvalsh`` reads its lower triangle)
    rather than the bare determinant, which is fragile under scaling and
    repeated plant eigenvalues.  D is a sum over the grid nodes with w > 0,
    each adding a term of rank at most 2, so fewer of them than unstable
    modes is the usual reason the check fails.
    """
    eigs = np.linalg.eigvalsh(act.D_matrix)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    return KalmanCertificate(
        det=float(np.linalg.det(act.D_matrix)),
        lambda_min=lam_min,
        lambda_max=lam_max,
        n_omega=int(np.count_nonzero(act.weight.values > 0.0)),
        ok=lam_min > 1e-12 * lam_max,
    )


@dataclass
class NullControlPlan:
    """Minimum-energy open-loop control steering the unstable modes to zero.

    With Lambda = diag(lambda_1..N) and the Gramian
    G = int_0^T0 exp(-Lambda s) D D^T exp(-Lambda s) ds (entrywise closed
    form since Lambda is diagonal), the control is

        W(t) = D^T exp(-Lambda (T0 - t)) G^{-1} (-exp(-Lambda T0) xi0).

    The plan keeps the samples on its Gauss nodes and eta; Lambda and D stay
    with the actuator it was built from.
    """

    T0: float
    t_nodes: np.ndarray  # Gauss-Legendre nodes on [0, T0]
    W_samples: np.ndarray  # (NULL_CONTROL_NODES, N)
    energy: float
    eta: np.ndarray = field(repr=False)  # G^{-1}(-e^{-Lambda T0} xi0)
    gramian_cond: float
    steering_error: float
    certificate: KalmanCertificate  # the controllability check the plan passed


def _gramian_closed_form(lambdas: np.ndarray, D: np.ndarray, T0: float) -> np.ndarray:
    """G_ij = (D D^T)_ij * int_0^T0 exp(-(lambda_i + lambda_j) s) ds."""
    DDt = D @ D.T
    s = lambdas[:, None] + lambdas[None, :]
    safe = np.where(s == 0.0, 1.0, s)
    with np.errstate(over="ignore"):  # an infinite entry is null_control's to report
        factor = np.where(s == 0.0, T0, -np.expm1(-s * T0) / safe)
    return DDt * factor


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)), n >= 1, by (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, p_prev


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], ascending, cached per n_nodes and read-only.

    Newton's method on P_n runs on the positive roots at once, from Tricomi's
    estimates x_k = (1 - (n - 1) / (8 n^3)) cos(pi (4k - 1) / (4n + 2)),
    with P_n and P_n' = n (x P_n - P_{n-1}) / (x^2 - 1) from the three-term
    recurrence; the negative roots mirror them, and an odd n adds 0.  The
    weights are 2 / ((1 - x^2) P_n'(x)^2) at the converged nodes.  Each
    iteration is O(n) vector operations on n / 2 roots, where NumPy's
    ``leggauss`` solves an n x n companion eigenproblem; its nodes agree
    with these to a few ulp, and its weights are less accurate.
    """
    n, m = n_nodes, n_nodes // 2
    k = np.arange(1, m + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(50):  # three or four steps from these estimates
        p, p_prev = _legendre_pair(n, x)
        dx = p / (n * (x * p - p_prev) / (x * x - 1.0))
        x = x - dx
        # convergence is quadratic, so after a step below 1e-14 the nodes
        # sit at rounding level
        if not np.max(np.abs(dx), initial=0.0) > 1e-14:
            break
    if n % 2:
        x = np.append(x, 0.0)
    p, p_prev = _legendre_pair(n, x)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes, weights = np.concatenate([-x[:m], x[::-1]]), np.concatenate([w[:m], w[::-1]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def null_control(
    act: Actuator,
    xi0: np.ndarray,
    T0: float = ActuatorConfig.T0,
) -> NullControlPlan:
    """Construct the minimum-energy null control on [0, T0] and its steering residual."""
    if T0 <= 0:
        raise ValueError(f"horizon must be positive, got {T0}")
    cert = kalman_certificate(act)
    if not cert.ok:
        message = f"coupling matrix is numerically singular (lambda_min={cert.lambda_min:.3e})"
        if cert.n_omega < act.N:
            # necessary is only 2 n_omega >= N, and n_omega >= N does not
            # always suffice, so this names the likely cause, not a sure fix
            message += (
                f"; only {cert.n_omega} grid nodes lie inside omega for {act.N} unstable"
                " modes, the likely cause: a larger basis.M puts more nodes there"
            )
        raise NumericalError(message)
    xi0 = np.asarray(xi0, dtype=float)
    if xi0.shape != (act.N,):
        raise ValueError(f"expected {act.N} unstable coordinates, got {xi0.shape}")

    lambdas, D = act.lambdas, act.D_matrix
    G = _gramian_closed_form(lambdas, D, T0)
    # checked before cond: LAPACK prints to stderr on a non-finite matrix
    if not np.isfinite(G).all():
        raise NumericalError(f"steering Gramian is not finite at T0 = {T0:.3e}")
    cond = float(np.linalg.cond(G))
    if cond > GRAMIAN_CONDITION_LIMIT:
        raise NumericalError(
            f"steering Gramian condition {cond:.3e} exceeds {GRAMIAN_CONDITION_LIMIT:.0e}"
        )
    eta = np.linalg.solve(G, -np.exp(-lambdas * T0) * xi0)

    nodes, weights = _gauss_legendre(NULL_CONTROL_NODES)
    t_nodes = 0.5 * T0 * (nodes + 1.0)
    t_weights = 0.5 * T0 * weights

    # W(t_q) = D^T e^{-Lambda (T0 - t_q)} eta, the plan's formula, on all nodes
    # at once
    decay = np.exp(-lambdas[:, None] * (T0 - t_nodes[None, :]))
    W_samples = (D.T @ (decay * eta[:, None])).T

    # xi(T0) = e^{-Lambda T0} xi0 + int_0^T0 e^{-Lambda (T0 - t)} D W(t) dt on the
    # Gauss nodes; the integrand is a sum of exponentials, so the rule is exact
    xi_T = np.exp(-lambdas * T0) * xi0 + (decay * (D @ W_samples.T)) @ t_weights
    return NullControlPlan(
        T0=T0,
        t_nodes=t_nodes,
        W_samples=W_samples,
        energy=float(np.sum(t_weights * np.sum(W_samples**2, axis=1))),
        eta=eta,
        gramian_cond=cond,
        steering_error=float(np.linalg.norm(xi_T)),
        certificate=cert,
    )
