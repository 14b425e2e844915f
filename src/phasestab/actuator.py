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

All quadratures and products live on the M collocation nodes with the exact
node values of w, which makes B and B* exact discrete adjoints.  The nodal
form ``apply_B`` is identically zero at every node outside omega; the
closed-loop stepper applies the same map as the modal matrix ``B_matrix``,
whose columns are the transforms of those node values.  D is the unstable
block ``modes.T @ B_matrix`` of that one map; the midpoint rule is exact on
the retained modes, so it is the Gram matrix above, symmetric to rounding.

The null control's steering error is the quadrature residual of the
variation-of-constants formula on the plan's own Gauss nodes, which does not
go through the Gramian.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linearization import LinearizedPlant
from .spectral import ScalarField, SpectralBasis, _coeffs_from_grid, _values_on_grid

__all__ = [
    "Actuator",
    "KalmanCertificate",
    "NullControlPlan",
    "GramianConditionError",
    "bump_weight",
    "build_actuator",
    "apply_B",
    "apply_B_star",
    "kalman_certificate",
    "null_control",
]

GRAMIAN_CONDITION_LIMIT = 1e12
# Gauss-Legendre nodes of the null control's samples and steering residual
NULL_CONTROL_NODES = 512


class GramianConditionError(RuntimeError):
    """Steering Gramian too ill-conditioned to invert reliably."""


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

    omega: tuple[float, float]
    omega0: tuple[float, float]
    weight: ScalarField
    lambdas: np.ndarray  # (N,) unstable eigenvalues, ascending
    modes: np.ndarray  # (2M, N) unstable eigenvectors, modal coordinates
    phi_values: np.ndarray  # (M, N) y components at the nodes
    psi_values: np.ndarray  # (M, N) z components at the nodes
    D_matrix: np.ndarray  # (N, N) = modes.T @ B_matrix
    B_matrix: np.ndarray  # (2M, N)
    basis: SpectralBasis

    @property
    def N(self) -> int:
        return len(self.lambdas)


def build_actuator(
    plant: LinearizedPlant, omega: tuple[float, float] = (0.25, 0.75)
) -> Actuator:
    """Assemble the actuator for the plant's unstable subspace."""
    basis = plant.basis
    M = basis.M
    weight = bump_weight(omega, basis)
    w = weight.values

    N = plant.N_unstable
    modes = plant.eigenvectors[:, :N].copy()
    lambdas = plant.eigenvalues[:N].copy()

    phi_values = _values_on_grid(basis, modes[:M], M)
    psi_values = _values_on_grid(basis, modes[M:], M)

    B = np.concatenate(
        [
            _coeffs_from_grid(basis, w[:, None] * phi_values),
            _coeffs_from_grid(basis, w[:, None] * psi_values),
        ]
    )

    quarter = 0.25 * (omega[1] - omega[0])
    return Actuator(
        omega=omega,
        omega0=(omega[0] + quarter, omega[1] - quarter),
        weight=weight,
        lambdas=lambdas,
        modes=modes,
        phi_values=phi_values,
        psi_values=psi_values,
        D_matrix=modes.T @ B,
        B_matrix=B,
        basis=basis,
    )


def apply_B(act: Actuator, W: np.ndarray) -> tuple[ScalarField, ScalarField]:
    """Forcing pair (sum_i w phi_i W_i, sum_i w psi_i W_i).

    Formed pointwise at the nodes so the result vanishes identically outside
    the support of the weight.
    """
    W = np.asarray(W, dtype=float)
    if W.shape != (act.N,):
        raise ValueError(f"expected {act.N} control amplitudes, got shape {W.shape}")
    w = act.weight.values
    fy = ScalarField.from_values(act.basis, w * (act.phi_values @ W))
    fz = ScalarField.from_values(act.basis, w * (act.psi_values @ W))
    return fy, fz


def apply_B_star(act: Actuator, q: tuple[ScalarField, ScalarField]) -> np.ndarray:
    """Adjoint map: (B* q)_i = int w (phi_i q_1 + psi_i q_2) dx."""
    q1, q2 = q
    stacked = np.concatenate([q1.coeffs, q2.coeffs])
    return act.B_matrix.T @ stacked


@dataclass(frozen=True)
class KalmanCertificate:
    det: float
    lambda_min: float
    lambda_max: float
    ok: bool


def kalman_certificate(act: Actuator) -> KalmanCertificate:
    """Controllability check on the coupling matrix D.

    Uses the smallest eigenvalue of the Gram matrix D (symmetric positive
    semidefinite up to rounding; ``eigvalsh`` reads its lower triangle)
    rather than the bare determinant, which is fragile under scaling and
    repeated plant eigenvalues.
    """
    eigs = np.linalg.eigvalsh(act.D_matrix)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    det = float(np.linalg.det(act.D_matrix))
    return KalmanCertificate(
        det=det, lambda_min=lam_min, lambda_max=lam_max, ok=lam_min > 1e-12 * lam_max
    )


@dataclass
class NullControlPlan:
    """Minimum-energy open-loop control steering the unstable modes to zero.

    With Lambda = diag(lambda_1..N) and the Gramian
    G = int_0^T0 exp(-Lambda s) D D^T exp(-Lambda s) ds (entrywise closed
    form since Lambda is diagonal), the control is

        W(t) = D^T exp(-Lambda (T0 - t)) G^{-1} (-exp(-Lambda T0) xi0).
    """

    T0: float
    t_nodes: np.ndarray  # Gauss-Legendre nodes on [0, T0]
    t_weights: np.ndarray
    W_samples: np.ndarray  # (NULL_CONTROL_NODES, N)
    energy: float
    xi0: np.ndarray
    lambdas: np.ndarray
    D_matrix: np.ndarray
    eta: np.ndarray = field(repr=False)  # G^{-1}(-e^{-Lambda T0} xi0)
    gramian_cond: float
    steering_error: float
    certificate: KalmanCertificate  # the controllability check the plan passed

    def evaluate_raw(self, t: float) -> np.ndarray:
        """The control formula without the horizon cutoff."""
        return self.D_matrix.T @ (np.exp(-self.lambdas * (self.T0 - t)) * self.eta)

    def evaluate(self, t: float) -> np.ndarray:
        """W(t); zero for t outside [0, T0)."""
        if t < 0.0 or t >= self.T0:
            return np.zeros_like(self.xi0)
        return self.evaluate_raw(t)


def _gramian_closed_form(lambdas: np.ndarray, D: np.ndarray, T0: float) -> np.ndarray:
    """G_ij = (D D^T)_ij * int_0^T0 exp(-(lambda_i + lambda_j) s) ds."""
    DDt = D @ D.T
    s = lambdas[:, None] + lambdas[None, :]
    safe = np.where(s == 0.0, 1.0, s)
    factor = np.where(s == 0.0, T0, -np.expm1(-s * T0) / safe)
    return DDt * factor


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached per n_nodes and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def null_control(
    act: Actuator,
    xi0: np.ndarray,
    T0: float = 1.0,
) -> NullControlPlan:
    """Construct the minimum-energy null control on [0, T0] and its steering residual."""
    if T0 <= 0:
        raise ValueError(f"horizon must be positive, got {T0}")
    cert = kalman_certificate(act)
    if not cert.ok:
        raise GramianConditionError(
            f"coupling matrix is numerically singular (lambda_min={cert.lambda_min:.3e})"
        )
    xi0 = np.asarray(xi0, dtype=float)
    if xi0.shape != (act.N,):
        raise ValueError(f"expected {act.N} unstable coordinates, got {xi0.shape}")

    lambdas, D = act.lambdas, act.D_matrix
    G = _gramian_closed_form(lambdas, D, T0)
    cond = float(np.linalg.cond(G))
    if cond > GRAMIAN_CONDITION_LIMIT:
        raise GramianConditionError(
            f"steering Gramian condition {cond:.3e} exceeds {GRAMIAN_CONDITION_LIMIT:.0e}"
        )
    eta = np.linalg.solve(G, -np.exp(-lambdas * T0) * xi0)

    nodes, weights = _gauss_legendre(NULL_CONTROL_NODES)
    t_nodes = 0.5 * T0 * (nodes + 1.0)
    t_weights = 0.5 * T0 * weights

    # W(t_q) = D^T e^{-Lambda (T0 - t_q)} eta, the formula of plan.evaluate, on
    # all nodes at once
    decay = np.exp(-lambdas[:, None] * (T0 - t_nodes[None, :]))
    W_samples = (D.T @ (decay * eta[:, None])).T

    # xi(T0) = e^{-Lambda T0} xi0 + int_0^T0 e^{-Lambda (T0 - t)} D W(t) dt on the
    # Gauss nodes; the integrand is a sum of exponentials, so the rule is exact
    xi_T = np.exp(-lambdas * T0) * xi0 + (decay * (D @ W_samples.T)) @ t_weights
    return NullControlPlan(
        T0=T0,
        t_nodes=t_nodes,
        t_weights=t_weights,
        W_samples=W_samples,
        energy=float(np.sum(t_weights * np.sum(W_samples**2, axis=1))),
        xi0=xi0,
        lambdas=lambdas,
        D_matrix=D,
        eta=eta,
        gramian_cond=cond,
        steering_error=float(np.linalg.norm(xi_T)),
        certificate=cert,
    )
