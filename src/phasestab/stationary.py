"""Stationary states of the uncontrolled phase-field system.

A stationary order parameter solves the semilinear Neumann problem

    nu * phi'' - phi^3 + phi = C      on (0, L),   phi'(0) = phi'(L) = 0,

with C a free integration constant, while the stationary temperature is an
arbitrary constant theta_inf.  Solutions are critical points of the energy

    Upsilon(phi) = int ( nu/2 |phi'|^2 + (phi^2 - 1)^2 / 4 + C phi ) dx,

which we find by pseudo-transient continuation: damped Newton steps on
the Euler-Lagrange equation whose damping fades as the residual falls, with
a candidate that raises Upsilon rejected.  The double well is evaluated in
one place, ``_euler_lagrange``: one synthesis of an iterate on the
dealiasing grid gives its Upsilon, its Euler-Lagrange residual and its
cubic, so the solver tests and accepts each candidate, and steps from
its residual, with that one synthesis.  The constant states phi = -1, 0,
+1 (C = 0) and their Upsilon are available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import NumericalError
from .spectral import (
    ScalarField,
    SpectralBasis,
    _cosine_matrix,
    _folded_coeffs,
    _folded_values,
    gradient_values,
    laplacian,
)

__all__ = [
    "StationaryState",
    "stationary_constant",
    "stationary_minimize",
    "chi_infinity",
    "gbar_infinity",
]


@dataclass
class StationaryState:
    """A stationary pair (phi_inf, theta_inf) and its diagnostics."""

    phi_inf: ScalarField
    theta_inf: float
    C_lagrange: float
    residual: float
    upsilon: float = np.nan
    upsilon_history: list[float] = field(default_factory=list, repr=False)

    @property
    def basis(self) -> SpectralBasis:
        return self.phi_inf.basis


def _euler_lagrange(
    basis: SpectralBasis, coeffs: np.ndarray, nu: float, C: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Upsilon, and the coefficients of nu*Lap(phi) - phi^3 + phi - C and of phi^3.

    All three come from one synthesis v of phi on the P = 2M dealiasing
    grid, held folded (``spectral._folded_values``).  The gradient term of
    Upsilon is nu/2 sum kappa_k c_k^2 by Parseval, since the derivatives e_k'
    are orthogonal with squared norms kappa_k; the well is the midpoint rule
    on the grid, which integrates cos(k pi x / L) exactly for k < 2P, so also
    the quartic of a band-limited field, whose wavenumbers stay below 4M.
    The cubic is the analysis of v^3, exact in the retained modes for the
    same reason.
    """
    P = 2 * basis.M
    v = _folded_values(basis, coeffs)
    well = 0.25 * (v * v - 1.0) ** 2 + C * v
    ups = float(0.5 * nu * (basis.kappa @ coeffs**2) + well.sum() * basis.L / P)
    cubic = _folded_coeffs(basis, v * v * v)
    res = nu * (-basis.kappa * coeffs) - cubic + coeffs
    res[0] -= C * np.sqrt(basis.L)
    return ups, res, cubic


def stationary_constant(
    which: int, theta: float = 0.0, *, basis: SpectralBasis
) -> StationaryState:
    """Constant stationary state phi_inf = which in {-1, 0, +1}, with C = 0.

    A constant has no gradient energy, so Upsilon = L (which^2 - 1)^2 / 4.
    """
    if which not in (-1, 0, 1):
        raise ValueError(f"constant stationary states are -1, 0, +1; got {which}")
    return StationaryState(
        phi_inf=ScalarField.constant(basis, float(which)),
        theta_inf=float(theta),
        C_lagrange=0.0,
        residual=0.0,
        upsilon=basis.L * (which**2 - 1) ** 2 / 4,
    )


def stationary_minimize(
    C: float,
    init: ScalarField,
    nu: float,
    tol: float = 1e-8,
    max_iters: int = 20000,
    theta: float = 0.0,
) -> StationaryState:
    """Bring F = nu*Lap(phi) - phi^3 + phi - C to zero by pseudo-transient continuation.

    Each step solves (I/delta - J) s = F with J = nu*Lap + I - 3*phi^2
    (``_jacobian``) and evaluates the candidate phi + s with one
    ``_euler_lagrange`` synthesis.  A candidate that raises Upsilon is
    rejected and delta halved, so the accepted energies never increase; an
    accepted step sets delta <- delta ||F_prev|| / ||F|| (switched evolution
    relaxation).  From delta = 1 the loop starts as a damped gradient flow
    and ends as Newton.  Once the residual is within ``tol``, at most 3 more
    steps aim at 1e-12, and the first that does not lower the residual ends
    the solve on the best iterate.  ``max_iters`` counts every step,
    accepted or rejected.

    Raises NumericalError, with facts ``last_residual`` and ``iterations``,
    if the residual tolerance is not met.
    """
    basis = init.basis
    phi = np.array(init.coeffs, dtype=float)
    ups, res_vec, _ = _euler_lagrange(basis, phi, nu, C)
    history = [ups]
    res = float(np.linalg.norm(res_vec))
    jac = _jacobian(basis, phi, nu)
    delta, it, polished = 1.0, 0, 0
    while res > 1e-12 and it < max_iters and polished < 3:
        it += 1
        polished += res <= tol  # a step from within tol is a polish step
        try:
            cand = phi + np.linalg.solve(np.eye(basis.M) / delta - jac, res_vec)
            ups_cand, res_cand, _ = _euler_lagrange(basis, cand, nu, C)
            norm = float(np.linalg.norm(res_cand))
            descent = ups_cand <= ups + 1e-15 * max(1.0, abs(ups))
        except np.linalg.LinAlgError:  # 1/delta is an eigenvalue of J
            descent = False
        if res <= tol and not (descent and norm < res):
            break  # a polish step must lower the residual; keep the best iterate
        if not descent:
            delta *= 0.5
            if delta < 1e-12:
                break
            continue
        delta *= res / norm if norm else 1.0  # a zero residual ends the loop
        phi, ups, res_vec, res = cand, ups_cand, res_cand, norm
        history.append(ups)
        jac = _jacobian(basis, phi, nu)

    if res > tol:
        raise NumericalError(
            f"pseudo-transient continuation stalled at residual {res:.3e} after"
            f" {it} steps (tolerance {tol:.1e})",
            last_residual=res,
            iterations=it,
        )
    return StationaryState(
        phi_inf=ScalarField(basis, phi),
        theta_inf=float(theta),
        C_lagrange=float(C),
        residual=res,
        upsilon=ups,
        upsilon_history=history,
    )


def _jacobian(basis: SpectralBasis, coeffs: np.ndarray, nu: float) -> np.ndarray:
    """J = nu*Lap + I - 3*phi^2 in modal coordinates.

    The multiplication by 3*phi^2 mixes modes; it is assembled densely
    through the cached transform matrix on the M nodes (M is small).  Its
    aliasing there can slow the last steps, not move their limit: that is
    set by the dealiased residual alone.
    """
    to_values = _cosine_matrix(basis, basis.M)
    vals = to_values @ coeffs
    mult = (basis.quad_weight * to_values.T) @ ((3.0 * vals**2)[:, None] * to_values)
    return np.diag(-nu * basis.kappa + 1.0) - mult


def chi_infinity(state: StationaryState) -> float:
    """Sup-norm curvature size ||grad phi_inf||_inf + ||Lap phi_inf||_inf."""
    phi = state.phi_inf
    grad = gradient_values(phi)
    lap = laplacian(phi).values
    return float(np.max(np.abs(grad)) + np.max(np.abs(lap)))


def gbar_infinity(state: StationaryState) -> float:
    """||phi||_inf ||grad phi||_inf + ||phi||_inf ||Lap phi||_inf + ||grad phi||_inf^2."""
    phi = state.phi_inf
    sup = float(np.max(np.abs(phi.values)))
    grad = float(np.max(np.abs(gradient_values(phi))))
    lap = float(np.max(np.abs(laplacian(phi).values)))
    return sup * grad + sup * lap + grad * grad
