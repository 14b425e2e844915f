"""Stationary states of the uncontrolled phase-field system.

A stationary order parameter solves the semilinear Neumann problem

    nu * phi'' - phi^3 + phi = C      on (0, L),   phi'(0) = phi'(L) = 0,

with C a free integration constant, while the stationary temperature is an
arbitrary constant theta_inf.  Solutions are critical points of the energy

    Upsilon(phi) = int ( nu/2 |phi'|^2 + (phi^2 - 1)^2 / 4 + C phi ) dx,

which we minimize by a semi-implicit gradient flow (linear part nu*Lap - I
implicit, cubic explicit) followed by a short Newton polish.  The double
well is evaluated in one place, ``_euler_lagrange``: one synthesis of an
iterate on the dealiasing grid gives its Upsilon, its Euler-Lagrange
residual and its cubic, so the flow tests, accepts and steps from each
candidate with that one synthesis, and the polish starts from the residual
the flow stopped on.  Constant states phi = root of phi^3 - phi + C are
always available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    PAD_FACTOR,
    ScalarField,
    SpectralBasis,
    _coeffs_from_grid,
    _cosine_matrix,
    _values_on_grid,
    gradient_values,
    laplacian,
)

__all__ = [
    "StationaryState",
    "StationaryConvergenceError",
    "stationary_constant",
    "stationary_minimize",
    "upsilon",
    "chi_infinity",
    "gbar_infinity",
]


FLOW_DT0 = 0.25  # first gradient-flow step; accepted steps grow to 4 FLOW_DT0


class StationaryConvergenceError(RuntimeError):
    """Gradient flow failed to reach the requested residual tolerance."""

    def __init__(self, message: str, last_residual: float, iterations: int):
        super().__init__(message)
        self.last_residual = last_residual
        self.iterations = iterations


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
    grid.  The gradient term of Upsilon is nu/2 sum kappa_k c_k^2 by
    Parseval, since the derivatives e_k' are orthogonal with squared norms
    kappa_k; the well is the midpoint rule on the grid, which integrates
    cos(k pi x / L) exactly for k < 2P, so also the quartic of a
    band-limited field, whose wavenumbers stay below 4M.  The cubic is the
    analysis of v^3, exact in the retained modes for the same reason.
    """
    P = PAD_FACTOR * basis.M
    v = _values_on_grid(basis, coeffs, P)
    well = 0.25 * (v * v - 1.0) ** 2 + C * v
    ups = float(0.5 * nu * (basis.kappa @ coeffs**2) + well.sum() * basis.L / P)
    cubic = _coeffs_from_grid(basis, v * v * v)
    res = nu * (-basis.kappa * coeffs) - cubic + coeffs
    res[0] -= C * np.sqrt(basis.L)
    return ups, res, cubic


def upsilon(phi: ScalarField, nu: float, C: float) -> float:
    """Energy int( nu/2 |phi'|^2 + (phi^2-1)^2/4 + C*phi ) dx, exactly (``_euler_lagrange``)."""
    return _euler_lagrange(phi.basis, phi.coeffs, nu, C)[0]


def stationary_constant(
    which: int, theta: float = 0.0, *, basis: SpectralBasis
) -> StationaryState:
    """Constant stationary state phi_inf = which in {-1, 0, +1}, with C = 0."""
    if which not in (-1, 0, 1):
        raise ValueError(f"constant stationary states are -1, 0, +1; got {which}")
    phi = ScalarField.constant(basis, float(which))
    state = StationaryState(
        phi_inf=phi,
        theta_inf=float(theta),
        C_lagrange=0.0,
        residual=0.0,
        upsilon=upsilon(phi, nu=1.0, C=0.0),
    )
    return state


def stationary_minimize(
    C: float,
    init: ScalarField,
    nu: float,
    tol: float = 1e-8,
    max_iters: int = 20000,
    theta: float = 0.0,
) -> StationaryState:
    """Drive the gradient flow phi_t = nu*Lap(phi) - phi^3 + phi - C to rest.

    The linear part (nu*Lap - I) is treated implicitly, the remaining
    2*phi - phi^3 - C explicitly.  Steps that increase Upsilon are rejected
    and the step size halved, so the accepted energy sequence is
    non-increasing.  A short Newton polish then brings the residual to
    ~1e-12 when it converges; the flow result is kept otherwise.

    Raises StationaryConvergenceError if the residual tolerance is not met.
    """
    basis = init.basis
    phi = np.array(init.coeffs, dtype=float)
    sqrtL = np.sqrt(basis.L)

    dt = FLOW_DT0
    ups, res_vec, cubic = _euler_lagrange(basis, phi, nu, C)
    history = [ups]
    res = float(np.linalg.norm(res_vec))
    it = 0
    while res > tol and it < max_iters:
        explicit = 2.0 * phi - cubic
        explicit[0] -= C * sqrtL
        cand = (phi + dt * explicit) / (1.0 + dt * (nu * basis.kappa + 1.0))
        ups_cand, res_cand, cubic_cand = _euler_lagrange(basis, cand, nu, C)
        if ups_cand <= ups + 1e-15 * max(1.0, abs(ups)):
            phi, ups, res_vec, cubic = cand, ups_cand, res_cand, cubic_cand
            history.append(ups)
            dt = min(dt * 1.1, 4.0 * FLOW_DT0)
            res = float(np.linalg.norm(res_vec))
        else:
            # phi is unchanged, and with it the residual and the cubic
            dt *= 0.5
            if dt < 1e-12:
                break
        it += 1

    if res > tol:
        raise StationaryConvergenceError(
            f"gradient flow stalled at residual {res:.3e} after {it} iterations"
            f" (tolerance {tol:.1e})",
            last_residual=res,
            iterations=it,
        )

    phi, res = _newton_polish(basis, phi, res_vec, nu, C, target=1e-12, iters=3)
    field_phi = ScalarField(basis, phi)
    return StationaryState(
        phi_inf=field_phi,
        theta_inf=float(theta),
        C_lagrange=float(C),
        residual=res,
        upsilon=upsilon(field_phi, nu, C),
        upsilon_history=history,
    )


def _newton_polish(
    basis: SpectralBasis,
    coeffs: np.ndarray,
    res_vec: np.ndarray,
    nu: float,
    C: float,
    target: float,
    iters: int,
) -> tuple[np.ndarray, float]:
    """Newton steps on nu*Lap(phi) - phi^3 + phi - C = 0 in modal coordinates.

    The Jacobian nu*Lap + I - 3*phi^2 mixes modes through the multiplication
    operator, assembled densely via the cached transform matrix (M is small).
    ``res_vec`` is the Euler-Lagrange residual of ``coeffs``, which the caller
    has already formed.  Returns the iterate of smallest residual and that
    residual's L2 norm.
    """
    to_values = _cosine_matrix(basis, basis.M)
    to_coeffs = basis.quad_weight * to_values.T

    current = coeffs
    best, best_norm = current, np.linalg.norm(res_vec)
    for _ in range(iters):
        if best_norm <= target:
            break
        vals = to_values @ current
        mult = to_coeffs @ ((3.0 * vals**2)[:, None] * to_values)
        jac = np.diag(-nu * basis.kappa + 1.0) - mult
        try:
            step = np.linalg.solve(jac, res_vec)
        except np.linalg.LinAlgError:
            break
        current = current - step
        res_vec = _euler_lagrange(basis, current, nu, C)[1]
        norm = np.linalg.norm(res_vec)
        if norm < best_norm:
            best, best_norm = current, norm
    return best, float(best_norm)


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
