"""Closed-loop time integration of the nonlinear transformed system.

The state is the deviation pair (y, z) from the stationary target, evolving as

    d/dt (y, z) + Op (y, z) = (G(y), 0) - B B^T R (y, z),

where the remainder collects everything beyond the constant-coefficient
linearization:

    G(y) = Lap( F_r(y) + g(x) y ),      F_r(y) = y^3 + 3 phi_inf y^2.

Time stepping (``simulate``) treats the operator and the feedback implicitly
and only the remainder explicitly: IMEX Euler (``scheme="imex1"``) or the
second-order semi-implicit BDF scheme SBDF2 (``"imex2"``, the default, taken
from ``RunConfig``).  The implicit solve is the exact 2x2 modal block inverse
plus a rank-N Woodbury correction for the feedback, which enters through the
actuator's modal input matrix ``B_matrix``; the step size is therefore not
limited by the gain.

Each step evaluates the remainder with two matrix-vector products against
one cached cosine matrix C (the basis functions on the P = 2M dealiasing
grid, built on the first call): values v = C y, then coefficients
-kappa (L/P) C^T (v^3 + 3 phi_inf v^2 + g v), the cubic in Horner form.
The same code serves ``remainder_G_direct``.

Trajectories record the decay norm ||y||_{D(A^1/2)} + ||z||_{D(A^1/4)} (the
norm in which exponential decay is certified), the plain product-space norm,
the equivalent physical-variable norm, the conserved means, and the feedback
amplitudes w = -K x at the recorded states; the decay rate is a least-squares
fit of the log norm over the second half of the run.  The record arrays are
sized up front (t = 0, every ``record_every``-th step and the last step) and
filled in place; the physical-variable norm goes through (phi, theta) on
coefficient arrays, with the stationary offsets precomputed once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .actuator import Actuator
from .config import RunConfig
from .linearization import LinearizedPlant, PhysicalParams
from .lqr import RiccatiSolution
from .spectral import (
    PAD_FACTOR,
    ScalarField,
    _cosine_matrix,
    _values_on_grid,
    _weighted_norm,
)
from .stationary import StationaryState

__all__ = [
    "StateYZ",
    "TrajectoryRecord",
    "BlowUpError",
    "ImplicitSolveError",
    "remainder_G_direct",
    "simulate",
    "to_physical",
    "from_physical",
    "physical_deviation_norm",
    "fit_exponential_rate",
    "seeded_initial_state",
]

NORM_FLOOR = 1e-14  # a decay norm below this is machine noise: no rate is fitted
FIT_MIN_SAMPLES = 20  # fewest recorded rows in the fit window that give a rate
FIT_MIN_R2 = 0.99  # a log-linear fit below this R^2 gives no rate
INITIAL_MU_DECAY = 2.0  # seeded initial coefficients are damped by mu_k^-2


@dataclass
class StateYZ:
    """Deviation state: y = phi - phi_inf, z = sigma - sigma_inf, at time t."""

    y: ScalarField
    z: ScalarField
    t: float = 0.0


class BlowUpError(RuntimeError):
    """Trajectory norm exceeded the blow-up guard."""

    def __init__(self, message: str, t: float, norm: float):
        super().__init__(message)
        self.t = t
        self.norm = norm


class ImplicitSolveError(ValueError):
    """The implicit closed-loop solve of a step is singular or ill conditioned."""


def _decay_norm(basis, x: np.ndarray) -> float:
    """Decay norm ||y||_{D(A^{1/2})} + ||z||_{D(A^{1/4})} of stacked (y, z) coefficients."""
    return _weighted_norm(basis.mu, x[: basis.M]) + _weighted_norm(basis.sqrt_mu, x[basis.M :])


# -- nonlinear remainder ----------------------------------------------------


def _remainder_coeffs(
    basis, y_coeffs: np.ndarray, phi_inf_padded: np.ndarray, g_padded: np.ndarray
) -> np.ndarray:
    """Modal coefficients of G(y); phi_inf and g are given on the dealiasing grid."""
    P = len(phi_inf_padded)
    C = _cosine_matrix(basis, P)
    yv = C @ y_coeffs
    # yv^3 + 3 phi_inf yv^2 + g yv in Horner form: a float power costs more
    # than both matrix-vector products at P = 128
    inner = yv * (yv * (yv + 3.0 * phi_inf_padded) + g_padded)
    return -basis.kappa * (basis.L / P) * (C.T @ inner)


def remainder_G_direct(
    y: ScalarField, phi_inf: ScalarField, g: ScalarField
) -> ScalarField:
    """G(y) = Lap( y^3 + 3 phi_inf y^2 + g y ), products dealiased."""
    basis = y.basis
    if phi_inf.basis.M != basis.M or g.basis.M != basis.M:
        raise ValueError("fields live on different bases")
    P = PAD_FACTOR * basis.M
    pv = _values_on_grid(basis, phi_inf.coeffs, P)
    gv = _values_on_grid(basis, g.coeffs, P)
    return ScalarField(basis, _remainder_coeffs(basis, y.coeffs, pv, gv))


# -- physical variables ------------------------------------------------------


class _PhysicalMap:
    """Coefficient-level map from the deviation (y, z) to (phi, theta) about one state.

    phi = y + phi_inf and theta = sigma / alpha0 - l0 phi with
    sigma = z + sigma_inf, sigma_inf = alpha0 (theta_inf + l0 phi_inf).
    """

    def __init__(self, stat: StationaryState, params: PhysicalParams):
        basis = self.basis = stat.basis
        self.params = params
        self.phi_inf = stat.phi_inf.coeffs
        self.theta_inf = ScalarField.constant(basis, stat.theta_inf).coeffs
        self.sigma_inf = ScalarField.constant(
            basis, params.alpha0 * stat.theta_inf
        ).coeffs + self.phi_inf * (params.alpha0 * params.l0)

    def to_physical(self, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phi = y + self.phi_inf
        theta = (z + self.sigma_inf) * (1.0 / self.params.alpha0) - phi * self.params.l0
        return phi, theta

    def deviation_norm(self, y: np.ndarray, z: np.ndarray) -> float:
        """See ``physical_deviation_norm``."""
        alpha0, l0 = self.params.alpha0, self.params.l0
        phi, theta = self.to_physical(y, z)
        dphi = phi - self.phi_inf
        combo = (theta - self.theta_inf) * alpha0 + dphi * (alpha0 * l0)
        return _weighted_norm(self.basis.mu, dphi) + _weighted_norm(self.basis.sqrt_mu, combo)


def to_physical(
    state: StateYZ, stat: StationaryState, params: PhysicalParams
) -> tuple[ScalarField, ScalarField]:
    """Map (y, z) back to (phi, theta): phi = y + phi_inf, theta = sigma/alpha0 - l0 phi."""
    phi, theta = _PhysicalMap(stat, params).to_physical(state.y.coeffs, state.z.coeffs)
    return ScalarField(stat.basis, phi), ScalarField(stat.basis, theta)


def from_physical(
    phi: ScalarField,
    theta: ScalarField,
    stat: StationaryState,
    params: PhysicalParams,
    t: float = 0.0,
) -> StateYZ:
    """Inverse map: y = phi - phi_inf, z = alpha0 (theta + l0 phi) - sigma_inf."""
    y = phi - stat.phi_inf
    sigma = params.alpha0 * (theta + params.l0 * phi)
    z = ScalarField(stat.basis, sigma.coeffs - _PhysicalMap(stat, params).sigma_inf)
    return StateYZ(y=y, z=z, t=t)


def physical_deviation_norm(
    state: StateYZ, stat: StationaryState, params: PhysicalParams
) -> float:
    """Composite physical-variable norm

    ||phi - phi_inf||_{D(A^{1/2})}
        + ||alpha0 (theta - theta_inf) + alpha0 l0 (phi - phi_inf)||_{D(A^{1/4})},

    recomputed through (phi, theta); identically equal to the (y, z) decay
    norm since the second argument is exactly z.
    """
    return _PhysicalMap(stat, params).deviation_norm(state.y.coeffs, state.z.coeffs)


# -- time stepping -----------------------------------------------------------


# largest condition number of the capacitance matrix C = I_N + K J theta B
# that the Woodbury correction accepts: beyond it the correction loses more
# than half of the digits of a step
CAPACITANCE_COND_MAX = 1e8


class _ClosedLoopSolve:
    """x = (I + theta (Op + B K))^{-1} r for one theta.

    J = (I + theta Op)^{-1} is the per-mode 2x2 block inverse; BK has rank N,
    so the closed-loop inverse is J plus a Woodbury correction.  With
    JU = J theta B (2M x N) and the capacitance matrix C = I_N + K JU, both
    formed once, the solve is

        v = J r                      (``blocks``)
        s = C^{-1} K v,  x = v - JU s  (``feedback``)

    at O(MN) cost.  s equals K x, so ``feedback`` also returns the feedback
    amplitude w = -K x without a second product.  The caller checks that
    every block is invertible at theta.
    """

    def __init__(
        self,
        blocks: np.ndarray,
        theta: float,
        dt: float,
        sol: RiccatiSolution | None,
        act: Actuator | None,
    ):
        a = 1.0 + theta * blocks[:, 0, 0]
        b = theta * blocks[:, 0, 1]
        c = theta * blocks[:, 1, 0]
        d = 1.0 + theta * blocks[:, 1, 1]
        det = a * d - b * c
        # block inverse [[d, -b], [-c, a]] / det, split into the columns that
        # multiply the y and z parts of its argument
        self.inv_y = np.stack([d, -c]) / det
        self.inv_z = np.stack([-b, a]) / det
        self.JU = self.S = None
        if sol is None:
            return
        M = len(blocks)
        U = theta * act.B_matrix
        JU = self.inv_y[..., None] * U[:M] + self.inv_z[..., None] * U[M:]
        self.JU = JU.reshape(2 * M, -1)
        KJU = sol.K_gain @ self.JU
        cap = np.eye(act.N) + KJU
        # condition relative to the terms that form C: forming it rounds at
        # eps (1 + ||K JU||), and solving with it amplifies that by
        # 1 / sigma_min(C); plain cond(C) misses cancellation in I + K JU
        smin = np.linalg.svd(cap, compute_uv=False)[-1]
        cond = (1.0 + np.linalg.norm(KJU, 2)) / smin if smin > 0 else np.inf
        if not cond <= CAPACITANCE_COND_MAX:
            raise ImplicitSolveError(
                f"capacitance matrix I + K J theta B of the implicit feedback has "
                f"condition number {cond:.3e} at dt = {dt:.3e}, above "
                f"{CAPACITANCE_COND_MAX:.0e}; reduce dt"
            )
        self.S = np.linalg.solve(cap, sol.K_gain)

    def blocks(self, r_y: np.ndarray, r_z: np.ndarray) -> np.ndarray:
        """v = J r for r = (r_y, r_z)."""
        return (self.inv_y * r_y + self.inv_z * r_z).ravel()

    def feedback(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, -K x) with x = v - JU C^{-1} K v; x = v when open loop."""
        if self.S is None:
            return v, np.zeros(0)
        s = self.S @ v
        return v - self.JU @ s, -s


class _Stepper:
    """One IMEX step of the closed loop, with operator and feedback implicit.

    Both schemes solve (I + theta (Op + B K)) x_next = r once per step with a
    ``_ClosedLoopSolve``, and only the remainder G is explicit:

        imex1  theta = dt       r = x_n + dt G(x_n)
        imex2  theta = 2 dt/3   r = (4 x_n - x_{n-1}) / 3
                                    + (2 dt/3) (2 G(x_n) - G(x_{n-1}))

    imex1 is IMEX Euler.  imex2 is the second-order semi-implicit BDF scheme
    SBDF2 (Ascher, Ruuth & Wetton, SINUM 32, 1995), started with one imex1
    step.  Its implicit part is L-stable: the factor of a stiff mode tends to
    0, so a stiff explicit term (about phi_inf = +-1 the remainder holds
    Lap(6 phi_inf ybar dy)) cannot tip it past -1, as it does Crank-Nicolson,
    whose factor tends to -1.  Neither scheme applies Op outside the solve,
    and G has no z part.
    """

    def __init__(
        self,
        plant: LinearizedPlant,
        dt: float,
        sol: RiccatiSolution | None,
        act: Actuator | None,
        nonlinear: bool,
        scheme: str,
    ):
        if dt <= 0:
            raise ValueError(f"time step must be positive, got {dt}")
        if scheme not in ("imex1", "imex2"):
            raise ValueError(f"unknown scheme {scheme!r}; use 'imex1' or 'imex2'")
        if (sol is None) != (act is None):
            raise ValueError("feedback needs both the Riccati solution and the actuator")
        self.basis = plant.basis
        self.dt = dt
        self.nonlinear = nonlinear

        # both schemes solve at theta = dt (imex2 on its first step), and
        # det(I + theta A_k) > 0 at theta = dt keeps it positive for smaller
        # theta, so the bound on dt is the same for both
        blocks = plant.A_blocks
        det = np.linalg.det(np.eye(2) + dt * blocks)
        if not np.min(det) >= 1e-12:
            raise ImplicitSolveError(
                f"implicit blocks lose invertibility at dt = {dt:.3e} (min det "
                f"{np.min(det):.3e}); keep dt below {self._dt_bound(blocks):.3e} for {scheme}"
            )
        self.euler = _ClosedLoopSolve(blocks, dt, dt, sol, act)
        self.bdf2 = (
            _ClosedLoopSolve(blocks, 2.0 * dt / 3.0, dt, sol, act) if scheme == "imex2" else None
        )

        P = PAD_FACTOR * self.basis.M
        self.phi_inf_padded = _values_on_grid(self.basis, plant.phi_inf.coeffs, P)
        self.g_padded = _values_on_grid(self.basis, plant.g.coeffs, P)
        # (x, G) of the last step's input, which imex2 needs as x_{n-1}
        self._prev: tuple[np.ndarray, np.ndarray | None] | None = None

    @staticmethod
    def _dt_bound(blocks: np.ndarray) -> float:
        """Largest theta keeping every det(I + theta A_k) positive."""
        # det(I + dt A) = 1 + q1 dt + q2 dt^2 has exactly one positive root
        # when q2 < 0, and none when q2 >= 0, since c = kappa_k >= 0 then
        # forces a >= 0 and q1 >= 0
        a, b, c = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
        q2, q1 = a * c - b * b, a + c
        neg = q2 < 0
        if not np.any(neg):
            return np.inf
        q2, q1 = q2[neg], q1[neg]
        return float(np.min((q1 + np.sqrt(q1 * q1 - 4.0 * q2)) / (-2.0 * q2)))

    def step(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance the stacked modal state by one dt.

        Returns (x_next, w_next) with w_next = -K x_next, the feedback
        amplitude at the new state (empty when open loop).
        """
        M = self.basis.M
        y, z = x[:M], x[M:]
        G = (
            _remainder_coeffs(self.basis, y, self.phi_inf_padded, self.g_padded)
            if self.nonlinear
            else None
        )
        prev, self._prev = self._prev, (x, G)
        if self.bdf2 is None or prev is None:
            solve = self.euler
            r_y = y if G is None else y + self.dt * G
            r_z = z
        else:
            solve = self.bdf2
            x_old, G_old = prev
            r = (4.0 * x - x_old) * (1.0 / 3.0)
            r_y, r_z = r[:M], r[M:]
            if G is not None:
                r_y += (2.0 * self.dt / 3.0) * (2.0 * G - G_old)
        return solve.feedback(solve.blocks(r_y, r_z))


# -- trajectories ------------------------------------------------------------


@dataclass
class TrajectoryRecord:
    """Recorded rows of one run.

    ``control_amplitudes[i]`` is w_i = -K x(t_i), the amplitude of the
    implicit feedback at the recorded state (row 0 included); the forcing is
    ``B_matrix @ w_i``.
    """

    times: np.ndarray
    xi_norms: np.ndarray
    h_norms: np.ndarray
    physical_norms: np.ndarray
    mean_y: np.ndarray
    mean_z: np.ndarray
    control_amplitudes: np.ndarray  # (n_rec, N), empty second axis when open loop
    fitted_rate: float | None
    fit_window: tuple[float, float]
    fit_r2: float | None
    final_state: StateYZ = field(repr=False, default=None)


def fit_exponential_rate(
    times: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float],
) -> tuple[float | None, float | None]:
    """OLS fit of log(values) ~ a - rate * t on the window.

    Returns (rate, r2); rate is None when the window has fewer than
    FIT_MIN_SAMPLES samples, any sample sits below NORM_FLOOR, or the fit
    quality is below FIT_MIN_R2.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (times >= window[0]) & (times <= window[1])
    t, v = times[mask], values[mask]
    if len(t) < FIT_MIN_SAMPLES or np.any(v < NORM_FLOOR):
        return None, None
    logv = np.log(v)
    design = np.column_stack([np.ones_like(t), t])
    coef, *_ = np.linalg.lstsq(design, logv, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    rate = -float(coef[1])
    if r2 < FIT_MIN_R2:
        return None, r2
    return rate, r2


def simulate(
    plant: LinearizedPlant,
    y0: ScalarField,
    z0: ScalarField,
    dt: float,
    t_end: float,
    sol: RiccatiSolution | None = None,
    act: Actuator | None = None,
    nonlinear: bool = True,
    scheme: str = RunConfig.scheme,
    stat: StationaryState | None = None,
    record_every: int = 1,
    blowup_factor: float = 1e6,
) -> TrajectoryRecord:
    """Integrate to t_end, recording norms, means and feedback amplitudes.

    The decay rate is fitted on log(xi norm) over the second half of the
    run, [t_end / 2, t_end].  Raises BlowUpError when the decay norm
    exceeds ``blowup_factor`` times its initial value or stops being finite.
    """
    stepper = _Stepper(plant, dt, sol, act, nonlinear, scheme)
    basis = plant.basis
    M = basis.M
    params = plant.params
    fit_window = (0.5 * t_end, t_end)

    x = np.concatenate([y0.coeffs, z0.coeffs])
    n_steps = int(round(t_end / dt))
    w = -(sol.K_gain @ x) if sol is not None else np.zeros(0)

    # rows: t = 0, every record_every-th step, and the last step once
    n_rows = n_steps // record_every + 1 + (n_steps % record_every != 0)
    times, xi_s, h_s, phys_s, my_s, mz_s = np.empty((6, n_rows))
    amps = np.empty((n_rows, len(w)))
    phys_map = _PhysicalMap(stat, params) if stat is not None else None
    sqrtL = np.sqrt(basis.L)

    def record(row: int, t: float, x: np.ndarray, w: np.ndarray):
        y_c, z_c = x[:M], x[M:]
        times[row] = t
        xi_s[row] = _decay_norm(basis, x)
        h_s[row] = np.hypot(math.sqrt(y_c @ y_c), math.sqrt(z_c @ z_c))
        phys_s[row] = xi_s[row] if phys_map is None else phys_map.deviation_norm(y_c, z_c)
        my_s[row] = y_c[0] / sqrtL
        mz_s[row] = z_c[0] / sqrtL
        amps[row] = w

    record(0, 0.0, x, w)
    xi0 = xi_s[0]
    row = 0
    for step_idx in range(1, n_steps + 1):
        x, w = stepper.step(x)
        if step_idx % record_every == 0 or step_idx == n_steps:
            row += 1
            t = step_idx * dt
            record(row, t, x, w)
            if not np.isfinite(xi_s[row]) or xi_s[row] > blowup_factor * max(xi0, NORM_FLOOR):
                raise BlowUpError(
                    f"decay norm {xi_s[row]:.3e} at t={t:.3f} is not finite or exceeds "
                    f"{blowup_factor:.0e} x initial {xi0:.3e}",
                    t=t,
                    norm=float(xi_s[row]),
                )

    rate, r2 = fit_exponential_rate(times, xi_s, fit_window)

    final = StateYZ(
        y=ScalarField(basis, x[:M].copy()),
        z=ScalarField(basis, x[M:].copy()),
        t=n_steps * dt,
    )
    return TrajectoryRecord(
        times=times,
        xi_norms=xi_s,
        h_norms=h_s,
        physical_norms=phys_s,
        mean_y=my_s,
        mean_z=mz_s,
        control_amplitudes=amps,
        fitted_rate=rate,
        fit_window=fit_window,
        fit_r2=r2,
        final_state=final,
    )


def seeded_initial_state(basis, rho: float, seed: int) -> tuple[ScalarField, ScalarField]:
    """Random smooth initial data with decay norm exactly rho.

    Gaussian modal coefficients damped by mu_k^{-INITIAL_MU_DECAY} (smooth
    enough for the decay norm), rescaled so
    ||y||_{D(A^{1/2})} + ||z||_{D(A^{1/4})} = rho.
    """
    rng = np.random.default_rng(seed)
    cy = rng.standard_normal(basis.M) * basis.mu ** (-INITIAL_MU_DECAY)
    cz = rng.standard_normal(basis.M) * basis.mu ** (-INITIAL_MU_DECAY)
    scale = rho / _decay_norm(basis, np.concatenate([cy, cz]))
    return ScalarField(basis, scale * cy), ScalarField(basis, scale * cz)
