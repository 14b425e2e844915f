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

Each step evaluates the remainder pseudospectrally on the P = 2M
dealiasing grid, whose cosine matrix C (the basis functions at the grid's
midpoints) is mirror-symmetric: C[P-1-j] = (-1)^k C[j].  The grid values
are therefore held folded, as the (2, M) array
[bottom half reversed; top half] = [ys; y] H^T, where H = C[:M] is the top
half of C, the only part of it that ``spectral`` caches, and
ys = (-1)^k y.  The remainder is two two-row products against H: the
folded values V = [ys; y] H^T, and the unscaled analysis Z = [Zb; Zt] = T H
of T = V^3 + 3 phi_inf V^2 + g V (the cubic in Horner form, on 3 phi_inf
and g, which the plant keeps folded the same way in ``remainder_grid``),
from which the analysis of the whole grid is q = C^T T = Zt + (-1)^k Zb.
A coefficient row that is identically zero is dropped when the stepper is
built, with its term: g is zero on every constant state, and 3 phi_inf at
the uniform mixture phi_inf = 0, where T = V^3.
The scheme's constants are folded once, when the stepper is built, in one
pass over both implicit solves: the per-mode factor -kappa L / P times dt
(imex1) or 2 dt (imex2) with the sign (-1)^k on its Zb row, and SBDF2's
1/3 into a copy of the block inverse.  The time loop is one generator,
``_Stepper.run``: it binds every buffer once, keeps the state in a ring of
three history slots [ys; y; z; Zb; Zt; w], writes every intermediate in
place into a buffer allocated once, and yields views of the state and the
feedback amplitudes after every recorded step.  A steady step is Z, one
right-hand side, one block product, the rank-N feedback correction and the
refresh of ys: 19 NumPy calls on a nonconstant state, 18 on a constant
one and 17 at phi_inf = 0, and no allocation.  The first step runs
through the same body with the theta = dt constants.  ``simulate`` copies
the rows it records and the final state, the stepper's stacked vector.

Trajectories record the decay norm ||y||_{D(A^1/2)} + ||z||_{D(A^1/4)} (the
norm in which exponential decay is certified), the plain product-space norm,
the conserved means, and the feedback amplitudes w = -K x at the recorded
states; the decay rate is a least-squares fit of the log norm over the
second half of the run.  The decay norm is also the theorem's norm in the
physical variables (phi, theta): y = phi - phi_inf, and z is exactly
alpha0 (theta - theta_inf) + alpha0 l0 (phi - phi_inf).  The record arrays
are sized up front (t = 0, every ``record_every``-th step and the last
step) and filled in place.  The loop copies each recorded state into a
block buffer of ``_RECORD_BLOCK_BYTES`` of stacked states
(``_record_block_rows``: 256 rows at M = 64, 64 at M = 256, 4 at
M = 4096); when the buffer fills, and once after the loop, one pass of
whole-array operations fills that block's norms and means and runs the
blow-up guard on it.  The norms are row-wise (they reduce over
the last axis, one dot product per row), so a row's value does not depend on
its place in a block and a single state is the same call on one row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .actuator import Actuator
from .config import NumericalError, RunConfig, step_count
from .linearization import LinearizedPlant
from .lqr import RiccatiSolution
from .spectral import ScalarField, _half_cosine_matrix, _mirror_sign, _weighted_norm
from .stationary import StationaryState

__all__ = [
    "TrajectoryRecord",
    "simulate",
    "fit_exponential_rate",
    "seeded_initial_state",
]

NORM_FLOOR = 1e-14  # a decay norm below this is machine noise: no rate is fitted
BLOWUP_FACTOR = 1e6  # a decay norm this many times its start is a blow-up
FIT_MIN_SAMPLES = 20  # fewest recorded rows in the fit window that give a rate
FIT_MIN_R2 = 0.99  # a log-linear fit below this R^2 gives no rate
INITIAL_MU_DECAY = 2.0  # seeded initial coefficients are damped by mu_k^-2
# recorded states buffered between two norm passes, in bytes of stacked
# (2M,) states: 256 rows at M = 64; at M = 256 a block of 256 rows took 1 MiB
# and its norm scratch another 0.5 MiB
_RECORD_BLOCK_BYTES = 256 * 1024


def _record_block_rows(M: int) -> int:
    """Rows of 2M doubles in one block of ``_RECORD_BLOCK_BYTES``, at least one."""
    return max(_RECORD_BLOCK_BYTES // (2 * M * 8), 1)


def _decay_norm(basis, x: np.ndarray, out=None, scratch=None):
    """Decay norm ||y||_{D(A^{1/2})} + ||z||_{D(A^{1/4})} of (y, z) coefficients.

    x holds y then z along its last axis; one norm per row.  ``out`` and
    ``scratch`` (the shape of y) are ``_weighted_norm``'s.
    """
    M = basis.M
    return np.add(
        _weighted_norm(basis.mu, x[..., :M], out, scratch),
        _weighted_norm(basis.sqrt_mu, x[..., M:], None, scratch),
        out,
    )


# -- nonlinear remainder ----------------------------------------------------


def _remainder_analysis(
    H: np.ndarray, HT: np.ndarray, y2: np.ndarray, phi3: np.ndarray | None,
    g: np.ndarray | None, out: np.ndarray | None = None,
    grid: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Unscaled folded analysis Z = f(y2 H^T) H, f(v) = v^3 + 3 phi_inf v^2 + g v.

    H is the top half C[:M] of the cosine matrix C of the P = 2M dealiasing
    grid, HT its transpose H.T, and y2 the (2, M) pair [(-1)^k y; y].  Since
    C[P-1-j] = (-1)^k C[j], y2 H^T is C y folded to the (2, M) array
    [bottom half reversed; top half], and ``phi3`` and ``g`` hold 3 phi_inf
    and g on the grid folded the same way.  The result Z = [Zb; Zt] gives
    the unscaled analysis of the whole grid, q = C^T f(C y) = Zt + (-1)^k Zb,
    and the modal coefficients of G(y) are -kappa (L / P) q.  Given ``out``
    ((2, M)) and ``grid`` (two (2, M) buffers), Z is written into ``out``
    and the call allocates nothing.  The time loop makes the view HT once:
    one made per call cost about 0.4 us of a 10 us step at M = 64 (2-CPU
    host, one BLAS thread).  A row given as None is identically zero, and
    its term is skipped: v * v in place of (v + 0) v, no t += 0.  Each
    skipped operation adds or multiplies an exact zero, so Z is the same,
    bit for bit, as with an all-zero row.  The cubic then takes four
    elementwise calls with no None row, three with one and two with both.
    """
    v, t = np.empty((2,) + y2.shape) if grid is None else grid
    # methods and positional out arguments: np.dot and out= keywords cost a
    # dispatch each, a tenth of a microsecond or more
    y2.dot(HT, v)
    # Horner form, in place: a float power costs more than both
    # matrix products at P = 128
    if phi3 is None:
        np.multiply(v, v, t)
    else:
        np.add(v, phi3, t)
        t *= v
    if g is not None:
        t += g
    t *= v
    return t.dot(H, out)


# -- time stepping -----------------------------------------------------------


# largest condition number of the capacitance matrix C = I_N + K J theta B
# that the Woodbury correction accepts: beyond it the correction loses more
# than half of the digits of a step
CAPACITANCE_COND_MAX = 1e8


class _Stepper:
    """The IMEX time loop of the closed loop, with operator and feedback implicit.

    Both schemes solve (I + theta (Op + B K)) x_next = r once per step, and
    only the remainder G is explicit:

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

    The constants are folded when the stepper is built.  With the unscaled
    remainder analysis q = Zt + (-1)^k Zb (``_remainder_analysis``),
    G = -kappa (L/P) q, and with J the closed-loop inverse at the scheme's
    theta, the steps are

        imex1  x_next = J (x_n + [e1 q_n; 0]),              e1 = -kappa (L/P) dt
        imex2  x_next = (J/3) (4 x_n - x_{n-1} + [e2 (2 q_n - q_{n-1}); 0]),
                                                            e2 = 2 e1

    ``e`` holds e1 and e2 folded as (2, M) factors [(-1)^k e; e] on
    [Zb; Zt], so that one in-place product scales both rows, and the two
    rows are added into the y part.  e1 and e2 have a zero mean entry
    (kappa_0 = 0) in both rows, so the explicit term leaves the means alone.

    The remainder reads the top half H = C[:M] of the cosine matrix, the
    M x M matrix that ``spectral`` caches for the dealiasing grid, and the
    plant's rows of 3 phi_inf and g (``remainder_grid``), which the plant
    keeps folded and C-contiguous, so the set-up neither slices nor copies
    them; a strided view there would send each in-place product of the
    step through NumPy's general iterator.  A row that is identically zero
    is held as None, and the remainder skips its term.

    The open-loop part of the solve is the per-mode 2x2 block inverse
    [[d, -b], [-c, a]] / det of I + theta A_k = [[a, b], [c, d]].  The
    right-hand side buffer r holds [r_y; r_z; r_Zb; r_Zt], and once r_Zb
    has been added into r_y a copy of r_y overwrites it, so that both
    R = [r_y; r_z] and its swap [r_z; r_y] are contiguous (2, M) views, and

        scale J r = D R + O [r_z; r_y],   D = scale [d; a] / det,
                                          O = scale [-b; -c] / det,

    two products and one sum, with scale 1 at theta = dt and SBDF2's 1/3 at
    theta = 2 dt/3.  A row-reversed view R[::-1] would save the copy of r_y,
    but NumPy runs it through its general iterator, which allocates about
    2 KB per call and costs about a microsecond more.  BK has rank N, so the
    closed-loop inverse is J plus a Woodbury correction.  With
    JU = J theta B (2M x N, unscaled) and the capacitance matrix
    C = I_N + K JU, the solve is

        v = (scale J) r,  w = (-C^{-1} K) v,  x = v + JU w

    at O(MN) cost.  w equals -K x, the feedback amplitude at the new state,
    so no second product forms it.

    The set-up is one pass over the scheme's thetas: dt, which imex1 steps
    with and SBDF2 takes for its first step, and SBDF2's 2 dt/3.  It
    evaluates their block inverses together, checks their capacitance
    matrices with one stacked SVD and forms their -C^{-1} K with one stacked
    solve; ``diag``, ``off``, ``JU`` and ``minus_S`` hold one entry per
    theta.  It raises NumericalError, before any division, when a block
    is not invertible at theta = dt, and when a capacitance matrix is ill
    conditioned.

    ``run`` is the time loop.  The state lives in a ring of three slots
    [ys (M); y (M); z (M); Zb (M); Zt (M); w (N)], w = -K x, x = [y; z] and
    ys = (-1)^k y, so that both [ys; y] and x are contiguous, and every
    intermediate is written into a buffer allocated once.  The right-hand
    side is one product of [x_n; Z_n] with a coefficient vector (1 at
    theta = dt, [4; 2] for SBDF2), minus [x_{n-1}; Z_{n-1}] for SBDF2; its
    Z part is scaled by the folded e1 or e2 and both its rows are added into
    its y part.  After the solve one product refreshes the new slot's ys.
    A steady nonlinear closed-loop step makes 19 NumPy calls on a
    nonconstant state, 18 on a constant one (g = 0) and 17 at phi_inf = 0
    (3 phi_inf = 0 too), and allocates no array.
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
        basis = plant.basis
        M = basis.M
        N = 0 if sol is None else act.N
        self.nonlinear = nonlinear
        blocks = plant.A_blocks
        theta = np.array([dt] if scheme == "imex1" else [dt, 2.0 * dt / 3.0])[:, None]
        S = len(theta)
        scale = np.array([1.0, 1.0 / 3.0])[:S, None, None]
        a = 1.0 + theta * blocks[:, 0, 0]
        b = theta * blocks[:, 0, 1]
        c = theta * blocks[:, 1, 0]
        d = 1.0 + theta * blocks[:, 1, 1]
        det = a * d - b * c
        # both schemes first solve at theta = dt (imex2 on its first step),
        # and det(I + theta A_k) > 0 at theta = dt keeps it positive for
        # smaller theta, so the bound on dt is the same for both
        if not np.min(det[0]) >= 1e-12:
            raise NumericalError(
                f"implicit blocks lose invertibility at dt = {dt:.3e} (min det "
                f"{np.min(det[0]):.3e}); keep dt below {self._dt_bound(blocks):.3e} "
                f"for {scheme}"
            )
        diag = np.stack([d, a], axis=1) / det[:, None]
        off = np.stack([-b, -c], axis=1) / det[:, None]
        self.diag, self.off = scale * diag, scale * off
        self.JU = self.minus_S = None
        if sol is not None:
            U2 = (theta[..., None] * act.B_matrix).reshape(S, 2, M, N)
            self.JU = (diag[..., None] * U2 + off[..., None] * U2[:, ::-1]).reshape(S, 2 * M, N)
            KJU = sol.K_gain @ self.JU
            cap = np.eye(N) + KJU
            # condition relative to the terms that form C: forming it rounds at
            # eps (1 + ||K JU||), and solving with it amplifies that by
            # 1 / sigma_min(C); plain cond(C) misses cancellation in I + K JU
            sv = np.linalg.svd(np.concatenate([cap, KJU]), compute_uv=False)
            for smin, norm_KJU in zip(sv[:S, -1], sv[S:, 0]):
                cond = (1.0 + norm_KJU) / smin if smin > 0 else np.inf
                if not cond <= CAPACITANCE_COND_MAX:
                    raise NumericalError(
                        f"capacitance matrix I + K J theta B of the implicit feedback has "
                        f"condition number {cond:.3e} at dt = {dt:.3e}, above "
                        f"{CAPACITANCE_COND_MAX:.0e}; reduce dt"
                    )
            self.minus_S = -np.linalg.solve(cap, sol.K_gain)

        P = 2 * M
        self.H = _half_cosine_matrix(basis)
        sign = self.sign = _mirror_sign(M)
        # 3 phi_inf and g, each folded to [bottom half reversed; top half];
        # None for a row that is identically zero
        self.phi3, self.g = (row if row.any() else None for row in plant.remainder_grid)
        self.grid = (np.empty((2, M)), np.empty((2, M)))
        e1 = np.empty((2, M))
        np.multiply(basis.kappa, -basis.L / P * dt, e1[1])
        np.multiply(sign, e1[1], e1[0])
        # per theta: the coefficients on [x_n; Z_n] and the factor e1 or e2
        # on the Z part
        coef = self.coef = np.ones((S, 4 * M))
        coef[1:, : 2 * M] = 4.0
        coef[1:, 2 * M :] = 2.0
        self.e = (e1, 2.0 * e1)[:S]
        self.r, self.t = np.zeros(4 * M), np.empty(2 * M)
        self.ring = np.zeros((3, 5 * M + N))

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

    def run(self, x0: np.ndarray, n_steps: int, every: int):
        """Step from x_0 = x0; yield (x_n, w_n) after every ``every``-th step and the last.

        w_n = -K x_n is the feedback amplitude at x_n (empty when open loop).
        Both are views into the ring that keep their values for two further
        steps: a caller that keeps them longer copies them.  Each call starts
        afresh with the scheme's first step; the loops of one stepper share
        its buffers, so one runs at a time.
        """
        M = len(self.sign)
        H, phi3, g, grid, sign = self.H, self.phi3, self.g, self.grid, self.sign
        HT = H.T
        nonlinear, closed = self.nonlinear, self.minus_S is not None
        remainder, multiply, copyto = _remainder_analysis, np.multiply, np.copyto
        r, t = self.r, self.t
        r_y, r_Z, r_Zb, r_Zt = r[:M], r[2 * M :].reshape(2, M), r[2 * M : 3 * M], r[3 * M :]
        t2 = t.reshape(2, M)
        r2, r2_swap = r[: 2 * M].reshape(2, M), r[M : 3 * M].reshape(2, M)
        # each slot: [x; Z], [ys; y] and Z as (2, M), ys, y, x, x as (2, M),
        # w; all views of one row [ys; y; z; Zb; Zt; w]
        slots = [
            (row[M : 5 * M], row[: 2 * M].reshape(2, M), row[3 * M : 5 * M].reshape(2, M),
             row[:M], row[M : 2 * M], row[M : 3 * M], row[M : 3 * M].reshape(2, M),
             row[5 * M :])
            for row in self.ring
        ]
        copyto(slots[1][5], x0)
        multiply(sign, slots[1][4], slots[1][3])
        # step n reads the slots of x_{n-2} and x_{n-1} and writes x_n into
        # the third; the slots rotate, so the frames repeat every three steps
        frames = itertools.cycle(
            [(slots[k][0], *slots[(k + 1) % 3][:3], *slots[(k + 2) % 3][3:]) for k in range(3)]
        )
        # per theta: the folded block inverse, the right-hand side's factors,
        # whether it is SBDF2's, and the Woodbury products as bound methods
        solves = [
            (self.diag[i], self.off[i], self.coef[i], self.e[i], i == 1,
             self.minus_S[i].dot if closed else None, self.JU[i].dot if closed else None)
            for i in range(len(self.coef))
        ]
        due = min(every, n_steps)
        n = 0
        # step 1 solves at theta = dt, every later step at the scheme's steady theta
        for (diag, off, coef, e, sbdf2, minus_S_dot, JU_dot), last in (
            (solves[0], min(n_steps, 1)), (solves[-1], n_steps)
        ):
            # zip asks the range first, so it takes no frame past the last step
            for n, (xZ_old, xZ, y2, Z, ys, y, x, x2, w) in zip(range(n + 1, last + 1), frames):
                if nonlinear:
                    remainder(H, HT, y2, phi3, g, Z, grid)
                multiply(coef, xZ, r)
                if sbdf2:
                    r -= xZ_old
                if nonlinear:
                    r_Z *= e
                    r_y += r_Zb
                    r_y += r_Zt
                copyto(r_Zb, r_y)
                multiply(diag, r2, x2)
                multiply(off, r2_swap, t2)
                x2 += t2
                if closed:
                    minus_S_dot(x, w)
                    JU_dot(w, t)
                    x += t
                if nonlinear:
                    multiply(sign, y, ys)
                if n == due:
                    due = min(due + every, n_steps)
                    yield x, w


# -- trajectories ------------------------------------------------------------


@dataclass
class TrajectoryRecord:
    """Recorded rows of one run.

    ``xi_norms`` holds the decay norm ||y||_{D(A^1/2)} + ||z||_{D(A^1/4)}
    of the recorded states, ``h_norms`` their product-space norm, and
    ``mean_y`` and ``mean_z`` their conserved means.
    ``control_amplitudes[i]`` is w_i = -K x(t_i), the amplitude of the
    implicit feedback at the recorded state (row 0 included); the forcing is
    ``B_matrix @ w_i``.  ``final_x`` is the state at the last step, the
    stepper's stacked (2M,) vector [y; z] of modal coefficients.
    """

    times: np.ndarray
    xi_norms: np.ndarray
    h_norms: np.ndarray
    mean_y: np.ndarray
    mean_z: np.ndarray
    control_amplitudes: np.ndarray  # (n_rec, N), empty second axis when open loop
    fitted_rate: float | None
    fit_window: tuple[float, float]
    fit_r2: float | None
    final_x: np.ndarray = field(repr=False)


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
) -> TrajectoryRecord:
    """Integrate to t_end, recording norms, means and feedback amplitudes.

    One ``_Stepper`` is built per call, and its ``run`` loop yields the
    state and the feedback amplitudes of every recorded step; the rows wait
    in a block buffer for their norm pass.  The decay rate is fitted on
    log(xi norm) over the second half of the run, [t_end / 2, t_end].
    Raises ValueError unless t_end is a positive whole number of steps dt
    to rounding (``config.step_count``), and NumericalError, with facts
    ``t`` and ``norm``, at the first recorded row whose decay norm exceeds
    ``BLOWUP_FACTOR`` times its initial value or stops being finite; rows
    are checked once per block (``_record_block_rows``), so up to one block
    of further steps runs first.  ``stat`` is not used; it stays for callers
    that still pass it.
    """
    stepper = _Stepper(plant, dt, sol, act, nonlinear, scheme)
    basis = plant.basis
    M = basis.M
    fit_window = (0.5 * t_end, t_end)

    x = np.concatenate([y0.coeffs, z0.coeffs])
    n_steps = step_count(t_end, dt)
    w = -(sol.K_gain @ x) if sol is not None else np.zeros(0)

    # rows: t = 0, every record_every-th step, and the last step once; any
    # record_every from the step count on records t = 0 and t_end alone, and
    # clamping it there keeps the product below inside int64
    record_every = min(record_every, n_steps)
    n_rows = n_steps // record_every + 1 + (n_steps % record_every != 0)
    times = np.minimum(np.arange(n_rows) * record_every, n_steps) * dt
    xi_s, h_s, my_s, mz_s = np.empty((4, n_rows))
    amps = np.empty((n_rows, len(w)))
    sqrtL = np.sqrt(basis.L)
    xi0 = _decay_norm(basis, x)
    bound = BLOWUP_FACTOR * max(xi0, NORM_FLOOR)
    # row r waits in block[r % rows] until its block's pass, which writes
    # straight into the record arrays through one (rows, M) scratch
    rows = _record_block_rows(M)
    block = np.empty((min(rows, n_rows), 2 * M))
    scratch = np.empty(block[:, :M].shape)

    def record_block(stop: int) -> None:
        """Fill the rows of the block that ends before row ``stop``, then guard them."""
        first = (stop - 1) // rows * rows
        span = slice(first, stop)
        x_b, s = block[: stop - first], scratch[: stop - first]
        y_b, z_b = x_b[:, :M], x_b[:, M:]
        xi = _decay_norm(basis, x_b, xi_s[span], s)
        h = h_s[span]
        np.hypot(_weighted_norm(1.0, y_b, h, s), _weighted_norm(1.0, z_b, None, s), h)
        np.divide(y_b[:, 0], sqrtL, my_s[span])
        np.divide(z_b[:, 0], sqrtL, mz_s[span])
        # row 0 sets the bound and is not checked against it
        skip = 1 if first == 0 else 0
        over = np.flatnonzero(~np.isfinite(xi[skip:]) | (xi[skip:] > bound))
        if over.size:
            row = first + skip + int(over[0])
            t = float(times[row])
            raise NumericalError(
                f"decay norm {xi_s[row]:.3e} at t={t:.3f} is not finite or exceeds "
                f"{BLOWUP_FACTOR:.0e} x initial {xi0:.3e}",
                t=t,
                norm=float(xi_s[row]),
            )

    block[0] = x
    amps[0] = w
    row = 0
    # a blow-up overflows the remainder and the norms before a block's guard
    # sees it; the guard reports it, so NumPy's warnings would only precede
    # that message
    with np.errstate(over="ignore", invalid="ignore"):
        for x, w in stepper.run(x, n_steps, record_every):
            row += 1
            block[row % rows] = x
            amps[row] = w
            if (row + 1) % rows == 0:
                record_block(row + 1)
        if n_rows % rows:
            record_block(n_rows)

    rate, r2 = fit_exponential_rate(times, xi_s, fit_window)

    return TrajectoryRecord(
        times=times,
        xi_norms=xi_s,
        h_norms=h_s,
        mean_y=my_s,
        mean_z=mz_s,
        control_amplitudes=amps,
        fitted_rate=rate,
        fit_window=fit_window,
        fit_r2=r2,
        final_x=x.copy(),
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
