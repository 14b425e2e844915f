"""Independent oracles that the tests check the package against.

None of these is on the pipeline path, and no module under ``src/`` imports
this file (``test_cli.py::TestPipeline::test_oracles_stay_off_the_pipeline_path``
asserts both).  The file has no ``test_`` prefix, so pytest does not collect
it; the tests import it as ``oracles`` through ``pythonpath = ["tests"]``.

``basis_function``
    e_k at any points by its cosine formula, not the cached cosine matrix.
    Used across ``test_spectral.py`` and by ``test_sim.py::TestRemainderTerm``.

``cosine_matrix``
    The whole P x M matrix of the basis functions at the P-point midpoint
    grid.  The package caches only the top half of the 2M-point grid's
    matrix and synthesizes and analyses there through the mirror fold
    (``spectral._folded_values`` and ``_folded_coeffs``); this is the
    unfolded reference they are checked against, and the orthonormal DCT-II
    pair checks it.  Used by ``test_spectral.py::TestCosineMatrix`` and
    ``::TestFoldedPair``, ``test_sim.py::TestFoldedRemainder`` and
    ``test_lqr.py::TestTrueLoopCertificate``.

``eigenvectors``
    The plant's dense orthonormal eigenvector matrix V, scattered from its
    per-mode eigen indices ``eig_pos`` and rotations ``eig_rot`` by one
    ``put_along_axis``; the package keeps only those two.  Used across
    ``test_linearization.py``, ``test_lqr.py``, ``test_actuator.py`` and
    ``test_sim.py``, by ``test_acceptance.py::test_c01_spectral_oracle`` and
    by ``propagate_linear_with_control`` and ``solve_care_integrated`` below.

``apply_B``
    The nodal input map, formed at the nodes so it vanishes outside omega; it
    checks ``Actuator.B_matrix``.  Used by ``test_actuator.py::TestBMaps``,
    ``test_lqr.py::TestFeedback`` and ``test_sim.py::TestSimulate``.

``to_physical``, ``from_physical`` and ``physical_norm``
    The map from the deviation (y, z) to the physical variables (phi, theta)
    about a stationary state, its inverse, and the theorem's decay norm
    computed in (phi, theta).  The package records only the (y, z) decay
    norm ``sim._decay_norm``; these check that it is the theorem's norm.
    Used by ``test_sim.py::TestPhysicalMap`` and
    ``test_acceptance.py::test_c07_theorem_norm_identity``.

``plan_control(plan, act, t)``
    W(t) of a null-control plan by its closed-form formula at one time, zero
    outside [0, T0), with Lambda and D read from the actuator the plan was
    built from.  It checks the plan's ``W_samples`` and drives the steering
    checks.  Used by
    ``test_acceptance.py::test_c03_controllability_and_steering``,
    ``test_actuator.py::TestNullControl`` and ``::TestOpenLoopExtension``.

``rk4_propagate``
    Classical fixed-step RK4.  It re-integrates the unstable modal ODEs
    xi' = -Lambda xi + D W(t) under a null-control plan, which checks the
    plan's steering without its Gramian or its Gauss-quadrature residual.
    Used by ``test_acceptance.py::test_c03_controllability_and_steering`` and
    ``test_actuator.py::TestNullControl::test_steering_by_independent_rk4``.

``propagate_linear_with_control`` (with ``_phi1`` and ``_phi2``)
    Exponential-trapezoidal stepping of the linear open loop
    x' = -Op x + B W(t) in eigen-coordinates.  It checks the closed-form
    steering leg and the gap-rate decay of the stable tail.  Used by
    ``test_actuator.py::TestStableTailDecay::test_first_stable_mode_decays_at_gap_rate``
    and ``::test_etd_propagator_matches_exact_tail``.

``remainder_G_expanded``
    The remainder G(y) = Lap(y^3 + 3 phi_inf y^2 + g y) expanded by the
    product rule into seven pseudospectral terms.  It checks the stepper's
    folded kernel ``sim._remainder_analysis``, through q = Zt + (-1)^k Zb
    formed from its output.  Used by
    ``test_acceptance.py::test_c08_remainder_equivalence`` and by
    ``test_sim.py::TestRemainderTerm`` (``test_direct_vs_expanded_*``,
    ``test_quadratic_scaling``, ``test_cubic_scaling_around_zero``).

``solve_care_dense``
    The CARE for a dense symmetric operator, diagonalized by ``eigh``.  With
    ``method="newton"`` it counts the eigenpairs at or below 1e-10 (the
    plant's unstable split), starts from the Hamiltonian LQR gain
    ``lqr._care_hamiltonian`` of that block (the zero gain when it is
    empty) and iterates the package's dense step ``lqr._dense_step`` until
    the package's probe (``_PROBE_SAMPLES``, ``_PROBE_SEED``) meets tol, so
    the scalar closed-form checks exercise package kernels.  With
    ``method="integrate"`` it runs the integrated route below.  Used by
    ``test_acceptance.py::test_c04_riccati_certificate`` (scalar closed
    forms) and ``test_lqr.py::TestScalarOracles``.

``solve_care_integrated`` (with ``_care_integrate``)
    Marches the differential Riccati equation from P(0) = 0 to rest with an
    exponential-Euler step in the operator eigenbasis.  The linear part is
    integrated exactly entrywise, so the fixed point of the marching map is
    the exact algebraic solution for any step size.  It checks the
    Newton-Kleinman gain of ``lqr.solve_care`` on the plant's exact
    eigenpairs.  Used by ``test_acceptance.py::test_c04_riccati_certificate``
    (Newton against the integrated route at M = 8),
    ``test_lqr.py::TestMethodAgreement::test_newton_vs_integrate_m8`` and
    ``test_lqr.py::TestScalarOracles::test_both_methods_on_scalar``.  It is
    slow: 51 s at M = 256.

``riccati_residual``
    Re-certifies a gain's quadratic-form identity on a fresh random probe
    draw through ``lqr._probe_residual``, with R applied as the dense
    ``sol.R_matrix``.  Used by
    ``test_lqr.py::TestRiccatiSolution::test_perturbation_inflates_residual``
    and ``::test_fresh_probe_residual``.

``scatter_R``
    The dense R of the compact form (``R_rows``, ``R_cross``, ``R_blocks``)
    by scattering: the cross written into the columns ``R_rows`` of a zeroed
    n x n array, its transpose added to those rows, then each mode's 2 x 2
    block added on the diagonals of the four M x M quadrants.  This is how
    the first Newton step wrote X1 before it kept the compact form; it
    checks ``RiccatiSolution.R_matrix`` bit for bit.  Used by
    ``test_lqr.py::TestCompactR`` and by ``test_lqr.py``'s first-step helper.
"""

from __future__ import annotations

import numpy as np

from phasestab import lqr
from phasestab.config import NumericalError
from phasestab.spectral import ScalarField, _coeffs_from_grid, _values_on_grid, gradient_values


def basis_function(basis, k: int, x: np.ndarray) -> np.ndarray:
    """e_k(x) = sqrt(1/L) for k = 0, else sqrt(2/L) cos(k pi x / L)."""
    if k == 0:
        return np.full_like(x, np.sqrt(1.0 / basis.L))
    return np.sqrt(2.0 / basis.L) * np.cos(k * np.pi * x / basis.L)


def cosine_matrix(basis, P: int) -> np.ndarray:
    """C[j, k] = e_k(x_j) at the P midpoints x_j = (j + 1/2) L / P.

    k pi x_j / L = pi k (2j + 1) / (2P), with k (2j + 1) reduced modulo 4P
    in integers, so every entry is accurate to round-off at any M.
    """
    turns = np.outer(2 * np.arange(P) + 1, np.arange(basis.M)) % (4 * P)
    C = np.sqrt(2.0 / basis.L) * np.cos(np.pi * turns / (2 * P))
    C[:, 0] = np.sqrt(1.0 / basis.L)
    return C


def eigenvectors(plant) -> np.ndarray:
    """Dense 2M x 2M V with V[c M + k, eig_pos[k, b]] = eig_rot[c, k, b] and zeros elsewhere."""
    M = plant.M
    V = np.zeros((2, M, 2 * M))
    np.put_along_axis(V, np.broadcast_to(plant.eig_pos, (2, M, 2)), plant.eig_rot, axis=2)
    return V.reshape(2 * M, 2 * M)


def apply_B(act, W: np.ndarray) -> tuple[ScalarField, ScalarField]:
    """Forcing pair (sum_i w phi_i W_i, sum_i w psi_i W_i) from node values."""
    W = np.asarray(W, dtype=float)
    if W.shape != (act.N,):
        raise ValueError(f"expected {act.N} control amplitudes, got shape {W.shape}")
    basis, M = act.weight.basis, act.weight.basis.M
    fy, fz = (
        ScalarField.from_values(basis, act.weight.values * (_values_on_grid(basis, part, M) @ W))
        for part in (act.modes[:M], act.modes[M:])
    )
    return fy, fz


def to_physical(y: np.ndarray, z: np.ndarray, stat, params):
    """(phi, theta) coefficients: phi = y + phi_inf, theta = sigma / alpha0 - l0 phi.

    sigma = z + sigma_inf with sigma_inf = alpha0 (theta_inf + l0 phi_inf).
    """
    phi_inf = stat.phi_inf.coeffs
    theta_inf = ScalarField.constant(stat.basis, stat.theta_inf).coeffs
    sigma = z + params.alpha0 * (theta_inf + params.l0 * phi_inf)
    phi = y + phi_inf
    return phi, sigma / params.alpha0 - params.l0 * phi


def physical_norm(phi: np.ndarray, theta: np.ndarray, stat, params):
    """The theorem's decay norm in the physical variables, one per row:

        ||phi - phi_inf||_{D(A^1/2)}
            + ||alpha0 (theta - theta_inf) + alpha0 l0 (phi - phi_inf)||_{D(A^1/4)},

    each graph norm summed as sqrt(sum mu_k^{2 alpha} c_k^2).
    """
    mu = stat.basis.mu
    dphi = phi - stat.phi_inf.coeffs
    dtheta = theta - ScalarField.constant(stat.basis, stat.theta_inf).coeffs
    combo = params.alpha0 * (dtheta + params.l0 * dphi)
    return np.sqrt(np.sum(mu * dphi**2, axis=-1)) + np.sqrt(np.sum(np.sqrt(mu) * combo**2, axis=-1))


def from_physical(phi: np.ndarray, theta: np.ndarray, stat, params):
    """(y, z) coefficients: y = phi - phi_inf, z = alpha0 (theta - theta_inf + l0 y)."""
    y = phi - stat.phi_inf.coeffs
    dtheta = theta - ScalarField.constant(stat.basis, stat.theta_inf).coeffs
    return y, params.alpha0 * (dtheta + params.l0 * y)


def plan_control(plan, act, t: float) -> np.ndarray:
    """W(t) = D^T exp(-Lambda (T0 - t)) eta of a plan built from act; zero outside [0, T0)."""
    if t < 0.0 or t >= plan.T0:
        return np.zeros(act.N)
    return act.D_matrix.T @ (np.exp(-act.lambdas * (plan.T0 - t)) * plan.eta)


def rk4_propagate(f, x0: np.ndarray, t0: float, t1: float, steps: int) -> np.ndarray:
    """Classical RK4 with fixed step."""
    x = np.array(x0, dtype=float)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return x


def _phi1(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < 1e-5
    safe = np.where(small, 1.0, z)
    out = np.expm1(safe) / safe
    return np.where(small, 1.0 + z / 2.0 + z**2 / 6.0, out)


def _phi2(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < 1e-5
    safe = np.where(small, 1.0, z)
    out = (np.expm1(safe) - safe) / safe**2
    return np.where(small, 0.5 + z / 6.0 + z**2 / 24.0, out)


def propagate_linear_with_control(
    plant,
    act,
    control,
    x0: np.ndarray,
    t_end: float,
    dt: float,
    record_times: np.ndarray,
) -> np.ndarray:
    """Linear open-loop trajectory x' = -Op x + B W(t) in eigen-coordinates.

    Exponential trapezoidal stepping handles the stiff stable branch exactly
    when the control vanishes, so the post-steering tail decays at the true
    modal rates.  Returns the stacked eigen-coordinate states at the
    requested times (nearest step).
    """
    lam = plant.eigenvalues
    V = eigenvectors(plant)
    B_e = V.T @ act.B_matrix
    xi = V.T @ np.asarray(x0, dtype=float)

    z = -lam * dt
    decay = np.exp(z)
    w1 = dt * (_phi1(z) - _phi2(z))
    w2 = dt * _phi2(z)

    n_steps = int(round(t_end / dt))
    record_idx = np.clip(np.round(np.asarray(record_times) / dt).astype(int), 0, n_steps)
    out = np.empty((len(record_times), len(xi)))
    pending = {}
    for j, idx in enumerate(record_idx):
        pending.setdefault(int(idx), []).append(j)
    for j in pending.get(0, []):
        out[j] = xi
    f_now = B_e @ control(0.0)
    for n in range(1, n_steps + 1):
        f_next = B_e @ control(n * dt)
        xi = decay * xi + w1 * f_now + w2 * f_next
        f_now = f_next
        for j in pending.get(n, []):
            out[j] = xi
    return out


def remainder_G_expanded(y: ScalarField, phi_inf: ScalarField, g: ScalarField) -> ScalarField:
    """Sum of the seven product-rule terms of G(y), each pseudospectral.

    3y^2 Lap y, 6y|grad y|^2, 12 y grad y . grad phi_inf, 3y^2 Lap phi_inf,
    6 phi_inf y Lap y, 6 phi_inf |grad y|^2 and Lap(g y).
    """
    basis = y.basis
    if phi_inf.basis.M != basis.M or g.basis.M != basis.M:
        raise ValueError("fields live on different bases")
    P = 2 * basis.M

    yv = _values_on_grid(basis, y.coeffs, P)
    dyv = gradient_values(y, P)
    lapyv = _values_on_grid(basis, -basis.kappa * y.coeffs, P)

    pv = _values_on_grid(basis, phi_inf.coeffs, P)
    dpv = gradient_values(phi_inf, P)
    lappv = _values_on_grid(basis, -basis.kappa * phi_inf.coeffs, P)

    gv = _values_on_grid(basis, g.coeffs, P)
    dgv = gradient_values(g, P)
    lapgv = _values_on_grid(basis, -basis.kappa * g.coeffs, P)

    total = (
        3.0 * yv**2 * lapyv
        + 6.0 * yv * dyv**2
        + 12.0 * yv * dyv * dpv
        + 3.0 * yv**2 * lappv
        + 6.0 * pv * yv * lapyv
        + 6.0 * pv * dyv**2
        + (gv * lapyv + yv * lapgv + 2.0 * dyv * dgv)
    )
    return ScalarField(basis, _coeffs_from_grid(basis, total))


def _care_integrate(
    lam: np.ndarray,
    S_e: np.ndarray,
    Q_e: np.ndarray,
    tol_steady: float = 1e-12,
    h_max: float = 0.1,
    max_steps: int = 5_000_000,
) -> tuple[np.ndarray, int]:
    """March dP/dt = -(lam_i+lam_j) P + Q_e - P S_e P to rest (eigenbasis coords).

    Exponential Euler: the diagonal linear part is integrated exactly, the
    rest explicitly with an adaptive step bounded by the local Lipschitz size
    of the quadratic term.  The fixed point solves the algebraic equation
    exactly for any step size, so only convergence speed depends on h.
    """
    n = len(lam)
    s = lam[:, None] + lam[None, :]
    zero = s == 0.0
    safe = np.where(zero, 1.0, s)
    P = np.zeros((n, n))
    for step in range(1, max_steps + 1):
        SP = S_e @ P
        N = Q_e - P @ SP
        lipschitz = 2.0 * np.linalg.norm(SP, "fro")
        h = min(h_max, 1.0 / (lipschitz + 1e-12))
        E = np.exp(-s * h)
        phi = np.where(zero, h, (1.0 - E) / safe)
        P_new = E * P + phi * N
        P_new = 0.5 * (P_new + P_new.T)
        delta = np.linalg.norm(P_new - P, "fro") / (h * max(np.linalg.norm(P, "fro"), 1.0))
        P = P_new
        if delta <= tol_steady:
            return P, step
    raise NumericalError(f"differential Riccati marching did not settle in {max_steps} steps")


def _integrated_R(B: np.ndarray, Q_diag: np.ndarray, lam: np.ndarray, V: np.ndarray):
    """The integrated route in the eigenbasis (lam, V) of the operator: (R, steps)."""
    B_e = V.T @ B
    S_e = B_e @ B_e.T
    Q_e = V.T @ np.diag(Q_diag) @ V
    Q_e = 0.5 * (Q_e + Q_e.T)
    P_e, steps = _care_integrate(lam, S_e, Q_e)
    R = V @ P_e @ V.T
    return 0.5 * (R + R.T), steps


def solve_care_integrated(plant, act) -> np.ndarray:
    """R by the integrated route on the plant's exact per-block eigenpairs."""
    R, _ = _integrated_R(
        act.B_matrix, plant.state_weight_diagonal(), plant.eigenvalues, eigenvectors(plant)
    )
    return R


def solve_care_dense(
    A_op: np.ndarray,
    B: np.ndarray,
    Q_diag: np.ndarray,
    method: str = "newton",
    tol: float = 1e-9,
    max_iters: int = 50,
) -> tuple[np.ndarray, int, list[dict]]:
    """Solve Op R + R Op + R B B^T R = diag(Q_diag) for symmetric Op.

    Returns (R, iterations, history).  ``A_op`` is the accretive operator of
    the dynamics x' = -A_op x + B W, diagonalized by a dense symmetric solve.
    """
    A_op = np.asarray(A_op, dtype=float)
    B = np.asarray(B, dtype=float).reshape(A_op.shape[0], -1)
    Q_diag = np.asarray(Q_diag, dtype=float)
    lam, V = np.linalg.eigh(A_op)
    if method == "newton":
        n_u = int(np.sum(lam <= 1e-10))  # eigh sorts ascending
        V_U = V[:, :n_u]
        K = np.zeros((B.shape[1], len(lam)))
        if n_u:
            D = V_U.T @ B
            P_u = lqr._care_hamiltonian(-np.diag(lam[:n_u]), D, V_U.T @ np.diag(Q_diag) @ V_U)
            K = (P_u @ D).T @ V_U.T
        history: list[dict] = []
        for _ in range(max(max_iters, 1)):
            R, margin = lqr._dense_step(A_op, B, Q_diag, K)
            res = lqr._probe_residual(
                lambda X: X @ R, lambda X: X @ A_op.T, B, Q_diag, lqr._PROBE_SAMPLES,
                np.random.default_rng(lqr._PROBE_SEED),
            )
            history.append({"margin": margin, "residual": res})
            if res <= tol:
                break
            K = B.T @ R
        return R, len(history), history
    if method == "integrate":
        R, steps = _integrated_R(B, Q_diag, lam, V)
        return R, steps, []
    raise ValueError(f"unknown Riccati method {method!r}; use 'newton' or 'integrate'")


def riccati_residual(sol, plant, act, samples: int = 100, seed: int = 0) -> float:
    """The probe residual of ``sol.R_matrix`` on ``samples`` fresh unit vectors."""
    R = sol.R_matrix
    return lqr._probe_residual(
        lambda X: X @ R,
        plant.apply_operator,
        act.B_matrix,
        plant.state_weight_diagonal(),
        samples,
        np.random.default_rng(seed),
    )


def scatter_R(rows: np.ndarray, cross: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """R = cross S^T + S cross^T + blockdiag(blocks), scattered into a zeroed n x n array."""
    n, M = cross.shape[0], blocks.shape[0]
    R = np.zeros((n, n))
    R[:, rows] = cross
    R[rows] += cross.T
    k = np.arange(M)
    R.reshape(2, M, 2, M)[:, k, :, k] += blocks
    return R
