"""Riccati synthesis of the stabilizing feedback -B B* R.

The gain comes from the infinite-horizon quadratic problem with state cost
||A^{3/2} y||^2 + ||A^{3/4} z||^2 and identity control cost.  Its value
function (1/2) x^T R x satisfies, in the symmetric form used here,

    Op R + R Op + R B B^T R = Ahat,      Ahat = diag(mu_k^3, mu_k^{3/2}),

where Op is the (self-adjoint, block-diagonal) plant operator; the dynamics
are x' = -Op x + B W and the optimal feedback is W = -B^T R x.  This is the
standard CARE for A = -Op, and the quadratic-form identity

    2 x^T R Op x + ||B^T R x||^2 = x^T Ahat x

is the residual we certify.

The solve is Newton-Kleinman iteration, initialized by a small
Hamiltonian-eigenvector LQR solve on the unstable block (stabilizing because
the complement is open-loop stable).  That block is the actuator's
eigenpairs ``lambdas``/``modes`` with their input matrix ``D_matrix``, so
which modes count as unstable is decided once, in ``linearization``.  Each
iteration takes one real Schur form of the closed loop; it serves both the
stabilizing check and the Lyapunov solve, which is a recursive blocked
Bartels-Stewart solve (Jonsson & Kagstrom, ACM TOMS 28, 2002) with LAPACK
``trsyl`` at the leaves.  The start gain acts only through the unstable
eigenvectors, so the first closed loop is block triangular in the plant's
closed-form eigenbasis and its Schur form comes from one N x N Schur form
(``_start``); only later iterations factor the dense 2M x 2M closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .actuator import Actuator
from .linearization import LinearizedPlant

__all__ = [
    "RiccatiSolution",
    "RiccatiError",
    "solve_care",
    "riccati_residual",
]


class RiccatiError(RuntimeError):
    """Riccati solve failed; carries the iterate log for diagnosis."""

    def __init__(self, message: str, history: list[dict] | None = None):
        super().__init__(message)
        self.history = history or []


@dataclass
class RiccatiSolution:
    R_matrix: np.ndarray  # (2M, 2M) symmetric positive definite
    K_gain: np.ndarray  # (N, 2M) = B^T R
    residual_rel: float
    closed_loop_eigs: np.ndarray
    margin: float
    Q_diag: np.ndarray
    iterations: int
    residual_history: list[float] = field(default_factory=list, repr=False)

    @property
    def dim(self) -> int:
        return self.R_matrix.shape[0]


# Probe sets of the quadratic-form residual: the same draw at every Newton
# iteration (its stop rule), and a separate draw for the reported residual
_PROBE_SAMPLES, _PROBE_SEED = 32, 12345
_REPORT_SAMPLES, _REPORT_SEED = 100, 202


def _probe_residual(
    R: np.ndarray,
    A_op: np.ndarray,
    B: np.ndarray,
    Q_diag: np.ndarray,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """max over random unit x of |x^T(R Op + Op R)x + ||B^T R x||^2 - x^T Ahat x| / x^T Ahat x."""
    # row i of one (samples, dim) draw is the i-th of `samples` draws of dim
    X = rng.standard_normal((samples, R.shape[0]))
    X /= np.linalg.norm(X, axis=1)[:, None]
    RX = X @ R.T
    quad = 2.0 * np.sum(RX * (X @ A_op.T), axis=1) + np.sum((RX @ B) ** 2, axis=1)
    target = (X * X) @ Q_diag
    return float(np.max(np.abs(quad - target) / target))


def _care_hamiltonian(A: np.ndarray, B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Small-matrix CARE A^T P + P A - P B B^T P + Q = 0 via the Hamiltonian.

    The stable invariant subspace [X; Y] of H = [[A, -BB^T], [-Q, -A^T]]
    yields P = Y X^{-1}.
    """
    n = A.shape[0]
    H = np.block([[A, -B @ B.T], [-Q, -A.T]])
    eigvals, eigvecs = np.linalg.eig(H)
    stable = eigvals.real < 0
    if stable.sum() != n:
        raise RiccatiError(
            f"Hamiltonian has {int(stable.sum())} stable eigenvalues, expected {n}"
        )
    basis = eigvecs[:, stable]
    X, Y = basis[:n], basis[n:]
    try:
        P = np.real(Y @ np.linalg.solve(X, np.eye(n, dtype=complex)))
    except np.linalg.LinAlgError:
        raise RiccatiError(
            "stable invariant subspace is degenerate; the unstable block is "
            "not stabilizable through this actuator"
        )
    return 0.5 * (P + P.T)


_TRSYL = scipy.linalg.get_lapack_funcs("trsyl", dtype=np.float64)
_LEAF = 48  # blocks up to this size go to LAPACK's unblocked trsyl


def _trsyl(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
    """Overwrite C with Y solving A Y + Y B^T = C (A, B upper quasi-triangular)."""
    Y, scale, info = _TRSYL(A, B, C, tranb="T")
    if info < 0:
        raise RiccatiError(f"trsyl rejected its argument {-info}")
    if info == 1:
        raise RiccatiError(
            "trsyl perturbed a near-zero eigenvalue sum lambda_i + lambda_j; "
            "the Lyapunov operator is (nearly) singular"
        )
    if scale != 1.0:
        # LAPACK solves for scale * C to avoid overflow
        raise RiccatiError(f"trsyl scaled the right-hand side by {scale:.3e}")
    C[...] = Y


def _split(T: np.ndarray) -> int:
    """Split index near n/2 of the quasi-triangular T that cuts no 2x2 block."""
    h = T.shape[0] // 2
    return h + 1 if T[h, h - 1] != 0.0 else h


def _sylvester_schur(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
    """Overwrite C with Y solving A Y + Y B^T = C, recursively blocked."""
    m, n = C.shape
    if max(m, n) <= _LEAF:
        _trsyl(A, B, C)
    elif m >= n:
        h = _split(A)
        _sylvester_schur(A[h:, h:], B, C[h:])
        C[:h] -= A[:h, h:] @ C[h:]
        _sylvester_schur(A[:h, :h], B, C[:h])
    else:
        h = _split(B)
        _sylvester_schur(A, B[h:, h:], C[:, h:])
        C[:, :h] -= C[:, h:] @ B[:h, h:].T
        _sylvester_schur(A, B[:h, :h], C[:, :h])


def _lyapunov_schur(T: np.ndarray, F: np.ndarray) -> None:
    """Overwrite symmetric F with Y solving T Y + Y T^T = F, T in real Schur form.

    Recursive blocked Bartels-Stewart: with T split as [[T11, T12], [0, T22]],
    solve the trailing Lyapunov block, then the Sylvester equation
    T11 Y12 + Y12 T22^T = F12 - T12 Y22, set Y21 = Y12^T and recurse into
    T11 Y11 + Y11 T11^T = F11 - T12 Y21 - (T12 Y21)^T.
    """
    if F.shape[0] <= _LEAF:
        _trsyl(T, T, F)
        return
    h = _split(T)
    T12 = T[:h, h:]
    _lyapunov_schur(T[h:, h:], F[h:, h:])
    F[:h, h:] -= T12 @ F[h:, h:]
    _sylvester_schur(T[:h, :h], T[h:, h:], F[:h, h:])
    F[h:, :h] = F[:h, h:].T
    update = T12 @ F[h:, :h]
    F[:h, :h] -= update + update.T
    _lyapunov_schur(T[:h, :h], F[:h, :h])


def _start(
    lam: np.ndarray, V: np.ndarray, B: np.ndarray, D: np.ndarray, Q_diag: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Start gain K0 and the real Schur pair (T, Z) of its closed loop, in closed form.

    K0 = D^T P_u V_U^T is the Hamiltonian LQR gain of the leading N = len(D)
    eigenpairs (Lam_U, V_U) of Op = V diag(lam) V^T.  It acts only through
    V_U, so the transposed closed loop is block upper triangular in the
    eigenbasis:

        V^T (A - B K0)^T V = [[-(Lam_U + P_u D D^T), -P_u D b_S^T], [0, -Lam_S]],

    with b_S = V_S^T B.  One N x N Schur form z t z^T of the leading block
    completes it: Z is V with V_U replaced by V_U z, and T carries t, the
    rotated coupling -z^T P_u D b_S^T and the diagonal -Lam_S.
    """
    N = len(D)
    T = np.diag(-lam)
    Z = V.copy()
    if N == 0:
        return np.zeros((B.shape[1], len(lam))), (T, Z)
    V_u = V[:, :N]
    P_u = _care_hamiltonian(-np.diag(lam[:N]), D, V_u.T @ np.diag(Q_diag) @ V_u)
    t, z = scipy.linalg.schur(-(np.diag(lam[:N]) + P_u @ D @ D.T), output="real")
    T[:N, :N] = t
    T[:N, N:] = -(z.T @ P_u @ D) @ (B.T @ V[:, N:])
    Z[:, :N] = V_u @ z
    return (D.T @ P_u) @ V_u.T, (T, Z)


def _newton_kleinman(
    A: np.ndarray,
    B: np.ndarray,
    Q_diag: np.ndarray,
    K0: np.ndarray,
    tol: float,
    max_iters: int,
    first: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, list[dict]]:
    """Kleinman iteration: Lyapunov solve for the closed loop, then K = B^T X.

    ``first`` is the real Schur pair (T, Z) of (A - B K0)^T when the caller
    has it in closed form; every other closed loop is factored densely.
    """
    Q = np.diag(Q_diag)
    K = K0
    history: list[dict] = []
    X = None
    for it in range(max_iters):
        if it == 0 and first is not None:
            T, Z = first
        else:
            # A_cl^T = Z T Z^T; a complex pair's 2x2 block carries its real
            # part on both diagonal entries
            T, Z = scipy.linalg.schur((A - B @ K).T, output="real")
        margin = -float(np.max(np.diag(T)))
        if margin <= 0.0:
            raise RiccatiError(
                f"iterate {it} lost the stabilizing property (margin {margin:.3e})",
                history,
            )
        # A_cl^T X + X A_cl = -(Q + K^T K) becomes T Y + Y T^T = Z^T rhs Z
        Y = Z.T @ (-(Q + K.T @ K)) @ Z
        try:
            _lyapunov_schur(T, Y)
        except RiccatiError as exc:
            raise RiccatiError(f"Lyapunov solve failed at iterate {it}: {exc}", history) from exc
        X = Z @ Y @ Z.T
        X = 0.5 * (X + X.T)
        K = B.T @ X
        # identical probe set every iteration so residuals are comparable
        res = _probe_residual(
            X, -A, B, Q_diag, _PROBE_SAMPLES, np.random.default_rng(_PROBE_SEED)
        )
        history.append({"iteration": it, "margin": margin, "residual": res})
        if res <= tol:
            return X, history
    return X, history


def _solve_care_core(
    A_op: np.ndarray,
    B: np.ndarray,
    Q_diag: np.ndarray,
    lam: np.ndarray,
    V: np.ndarray,
    D: np.ndarray,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, int, list[dict]]:
    """Newton-Kleinman from a stabilizing start.

    (lam, V) are the orthonormal eigenpairs of A_op, ascending; the leading
    N = len(D) must be stabilized, D = V_U^T B is their input matrix, and the
    rest of the spectrum must be positive.  The start is the Hamiltonian LQR
    gain of that block, with its closed loop's Schur pair in closed form.
    """
    K0, first = _start(lam, V, B, D, Q_diag)
    X, history = _newton_kleinman(-A_op, B, Q_diag, K0, tol, max_iters, first)
    return X, len(history), history


def solve_care(
    plant: LinearizedPlant,
    act: Actuator,
    method: str = "newton",
    tol: float = 1e-9,
    max_iters: int = 50,
) -> RiccatiSolution:
    """Synthesize the feedback for the assembled plant and actuator.

    ``method`` accepts only ``"newton"``; it remains for callers that pass
    the config's ``riccati.method`` through.
    """
    if method != "newton":
        raise ValueError(
            f"unknown Riccati method {method!r}: the package solves by 'newton' only; "
            "the integrated Riccati route is a test oracle in tests/oracles.py"
        )
    A_op = plant.operator_matrix()
    B = act.B_matrix
    Q_diag = plant.state_weight_diagonal()

    R, iterations, history = _solve_care_core(
        A_op,
        B,
        Q_diag,
        plant.eigenvalues,
        plant.eigenvectors,
        act.D_matrix,
        tol=tol,
        max_iters=max_iters,
    )

    K = B.T @ R
    A_cl = -(A_op + B @ K)
    eigs = np.linalg.eigvals(A_cl)
    margin = -float(np.max(eigs.real))
    res = _probe_residual(
        R, A_op, B, Q_diag, _REPORT_SAMPLES, np.random.default_rng(_REPORT_SEED)
    )

    return RiccatiSolution(
        R_matrix=R,
        K_gain=K,
        residual_rel=res,
        closed_loop_eigs=eigs,
        margin=margin,
        Q_diag=Q_diag,
        iterations=iterations,
        residual_history=[h["residual"] for h in history],
    )


def riccati_residual(
    sol: RiccatiSolution,
    plant: LinearizedPlant,
    act: Actuator,
    samples: int = 100,
    seed: int = 0,
) -> float:
    """Re-certify the quadratic-form identity on fresh random probes."""
    return _probe_residual(
        sol.R_matrix,
        plant.operator_matrix(),
        act.B_matrix,
        sol.Q_diag,
        samples,
        np.random.default_rng(seed),
    )
