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
which modes count as unstable is decided once, in ``linearization``.

Newton stops after its first step on the default config and on every
benchmark workload.  That step (``_first_step``) and the closed-loop margin
(``_margin``) are formed in the plant's closed-form orthonormal eigenbasis
Op = V Lambda V^T, whose columns each have at most two nonzeros, in
O(M^2 N) with no dense 2M x 2M factorization: the start gain's closed loop
is block triangular there with a diagonal stable block, and any gain's
closed loop is diagonal plus rank N, as in the rank-k modified eigenproblem
(Golub, SIAM Rev. 15, 1973; Bunch, Nielsen & Sorensen, Numer. Math. 31,
1978).  The margin agrees with a 40-digit root of the secular determinant
det(I + k^T (Lambda - z)^{-1} b) to 1e-12 relative or better, where an
eigen-solve of the dense closed loop is off by about eps ||Op|| / margin
(1e-8 to 4e-7 on the workloads).  The most negative closed-loop real part,
``min_real``, is minus the largest diagonal entry of Lambda + b k^T, exact
to first order (to 3e-15 relative on the workloads).

Newton steps after the first (when the probe residual has not met the
tolerance) take one dense real Schur form of the closed loop each; it serves
both the stabilizing check and the Lyapunov solve, which is a recursive
blocked Bartels-Stewart solve (Jonsson & Kagstrom, ACM TOMS 28, 2002) with
LAPACK ``trsyl`` at the leaves.

Both eigenbasis routes assume that Op is self-adjoint with the closed-form
eigenpairs, which holds because ``linearization`` keeps only the
constant-coefficient part of the linearization; a variable-coefficient
operator would need both revisited.
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
    margin: float  # -max Re of the closed-loop spectrum
    min_real: float  # min Re of the closed-loop spectrum, to first order
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
    if not C.size:
        return  # LAPACK's wrapper rejects an empty block
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


def _row_nonzeros(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cols, vals), each (rows, w): row r of U is sum_a vals[r, a] e_{cols[r, a]}^T.

    w is the most nonzeros in any row, and shorter rows are padded with zero
    values.  The plant's eigenvector matrix has w = 2.
    """
    r, c = np.nonzero(U)
    counts = np.bincount(r, minlength=U.shape[0])
    slot = np.arange(r.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = np.zeros((U.shape[0], counts.max(initial=1)), dtype=np.intp)
    vals = np.zeros(cols.shape)
    cols[r, slot], vals[r, slot] = c, U[r, c]
    return cols, vals


def _congruence(rows: tuple[np.ndarray, np.ndarray], Y: np.ndarray) -> np.ndarray:
    """U Y U^T for U given by ``_row_nonzeros``: w row gathers, then w column gathers."""
    cols, vals = rows
    W, X, buf = np.zeros_like(Y), np.zeros_like(Y), np.empty_like(Y)
    # mode="clip" keeps np.take from buffering its output; every index is in range
    for a in range(cols.shape[1]):
        np.take(Y, cols[:, a], axis=0, out=buf, mode="clip")
        buf *= vals[:, a : a + 1]
        W += buf
    for a in range(cols.shape[1]):
        np.take(W, cols[:, a], axis=1, out=buf, mode="clip")
        buf *= vals[:, a]
        X += buf
    return X


def _start(
    lam_u: np.ndarray, D: np.ndarray, Q_u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_u D and the real Schur form z t z^T = -(Lam_U + P_u D D^T) of the start's loop.

    P_u is the Hamiltonian LQR solution of the unstable block: eigenvalues
    ``lam_u``, input matrix D and state weight Q_u = V_U^T Q V_U.  The start
    gain is K0 = (P_u D)^T V_U^T.
    """
    P_u = _care_hamiltonian(-np.diag(lam_u), D, Q_u)
    PD = P_u @ D
    t, z = scipy.linalg.schur(-(np.diag(lam_u) + PD @ D.T), output="real")
    return PD, t, z


def _first_step(
    lam: np.ndarray, V: np.ndarray, B: np.ndarray, D: np.ndarray, Q_diag: np.ndarray
) -> tuple[np.ndarray, float]:
    """The first Newton-Kleinman iterate X1 from the start gain, and its loop's margin.

    (lam, V) are the orthonormal eigenpairs of Op, ascending, and the leading
    N = len(D) are the unstable block.  K0 = (P_u D)^T V_U^T acts only through
    V_U, so with b_S = V_S^T B the transposed closed loop is block upper
    triangular in the eigenbasis,

        V^T (A - B K0)^T V = [[-(Lam_U + P_u D D^T), -P_u D b_S^T], [0, -Lam_S]],

    and Z = V diag(z, I) brings it to the real Schur form
    T = [[t, C], [0, -Lam_S]], C = -z^T P_u D b_S^T (``_start``).  The
    Lyapunov equation T Y + Y T^T = F, F = -Z^T (Q + K0^T K0) Z, is then
    solved by blocks: Y_SS = -F_SS / (lam_i + lam_j) elementwise, one
    N x (2M - N) ``trsyl`` for Y_US against the diagonal -Lam_S, and one
    N x N ``trsyl`` for Y_UU.  V^T Q V couples only the two eigenvectors of
    one cosine mode, and K0^T K0 only the unstable ones, so F and the
    back-transform X1 = V diag(z, I) Y diag(z, I)^T V^T are gathered through
    the nonzeros of V, with no dense basis change.
    """
    n, N = len(lam), len(D)
    lam_s = lam[N:]
    rows = _row_nonzeros(V)
    cols, vals = rows
    # Y starts as F and is overwritten by the solution; first -V^T Q V,
    # scattered from the outer product of each row's nonzeros
    Y = np.zeros((n, n))
    np.add.at(
        Y,
        (cols[:, :, None], cols[:, None, :]),
        -Q_diag[:, None, None] * vals[:, :, None] * vals[:, None, :],
    )
    # with no unstable block the empty D, t and z make every block step below a no-op
    PD, t, z = _start(lam[:N], D, -Y[:N, :N]) if N else (D, np.zeros((0, 0)), np.zeros((0, 0)))
    margin = -float(np.max(np.concatenate([np.diag(t), -lam_s])))
    if margin <= 0.0:
        raise RiccatiError(f"iterate 0 lost the stabilizing property (margin {margin:.3e})")
    C = -(z.T @ PD) @ (V[:, N:].T @ B).T
    Y[:N, :N] -= PD @ PD.T  # K0^T K0 in the eigenbasis
    Y[:N] = z.T @ Y[:N]
    Y[:, :N] = Y[:, :N] @ z
    Y[N:, N:] /= -(lam_s[:, None] + lam_s)
    Y[:N, N:] -= C @ Y[N:, N:]
    # a diagonal is its own transpose: the F-ordered view spares LAPACK a copy
    _trsyl(t, np.diag(-lam_s).T, Y[:N, N:])
    Y[N:, :N] = Y[:N, N:].T
    update = C @ Y[N:, :N]
    Y[:N, :N] -= update + update.T
    _trsyl(t, t, Y[:N, :N])
    Y[:N] = z @ Y[:N]
    Y[:, :N] = Y[:, :N] @ z.T
    X = _congruence(rows, Y)
    X += X.T
    X *= 0.5
    return X, margin


def _newton_kleinman(
    A: np.ndarray,
    B: np.ndarray,
    Q_diag: np.ndarray,
    K0: np.ndarray,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, list[dict]]:
    """Kleinman iteration from the stabilizing gain K0, each closed loop factored densely.

    Each iteration takes one real Schur form of the closed loop, then solves
    its Lyapunov equation and sets K = B^T X.
    """
    Q = np.diag(Q_diag)
    K = K0
    history: list[dict] = []
    X = None
    for it in range(max_iters):
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
        history.append({"margin": margin, "residual": res})
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
    gain of that block; its step is formed in the eigenbasis, and later
    steps, if the probe residual asks for them, factor the dense closed loop.
    """
    X, margin = _first_step(lam, V, B, D, Q_diag)
    res = _probe_residual(
        X, A_op, B, Q_diag, _PROBE_SAMPLES, np.random.default_rng(_PROBE_SEED)
    )
    history = [{"margin": margin, "residual": res}]
    if res > tol and max_iters > 1:
        try:
            X, later = _newton_kleinman(-A_op, B, Q_diag, B.T @ X, tol, max_iters - 1)
        except RiccatiError as exc:
            # the dense iteration counts its iterates from the first step's gain
            raise RiccatiError(f"after the first step: {exc}", history + exc.history) from exc
        history += later
    return X, len(history), history


_HEAD = 16  # leading eigenpairs the margin's eigenproblem starts with
_FIXED_POINT_STEPS = 50


def _margin(lam: np.ndarray, b: np.ndarray, k: np.ndarray) -> float:
    """min Re spec(Lambda + b k^T): the closed loop Op + B K's margin, in the eigenbasis.

    With b = V^T B and k = V^T K^T, split the ascending spectrum into a head
    of m eigenpairs (Lambda_1, b_1, k_1) and the tail (Lambda_2, b_2, k_2).
    Eliminating the tail coordinates of (Lambda + b k^T - z) x = 0 (a Schur
    complement; Golub 1973) gives: z is an eigenvalue with z outside
    spec(Lambda_2 + b_2 k_2^T) if and only if z in spec S(z), where

        S(z) = Lambda_1 + b_1 (I + G(z))^{-1} k_1^T,
        G(z) = k_2^T (Lambda_2 - z)^{-1} b_2   (N x N).

    Lambda_2 is diagonal, so by Bauer-Fike every eigenvalue of
    Lambda_2 + b_2 k_2^T has real part at least
    c = lambda_m - ||b_2||_2 ||k_2||_2.  So the closed-loop eigenvalues left
    of c are exactly the fixed points z in spec S(z) there, and every other
    eigenvalue lies right of c.

    From z = 0, z <- the leftmost eigenvalue of S(z), then the eigenvalue of
    S(z) nearest z (at most _FIXED_POINT_STEPS times), until z settles to
    rounding.  Tracking that branch keeps a complex pair from alternating
    between its two members, whose real parts S(z) separates slightly.

    The fixed point z is a closed-loop eigenvalue; it is returned as the
    spectral abscissa only if it lies left of c, so that every eigenvalue
    right of c is right of it, and if it is still the leftmost eigenvalue of
    S(z).  A closed-loop eigenvalue w left of z is an eigenvalue of S(w),
    and S(w) - S(z) = b_1 [(I + G(w))^{-1} - (I + G(z))^{-1}] k_1^T is
    small when G varies little between w and z, so S(z) then has an
    eigenvalue near w, left of z, and the check rejects z.  The slack of the
    check is rounding plus, for a complex z, 2 ||Im S(z)||_2: its partner
    conj z is exact in S(conj z) = conj S(z), and S(z) differs from that by
    this much.  The check is a consistency test, not a proof: a w whose
    S(w) differs from S(z) by more than w's distance from z escapes it.  On
    any failure (no fixed point left of c, a fixed point that is not the
    leftmost, or no settling) m doubles.  At m = 2M the tail is empty,
    c = inf, G = 0 and S is the whole closed loop, whose leftmost eigenvalue
    is taken at the first step and passes the check, so the loop always ends.
    """
    n, eye = len(lam), np.eye(b.shape[1])
    m = min(_HEAD, n)
    while True:
        c = np.inf if m == n else lam[m] - np.linalg.norm(b[m:], 2) * np.linalg.norm(k[m:], 2)
        z = 0.0
        for it in range(_FIXED_POINT_STEPS):
            if z.real >= c:
                break
            G = k[m:].T @ (b[m:] / (lam[m:] - z)[:, None])
            S = np.diag(lam[:m]) + b[:m] @ np.linalg.solve(eye + G, k[:m].T)
            mu = np.linalg.eigvals(S)
            z, previous = mu[np.argmin(np.abs(mu - z) if it else mu.real)], z
            rounding = 16 * np.finfo(float).eps * np.abs(mu).max()
            if it and abs(z - previous) <= rounding:
                slack = rounding + (2.0 * np.linalg.norm(S.imag, 2) if z.imag else 0.0)
                if z.real < c and z.real <= mu.real.min() + slack:
                    return float(z.real)
                break
        if m == n:
            raise RiccatiError("the closed-loop margin iteration did not settle")
        m = min(2 * m, n)


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
    lam, V = plant.eigenvalues, plant.eigenvectors

    R, iterations, history = _solve_care_core(
        A_op, B, Q_diag, lam, V, act.D_matrix, tol=tol, max_iters=max_iters
    )

    K = B.T @ R
    b, k = V.T @ B, V.T @ K.T
    res = _probe_residual(
        R, A_op, B, Q_diag, _REPORT_SAMPLES, np.random.default_rng(_REPORT_SEED)
    )

    return RiccatiSolution(
        R_matrix=R,
        K_gain=K,
        residual_rel=res,
        margin=_margin(lam, b, k),
        # the largest eigenvalues are the tail's, where the diagonal of
        # Lambda + b k^T is their first-order value
        min_real=-float(np.max(lam + np.sum(b * k, axis=1))),
        Q_diag=Q_diag,
        iterations=iterations,
        residual_history=[h["residual"] for h in history],
    )
