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

The solve is Newton-Kleinman iteration (Kleinman, IEEE TAC 13, 1968),
initialized by a small Hamiltonian-eigenvector LQR solve on the unstable
block (stabilizing because the complement is open-loop stable).  That block
is read from the actuator, its eigenpairs ``lambdas``/``modes`` with their
input matrix ``D_matrix``, so which modes count as unstable is decided once,
in ``linearization``, and V_U is formed once, in ``actuator``.  The state
weight Ahat is the plant's ``state_weight_diagonal()``; the solution does
not carry a copy.

Newton stops after its first step on the default config and on every
benchmark workload.  That step (``_first_step``) and the closed-loop margin
(``_margin``) are formed in the plant's closed-form orthonormal eigenbasis
Op = V Lambda V^T, one 2 x 2 rotation per cosine mode (the plant's
``eig_pos`` and ``eig_rot``), applied as ``to_eigenbasis`` and
``from_eigenbasis`` (V itself is never formed), with no dense 2M x 2M
factorization and no Schur form: the start gain's closed loop is block
triangular there, an N x N block over a diagonal stable block, so the step
takes only N x N and N^2 x N^2 solves; and any gain's closed loop is
diagonal plus rank N, as in the rank-k modified eigenproblem (Golub, SIAM
Rev. 15, 1973; Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978).  The margin agrees with a
40-digit root of the secular determinant
det(I + k^T (Lambda - z)^{-1} b) to 1e-12 relative or better, where an
eigen-solve of the dense closed loop is off by about eps ||Op|| / margin
(1e-8 to 4e-7 on the workloads).  The most negative closed-loop real part,
``min_real``, is minus the largest diagonal entry of Lambda + b k^T, exact
to first order (to 3e-15 relative on the workloads).

R is kept in the compact form the first step builds it in: the cross of
the unstable modes' coefficient pairs (r <= 2N columns) plus one symmetric
2 x 2 block per cosine mode, ``R = cross S^T + S cross^T + blockdiag``, with
S selecting the columns ``R_rows`` (``RiccatiSolution``).  ``_apply_R``
takes X to X R in O(k n r) for k rows (n = 2M), with no n x n array, and
serves the probe's RX, the gain K = B^T R and the input gain of a later
dense step.  A dense iterate X takes the same form with every column in the
cross (``R_rows`` = 0..n-1, ``R_cross`` = X / 2, zero blocks).  The probe
residual applies Op through its 2 x 2 blocks and draws its samples in
blocks of 32 rows, so a synthesis that stops after the first step holds one
block of probe samples and O(n N) arrays besides its inputs.

Each later step (``_dense_step``, when the probe residual has not met the
tolerance) forms the dense Op and takes one dense real Schur form of the
closed loop; it serves both the stabilizing check and the Lyapunov solve
T Y + Y T^T = F, which is the Sylvester equation A Y + Y B^T = F with
B = A = T, solved by the recursive blocked Bartels-Stewart Sylvester solver
(Jonsson & Kagstrom, ACM TOMS 28, 2002) with LAPACK ``trsyl`` at the
leaves.  It is the package's only SciPy user and imports ``scipy.linalg``
when it runs.

Both eigenbasis routes assume that Op is self-adjoint with the closed-form
eigenpairs, which holds because ``linearization`` keeps only the
constant-coefficient part of the linearization; a variable-coefficient
operator would need both revisited.  On a nonconstant state the gain is
therefore designed on a model, and ``solve_care`` certifies it on the true
linearization instead (``_true_operator``): when the plant's ``g_max``
exceeds ``TRUE_LOOP_G_MAX``, the reported margin is that of the true closed
loop, from one dense eigenvalue solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .actuator import Actuator
from .config import NumericalError
from .linearization import LinearizedPlant
from .spectral import _folded_coeffs, _folded_values

__all__ = [
    "RiccatiSolution",
    "solve_care",
]

# the gain cache's key in cli holds this with the config; a change that gives
# a different R, or another cached margin, for an unchanged config bumps it,
# so no older gain.npz is reused (2: the true-loop margin on nonconstant states)
SOLVER_VERSION = 2
# g_max (which bounds ||G_hat||_2) above this makes solve_care report the
# true closed loop's margin; a constant state has g_max = 0 exactly
TRUE_LOOP_G_MAX = 1e-12


@dataclass
class RiccatiSolution:
    """The Riccati solution R in compact form, its gain and its certificates.

    R = cross S^T + S cross^T + blockdiag(blocks) is symmetric positive
    definite: S is the (2M, r) selection of the columns ``R_rows``, and mode
    k's block ``R_blocks[k]`` sits on rows and columns (k, M + k).
    ``_apply_R`` applies it; ``R_matrix`` assembles the dense (2M, 2M)
    matrix on demand and is read by no package code.
    """

    R_rows: np.ndarray  # (r,) int, the columns of the cross
    R_cross: np.ndarray  # (2M, r)
    R_blocks: np.ndarray  # (M, 2, 2), each block symmetric
    K_gain: np.ndarray  # (N, 2M) = B^T R
    residual_rel: float
    margin: float  # -max Re of the closed-loop spectrum
    min_real: float  # min Re of the closed-loop spectrum, to first order
    iterations: int
    residual_history: list[float] = field(default_factory=list, repr=False)

    @property
    def R_matrix(self) -> np.ndarray:
        """The dense R, formed as I R: every product there is with 0 or 1, so each entry is exact."""
        eye = np.eye(self.R_cross.shape[0])
        return _apply_R(eye, self.R_rows, self.R_cross, self.R_blocks)


def _apply_R(
    X: np.ndarray, rows: np.ndarray, cross: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """X R for R = cross S^T + S cross^T + blockdiag(blocks), in O(k n r) for k rows.

    Two (k, n) x (n, r)-sized products for the cross and four elementwise
    (k, M) products for the mode blocks; each row of X R is computed from
    its own row of X alone.
    """
    M = blocks.shape[0]
    XR = X[:, rows] @ cross.T
    XR[:, rows] += X @ cross
    Xy, Xz = X[:, :M], X[:, M:]
    XR[:, :M] += Xy * blocks[:, 0, 0] + Xz * blocks[:, 1, 0]
    XR[:, M:] += Xy * blocks[:, 0, 1] + Xz * blocks[:, 1, 1]
    return XR


# Probe sets of the quadratic-form residual: the same draw at every Newton
# iteration (its stop rule), and a separate draw for the reported residual;
# each is drawn and applied _PROBE_BLOCK rows at a time
_PROBE_SAMPLES, _PROBE_SEED = 32, 12345
_REPORT_SAMPLES, _REPORT_SEED = 100, 202
_PROBE_BLOCK = 32


def _probe_residual(
    apply_R,
    apply_op,
    B: np.ndarray,
    Q_diag: np.ndarray,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """max over random unit x of |x^T(R Op + Op R)x + ||B^T R x||^2 - x^T Ahat x| / x^T Ahat x.

    ``apply_R(X)`` is X R and ``apply_op(X)`` is X Op^T, applied to each row
    of X.  Blocks of ``_PROBE_BLOCK`` rows from one generator (a one-row tail
    joins the block before: BLAS gemv rounds unlike gemm) give the rows of one
    (samples, dim) draw, each row's value its own, so the residual does not
    depend on the block size; one block of temporaries is alive at a time.
    """
    worst = []  # each block's largest, NaN included
    starts = range(0, max(samples - 1, 1), _PROBE_BLOCK)
    for start, stop in zip(starts, [*starts[1:], samples]):
        X = rng.standard_normal((stop - start, B.shape[0]))
        X /= np.linalg.norm(X, axis=1)[:, None]
        RX = apply_R(X)
        quad = 2.0 * np.sum(RX * apply_op(X), axis=1) + np.sum((RX @ B) ** 2, axis=1)
        target = (X * X) @ Q_diag
        worst.append(np.max(np.abs(quad - target) / target))
    return float(np.max(worst))


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
        raise NumericalError(
            f"Hamiltonian has {int(stable.sum())} stable eigenvalues, expected {n}"
        )
    basis = eigvecs[:, stable]
    X, Y = basis[:n], basis[n:]
    try:
        P = np.real(Y @ np.linalg.solve(X, np.eye(n, dtype=complex)))
    except np.linalg.LinAlgError:
        raise NumericalError(
            "stable invariant subspace is degenerate; the unstable block is "
            "not stabilizable through this actuator"
        )
    return 0.5 * (P + P.T)


_LEAF = 48  # blocks up to this size go to LAPACK's unblocked trsyl


def _trsyl(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
    """Overwrite C with Y solving A Y + Y B^T = C (A, B upper quasi-triangular)."""
    import scipy.linalg

    Y, scale, info = scipy.linalg.lapack.dtrsyl(A, B, C, tranb="T")
    if info < 0:
        raise NumericalError(f"trsyl rejected its argument {-info}")
    if info == 1:
        raise NumericalError(
            "trsyl perturbed a near-zero eigenvalue sum lambda_i + lambda_j; "
            "the Lyapunov operator is (nearly) singular"
        )
    if scale != 1.0:
        # LAPACK solves for scale * C to avoid overflow
        raise NumericalError(f"trsyl scaled the right-hand side by {scale:.3e}")
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


def _shifted_solve(A: np.ndarray, shifts: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Y whose column j solves (A - shifts[j] I) y = F[:, j]: one N x N system per column.

    The (columns, N, N) stack of systems lives only in this call.
    """
    stack = np.repeat(A[None], len(shifts), axis=0)
    diag = np.arange(A.shape[0])
    stack[:, diag, diag] -= shifts[:, None]
    return np.linalg.solve(stack, F.T[..., None])[..., 0].T


def _first_step(plant: LinearizedPlant, act: Actuator) -> tuple[tuple, float]:
    """The first Newton-Kleinman iterate X1 from the start gain, in compact form, and its margin.

    (lam, V) are the plant's orthonormal eigenpairs, ascending; the leading
    N are the actuator's unstable block (Lam_U, V_U) = (``lambdas``,
    ``modes``) with input matrix D = ``D_matrix``.  The start gain
    K0 = (P_u D)^T V_U^T, P_u the Hamiltonian LQR solution of the unstable
    block, acts only through V_U, so with b_S = V_S^T B the transposed
    closed loop is block upper triangular in the eigenbasis:

        T = V^T (A - B K0)^T V = [[A_u, C], [0, -Lam_S]],
        A_u = -(Lam_U + P_u D D^T),   C = -P_u D b_S^T.

    T Y + Y T^T = F, F = -V^T (Q + K0^T K0) V, is solved by blocks:
    Y_SS = -F_SS / (lam_i + lam_j) elementwise, column j of Y_US from
    (A_u - lam_j I) y = (F_US - C Y_SS)_j, and Y_UU from the N^2 x N^2 system
    (A_u (x) I + I (x) A_u) vec Y_UU = vec(F_UU - C Y_SU - Y_US C^T).
    V^T Q V couples only the two eigenvectors of one cosine mode, so F_SS,
    Y_SS and C Y_SS are taken per mode, as (M, 2, 2) arrays through the
    plant's ``eig_pos`` and ``eig_rot``.  Then X1 = V Y V^T is the cross
    E V_U^T + V_U E^T, E = V [Y_UU / 2; Y_SU], which lies in the rows and
    columns of the unstable modes' coefficient pairs, plus each mode's 2 x 2
    block V_S Y_SS V_S^T on the diagonals of the four M x M quadrants.  X1
    is returned as the triple (rows, cross, blocks) of ``RiccatiSolution``'s
    compact form, cross = E V_U[rows]^T and each block symmetrized, and no
    n x n array is formed.  The loop's margin is
    min(-max Re spec(A_u), lam_{N+1}).
    """
    lam, M, N = plant.eigenvalues, plant.M, act.N
    n, lam_s, eye = 2 * M, lam[N:], np.eye(N)
    pos, rot, Q_diag = plant.eig_pos, plant.eig_rot, plant.state_weight_diagonal()
    V_U, D = act.modes, act.D_matrix
    QV_U = plant.to_eigenbasis(Q_diag[:, None] * V_U)  # the unstable columns of V^T Q V
    PD = _care_hamiltonian(-np.diag(act.lambdas), D, QV_U[:N]) @ D
    A_u = -(np.diag(act.lambdas) + PD @ D.T)
    margin = -float(np.max(np.concatenate([np.linalg.eigvals(A_u).real, -lam_s])))
    if margin <= 0.0:
        raise NumericalError(f"the closed loop lost the stabilizing property (margin {margin:.3e})")
    C = -PD @ plant.to_eigenbasis(act.B_matrix).T  # its stable columns are T's coupling block
    # mode k's block of V^T Q V and of Y_SS, zero where a branch is unstable
    QV = (Q_diag.reshape(2, M, 1, 1) * (rot[:, :, :, None] * rot[:, :, None, :])).sum(axis=0)
    stable, lam_pair = pos >= N, lam[pos]
    Y_SS = np.divide(
        QV,
        lam_pair[:, :, None] + lam_pair[:, None, :],
        out=np.zeros_like(QV),
        where=stable[:, :, None] & stable[:, None, :],
    )
    CY = np.empty((N, n))
    CY[:, pos] = np.einsum("ika,kab->ikb", C[:, pos], Y_SS)
    Y_US = -QV_U[N:].T - CY[:, N:]
    Y_US = _shifted_solve(A_u, lam_s, Y_US)
    update = C[:, N:] @ Y_US.T
    Y_UU = -QV_U[:N] - PD @ PD.T - (update + update.T)  # PD PD^T: K0^T K0 in the eigenbasis
    kron = np.kron(A_u, eye) + np.kron(eye, A_u)
    Y_UU = np.linalg.solve(kron, Y_UU.ravel()).reshape(N, N)

    modes = np.flatnonzero(~stable.all(axis=1))
    rows = np.concatenate([modes, M + modes])  # the only rows where V_U is nonzero
    cross = plant.from_eigenbasis(np.concatenate([0.5 * Y_UU, Y_US.T])) @ V_U[rows].T
    blocks = np.einsum("akb,kbd,ckd->kac", rot, Y_SS, rot)
    return (rows, cross, 0.5 * (blocks + blocks.transpose(0, 2, 1))), margin


def _dense_step(
    A_op: np.ndarray, B: np.ndarray, Q_diag: np.ndarray, K: np.ndarray
) -> tuple[np.ndarray, float]:
    """The Newton-Kleinman iterate X from the gain K, and the margin of K's loop.

    One real Schur form of the dense closed loop A_cl = -(Op + B K) serves
    both the stabilizing check and the Lyapunov solve
    A_cl^T X + X A_cl = -(Q + K^T K).  With A_cl^T = Z T Z^T that is
    T Y + Y T^T = Z^T (-(Q + K^T K)) Z, the Sylvester equation with B = T
    (``_sylvester_schur(T, T, Y)``); the symmetrization of X absorbs the
    rounding-level asymmetry of its Y.
    """
    import scipy.linalg  # loaded only by runs that need a step after the first

    # A_cl^T = Z T Z^T; a complex pair's 2x2 block carries its real part on
    # both diagonal entries
    T, Z = scipy.linalg.schur((-A_op - B @ K).T, output="real")
    margin = -float(np.max(np.diag(T)))
    if margin <= 0.0:
        raise NumericalError(f"the closed loop lost the stabilizing property (margin {margin:.3e})")
    Y = Z.T @ (-(np.diag(Q_diag) + K.T @ K)) @ Z
    _sylvester_schur(T, T, Y)
    X = Z @ Y @ Z.T
    return 0.5 * (X + X.T), margin


def _solve_care_core(
    plant: LinearizedPlant, act: Actuator, tol: float, max_iters: int
) -> tuple[tuple, int, list[dict]]:
    """Newton-Kleinman from a stabilizing start, until the probe residual meets tol.

    The actuator's unstable block, the plant's leading N eigenpairs, must be
    stabilized, and the rest of the spectrum must be positive.
    Iterate 0 starts from the Hamiltonian LQR gain of that block and is
    formed in the eigenbasis (``_first_step``); each later iterate factors
    the dense closed loop of the previous one's gain (``_dense_step``), for
    at most max(max_iters, 1) iterates.  The dense Op is formed once, for
    the first of those later iterates.  Every iterate is the triple
    (rows, cross, blocks) of ``RiccatiSolution``'s compact form; a dense
    iterate X is (0..n-1, X / 2, zero blocks).  A step's NumericalError is
    raised again as ``iterate {it}: ...``, with the earlier iterates' log as
    the fact ``history``.
    """
    B, Q_diag = act.B_matrix, plant.state_weight_diagonal()
    history: list[dict] = []
    for it in range(max(max_iters, 1)):
        try:
            if it == 0:
                R, margin = _first_step(plant, act)
            else:
                if it == 1:
                    A_op = plant.operator_matrix()
                X, margin = _dense_step(A_op, B, Q_diag, _apply_R(B.T, *R))
                R = (np.arange(2 * plant.M), 0.5 * X, np.zeros((plant.M, 2, 2)))
        except NumericalError as exc:
            raise NumericalError(f"iterate {it}: {exc}", history=history) from exc
        # identical probe set every iteration so residuals are comparable
        res = _probe_residual(
            lambda X: _apply_R(X, *R), plant.apply_operator, B, Q_diag, _PROBE_SAMPLES,
            np.random.default_rng(_PROBE_SEED),
        )
        history.append({"margin": margin, "residual": res})
        if res <= tol:
            break
    return R, len(history), history


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
            raise NumericalError("the closed-loop margin iteration did not settle")
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
    B = act.B_matrix
    Q_diag = plant.state_weight_diagonal()
    lam = plant.eigenvalues

    R, iterations, history = _solve_care_core(plant, act, tol=tol, max_iters=max_iters)

    K = _apply_R(B.T, *R)
    b, k = plant.to_eigenbasis(B), plant.to_eigenbasis(K.T)
    res = _probe_residual(
        lambda X: _apply_R(X, *R), plant.apply_operator, B, Q_diag, _REPORT_SAMPLES,
        np.random.default_rng(_REPORT_SEED),
    )
    margin = _margin(lam, b, k)
    # the largest eigenvalues are the tail's, where the diagonal of
    # Lambda + b k^T is their first-order value
    min_real = -float(np.max(lam + np.sum(b * k, axis=1)))
    g_max = plant.g_max
    if g_max > TRUE_LOOP_G_MAX:
        spectrum = np.linalg.eigvals(_true_operator(plant) + B @ K).real
        margin, min_real = float(spectrum.min()), -float(spectrum.max())
        if margin <= 0.0:
            raise NumericalError(
                f"the true closed loop Op + diag(kappa) G + B K is not stable (min Re "
                f"{margin:.3e}): the gain was designed without the state's g y term "
                f"(g_max {g_max:.3e})",
                margin=margin,
            )

    rows, cross, blocks = R
    return RiccatiSolution(
        R_rows=rows,
        R_cross=cross,
        R_blocks=blocks,
        K_gain=K,
        residual_rel=res,
        margin=margin,
        min_real=min_real,
        iterations=iterations,
        residual_history=[h["residual"] for h in history],
    )


def _true_operator(plant: LinearizedPlant) -> np.ndarray:
    """Dense Op_true = Op + [[diag(kappa) G_hat, 0], [0, 0]], the whole linearization.

    G_hat = (L/P) C^T diag(g) C is the linear term g y of the remainder in
    modal coordinates, taken through the folded pair on the P = 2M grid from
    the plant's folded g row; the remainder Lap(g y) enters the dynamics as
    -diag(kappa) G_hat y.  Only ``solve_care``'s true-loop check reads it:
    that check certifies a gain designed on the constant-coefficient part,
    and is a certificate, not a design.  A synthesis on the true operator
    would replace it.
    """
    basis, M = plant.basis, plant.M
    g = plant.remainder_grid[1]
    G_hat = _folded_coeffs(basis, g[:, :, None] * _folded_values(basis, np.eye(M)))
    op = plant.operator_matrix()
    op[:M, :M] += basis.kappa[:, None] * G_hat
    return op
