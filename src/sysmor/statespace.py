"""Core state-space type and exact structural algebra.

A continuous-time LTI system is carried as a real quadruple (A, B, C, D)
with transfer function G(s) = C (sI - A)^-1 B + D.  Static gains (n = 0)
are first-class.  All operations are pure: they validate, build new
matrices, and return a fresh ``StateSpace``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .exceptions import DimensionMismatch, SingularAtFrequency

__all__ = [
    "StateSpace",
    "static_gain",
    "eval_freq",
    "subtract",
    "dual",
    "minreal",
    "poles",
    "is_stable",
]

DEFAULT_MINREAL_TOL = 1e-9


def _as_matrix(M, rows=None, cols=None, name="matrix") -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if rows is not None and M.shape[0] != rows:
        raise DimensionMismatch(f"{name} has {M.shape[0]} rows, expected {rows}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionMismatch(f"{name} has {M.shape[1]} columns, expected {cols}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


@dataclass(frozen=True)
class StateSpace:
    """Real (A, B, C, D) quadruple with n states, q inputs, p outputs.

    Matrices are validated for shape consistency and finiteness on
    construction and stored read-only, so instances are safely shareable.
    ``n = 0`` represents a static gain y = D u.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        D = _as_matrix(self.D, name="D")
        p, q = D.shape
        A = np.asarray(self.A, dtype=float)
        if A.size == 0:
            A = A.reshape(0, 0)
        A = _as_matrix(A, name="A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        B = np.asarray(self.B, dtype=float)
        if B.ndim < 2:
            B = B.reshape(-1, 1)
        C = np.asarray(self.C, dtype=float)
        if C.ndim < 2:
            C = C.reshape(1, -1)
        if n == 0:
            B = np.zeros((0, q))
            C = np.zeros((p, 0))
        B = _as_matrix(B, rows=n, cols=q, name="B")
        C = _as_matrix(C, rows=p, cols=n, name="C")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            M = M.copy()
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        """State count."""
        return self.A.shape[0]

    @property
    def q(self) -> int:
        """Input count."""
        return self.D.shape[1]

    @property
    def p(self) -> int:
        """Output count."""
        return self.D.shape[0]

    def __repr__(self):
        return f"StateSpace(n={self.n}, q={self.q}, p={self.p})"


def static_gain(D) -> StateSpace:
    """Zero-state system realizing the constant gain ``D``."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p, q = D.shape
    return StateSpace(np.zeros((0, 0)), np.zeros((0, q)), np.zeros((p, 0)), D)


def eval_freq(sys: StateSpace, omega: float) -> np.ndarray:
    """Evaluate G(j*omega) = C (j*omega I - A)^-1 B + D.

    Uses one complex LU solve per call; never forms the inverse.
    Raises ``SingularAtFrequency`` when j*omega is (numerically) an
    eigenvalue of A.
    """
    if sys.n == 0:
        return sys.D.astype(complex)
    shifted = 1j * omega * np.eye(sys.n) - sys.A
    try:
        sol = np.linalg.solve(shifted, sys.B)
    except np.linalg.LinAlgError as exc:
        raise SingularAtFrequency(
            f"j*{omega:g} is an eigenvalue of A within solver precision"
        ) from exc
    value = sys.C @ sol + sys.D
    if not np.all(np.isfinite(value)):
        raise SingularAtFrequency(f"response overflow at omega={omega:g}")
    return value


def subtract(g: StateSpace, r: StateSpace) -> StateSpace:
    """Realize the error system G(s) - R(s) (block-diagonal states)."""
    if (g.p, g.q) != (r.p, r.q):
        raise DimensionMismatch(
            f"cannot subtract {r.p}x{r.q} system from {g.p}x{g.q} system"
        )
    A = sla.block_diag(g.A, r.A)
    B = np.vstack([g.B, r.B])
    C = np.hstack([g.C, -r.C])
    D = g.D - r.D
    return StateSpace(A, B, C, D)


def dual(sys: StateSpace) -> StateSpace:
    """Transpose the transfer matrix: (A, B, C, D) -> (A^T, C^T, B^T, D^T)."""
    return StateSpace(sys.A.T, sys.C.T, sys.B.T, sys.D.T)


def _reachable_basis(A: np.ndarray, B: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the smallest A-invariant subspace containing range(B).

    Staircase-style construction: starting from an orthonormal basis of
    range(B), repeatedly map the newest directions through A, deflate
    against the accumulated basis, and keep singular directions above
    ``tol`` relative to the data scale max(||A||, ||B||) (so a B that is
    zero up to roundoff contributes no states).
    """
    n = A.shape[0]
    V = np.zeros((n, 0))
    W = B.copy()
    scale = max(float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    while V.shape[1] < n:
        if W.shape[1] == 0:
            break
        # two-pass deflation against the current basis for orthogonality
        if V.shape[1]:
            W = W - V @ (V.T @ W)
            W = W - V @ (V.T @ W)
        U, s, _ = np.linalg.svd(W, full_matrices=False)
        if s.size == 0:
            break
        scale = max(scale, s[0])
        if scale == 0.0:
            break
        r = int(np.count_nonzero(s > tol * scale))
        if r == 0:
            break
        fresh = U[:, :r]
        V = np.hstack([V, fresh])
        W = A @ fresh
    return V


def minreal(sys: StateSpace, tol: float = DEFAULT_MINREAL_TOL) -> StateSpace:
    """Remove uncontrollable and unobservable modes.

    Restricts to the reachable subspace of (A, B), then to the observable
    subspace of the result (reachable subspace of (A^T, C^T)).  Both
    subspaces are invariant, so the transfer function is preserved up to
    the rank-decision tolerance.  Idempotent at fixed ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if sys.n == 0:
        return sys
    Vc = _reachable_basis(sys.A, sys.B, tol)
    A = Vc.T @ sys.A @ Vc
    B = Vc.T @ sys.B
    C = sys.C @ Vc
    if A.shape[0]:
        Vo = _reachable_basis(A.T, C.T, tol)
        A = Vo.T @ A @ Vo
        B = Vo.T @ B
        C = C @ Vo
    return StateSpace(A, B, C, sys.D)


def poles(sys: StateSpace) -> np.ndarray:
    """Eigenvalues of A (empty for static gains)."""
    if sys.n == 0:
        return np.zeros(0, dtype=complex)
    return np.linalg.eigvals(sys.A)


def is_stable(sys: StateSpace) -> bool:
    """True when every pole has strictly negative real part."""
    if sys.n == 0:
        return True
    return bool(np.all(poles(sys).real < 0))
