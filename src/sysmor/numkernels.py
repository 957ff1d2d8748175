"""Dense numerical kernels shared by the algorithm modules.

Keeps the Lyapunov solve, symmetric eigendecomposition, and SVD
truncation in one place so the algorithm code stays backend-agnostic.
The Lyapunov solve is Bartels-Stewart back-substitution on the real Schur
form each ``StateSpace`` caches, so it factors nothing itself; every
solve reports its relative residual instead of assuming success.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.lapack import dtrsyl

from .exceptions import IllPosedLyapunov, RankOutOfRange

if TYPE_CHECKING:
    from .statespace import StateSpace

__all__ = [
    "GramianResult",
    "solve_lyapunov",
    "sym_eig_ascending",
    "svd_truncate",
    "ZERO_EIGENVALUE_RTOL",
    "DISTINCT_EIGENVALUE_RTOL",
]

# Thresholds for eigenvalue classification used by the weight selection:
# lam is treated as zero when lam <= ZERO_EIGENVALUE_RTOL * lam_max, and two
# ascending eigenvalues are distinct when their gap exceeds
# DISTINCT_EIGENVALUE_RTOL * lam_max.
ZERO_EIGENVALUE_RTOL = 1e-9
DISTINCT_EIGENVALUE_RTOL = 1e-9

# lam_i + lam_j magnitudes below this (relative to the spectral radius) make
# the Lyapunov operator numerically singular.
_SPECTRUM_PAIR_RTOL = 1e-10


@dataclass(frozen=True)
class GramianResult:
    """Read-only symmetric Lyapunov solution P plus its relative residual."""

    P: np.ndarray
    residual: float


def solve_lyapunov(sys: StateSpace, trans: bool = False) -> GramianResult:
    """Reachability Gramian of ``sys``: A P + P A^T = -B B^T, or with
    ``trans`` its observability Gramian: A^T P + P A = -C^T C.

    One LAPACK ``dtrsyl`` back-substitution on the cached real Schur form
    A = Z T Z^T solves for Z^T P Z.  Raises ``IllPosedLyapunov`` when some
    eigenvalue pair of A satisfies lambda_i + lambda_j ~ 0 (the operator
    is then singular; upstream this signals an error system with poles
    mirrored across the imaginary axis).
    """
    if sys.n == 0:
        return GramianResult(np.zeros((0, 0)), 0.0)
    T, Z, lam = sys._schur
    pair_sums = np.abs(lam[:, None] + lam[None, :])
    radius = max(1.0, float(np.max(np.abs(lam))))
    if np.min(pair_sums) <= _SPECTRUM_PAIR_RTOL * radius:
        raise IllPosedLyapunov(
            "eigenvalue pair of A sums to ~0; Lyapunov equation has no unique solution"
        )

    A, F, ops = (sys.A.T, sys.C.T, "TN") if trans else (sys.A, sys.B, "NT")
    ZF = Z.T @ F
    X, scale, info = dtrsyl(T, T, -ZF @ ZF.T, trana=ops[0], tranb=ops[1])
    if info:
        raise IllPosedLyapunov("Lyapunov solve met (nearly) mirrored eigenvalues")
    P = Z @ (X / scale) @ Z.T
    P = 0.5 * (P + P.T)
    P.setflags(write=False)  # cached and shared by the model's instances
    if not np.all(np.isfinite(P)):
        raise IllPosedLyapunov("Lyapunov solve produced non-finite entries")
    Q = F @ F.T
    res = np.linalg.norm(A @ P + P @ A.T + Q, "fro")
    denom = max(np.linalg.norm(Q, "fro"), np.finfo(float).eps)
    return GramianResult(P, float(res / denom))


def sym_eig_ascending(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (nearly) symmetric real matrix.

    Symmetrizes as (X + X^T)/2 first.  Returns eigenvalues in ascending
    order and the matching orthonormal eigenvectors as columns.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    values, vectors = np.linalg.eigh(0.5 * (X + X.T))
    return values, vectors


def svd_truncate(M: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-``r`` factors (U, s, V) of M, so M ~ U @ diag(s) @ V*.

    U is p x r and V is q x r with orthonormal columns; ``s`` holds the r
    leading singular values (nonincreasing, nonnegative).
    """
    M = np.atleast_2d(np.asarray(M))
    rmax = min(M.shape)
    if not 1 <= r <= rmax:
        raise RankOutOfRange(f"rank {r} outside 1..{rmax} for shape {M.shape}")
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    return U[:, :r], s[:r], Vh[:r, :].conj().T
