"""Dense numerical kernels shared by the algorithm modules.

Keeps the Lyapunov solve, symmetric eigendecomposition, and SVD
truncation in one place so the algorithm code stays backend-agnostic.
The Lyapunov solve is Bartels-Stewart (real Schur form plus
quasi-triangular back-substitution) via SciPy; every solve reports its
relative residual instead of assuming success.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .exceptions import IllPosedLyapunov, RankOutOfRange

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
    """Symmetric solution P of a Lyapunov equation plus its relative residual."""

    P: np.ndarray
    residual: float


def solve_lyapunov(A: np.ndarray, Q: np.ndarray) -> GramianResult:
    """Solve A P + P A^T = -Q for symmetric PSD Q.

    Raises ``IllPosedLyapunov`` when some eigenvalue pair of A satisfies
    lambda_i + lambda_j ~ 0 (the operator is then singular; upstream this
    signals an error system with poles mirrored across the imaginary axis).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or Q.shape != (n, n):
        raise ValueError("A and Q must be square with matching shapes")
    if n == 0:
        return GramianResult(np.zeros((0, 0)), 0.0)

    lam = np.linalg.eigvals(A)
    pair_sums = np.abs(lam[:, None] + lam[None, :])
    scale = max(1.0, float(np.max(np.abs(lam))))
    if np.min(pair_sums) <= _SPECTRUM_PAIR_RTOL * scale:
        raise IllPosedLyapunov(
            "eigenvalue pair of A sums to ~0; Lyapunov equation has no unique solution"
        )

    Qs = 0.5 * (Q + Q.T)
    P = sla.solve_continuous_lyapunov(A, -Qs)
    P = 0.5 * (P + P.T)
    if not np.all(np.isfinite(P)):
        raise IllPosedLyapunov("Lyapunov solve produced non-finite entries")
    res = np.linalg.norm(A @ P + P @ A.T + Qs, "fro")
    denom = max(np.linalg.norm(Qs, "fro"), np.finfo(float).eps)
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
