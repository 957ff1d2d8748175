"""The Lyapunov and Sylvester solve behind every Gramian.

It is Bartels-Stewart back-substitution on the real Schur form each
``StateSpace`` caches, so it factors nothing itself; every solve reports
its relative residual instead of assuming success.  It solves for
reachability Gramians only: an observability Gramian is the reachability
Gramian of the dual, whose Schur form is the model's reversed.  The same
solve, given a second model, returns the cross block of the Gramian of
the two models' stacked states, a Sylvester equation on the two Schur
forms: that is how the Gramian of an error system G - R is split into
G's cached Gramian, R's small one and that block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.lapack import dtrsyl

from .exceptions import IllPosedLyapunov

if TYPE_CHECKING:
    from .statespace import StateSpace

__all__ = ["solve_lyapunov"]

# lam_i + lam_j magnitudes below this (relative to the spectral radius) make
# the Lyapunov operator numerically singular.
_SPECTRUM_PAIR_RTOL = 1e-10

# Eigenvalues per block of that pair test: it holds O(n _PAIR_ROWS) sums
# at a time rather than all n^2.
_PAIR_ROWS = 64


@dataclass(frozen=True, eq=False)
class GramianResult:
    """Read-only symmetric Lyapunov solution P plus its relative residual."""

    P: np.ndarray
    residual: float


def solve_lyapunov(sys: StateSpace, other: StateSpace | None = None) -> GramianResult:
    """Reachability Gramian of ``sys``: A P + P A^T = -B B^T.  The
    observability Gramian is that of ``dual(sys)``, which shares the
    Schur form of ``sys``.

    With ``other`` (A_o, B_o) it returns instead the off-diagonal block X
    of the Gramian of the system that stacks the states of both
    (block-diagonal A, inputs [B; B_o]): the Sylvester equation
    A X + X A_o^T = -B B_o^T.

    One LAPACK ``dtrsyl`` back-substitution on the cached real Schur forms
    A = Z T Z^T and A_o = Z_o T_o Z_o^T solves for Z^T X Z_o.  Raises
    ``IllPosedLyapunov`` when some eigenvalue pair of A, or with ``other``
    of the stacked system, satisfies lambda_i + lambda_j ~ 0 relative to
    that spectrum's radius (the operator is then singular; upstream this
    signals an error system with poles mirrored across the imaginary axis).
    """
    other = sys if other is None else other
    if sys.n == 0 or other.n == 0:
        return GramianResult(np.zeros((sys.n, other.n)), 0.0)
    T, Z, lam = sys._schur
    To, Zo, lam_o = other._schur
    if other is not sys:
        lam = np.concatenate([lam, lam_o])
    closest = min(
        np.abs(lam[i : i + _PAIR_ROWS, None] + lam[None, :]).min()
        for i in range(0, lam.size, _PAIR_ROWS)
    )
    radius = max(1.0, float(np.max(np.abs(lam))))
    if closest <= _SPECTRUM_PAIR_RTOL * radius:
        raise IllPosedLyapunov(
            "eigenvalue pair of A sums to ~0; Lyapunov equation has no unique solution"
        )

    # Overflow shows as a non-finite P, refused below, never as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        X, scale, info = dtrsyl(
            T, To, -(Z.T @ sys.B) @ (Zo.T @ other.B).T, trana="N", tranb="T"
        )
        if info:
            raise IllPosedLyapunov("Lyapunov solve met (nearly) mirrored eigenvalues")
        P = Z @ (X / scale) @ Zo.T
        if other is sys:
            P = 0.5 * (P + P.T)
        P.setflags(write=False)  # cached and shared by the model's instances
        if not np.all(np.isfinite(P)):
            raise IllPosedLyapunov("Lyapunov solve produced non-finite entries")
        # on B, B_o scaled to unit largest entry: no norm overflows to 0 or NaN
        b, b_o = (max(np.abs(M.B).max(), np.finfo(float).tiny) for M in (sys, other))
        P_s, Q = P / b / b_o, (sys.B / b) @ (other.B / b_o).T
        res = np.linalg.norm(sys.A @ P_s + P_s @ other.A.T + Q, "fro")
        denom = max(np.linalg.norm(Q, "fro"), np.finfo(float).eps)
        return GramianResult(P, float(res / denom))

