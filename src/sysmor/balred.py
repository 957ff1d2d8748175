"""Balanced truncation baseline (square-root method)."""

from __future__ import annotations

import numpy as np

from .exceptions import RankOutOfRange, UnstableInput
from .statespace import StateSpace, is_stable, static_gain

__all__ = ["balanced_truncate"]

# Hankel values this far below the largest cannot be balanced in floating
# point (the 1/sqrt scaling would amplify roundoff past the signal); the
# matching states decouple instead of entering the transform.
_NEGLIGIBLE_HSV_RTOL = 1e-14


def _psd_factor(M: np.ndarray) -> np.ndarray:
    """Factor L with M = L L^T for symmetric PSD M.

    Cholesky when it succeeds; otherwise an eigenvalue factorization with
    negative (roundoff) eigenvalues clipped to zero.
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(0.5 * (M + M.T))
        return V @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def balanced_truncate(
    sys: StateSpace, order: int
) -> tuple[StateSpace, np.ndarray]:
    """Truncate a stable model to ``order`` states in balanced coordinates.

    Returns the reduced model and the Hankel singular values of the input
    (nonincreasing).  The classical bound
    ``||G - R||_inf <= 2 * sum(hsv[order:])`` applies, and D is preserved.
    Directions whose Hankel value is numerically zero decouple as inert
    states (unit decay, no input or output coupling), so any order up to
    n is accepted even for models that are not minimal.  Raises
    UnstableInput for unstable models and RankOutOfRange unless
    0 <= order <= n.  Both Gramians are cached on ``sys``, so truncating
    one model at several orders solves them once.
    """
    order = int(order)
    if order < 0 or order > sys.n:
        raise RankOutOfRange(f"order must lie in [0, {sys.n}], got {order}")
    if not is_stable(sys):
        raise UnstableInput("balanced truncation needs a stable model")
    if sys.n == 0:
        return static_gain(sys.D), np.zeros(0)

    Lc = _psd_factor(sys._reachability.P)
    Lo = _psd_factor(sys._observability.P)
    U, hsv, Vt = np.linalg.svd(Lo.T @ Lc)

    if order == 0:
        return static_gain(sys.D), hsv
    keep = hsv[:order] > _NEGLIGIBLE_HSV_RTOL * max(hsv[0], np.finfo(float).tiny)
    scale = np.where(keep, 1.0 / np.sqrt(np.where(keep, hsv[:order], 1.0)), 0.0)
    T = Lc @ Vt[:order].T * scale
    W = Lo @ U[:, :order] * scale
    A_r = W.T @ sys.A @ T
    if not np.all(keep):
        dead = ~keep
        A_r[dead, :] = 0.0
        A_r[:, dead] = 0.0
        A_r[dead, dead] = -1.0
    reduced = StateSpace(A_r, W.T @ sys.B, sys.C @ T, sys.D)
    return reduced, hsv
