"""Balanced truncation baseline (square-root method).

The balanced realization (built from square-root factors of the two
Gramians and the SVD of their product) is cached on the model, so
truncating one model at several orders solves its Gramians and runs the
SVD once; each order then copies the leading block of that realization.
"""

from __future__ import annotations

import numpy as np

from .exceptions import RankOutOfRange, UnstableInput
from .statespace import StateSpace, _balanced_truncation, is_stable, static_gain

__all__ = ["balanced_truncate"]


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
    0 <= order <= n.
    """
    order = int(order)
    if order < 0 or order > sys.n:
        raise RankOutOfRange(f"order must lie in [0, {sys.n}], got {order}")
    if not is_stable(sys):
        raise UnstableInput("balanced truncation needs a stable model")
    if sys.n == 0:
        return static_gain(sys.D), np.zeros(0)
    hsv = sys._balancing.hsv.copy()
    if order == 0:
        return static_gain(sys.D), hsv
    return _balanced_truncation(sys, order), hsv
