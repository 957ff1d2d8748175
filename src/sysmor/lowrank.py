"""Low-rank variant of the adaptive interpolation driver.

Instead of interpolating the full p x q sample at each support point,
each point interpolates only the leading left singular directions of its
sample (a ``SupportPoint`` with a rank): a rank-r point costs r states at
omega = 0 and 2r states otherwise.  When the error peak falls near an
existing support point the driver grows that point's rank by one
(refactoring the exact sample the point keeps) rather than spending a
whole new block.

Models with more outputs than inputs are reduced through their dual so
the per-state cost tracks min(p, q).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .exceptions import Saturated
from .report import ReductionReport
from .statespace import StateSpace, dual
from .sysaaa import Interpolant, StoppingOptions, _adaptive_loop

# Unused here, but bound so perfbench/tracer.py EXPECTED_BINDINGS finds them.
from .norms import linf_norm  # noqa: F401
from .sysaaa import assemble_error_system, compute_X  # noqa: F401

__all__ = ["select_or_grow", "reduce_lowrank"]


def select_or_grow(candidate_omega: float, points, min_dist: float) -> int | None:
    """Index of the support point whose rank a peak frequency grows, or
    None when the peak funds a new point.

    The candidate grows the nearest existing point when it lands within
    ``min_dist * max(1, omega_i)`` of it and that point's rank is below
    the ``numerical_rank`` of its sample, the limit ``build_block``
    enforces; Saturated is raised when it is not (nothing left to refine
    there).
    """
    if min_dist <= 0:
        raise ValueError("min_dist must be positive")
    if not points:
        return None
    candidate = float(candidate_omega)
    dists = [abs(candidate - pt.omega) for pt in points]
    i = int(np.argmin(dists))
    pt = points[i]
    if dists[i] >= min_dist * max(1.0, pt.omega):
        return None
    if pt.rank < pt.numerical_rank:
        return i
    raise Saturated(
        f"support point at {pt.omega:.6g} rad/s already has full rank {pt.rank}"
    )


def reduce_lowrank(
    sys: StateSpace, options: StoppingOptions | None = None
) -> tuple[Interpolant, ReductionReport]:
    """Adaptive interpolation with rank-1 entry and local rank growth.

    Runs the driver loop of ``reduce`` with the ``select_or_grow`` rule;
    each record additionally lists the per-point ranks.  When the model
    has more outputs than inputs it is reduced through its dual and every
    iterate transposed back (flagged in the report); the support points
    keep the factors of the dual's samples.
    """
    dualized = sys.p > sys.q
    work = dual(sys) if dualized else sys
    _, report = _adaptive_loop(
        work, options or StoppingOptions(), "lowrank-aaa", select_or_grow
    )
    report.dualized = dualized
    if dualized:
        report.iterates = [replace(it, sys=dual(it.sys)) for it in report.iterates]
    return report.iterates[report.best_iteration], report
