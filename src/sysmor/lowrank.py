"""Low-rank variant of the adaptive interpolation driver.

Instead of interpolating the full p x q sample at each support point,
each point interpolates only the leading left singular directions of its
sample (a ``SupportPoint`` with a rank): a rank-r point costs r states at
omega = 0 and 2r states otherwise.  New points enter at rank 1, and the
shared loop's ``select_or_grow`` rule grows a nearby point's rank by one
(refactoring the exact sample the point keeps) rather than spending a
whole new block.

Models with more outputs than inputs are reduced through their dual so
the per-state cost tracks min(p, q).
"""

from __future__ import annotations

from dataclasses import replace

from .report import ReductionReport
from .statespace import StateSpace, dual
from .sysaaa import Interpolant, StoppingOptions, _adaptive_loop

# Unused here, but bound so perfbench/tracer.py EXPECTED_BINDINGS finds them.
from .norms import linf_norm  # noqa: F401
from .sysaaa import assemble_error_system, compute_X  # noqa: F401

__all__ = ["reduce_lowrank"]


def reduce_lowrank(
    sys: StateSpace, options: StoppingOptions | None = None
) -> tuple[Interpolant, ReductionReport]:
    """Adaptive interpolation with rank-1 entry and local rank growth.

    Runs the driver loop of ``reduce`` with new points entering at rank
    1; each record additionally lists the per-point ranks.  When the model
    has more outputs than inputs it is reduced through its dual and every
    iterate transposed back (flagged in the report); the support points
    keep the factors of the dual's samples.
    """
    dualized = sys.p > sys.q
    work = dual(sys) if dualized else sys
    _, report = _adaptive_loop(
        work, options or StoppingOptions(), "lowrank-aaa", entry_rank=1
    )
    report.dualized = dualized
    if dualized:
        report.iterates = [replace(it, sys=dual(it.sys)) for it in report.iterates]
    return report.iterates[report.best_iteration], report
