"""Low-rank variant of the adaptive interpolation driver.

Instead of interpolating the full p x q sample at each support point,
each point carries a truncated SVD of its sample and only the leading
singular directions enter the block realization: a rank-r point costs r
states at omega = 0 and 2r states otherwise.  When the error peak falls
near an existing support point the driver grows that point's rank by
one (recomputing the truncation from the cached exact sample) rather
than spending a whole new block.

Models with more outputs than inputs are reduced through their dual so
the per-state cost tracks min(p, q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateFactors, Saturated
from .numkernels import svd_truncate
from .report import ReductionReport
from .statespace import StateSpace, dual
from .sysaaa import (
    BlockRealization,
    Interpolant,
    StoppingOptions,
    _SupportPolicy,
    _adaptive_loop,
    _check_duplicate,
    _real_at_zero,
    sample_support_point,
)

# Unused here, but bound so perfbench/tracer.py EXPECTED_BINDINGS finds them.
from .norms import linf_norm  # noqa: F401
from .sysaaa import assemble_error_system, compute_X  # noqa: F401

__all__ = [
    "LowRankPoint",
    "NewPoint",
    "GrowRank",
    "truncate_sample",
    "build_lowrank_block",
    "select_or_grow",
    "reduce_lowrank",
]

# Singular values below this fraction of the largest make a block factor
# numerically rank-deficient.
_FACTOR_RTOL = 1e-12


@dataclass(frozen=True)
class LowRankPoint:
    """Support point carrying a rank-``rank`` truncated SVD of its sample.

    ``U`` (p x r) and ``V`` (q x r) have orthonormal columns, ``S`` is the
    r x r diagonal of leading singular values, and ``sample`` keeps the
    exact p x q sample so the truncation can be refreshed when the rank
    grows.  At omega = 0 all factors are real.
    """

    omega: float
    rank: int
    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    sample: np.ndarray

    @property
    def is_zero(self) -> bool:
        return self.omega == 0.0

    @property
    def order(self) -> int:
        return self.rank if self.is_zero else 2 * self.rank


@dataclass(frozen=True)
class NewPoint:
    omega: float


@dataclass(frozen=True)
class GrowRank:
    index: int


def truncate_sample(omega: float, sample: np.ndarray, rank: int) -> LowRankPoint:
    """Rank-``rank`` truncated SVD of a frequency sample.

    The omega = 0 sample must be real (NonRealSampleAtZero otherwise) and
    is factored in real arithmetic.
    """
    value = np.atleast_2d(np.asarray(sample))
    omega = float(omega)
    if omega < 0:
        raise ValueError("support frequencies are nonnegative")
    if omega == 0.0:
        value = _real_at_zero(value)
    U, s, V = svd_truncate(value, rank)
    return LowRankPoint(omega, rank, U, np.diag(s), V, value)


def build_lowrank_block(pt: LowRankPoint) -> BlockRealization:
    """Interpolation block for the leading singular directions of a point.

    omega = 0: (0_r, [S V^T, U^T]); omega > 0: the 2r-state skew pair with
    B1 = [S Re(V)^T; S Im(V)^T] and B2 = [Re(U)^T; Im(U)^T].  Raises
    DegenerateFactors when a retained singular value is numerically zero
    (the direction carries no information to interpolate).
    """
    s_diag = np.diag(pt.S)
    if s_diag.size == 0 or s_diag.min() <= _FACTOR_RTOL * max(1.0, s_diag.max()):
        raise DegenerateFactors(
            "retained singular values include a numerically zero entry"
        )
    S = pt.S.real
    if pt.is_zero:
        A = np.zeros((pt.rank, pt.rank))
        B1 = S @ pt.V.real.T
        B2 = pt.U.real.T.copy()
    else:
        r = pt.rank
        eye = np.eye(r)
        A = np.block(
            [
                [np.zeros((r, r)), pt.omega * eye],
                [-pt.omega * eye, np.zeros((r, r))],
            ]
        )
        B1 = np.vstack([S @ pt.V.real.T, S @ pt.V.imag.T])
        B2 = np.vstack([pt.U.real.T, pt.U.imag.T])
    return BlockRealization(pt.omega, A, B1, B2)


def select_or_grow(
    candidate_omega: float, points, min_dist: float
) -> NewPoint | GrowRank:
    """Decide whether a peak frequency funds a new point or a rank step.

    The candidate grows the nearest existing point when it lands within
    ``min_dist * max(1, omega_i)`` of it and that point is not yet full
    rank; Saturated is raised when it is (nothing left to refine there).
    """
    if min_dist <= 0:
        raise ValueError("min_dist must be positive")
    candidate = float(candidate_omega)
    if not points:
        return NewPoint(candidate)
    dists = [abs(candidate - pt.omega) for pt in points]
    i = int(np.argmin(dists))
    pt = points[i]
    if dists[i] < min_dist * max(1.0, pt.omega):
        full = min(pt.sample.shape)
        if pt.rank < full:
            return GrowRank(i)
        raise Saturated(
            f"support point at {pt.omega:.6g} rad/s already has full rank "
            f"{pt.rank}"
        )
    return NewPoint(candidate)


def _plan_lowrank(work: StateSpace, points: list, omega: float, opts):
    """Grow the nearest point's rank, or add a rank-1 point at ``omega``."""
    action = select_or_grow(omega, points, opts.min_dist)
    if isinstance(action, GrowRank):
        i = action.index
        pt = points[i]

        def grow():
            points[i] = truncate_sample(pt.omega, pt.sample, pt.rank + 1)

        return "grow", pt.omega, 1 if pt.is_zero else 2, grow
    # a fresh point nearly on top of an old one cannot happen with a sane
    # min_dist, but tiny values would stall the loop
    _check_duplicate(omega, points)

    def add():
        sp = sample_support_point(work, omega)
        points.append(truncate_sample(sp.omega, sp.sample, 1))

    return "add", omega, 1 if omega == 0.0 else 2, add


def reduce_lowrank(
    sys: StateSpace, options: StoppingOptions | None = None
) -> tuple[Interpolant, ReductionReport]:
    """Adaptive interpolation with rank-1 entry and local rank growth.

    Runs the driver loop of ``reduce`` with the low-rank support policy;
    each record additionally lists the per-point ranks.  When the model
    has more outputs than inputs it is reduced through its dual and the
    result transposed back (flagged in the report).
    """
    dualized = sys.p > sys.q
    work = dual(sys) if dualized else sys
    policy = _SupportPolicy(_plan_lowrank, build_lowrank_block, ranks=True)
    chosen, report = _adaptive_loop(
        work, options or StoppingOptions(), policy, "lowrank-aaa"
    )
    report.dualized = dualized
    if dualized:
        chosen = Interpolant(
            dual(chosen.sys), chosen.support, chosen.weights, chosen.order
        )
    return chosen, report
