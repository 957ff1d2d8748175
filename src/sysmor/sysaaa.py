"""Adaptive rational interpolation of a state-space model.

One driver iteration: locate the peak frequency of the current error,
decide where it lands (``select_or_grow``: a new support point, or one
more rank for a nearby rank-limited point), sample the full model there,
assemble the cancelled error system H, and re-solve a small symmetric
eigenvalue problem for the weights that minimise the resulting H2
objective.  The interpolant is then read off as a closed-form
state-space realization.  A full support point adds p states at
omega = 0 and 2p elsewhere; a point that interpolates only the r leading
left singular directions of its sample adds r or 2r, and the low-rank
driver is built on those.  Both drivers share one loop and one rule.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .exceptions import (
    DegenerateFactors,
    DuplicateSupportPoint,
    IllPosedLyapunov,
    ImaginaryAxisPoles,
    InsufficientSpectrum,
    NonRealSampleAtZero,
    RankOutOfRange,
    ResidualImaginaryPoles,
    Saturated,
    SingularW0,
    UnstableInput,
)
from .norms import DEFAULT_BISECT_RTOL, LinfResult, linf_norm, h2_error_metric
from .numkernels import block_diag
from .report import IterationRecord, ReductionReport
from .statespace import (
    StateSpace,
    _output_resolvent,
    _same_dynamics,
    eval_freq,
    is_stable,
    static_gain,
    subtract,
)

__all__ = [
    "SupportPoint",
    "Interpolant",
    "StoppingOptions",
    "sample_support_point",
    "assemble_error_system",
    "compute_X",
    "solve_weights",
    "realize_interpolant",
    "select_or_grow",
    "certify",
    "reduce",
]

# Support points closer than this are one point: relative in rad/s, with an
# absolute snap-to-zero band so "almost DC" peaks become the DC point.
DUPLICATE_RTOL = 1e-6
DUPLICATE_ATOL = 1e-9

# Residual |Re(pole)| / spectral radius allowed after cancellation.
_AXIS_RESIDUAL_RTOL = 1e-8

# Singular values at or below this fraction of the largest (and of 1) are
# numerically zero.
_FACTOR_RTOL = 1e-12

# Weight selection: an eigenvalue of X at or below this fraction of the
# largest is zero, and two ascending ones are distinct when their gap
# exceeds this fraction of it.
_ZERO_EIGENVALUE_RTOL = 1e-9
_DISTINCT_EIGENVALUE_RTOL = 1e-9

# A leading weight block W0 conditioned worse than this makes the
# normalization meaningless (SingularW0).
_W0_CONDITION_CAP = 1e12


@dataclass(frozen=True, eq=False)
class SupportPoint:
    """A frequency on the imaginary axis, the exact sample G(j*omega)
    taken there, and how much of the sample is interpolated.

    One SVD of the sample gives everything else.  ``numerical_rank``
    counts its singular values above 1e-12 of the largest (and of 1),
    the most directions the sample carries.  ``rank`` None interpolates
    the whole sample.  A rank r in 1..min(p, q) (else RankOutOfRange)
    interpolates the projection U^H G(j*omega) of the sample onto its r
    leading left singular directions, the orthonormal columns of ``U``
    (p x r).  At omega = 0 the sample and ``U`` are real; a sample there
    with a non-negligible imaginary part raises NonRealSampleAtZero (a
    real system cannot have one).  ``omega`` must be finite and
    nonnegative (ValueError).

    The point is also its real interpolation block, built on first read.
    The r rows of ``L`` are the interpolated directions: I_p for a full
    point, U^H for a rank-r one; reading ``L`` (or any block matrix)
    raises DegenerateFactors when the rank exceeds ``numerical_rank`` (a
    retained direction carries nothing to interpolate).  For omega = 0
    the block is (0_r, [L G(0), L]) with r states; for omega > 0 it pairs
    +/- j*omega through the skew rotation A = [[0, omega I], [-omega I, 0]]
    with 2r states, and B1 = [Re L G; -Im L G], B2 = [Re L; -Im L].
    ``B1`` carries the data, ``B2`` the channel L used for reweighting.
    """

    omega: float
    sample: np.ndarray
    rank: int | None = None
    U: np.ndarray | None = field(default=None, init=False, repr=False)
    numerical_rank: int = field(default=0, init=False)

    def __post_init__(self):
        if not 0 <= self.omega < math.inf:
            raise ValueError("support frequencies are nonnegative and finite")
        value = np.atleast_2d(np.asarray(self.sample))
        if self.omega == 0.0:
            imag = float(np.abs(np.imag(value)).max(initial=0.0))
            if imag > 1e-9 * max(1.0, float(np.abs(value).max())):
                raise NonRealSampleAtZero(
                    f"sample at omega = 0 has imaginary part {imag:.3e}"
                )
            value = np.real(value).astype(float)
        r, rmax = self.rank, min(value.shape)
        if r is not None and not 1 <= r <= rmax:
            raise RankOutOfRange(f"rank {r} outside 1..{rmax} for shape {value.shape}")
        U, s, _ = np.linalg.svd(value, full_matrices=False)
        floor = _FACTOR_RTOL * max(1.0, s.max(initial=0.0))
        object.__setattr__(self, "sample", value)
        object.__setattr__(self, "numerical_rank", int(np.count_nonzero(s > floor)))
        if r is not None:
            object.__setattr__(self, "U", U[:, :r])

    @property
    def is_zero(self) -> bool:
        return self.omega == 0.0

    @property
    def order(self) -> int:
        """States of the point's interpolation block."""
        width = self.sample.shape[0] if self.rank is None else self.rank
        return width if self.is_zero else 2 * width

    @cached_property
    def L(self) -> np.ndarray:
        if self.rank is None:
            return np.eye(self.sample.shape[0])
        if self.rank > self.numerical_rank:
            raise DegenerateFactors(
                "retained singular values include a numerically zero entry"
            )
        return self.U.conj().T

    @cached_property
    def A(self) -> np.ndarray:
        r = self.L.shape[0]
        if self.is_zero:
            return np.zeros((r, r))
        return self.omega * np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(r))

    @cached_property
    def B1(self) -> np.ndarray:
        return _realify(self.L @ self.sample, self.omega)

    @cached_property
    def B2(self) -> np.ndarray:
        return _realify(self.L, self.omega)


def sample_support_point(
    sys: StateSpace, omega: float, rank: int | None = None
) -> SupportPoint:
    """Sample G(j*omega) into a ``SupportPoint`` of the given ``rank``."""
    value = np.atleast_2d(eval_freq(sys, omega))
    return SupportPoint(float(omega), value, rank)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Row-orthonormal weights selected from the error Gramian spectrum.

    ``W`` has p rows; its leading p columns form the normalization block
    whose inverse enters the realization.  ``degenerate`` marks that the
    distinct-eigenvalue rule had to be relaxed (repeated eigenvalues were
    accepted), which usually signals an over-resolved model.
    """

    W: np.ndarray
    selected_eigenvalues: tuple[float, ...]
    degenerate: bool = False

    @property
    def p(self) -> int:
        return self.W.shape[0]

    @property
    def w0(self) -> np.ndarray:
        return self.W[:, : self.p]

    @cached_property
    def w0_condition(self) -> float:
        """Conditioning of the normalization solve, 1/sigma_min(W0).

        The rows of W are orthonormal, so this equals ||W|| / sigma_min
        and stays meaningful even for p = 1 where the classic condition
        number of a scalar block is identically one.
        """
        smin = float(np.linalg.svd(self.w0, compute_uv=False)[-1])
        return 1.0 / smin if smin > 0 else float("inf")


@dataclass(frozen=True, eq=False)
class Interpolant:
    """A reduced model together with the data that produced it."""

    sys: StateSpace
    support: tuple
    weights: WeightMatrix

    @property
    def order(self) -> int:
        return self.sys.n


@dataclass(frozen=True)
class StoppingOptions:
    """Driver termination and tolerance settings.

    ``max_iterations`` caps the number of support points added.
    ``target_linf`` stops once the certified error drops at or below it;
    ``target_order`` stops before the reduced order would exceed it.
    With ``keep_best`` the driver returns the iterate with the smallest
    certified error rather than the last one; a later error displaces an
    earlier one only when it is smaller by more than ``bisect_rel_tol``,
    the precision of each bound.  ``min_dist`` is the relative radius
    within which a peak grows a rank-limited point.  ``min_dist`` and
    ``bisect_rel_tol`` must be positive and finite, and ``target_linf``
    None or positive and finite (ValueError).
    """

    max_iterations: int = 20
    target_linf: float | None = None
    target_order: int | None = None
    keep_best: bool = True
    bisect_rel_tol: float = DEFAULT_BISECT_RTOL
    min_dist: float = 0.02

    def __post_init__(self):
        if not 0 < self.min_dist < math.inf:
            raise ValueError("min_dist must be positive")
        if not 0 < self.bisect_rel_tol < math.inf:
            raise ValueError("bisect_rel_tol must be positive and finite")
        if self.target_linf is not None and not 0 < self.target_linf < math.inf:
            raise ValueError("target_linf must be positive and finite")


def _realify(M: np.ndarray, omega: float) -> np.ndarray:
    """Real rows for the complex rows M at frequency omega: Re M at
    omega = 0 (where M is real), else [Re M; -Im M], with +0 rather than
    -0 below a real M."""
    if omega == 0.0:
        return M.real
    return np.vstack([M.real, M.conj().imag])


def assemble_error_system(points, sys: StateSpace) -> StateSpace:
    """Cancelled realization of H(s) = N(s) - M(s) G(s).

    The first p rows carry D - G(s); the block of point k contributes the
    rows (sI - A_k)^{-1} (B1_k - B2_k G(s)).  Splitting the cross term through
    the solution of A_k Y_k - Y_k A = B2_k C turns each block row into
    Y_k (sI - A)^{-1} B plus a resolvent of A_k weighted by
    B1_k - Y_k B - B2_k D, and that weight is zero exactly when the block
    interpolates G at its frequency.  Y_k has a closed form in the rows
    Zc = C (j omega_k I - A)^{-1}: Y_k is L_k Zc realified as B2_k is
    from L_k.  The cancelled system therefore lives on the
    state space of G alone, with output map [-C; Y_1; ...; Y_K] and no
    feedthrough, so its poles stay off the imaginary axis whenever G is
    stable, and it shares G's Schur form and reachability Gramian.  A
    weight above 1e-8 of its natural scale means the sample does not
    match G there and raises ResidualImaginaryPoles.
    """
    p, q = sys.p, sys.q
    rows = [-sys.C]
    resolvents = _output_resolvent(sys, np.array([pt.omega for pt in points]))
    for pt, Zc in zip(points, resolvents):
        Y = _realify(pt.L @ Zc, pt.omega)
        coupled = Y @ sys.B
        weight = pt.B1 - coupled - pt.B2 @ sys.D
        scale = 1.0 + max(
            float(np.abs(pt.B1).max(initial=0.0)),
            float(np.abs(coupled).max(initial=0.0)),
        )
        if float(np.abs(weight).max(initial=0.0)) > _AXIS_RESIDUAL_RTOL * scale:
            raise ResidualImaginaryPoles(
                "block modes fail to cancel; the support sample does not "
                "match the model at its frequency"
            )
        rows.append(Y)
    n_out = p + sum(pt.order for pt in points)
    return _same_dynamics(sys, np.vstack(rows), np.zeros((n_out, q)))


def compute_X(err_sys: StateSpace) -> np.ndarray:
    """Output-side Gramian X = C P C^T of the cancelled error system, with
    P the reachability Gramian it shares with G (solved once per model)."""
    X = err_sys.C @ err_sys._reachability.P @ err_sys.C.T
    return 0.5 * (X + X.T)


def solve_weights(X: np.ndarray, p: int) -> WeightMatrix:
    """Weight rows from the p smallest distinct nonzero eigenvalues of X,
    symmetrized as (X + X^T) / 2, and their orthonormal eigenvectors.

    Eigenvalues below 1e-9 of the largest count as zero and are skipped
    (they correspond to directions already interpolated exactly); if
    fewer than p distinct values remain, distinctness is relaxed and the
    result is flagged degenerate.  Fewer than p nonzero eigenvalues in
    total raises InsufficientSpectrum.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    evals, evecs = np.linalg.eigh(0.5 * (X + X.T))
    lam_max = float(evals.max(initial=0.0))
    if lam_max <= 0.0:
        raise InsufficientSpectrum("error Gramian has no positive eigenvalues")
    zero_tol = _ZERO_EIGENVALUE_RTOL * lam_max
    nonzero = [i for i, lam in enumerate(evals) if lam > zero_tol]
    if len(nonzero) < p:
        raise InsufficientSpectrum(
            f"only {len(nonzero)} nonzero eigenvalues available, need {p}"
        )
    gap_tol = _DISTINCT_EIGENVALUE_RTOL * lam_max
    clusters: list[int] = [nonzero[0]]
    for i in nonzero[1:]:
        if evals[i] - evals[clusters[-1]] > gap_tol:
            clusters.append(i)
    degenerate = len(clusters) < p
    selected = (nonzero if degenerate else clusters)[:p]
    return WeightMatrix(
        W=evecs[:, selected].T.copy(),
        selected_eigenvalues=tuple(float(evals[i]) for i in selected),
        degenerate=degenerate,
    )


def realize_interpolant(points, weight: WeightMatrix, D: np.ndarray) -> StateSpace:
    """Closed-form interpolant from weights and support points.

    With the points' stacked block data (A, B1, B2) and W = [W0 W1], the
    reduced model is (A - B2 W0^{-1} W1, B2 D - B1, -W0^{-1} W1, D); with
    no points this degenerates to the static feedthrough.  A leading block
    W0 with condition number beyond 1e12 would make the normalization
    meaningless and raises SingularW0.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p, q = D.shape
    if points:
        A = block_diag(*[pt.A for pt in points])
        B1 = np.vstack([pt.B1 for pt in points])
        B2 = np.vstack([pt.B2 for pt in points])
    else:
        A, B1, B2 = np.zeros((0, 0)), np.zeros((0, q)), np.zeros((0, p))
    if weight.W.shape[1] != p + A.shape[0]:
        raise ValueError("weight width does not match block states")
    cond = weight.w0_condition
    if not np.isfinite(cond) or cond > _W0_CONDITION_CAP:
        raise SingularW0(f"leading weight block condition {cond:.3e}")
    what = np.linalg.solve(weight.w0, weight.W[:, p:])
    return StateSpace(A - B2 @ what, B2 @ D - B1, -what, D)


def certify(
    model: StateSpace, reduced: StateSpace, rel_tol: float, linf=None, **fields
) -> tuple[IterationRecord, LinfResult | None]:
    """Record of one reduced model, and its ``LinfResult``: the certified
    L-infinity error of G - R (inf, with no result, when that error system
    has poles on the imaginary axis) and whether a level test proved it,
    its H2 metric (None when the Lyapunov equation is ill-posed), the
    order and the measured stability.  ``linf``, when given, is the
    outcome of ``linf_norm(err, rel_tol)`` computed beforehand (as
    ``linf_sweep`` computes it): its result or the exception it raised.
    ``fields`` carry the rest of the record (iteration, action, omega,
    ...).  The drivers and the CLI make every record here."""
    err = subtract(model, reduced)
    try:
        lres = linf_norm(err, rel_tol) if linf is None else linf
        if isinstance(lres, Exception):
            raise lres
    except ImaginaryAxisPoles:
        lres = None
    try:
        h2 = h2_error_metric(err)
    except IllPosedLyapunov:
        h2 = None
    stable = is_stable(reduced)
    record = IterationRecord(
        order=reduced.n,
        linf_error=math.inf if lres is None else lres.gamma,
        certified=lres is None or lres.certified,
        h2_metric=h2,
        h2_is_norm=stable,
        stable=stable,
        **fields,
    )
    return record, lres


def select_or_grow(candidate_omega: float, points, min_dist: float) -> int | None:
    """Where a peak frequency lands: the index of the point whose rank it
    grows, or None when it funds a new point.

    A peak within ``min_dist * max(1, omega_i)`` of the nearest point
    grows that point when it is rank-limited and its rank is below the
    ``numerical_rank`` of its sample, the limit its ``L`` enforces;
    Saturated is raised when it is not (nothing left to refine there).
    Full points never grow.  Otherwise a peak that coincides with any
    point raises DuplicateSupportPoint.
    """
    if min_dist <= 0:
        raise ValueError("min_dist must be positive")
    omega = float(candidate_omega)
    dists = [abs(omega - pt.omega) for pt in points]
    if points:
        i = dists.index(min(dists))
        pt = points[i]
        if pt.rank is not None and dists[i] < min_dist * max(1.0, pt.omega):
            if pt.rank < pt.numerical_rank:
                return i
            raise Saturated(
                f"support point at {pt.omega:.6g} rad/s already has full rank {pt.rank}"
            )
    for dist, pt in zip(dists, points):
        if dist <= max(DUPLICATE_ATOL, DUPLICATE_RTOL * max(omega, pt.omega)):
            raise DuplicateSupportPoint(
                f"peak frequency {omega:.6g} rad/s coincides with an existing "
                "support point"
            )
    return None


_STOP_REASONS = {
    DuplicateSupportPoint: "duplicate support point",
    Saturated: "saturated support point",
}


def _adaptive_loop(
    work: StateSpace,
    opts: StoppingOptions,
    method: str,
    entry_rank: int | None = None,
) -> tuple[Interpolant, ReductionReport]:
    """The adaptive interpolation loop shared by both drivers.

    Each iteration certifies and records the current iterate (first the
    feedthrough-only one), checks the stopping rules, snaps near-DC peaks
    to omega = 0 and plans the next support points: ``select_or_grow``
    either grows a point's rank by one or adds a point at the peak with
    ``entry_rank`` (None, the full sample, for ``reduce``).  The loop
    stops before the planned points would exceed ``target_order`` states,
    then re-solves the weights for the next iterate.
    """
    if not is_stable(work):
        raise UnstableInput("adaptive interpolation needs a stable model")
    report = ReductionReport(method=method, options=asdict(opts))

    points: list = []
    current = Interpolant(static_gain(work.D), (), WeightMatrix(np.eye(work.p), ()))
    action, acted_omega = "init", None
    while True:
        record, lres = certify(
            work, current.sys, opts.bisect_rel_tol,
            iteration=len(report.records), action=action, omega=acted_omega,
            w0_condition=current.weights.w0_condition if points else None,
            ranks=None if entry_rank is None else tuple(pt.rank for pt in points),
        )
        report.records.append(record)
        report.iterates.append(current)
        if lres is None:
            report.warn(f"iteration {record.iteration}: interpolant poles on the axis")
            termination = "interpolant has imaginary-axis poles"
            break
        if opts.target_linf is not None and lres.gamma <= opts.target_linf:
            termination = "target_linf reached"
            break
        if lres.gamma <= 1e-13 * (1.0 + report.records[0].linf_error):
            termination = "error at numerical floor"
            break
        if record.iteration >= opts.max_iterations:
            termination = "max_iterations reached"
            break
        if math.isinf(lres.omega_peak):
            report.warn(
                "error peak lies at omega -> inf; feedthrough is already "
                "matched, nothing to refresh"
            )
            termination = "no finite peak frequency"
            break

        omega = lres.omega_peak
        if omega < DUPLICATE_ATOL:
            omega = 0.0
        try:
            index = select_or_grow(omega, points, opts.min_dist)
        except (DuplicateSupportPoint, Saturated) as exc:
            report.warn(f"{type(exc).__name__}: {exc}")
            termination = _STOP_REASONS[type(exc)]
            break
        step = list(points)
        if index is None:
            action, acted_omega = "add", omega
            step.append(sample_support_point(work, omega, entry_rank))
        else:
            action, acted_omega = "grow", points[index].omega
            step[index] = replace(points[index], rank=points[index].rank + 1)
        if (
            opts.target_order is not None
            and sum(pt.order for pt in step) > opts.target_order
        ):
            termination = "target_order would be exceeded"
            break

        points = step
        X = compute_X(assemble_error_system(points, work))
        try:
            weight = solve_weights(X, work.p)
            reduced = realize_interpolant(points, weight, work.D)
        except (SingularW0, InsufficientSpectrum) as exc:
            report.warn(f"{type(exc).__name__}: {exc}")
            termination = "weight computation failed"
            break
        current = Interpolant(reduced, tuple(points), weight)
        if weight.degenerate:
            report.warn(
                f"iteration {len(report.records)}: repeated Gramian "
                "eigenvalues, distinctness relaxed"
            )

    report.termination = termination
    if opts.keep_best:
        pool = [rec for rec in report.records if rec.certified] or report.records
        best = pool[0]
        for rec in pool[1:]:
            if rec.linf_error < best.linf_error * (1.0 - opts.bisect_rel_tol):
                best = rec
        report.best_iteration = best.iteration
    else:
        report.best_iteration = len(report.records) - 1
    return report.iterates[report.best_iteration], report


def reduce(
    sys: StateSpace, options: StoppingOptions | None = None
) -> tuple[Interpolant, ReductionReport]:
    """Run the adaptive interpolation loop on a stable model.

    Returns the chosen interpolant and a report with one record per
    iteration (iteration 0 is the feedthrough-only initial guess).
    Raises UnstableInput for unstable models; support-point duplication,
    singular weight normalization and imaginary-axis interpolant poles
    terminate the loop with a report warning instead of raising, so the
    best iterate so far is still returned.
    """
    return _adaptive_loop(sys, options or StoppingOptions(), "sys-aaa")
