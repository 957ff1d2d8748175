"""Adaptive rational interpolation of a state-space model.

One driver iteration: locate the peak frequency of the current error,
sample the full model there, append a real-coefficient interpolation
block, assemble the cancelled error system H, and re-solve a small
symmetric eigenvalue problem for the weights that minimise the resulting
H2 objective.  The interpolant is then read off as a closed-form
state-space realization; each support point at omega = 0 adds p states
and each nonzero point adds 2p.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .exceptions import (
    DuplicateSupportPoint,
    IllPosedLyapunov,
    ImaginaryAxisPoles,
    InsufficientSpectrum,
    NonRealSampleAtZero,
    ResidualImaginaryPoles,
    Saturated,
    SingularW0,
    UnstableInput,
)
from .norms import linf_norm, h2_error_metric
from .numkernels import (
    DISTINCT_EIGENVALUE_RTOL,
    ZERO_EIGENVALUE_RTOL,
    solve_lyapunov,
    sym_eig_ascending,
)
from .report import IterationRecord, ReductionReport
from .statespace import (
    DEFAULT_MINREAL_TOL,
    StateSpace,
    eval_freq,
    is_stable,
    minreal,
    static_gain,
    subtract,
)

__all__ = [
    "SupportPoint",
    "BlockRealization",
    "WeightMatrix",
    "Interpolant",
    "StoppingOptions",
    "sample_support_point",
    "build_block",
    "assemble_error_system",
    "compute_X",
    "solve_weights",
    "realize_interpolant",
    "reduce",
]

# Support points closer than this are one point: relative in rad/s, with an
# absolute snap-to-zero band so "almost DC" peaks become the DC point.
DUPLICATE_RTOL = 1e-6
DUPLICATE_ATOL = 1e-9

# Residual |Re(pole)| / spectral radius allowed after cancellation.
_AXIS_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class SupportPoint:
    """A frequency on the imaginary axis together with the exact sample
    G(j*omega) taken there."""

    omega: float
    sample: np.ndarray

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("support frequencies are nonnegative")

    @property
    def is_zero(self) -> bool:
        return self.omega == 0.0


def sample_support_point(sys: StateSpace, omega: float) -> SupportPoint:
    """Sample G(j*omega) into a ``SupportPoint``."""
    value = np.atleast_2d(eval_freq(sys, omega))
    return SupportPoint(float(omega), value)


@dataclass(frozen=True)
class BlockRealization:
    """Real state-space block encoding interpolation at one frequency.

    For omega = 0 the block is (0_p, [Re G(0), I_p]) with p states; for
    omega > 0 it pairs +/- j*omega through the skew rotation
    A = [[0, omega I], [-omega I, 0]] with 2p states.  ``B1`` carries the
    sample, ``B2`` the identity channel used later for reweighting.
    """

    omega: float
    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray

    @property
    def order(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
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

    @property
    def w0_condition(self) -> float:
        """Conditioning of the normalization solve, 1/sigma_min(W0).

        The rows of W are orthonormal, so this equals ||W|| / sigma_min
        and stays meaningful even for p = 1 where the classic condition
        number of a scalar block is identically one.
        """
        smin = float(np.linalg.svd(self.w0, compute_uv=False)[-1])
        return 1.0 / smin if smin > 0 else float("inf")

    @property
    def objective(self) -> float:
        """Value of the minimised trace objective."""
        return float(sum(self.selected_eigenvalues))


@dataclass(frozen=True)
class Interpolant:
    """A reduced model together with the data that produced it."""

    sys: StateSpace
    support: tuple
    weights: WeightMatrix
    order: int


@dataclass(frozen=True)
class StoppingOptions:
    """Driver termination and tolerance settings.

    ``max_iterations`` caps the number of support points added.
    ``target_linf`` stops once the certified error drops at or below it;
    ``target_order`` stops before the reduced order would exceed it.
    With ``keep_best`` the driver returns the iterate with the smallest
    recorded error rather than the last one.  ``min_dist`` only matters
    to the low-rank driver (rank growth radius).
    """

    max_iterations: int = 20
    target_linf: float | None = None
    target_order: int | None = None
    keep_best: bool = True
    bisect_rel_tol: float = 1e-6
    minreal_tol: float = DEFAULT_MINREAL_TOL
    w0_condition_cap: float = 1e12
    min_dist: float = 0.02


def build_block(point: SupportPoint) -> BlockRealization:
    """Interpolation block for one support point.

    Raises NonRealSampleAtZero if an omega = 0 sample carries a
    non-negligible imaginary part (a real system cannot).
    """
    value = np.atleast_2d(np.asarray(point.sample))
    p = value.shape[0]
    omega = float(point.omega)
    if omega == 0.0:
        imag_tol = 1e-9 * max(1.0, float(np.abs(value).max()))
        if value.imag.size and float(np.abs(value.imag).max()) > imag_tol:
            raise NonRealSampleAtZero(
                "sample at omega = 0 has imaginary part "
                f"{float(np.abs(value.imag).max()):.3e}"
            )
        A = np.zeros((p, p))
        B1 = value.real.copy()
        B2 = np.eye(p)
    else:
        eye = np.eye(p)
        A = np.block(
            [[np.zeros((p, p)), omega * eye], [-omega * eye, np.zeros((p, p))]]
        )
        B1 = np.vstack([value.real, -value.imag])
        B2 = np.vstack([eye, np.zeros((p, p))])
    return BlockRealization(omega, A, B1, B2)


def _stack_blocks(blocks, p: int, q: int):
    if not blocks:
        return np.zeros((0, 0)), np.zeros((0, q)), np.zeros((0, p))
    A = scipy.linalg.block_diag(*[blk.A for blk in blocks])
    B1 = np.vstack([blk.B1 for blk in blocks])
    B2 = np.vstack([blk.B2 for blk in blocks])
    return A, B1, B2


def assemble_error_system(
    blocks, sys: StateSpace, tol: float = DEFAULT_MINREAL_TOL
) -> StateSpace:
    """Minimal realization of H(s) = N(s) - M(s) G(s).

    The first p rows carry D - G(s); block k contributes the rows
    (sI - A_k)^{-1} (B1_k - B2_k G(s)).  Splitting the cross term through
    the Sylvester solution A_k Y_k - Y_k A = B2_k C turns each block row
    into Y_k (sI - A)^{-1} B plus a resolvent of A_k weighted by
    B1_k - Y_k B - B2_k D, and that weight is zero exactly when the block
    interpolates G at its frequency.  The cancelled system therefore
    lives on the state space of G alone, with output map
    [-C; Y_1; ...; Y_K] and no feedthrough, so its poles stay off the
    imaginary axis whenever G is stable.  A weight above 1e-8 of its
    natural scale means the sample does not match G there and raises
    ResidualImaginaryPoles.
    """
    p, q = sys.p, sys.q
    rows = [-sys.C]
    for blk in blocks:
        if sys.n:
            Y = scipy.linalg.solve_sylvester(blk.A, -sys.A, blk.B2 @ sys.C)
        else:
            Y = np.zeros((blk.order, 0))
        coupled = Y @ sys.B
        weight = blk.B1 - coupled - blk.B2 @ sys.D
        scale = 1.0 + max(
            float(np.abs(blk.B1).max(initial=0.0)),
            float(np.abs(coupled).max(initial=0.0)),
        )
        if float(np.abs(weight).max(initial=0.0)) > _AXIS_RESIDUAL_RTOL * scale:
            raise ResidualImaginaryPoles(
                "block modes fail to cancel; the support sample does not "
                "match the model at its frequency"
            )
        rows.append(Y)
    n_out = p + sum(blk.order for blk in blocks)
    h = StateSpace(sys.A, sys.B, np.vstack(rows), np.zeros((n_out, q)))
    return minreal(h, tol)


def compute_X(err_sys: StateSpace) -> np.ndarray:
    """Output-side Gramian X = C P C^T of the cancelled error system."""
    if err_sys.n == 0:
        return np.zeros((err_sys.p, err_sys.p))
    gram = solve_lyapunov(err_sys.A, err_sys.B @ err_sys.B.T)
    X = err_sys.C @ gram.P @ err_sys.C.T
    return 0.5 * (X + X.T)


def solve_weights(X: np.ndarray, p: int) -> WeightMatrix:
    """Weight rows from the p smallest distinct nonzero eigenvalues of X.

    Eigenvalues below 1e-9 of the largest count as zero and are skipped
    (they correspond to directions already interpolated exactly); if
    fewer than p distinct values remain, distinctness is relaxed and the
    result is flagged degenerate.  Fewer than p nonzero eigenvalues in
    total raises InsufficientSpectrum.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    evals, evecs = sym_eig_ascending(X)
    lam_max = float(evals.max(initial=0.0))
    if lam_max <= 0.0:
        raise InsufficientSpectrum("error Gramian has no positive eigenvalues")
    zero_tol = ZERO_EIGENVALUE_RTOL * lam_max
    nonzero = [i for i, lam in enumerate(evals) if lam > zero_tol]
    if len(nonzero) < p:
        raise InsufficientSpectrum(
            f"only {len(nonzero)} nonzero eigenvalues available, need {p}"
        )
    gap_tol = DISTINCT_EIGENVALUE_RTOL * lam_max
    clusters: list[int] = [nonzero[0]]
    for i in nonzero[1:]:
        if evals[i] - evals[clusters[-1]] > gap_tol:
            clusters.append(i)
    if len(clusters) >= p:
        selected = clusters[:p]
        degenerate = False
    else:
        selected = nonzero[:p]
        degenerate = True
    W = evecs[:, selected].T.copy()
    return WeightMatrix(
        W=W,
        selected_eigenvalues=tuple(float(evals[i]) for i in selected),
        degenerate=degenerate,
    )


def realize_interpolant(
    blocks,
    weight: WeightMatrix,
    D: np.ndarray,
    w0_condition_cap: float = 1e12,
) -> StateSpace:
    """Closed-form interpolant from weights and blocks.

    With the stacked block data (A, B1, B2) and W = [W0 W1], the reduced
    model is (A - B2 W0^{-1} W1, B2 D - B1, -W0^{-1} W1, D); with no
    blocks this degenerates to the static feedthrough.  A leading block
    W0 with condition number beyond ``w0_condition_cap`` would make the
    normalization meaningless and raises SingularW0.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p, q = D.shape
    A, B1, B2 = _stack_blocks(blocks, p, q)
    if weight.W.shape[1] != p + A.shape[0]:
        raise ValueError("weight width does not match block states")
    cond = weight.w0_condition
    if not np.isfinite(cond) or cond > w0_condition_cap:
        raise SingularW0(f"leading weight block condition {cond:.3e}")
    what = np.linalg.solve(weight.w0, weight.W[:, p:])
    return StateSpace(A - B2 @ what, B2 @ D - B1, -what, D)


def _identity_weight(p: int) -> WeightMatrix:
    return WeightMatrix(np.eye(p), (), False)


def _h2_of(err: StateSpace) -> float | None:
    try:
        return h2_error_metric(err)
    except IllPosedLyapunov:
        return None


def _check_duplicate(omega: float, points) -> None:
    """Raise DuplicateSupportPoint when ``omega`` coincides with a point."""
    for pt in points:
        if abs(omega - pt.omega) <= max(
            DUPLICATE_ATOL, DUPLICATE_RTOL * max(omega, pt.omega)
        ):
            raise DuplicateSupportPoint(
                f"peak frequency {omega:.6g} rad/s coincides with an existing "
                "support point"
            )


@dataclass(frozen=True)
class _SupportPolicy:
    """How the driver loop spends one iteration on the support set.

    ``plan(work, points, omega, opts)`` returns ``(action, acted_omega,
    order_increment, commit)`` or raises DuplicateSupportPoint/Saturated;
    ``commit()`` applies the step to ``points`` once the order check has
    passed.  ``build`` turns one point into its interpolation block, and
    ``ranks`` makes each record list the per-point ranks.
    """

    plan: Callable
    build: Callable
    ranks: bool = False


def _plan_full(work: StateSpace, points: list, omega: float, opts):
    """Add one point carrying the full sample at ``omega``."""
    _check_duplicate(omega, points)

    def commit():
        points.append(sample_support_point(work, omega))

    return "add", omega, work.p if omega == 0.0 else 2 * work.p, commit


_STOP_REASONS = {
    DuplicateSupportPoint: "duplicate support point",
    Saturated: "saturated support point",
}


def _adaptive_loop(
    work: StateSpace, opts: StoppingOptions, policy: _SupportPolicy, method: str
) -> tuple[Interpolant, ReductionReport]:
    """The adaptive interpolation loop shared by both drivers.

    Each iteration checks the stopping rules, snaps near-DC peaks to
    omega = 0, lets ``policy`` plan a step at the certified error peak,
    stops before the step would exceed ``target_order``, then commits it,
    re-solves the weights, certifies the new error and records it.
    """
    if not is_stable(work):
        raise UnstableInput("adaptive interpolation needs a stable model")
    report = ReductionReport(method=method, options=asdict(opts))

    points: list = []
    current = Interpolant(static_gain(work.D), (), _identity_weight(work.p), 0)
    err = subtract(work, current.sys)
    lres = linf_norm(err, opts.bisect_rel_tol)
    report.records.append(
        IterationRecord(
            iteration=0,
            action="init",
            omega=None,
            order=0,
            linf_error=lres.gamma,
            h2_metric=_h2_of(err),
            h2_is_norm=True,
            stable=True,
            ranks=() if policy.ranks else None,
        )
    )
    report.iterates.append(current)
    floor = 1e-13 * (1.0 + lres.gamma)
    best_gamma, best_iter = lres.gamma, 0

    iteration = 0
    termination = None
    while termination is None:
        if opts.target_linf is not None and lres.gamma <= opts.target_linf:
            termination = "target_linf reached"
            break
        if lres.gamma <= floor:
            termination = "error at numerical floor"
            break
        if iteration >= opts.max_iterations:
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
            action, acted_omega, increment, commit = policy.plan(
                work, points, omega, opts
            )
        except (DuplicateSupportPoint, Saturated) as exc:
            report.warn(f"{type(exc).__name__}: {exc}")
            termination = _STOP_REASONS[type(exc)]
            break
        if (
            opts.target_order is not None
            and current.order + increment > opts.target_order
        ):
            termination = "target_order would be exceeded"
            break

        commit()
        iteration += 1
        blocks = [policy.build(pt) for pt in points]
        X = compute_X(assemble_error_system(blocks, work, opts.minreal_tol))
        try:
            weight = solve_weights(X, work.p)
            reduced = realize_interpolant(
                blocks, weight, work.D, opts.w0_condition_cap
            )
        except (SingularW0, InsufficientSpectrum) as exc:
            report.warn(f"{type(exc).__name__}: {exc}")
            termination = "weight computation failed"
            break
        current = Interpolant(reduced, tuple(points), weight, reduced.n)
        if weight.degenerate:
            report.warn(
                f"iteration {iteration}: repeated Gramian eigenvalues, "
                "distinctness relaxed"
            )

        err = subtract(work, reduced)
        stable = is_stable(reduced)
        try:
            lres = linf_norm(err, opts.bisect_rel_tol)
            gamma = lres.gamma
            axis_ok = True
        except ImaginaryAxisPoles:
            report.warn(f"iteration {iteration}: interpolant poles on the axis")
            gamma = math.inf
            axis_ok = False
        report.records.append(
            IterationRecord(
                iteration=iteration,
                action=action,
                omega=acted_omega,
                order=reduced.n,
                linf_error=gamma,
                h2_metric=_h2_of(err),
                h2_is_norm=stable,
                stable=stable,
                w0_condition=weight.w0_condition,
                ranks=tuple(pt.rank for pt in points) if policy.ranks else None,
            )
        )
        report.iterates.append(current)
        if gamma < best_gamma:
            best_gamma, best_iter = gamma, iteration
        if not axis_ok:
            termination = "interpolant has imaginary-axis poles"
            break

    report.termination = termination
    if opts.keep_best:
        report.best_iteration = best_iter
    else:
        report.best_iteration = report.records[-1].iteration
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
    policy = _SupportPolicy(_plan_full, build_block)
    return _adaptive_loop(sys, options or StoppingOptions(), policy, "sys-aaa")
