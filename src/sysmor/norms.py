"""L-infinity norm with peak-frequency extraction, and the H2 error metric.

The L-infinity computation is the Hamiltonian bisection of Bruinsma and
Steinbuch: a level gamma is a strict upper bound iff the gamma-level
Hamiltonian has no imaginary eigenvalues.  Each level test classifies its
spectrum once and probes the response once, at the frequencies of every
eigenvalue near the axis or without its mirror image, and at their
midpoints.  A gain above the level becomes the new lower bound; otherwise
the level is accepted, and ``certified`` when no eigenvalue was near the
axis.  Stability is not required, only the absence of imaginary-axis
poles, so the same routine serves unstable interpolants.

Before each level test the best probe is refined to a local maximum of
sigma_max, as Benner and Mitchell do (SIAM J. Sci. Comput. 40(5), 2018):
between the probes beside it, safeguarded secant steps find a root of
d sigma_max / d omega = Re(u^H G_omega v), G_omega = dG(j omega)/d omega,
from the response and the product G_omega v, each composed over the
operands of G - R.  The root, unlike the argmax of sigma_max itself, is
well conditioned, and a refined gain is an ordinary probe, so the first
level test, at that gain times 1 + rel_tol, usually finds no crossings.
When it does find some, the interval around the best new probe brackets
the next refinement.

On an error system G - R from ``subtract`` with G stable, a level test
may run on G_k - R instead, with G_k the balanced truncation of G to k
states (read from G's cached balanced realization; no Schur form, since
the test builds the Hamiltonian from the matrices).  Glover's bound
||G - G_k||_inf <= 2 sum_{i>k} sigma_i (Int. J. Control 39, 1984) and
the triangle inequality carry the proof back: when the Hamiltonian of
G_k - R at ``level - delta(k)``, with delta(k) = 2 (sum_{i>k} sigma_i
+ c n eps sigma_1), has no imaginary eigenvalues, ||G - R||_inf <=
``level``.  The second term of delta(k) is an allowance for roundoff in
the computed G_k, and the surrogate runs only when both of G's Gramian
residuals are within that allowance.  k is the smallest order with
4 delta(k) <= 0.1 rel_tol gamma_lb, so the shifted level still sits
above the peak; when no k < n qualifies (flat Hankel decay, a tiny
lower bound), or sigma_k is negligible, the exact test runs.  Suspects,
probes, the peak refinement and the lower bound stay on the exact
G - R, and a surrogate test whose crossings no probe refutes is
repeated exactly at the same level, so ``certified`` keeps its meaning.
The surrogate's test has 2(k + r) states instead of 2(n + r).

The computation is one generator, ``_linf_steps``: it yields each level
test as (error system, level), the system being G - R or the surrogate's
G_k - R, and is sent the test's spectrum, so the spectrum may be solved
on any thread (``_hamiltonian_spectrum`` reads only the models' arrays,
the stacked B, C and D that ``subtract`` froze and the A blocks of the
operands, and solves H in place without holding the GIL).
``linf_norm`` solves every test in turn; ``linf_sweep``, for compare's
balanced orders, runs each order's generator to its first test, hands
that test to a worker thread while the caller does other work, and then
finishes each order.

The search starts from the model's cached ``_seeds`` (omega = 0 and the
|Im| and modulus of every pole); on the error system G - R of a reduction
run, G's response there comes from G's seed cache, so each call solves
only R and the frequencies that are not seeds of G.  The H2 metric reads
the error system's reachability Gramian, which ``subtract`` assembles
from G's cached one, R's and one Sylvester solve for the block between.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Generator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import ImaginaryAxisPoles, NonzeroFeedthrough, SingularAtFrequency
from .numkernels import _eigvals_overwrite, _sorted_unique
from .statespace import (
    _NEGLIGIBLE_HSV_RTOL,
    StateSpace,
    _axis_margin,
    _balanced_truncation,
    _response_slope,
    eval_freq,
    is_stable,
    poles,
    subtract,
)

__all__ = ["LinfResult", "linf_norm", "linf_sweep", "h2_error_metric"]

DEFAULT_BISECT_RTOL = 1e-6

# Classification margin for "purely imaginary" Hamiltonian eigenvalues.
# Loose on purpose: a false positive only costs extra gain evaluations.
_IMAG_CLASS_RTOL = 1e-6

_MAX_LEVEL_ITERATIONS = 60

# Eigenvalues per block of the mirror-pair search in ``_axis_frequencies``.
_MIRROR_ROWS = 64

# The peak refinement: its secant search for a root of the slope of
# sigma_max stops once the bracket is this narrow relative to its upper
# end, or after this many steps; sigma_max counts as repeated, and its
# slope as unreliable, where the second singular value is this close.
_ROOT_RTOL = 1e-12
_MAX_SLOPE_STEPS = 60
_REPEATED_RTOL = 1e-8

# The surrogate level test: c in the roundoff allowance c n eps sigma_1 of
# its shift delta(k), and the share of rel_tol * gamma_lb that 4 delta(k)
# may take.
_ROUNDOFF_ALLOWANCE = 100.0
_SURROGATE_SHARE = 0.1


@dataclass(frozen=True)
class LinfResult:
    """Peak gain ``gamma``, a frequency attaining it within tolerance, and
    the number of Hamiltonian level tests performed (``iterations``; a
    surrogate test repeated exactly counts twice).  ``omega_peak`` is
    ``math.inf`` when the supremum is approached only as omega -> inf
    (feedthrough-dominated error).

    ``certified`` is True when ``gamma`` is proven an upper bound: it is
    the level of a Hamiltonian test that found no crossings (on G - R, or
    on a balanced surrogate G_k - R at that level less delta(k)), or the
    exact gain of a static system.  It is False when the level cap was
    hit, when the last test found crossings whose probes stayed below its
    level (a tangency), or when the probed maximum fell below the
    numerical floor and is returned as is.

    ``surrogate_tests`` counts the level tests that ran on a surrogate,
    and ``slope_evaluations`` the gain-and-slope evaluations of the peak
    refinement (each a response and a product G_omega v, per operand).
    """

    gamma: float
    omega_peak: float
    iterations: int
    certified: bool = True
    surrogate_tests: int = 0
    slope_evaluations: int = 0


def _hamiltonian_spectrum(sys: StateSpace, gamma: float) -> np.ndarray:
    """Eigenvalues of the gamma-level Hamiltonian of ``sys``.  Its
    imaginary ones j omega mark the frequencies where some singular value
    of G(j omega) equals ``gamma``; with none, gamma is a strict upper
    bound.

    The four blocks are written into one column-major 2n x 2n array, and
    the D terms are skipped when D = 0, as it is for every error system
    of a reduction run.  A difference from ``subtract`` gives its own
    stacked B, C and D, and its A blocks are written straight from its
    operands, so H equals, bit for bit, that of the stacked model, and
    the difference forms no stacked n x n A.  Only the models' arrays are
    read, no cached property.  H lies in an anonymous mapping of its own,
    so its pages go back to the system with it rather than stay in a
    thread's malloc arena, and ``_eigvals_overwrite`` solves it there:
    numpy's ``dgeev``, with no copy of H and without the GIL, at every
    size, for the spectrum ``np.linalg.eigvals`` gives (which solves a
    copy of H where numpy's ``dgeev`` is not bound).
    """
    if not gamma * gamma < math.inf:
        raise SingularAtFrequency(f"the Hamiltonian at level {gamma:g} overflows")
    B, C, D = sys.B, sys.C, sys.D
    # States scaled by the power of two s that matches the largest entries
    # of B / s and C s: an exact similarity, so B R^-1 B^T and C^T C stay
    # in range whenever the gain does.
    b, c = (max(float(np.abs(M).max()), np.finfo(float).tiny) for M in (B, C))
    s = 2.0 ** round(0.5 * (math.log2(b) - math.log2(c)))
    B, C = B / s, C * s
    (p, q), n = D.shape, sys.n
    # Zero pages of a mapping of its own, unmapped with its last view; not
    # closed here, which raises BufferError while a traceback holds a view.
    H = np.frombuffer(mmap.mmap(-1, 32 * n * n), dtype=float)
    H = H.reshape((2 * n, 2 * n), order="F")
    A = H[:n, :n]  # a view: the A blocks are written in place
    kind, g, r = sys._origin
    if kind == "difference":  # block_diag(G.A, R.A), as ``subtract`` stacks A
        A[: g.n, : g.n], A[g.n :, g.n :] = g.A, r.A
    else:
        A[:] = sys.A
    R = gamma**2 * np.eye(q) - D.T @ D
    np.matmul(B, np.linalg.solve(R, B.T), out=H[:n, n:])
    if D.any():
        RinvDt = np.linalg.solve(R, D.T)
        A += B @ RinvDt @ C
        np.matmul(-C.T @ (np.eye(p) + D @ RinvDt), C, out=H[n:, :n])
    else:
        np.matmul(-C.T, C, out=H[n:, :n])
    np.negative(A.T, out=H[n:, n:])
    return _eigvals_overwrite(H)


def _axis_frequencies(lam: np.ndarray) -> tuple[np.ndarray, bool]:
    """Sorted frequencies omega >= 0 of the Hamiltonian eigenvalues within
    the class margin of the axis or without their mirror image -conj(lam)
    (off the axis eigenvalues come in mirror pairs, so an unpaired one is
    an imaginary eigenvalue that roundoff moved past the margin), and
    whether any eigenvalue lies within the margin.  Each eigenvalue's
    nearest mirror is found ``_MIRROR_ROWS`` eigenvalues at a time, in
    O(N _MIRROR_ROWS) memory rather than that of the N x N distances."""
    on_axis = np.abs(lam.real) <= _IMAG_CLASS_RTOL * np.maximum(1.0, np.abs(lam))
    nearest = np.empty(lam.size)
    for start in range(0, lam.size, _MIRROR_ROWS):
        rows = np.arange(start, min(start + _MIRROR_ROWS, lam.size))
        dist = np.abs(lam.conj()[rows, None] + lam[None, :])
        dist[rows - start, rows] = np.inf  # not its own mirror
        nearest[rows] = dist.min(axis=1, initial=np.inf)
    lone = nearest > np.abs(lam.real)
    return _sorted_unique(np.abs(lam[on_axis | lone].imag)), bool(on_axis.any())


def _with_midpoints(omegas: np.ndarray) -> np.ndarray:
    return np.sort(np.concatenate([omegas, 0.5 * (omegas[:-1] + omegas[1:])]))


def _gain_and_slope(sys: StateSpace, omega: float) -> tuple[float, float | None]:
    """sigma_max(G(j omega)) and its derivative in omega, None where
    sigma_max is (nearly) repeated and so has no reliable slope.

    With u, v the leading singular vectors of the response, composed by
    ``eval_freq``, the slope is Re(u^H G_omega v), where G_omega v =
    dG(j omega)/d omega v is composed alike by ``_response_slope``.
    """
    U, s, Vh = np.linalg.svd(eval_freq(sys, omega))
    if s.size > 1 and s[1] >= (1.0 - _REPEATED_RTOL) * s[0]:
        return float(s[0]), None
    slope = U[:, :1].conj().T @ _response_slope(sys, omega, Vh[:1].conj().T)
    return float(s[0]), float(slope.real[0, 0])


def _slope_root(
    gain_and_slope, lo: float, mid: float, hi: float
) -> tuple[float, float] | None:
    """(omega, gain) at a local maximum of sigma_max beside ``mid``, the
    best of a batch of probes whose neighbours are ``lo`` and ``hi``;
    ``gain_and_slope(omega)`` evaluates sigma_max and its slope.

    The slope at ``mid`` says on which side the maximum lies.  Halving
    toward that side's neighbour brackets a root where the slope falls
    from positive to negative: a midpoint with the opposite slope closes
    the bracket, one with the same slope and a larger gain becomes the
    new ``mid``, and one with a smaller gain the new neighbour.  Illinois
    steps (regula falsi that halves the slope kept at an end the steps do
    not move, bisecting wherever the secant point leaves the bracket)
    then narrow the bracket to ``_ROOT_RTOL``.  None at omega = 0, where
    the slope of the even function sigma_max vanishes, where sigma_max
    turns (nearly) repeated, or when no bracket closes.
    """
    if mid == 0.0:
        return None
    gain, f_mid = gain_and_slope(mid)
    if not f_mid:
        return None
    far = hi if f_mid > 0.0 else lo
    steps = iter(range(_MAX_SLOPE_STEPS))  # one budget for both loops
    for _ in steps:
        if abs(far - mid) <= _ROOT_RTOL * max(far, mid):
            return None
        omega = 0.5 * (mid + far)
        g, f = gain_and_slope(omega)
        if f is None:
            return None
        if f * f_mid <= 0.0:
            break
        if g >= gain:
            mid, gain, f_mid = omega, g, f
        else:
            far = omega
    else:
        return None
    found = omega, g
    (lo, f_lo), (hi, f_hi) = sorted([(mid, f_mid), (omega, f)])
    side = 0
    for _ in steps:
        if f_lo == 0.0 or f_hi == 0.0 or hi - lo <= _ROOT_RTOL * hi:
            break
        omega = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < omega < hi:
            omega = 0.5 * (lo + hi)
        g, f = gain_and_slope(omega)
        if f is None:
            return None
        found = omega, g
        if f > 0.0:
            lo, f_lo = omega, f
            f_hi *= 0.5 if side > 0 else 1.0
            side = 1
        else:
            hi, f_hi = omega, f
            f_lo *= 0.5 if side < 0 else 1.0
            side = -1
    return found


def _surrogate(
    sys: StateSpace, gamma_lb: float, rel_tol: float
) -> tuple[StateSpace, float] | None:
    """(G_k - R, delta(k)) for a level test of the error system ``sys`` =
    G - R on the difference ``subtract(G_k, R)`` at a level near
    ``gamma_lb``, or None when the exact test must run: ``sys`` is not a
    difference from ``subtract``, G is not stable or has a Gramian
    residual above the roundoff allowance, or no order 0 < k < n with a
    non-negligible sigma_k meets 4 delta(k) <= 0.1 rel_tol gamma_lb."""
    kind, g, r = sys._origin
    if kind != "difference" or g.n < 2 or not gamma_lb > 0.0 or not is_stable(g):
        return None
    allowance = _ROUNDOFF_ALLOWANCE * g.n * np.finfo(float).eps
    if not all(m.residual <= allowance for m in (g._reachability, g._observability)):
        return None
    hsv, tails = g._balancing.hsv, g._balancing.tails
    shifts = 2.0 * (tails[1 : g.n] + allowance * hsv[0])
    fits = np.flatnonzero(4.0 * shifts <= _SURROGATE_SHARE * rel_tol * gamma_lb)
    if not fits.size:
        return None
    k = int(fits[0]) + 1
    if hsv[k - 1] <= _NEGLIGIBLE_HSV_RTOL * hsv[0]:
        return None
    return subtract(_balanced_truncation(g, k), r), float(shifts[k - 1])


def _linf_steps(
    sys: StateSpace, rel_tol: float
) -> Generator[tuple, np.ndarray, LinfResult]:
    """The computation of ``linf_norm`` as a generator: it yields the
    ``_hamiltonian_spectrum`` arguments (error system, level) of each
    level test, is sent that test's spectrum, and returns the
    ``LinfResult``.  The error system is ``sys`` itself, or for a
    surrogate test the difference G_k - R."""
    if not 0 < rel_tol < math.inf:
        raise ValueError("rel_tol must be positive and finite")
    d_gain = float(np.linalg.norm(sys.D, 2)) if sys.D.size else 0.0
    if sys.n == 0:
        return LinfResult(d_gain, 0.0, 0)

    lam_A = poles(sys)
    if np.min(np.abs(lam_A.real)) <= _axis_margin(sys):
        raise ImaginaryAxisPoles(
            "A has eigenvalues within guard distance of the imaginary axis"
        )

    # Scale floor so exactly-cancelling systems terminate immediately (b c may be inf).
    margin = float(max(np.min(np.abs(lam_A.real)), np.finfo(float).tiny))
    b, c = (max(float(np.abs(M).max()), np.finfo(float).tiny) for M in (sys.B, sys.C))
    scaled = float(np.linalg.norm(sys.B / b) * np.linalg.norm(sys.C / c))
    rough = d_gain + b * c * scaled / margin
    floor = 1e-13 * min(max(1.0, rough), np.finfo(float).max)

    best_omega = 0.0
    best_gain = -1.0
    slopes = 0

    def gain_and_slope(omega: float) -> tuple[float, float | None]:
        nonlocal slopes
        slopes += 1
        return _gain_and_slope(sys, omega)

    def note(omega, gain) -> float:
        nonlocal best_omega, best_gain
        if gain > best_gain:
            best_gain, best_omega = float(gain), float(omega)
        return float(gain)

    def probe(omegas: np.ndarray, level: float) -> float:
        """The largest gain of one sorted batch of frequencies and, when it
        exceeds ``level``, of the refined peak between the probes beside
        the best one."""
        if not omegas.size:
            return 0.0
        gains = np.linalg.norm(eval_freq(sys, omegas), 2, axis=(1, 2))
        k = int(np.argmax(gains))
        top = note(omegas[k], gains[k])
        lo, hi = omegas[max(k - 1, 0)], omegas[min(k + 1, omegas.size - 1)]
        if top > level and lo < hi:
            peak = _slope_root(gain_and_slope, lo, omegas[k], hi)
            if peak is not None:
                top = max(top, note(*peak))
        return top

    # Seed candidates: DC, resonant frequencies, pole magnitudes.
    probe(sys._seeds, floor)
    gamma_lb = max(best_gain, d_gain)

    certified = False
    runs = surrogate_tests = 0
    for _ in range(_MAX_LEVEL_ITERATIONS):
        level = max(gamma_lb * (1.0 + rel_tol), floor)
        tests = [(sys, level)]
        surrogate = _surrogate(sys, gamma_lb, rel_tol)
        if surrogate is not None:
            err_k, shift = surrogate
            tests.insert(0, (err_k, level - shift))
        # The surrogate's test, when there is one, then the exact test, up
        # to the first that finds no crossings or whose probes refute them.
        for test in tests:
            runs += 1
            surrogate_tests += test is not tests[-1]
            suspects, crossed = _axis_frequencies((yield test))
            new_lb = probe(_with_midpoints(suspects), level)
            if not crossed or new_lb > level:
                break
        if new_lb <= level:
            # No probe refutes the level: a bound unless a crossing was seen.
            below_floor = not crossed and gamma_lb <= floor
            gamma = max(gamma_lb, 0.0) if below_floor else level
            certified = not crossed and not below_floor
            break
        gamma_lb = new_lb
    else:
        gamma = gamma_lb * (1.0 + rel_tol)

    omega_peak = best_omega if best_gain >= d_gain else math.inf
    return LinfResult(
        float(gamma), omega_peak, runs, certified, surrogate_tests, slopes
    )


def _finish(steps: Generator, spectrum: np.ndarray | None = None) -> LinfResult:
    """The result of the ``_linf_steps`` generator ``steps``: it is sent
    ``spectrum``, that of the test it waits on (None starts it), and each
    later test is solved here."""
    try:
        while True:
            spectrum = _hamiltonian_spectrum(*steps.send(spectrum))
    except StopIteration as stop:
        return stop.value


def linf_norm(sys: StateSpace, rel_tol: float = DEFAULT_BISECT_RTOL) -> LinfResult:
    """Peak of sigma_max(G(j omega)) over omega in [0, inf].

    Terminates when (upper - lower) / lower <= rel_tol and returns the
    certified upper bound as ``gamma``; ``omega_peak`` is the best
    frequency actually evaluated (omega = 0 and the omega -> inf
    feedthrough limit are always candidates).
    """
    return _finish(_linf_steps(sys, rel_tol))


def _attempt(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def linf_sweep(model: StateSpace, reduced, rel_tol: float, meanwhile) -> list:
    """``linf_norm(subtract(model, r), rel_tol)`` for each r in
    ``reduced``, in order, each its result or the exception it raised,
    with ``meanwhile()`` run on this thread while one worker thread solves
    the first level tests.

    Each order's ``_linf_steps`` runs here to its first test, whose
    spectrum goes to the worker; the worker solves them lowest first.
    After ``meanwhile()`` this thread cancels, highest first, each one the
    worker has not started and solves it itself; then it finishes the
    orders in turn.  An error system forms no stacked A, so no (n + k)^2
    array is held while ``meanwhile()`` runs.  The worker runs nothing
    but ``_hamiltonian_spectrum``, so every public call stays on this
    thread and at most two Hamiltonians are in flight.  Each eigensolve
    releases the GIL, so the worker's eigensolves overlap this thread's
    work at every size.  An exception from ``meanwhile()`` propagates once
    the worker has finished the spectrum it is solving.
    """
    outcomes, tests, spectra = [], [], []
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        for r in reduced:
            test = None
            try:
                steps = _linf_steps(subtract(model, r), rel_tol)
                test = next(steps)
            except StopIteration as stop:  # a static error system: no test
                steps = stop.value
            except Exception as exc:
                steps = exc
            outcomes.append(steps)
            tests.append(test)
            spectra.append(
                None if test is None else pool.submit(_hamiltonian_spectrum, *test)
            )
        meanwhile()
        for i in reversed(range(len(spectra))):
            if spectra[i] is not None and spectra[i].cancel():
                spectra[i] = _attempt(_hamiltonian_spectrum, *tests[i])
    finally:
        # an interrupted caller leaves the worker only the spectrum it solves
        pool.shutdown(cancel_futures=True)
    for i, spectrum in enumerate(spectra):
        if isinstance(spectrum, Future):
            spectrum = spectrum.exception() or spectrum.result()
        if isinstance(spectrum, Exception):
            outcomes[i] = spectrum
        elif spectrum is not None:
            outcomes[i] = _attempt(_finish, outcomes[i], spectrum)
    return outcomes


def h2_error_metric(err_sys: StateSpace) -> float:
    """sqrt(|trace(C P C^T)|) with A P + P A^T = -B B^T (the cached
    reachability Gramian of ``err_sys``; for G - R from ``subtract`` it is
    assembled from G's Gramian, R's and their cross block, so no solve
    runs on the stacked states).

    Equals the H2 norm when ``err_sys`` is stable; for unstable systems it
    is the same trace formula evaluated with this solver's sign
    convention, reported as a plain metric (callers flag non-norm use).
    Requires zero feedthrough.
    """
    D = err_sys.D
    scale = 1.0 + float(np.abs(err_sys.B).max(initial=0.0)) * float(
        np.abs(err_sys.C).max(initial=0.0)
    )
    if D.size and float(np.abs(D).max()) > 1e-14 * scale:
        raise NonzeroFeedthrough("H2 metric requires D = 0")
    value = np.trace(err_sys.C @ err_sys._reachability.P @ err_sys.C.T)
    return float(np.sqrt(abs(value)))
