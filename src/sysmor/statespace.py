"""Core state-space type and exact structural algebra.

A continuous-time LTI system is carried as a real quadruple (A, B, C, D)
with transfer function G(s) = C (sI - A)^-1 B + D.  Static gains (n = 0)
are first-class.  All operations are pure: they validate, build new
matrices, and return a fresh ``StateSpace``.

Each instance factors A once into its real Schur form A = Z T Z^T, read
by every pole and cached Gramian, and solves every response and slope on
one factor G(s) = left (sI - T)^-1 right + D by one shifted-solve kernel:
T is diagonal (Laub, IEEE TAC 26(2), 1981) when cond(V) allows, else Schur.

A model derived from others by ``subtract``, ``dual`` or a new output map
on the same states carries one private provenance record (``_Origin``),
and the derivation rules that read it sit together on ``StateSpace``:
the Schur form, the seed frequencies of the L-infinity search, the
Gramians and the frequency response of a derived model all come from its
operands.  Each model also caches its response at its own seeds, once,
so the error system G - R of a reduction run solves only R and the
frequencies that are not seeds of G; its reachability Gramian is
assembled as [[P_G, X], [X^T, P_R]] from G's cached Gramian, R's r x r
one and the cross block X of one Sylvester solve.

A stable model also caches its balanced realization, built by the
square-root method from its two cached Gramians with one SVD: its Hankel
singular values, their tail sums and every balanced truncation (a
leading block of it) read it, and a dual reads its operand's transposed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgees, dtrsyl

from . import numkernels
from .exceptions import DimensionMismatch, SingularAtFrequency

__all__ = [
    "StateSpace",
    "eval_freq",
    "subtract",
    "dual",
    "poles",
    "is_stable",
]


def _as_matrix(M, rows=None, cols=None, name="matrix") -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if rows is not None and M.shape[0] != rows:
        raise DimensionMismatch(f"{name} has {M.shape[0]} rows, expected {rows}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionMismatch(f"{name} has {M.shape[1]} columns, expected {cols}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


# Largest cond(V), V of unit eigenvectors, for a diagonal ``_factor``, whose
# responses err by about cond(V) eps ||C|| ||B|| / dist(j omega, lam) (Laub):
# 1e-12, three digits below criterion 8's 1e-9, gives 1e-12 / eps = 4.5e3.
_MODAL_COND_MAX = 1e-12 / np.finfo(float).eps

# Hankel values this far below the largest cannot be balanced in floating
# point (the 1/sqrt scaling would amplify roundoff past the signal); the
# matching states of a balanced truncation decouple instead of entering
# the transform.
_NEGLIGIBLE_HSV_RTOL = 1e-14


class _Origin(NamedTuple):
    """How a model was derived: ``kind`` "dynamics" is a new output map on
    the states of ``of``, "dual" the dual of ``of``, and "difference" the
    error system ``of`` - ``minus``; None is a model built from matrices."""

    kind: str | None = None
    of: StateSpace | None = None
    minus: StateSpace | None = None


class _Balancing(NamedTuple):
    """A model's balanced realization (A_b, B_b, C_b), in which both
    Gramians equal diag(hsv), the Hankel singular values (nonincreasing),
    and ``tails`` with tails[k] = sum(hsv[k:]) for k = 0..n.  Its leading
    k states are the balanced truncation to k states."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    hsv: np.ndarray
    tails: np.ndarray


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Real (A, B, C, D) quadruple with n states, q inputs, p outputs.

    Matrices are validated for shape consistency and finiteness on
    construction and stored read-only, so instances are safely shareable.
    A 1-D B is one input column and a 1-D C one output row.  A model has
    at least one input and one output (else DimensionMismatch); ``n = 0``
    represents a static gain y = D u.  Instances compare and
    hash by identity, as every array-carrying result of ``sysmor`` does.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        D = _as_matrix(self.D, name="D")
        p, q = D.shape
        if p == 0 or q == 0:
            raise DimensionMismatch(f"a model needs inputs and outputs, got D {D.shape}")
        A = np.asarray(self.A, dtype=float)
        if A.size == 0:
            A = A.reshape(0, 0)
        A = _as_matrix(A, name="A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        B = np.asarray(self.B, dtype=float)
        if B.ndim < 2:
            B = B.reshape(-1, 1)
        C = self.C
        if n == 0:
            B = np.zeros((0, q))
            C = np.zeros((p, 0))
        B = _as_matrix(B, rows=n, cols=q, name="B")
        C = _as_matrix(C, rows=p, cols=n, name="C")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            M = M.copy()
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        """State count."""
        return self.A.shape[0]

    @property
    def q(self) -> int:
        """Input count."""
        return self.D.shape[1]

    @property
    def p(self) -> int:
        """Output count."""
        return self.D.shape[0]

    def __repr__(self):
        return f"StateSpace(n={self.n}, q={self.q}, p={self.p})"

    # How the model was derived from others; set only by ``_derived``.
    _origin = _Origin()

    @cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(T, Z, poles) with A = Z T Z^T, T real quasi-triangular.

        A derived model reuses its operands' factors: the same states
        share them, a dual reads them reversed (with E the reversal
        permutation, A^T = (Z E) (E T^T E) (Z E)^T and E T^T E is again
        quasi-triangular), and a difference stacks them block-diagonally.
        """
        kind, of, minus = self._origin
        if self.n == 0:
            return _frozen(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0, complex))
        if kind is None:
            # sort_t=0: no eigenvalue reordering, so the select callback is unused
            T, _, wr, wi, Z, _, info = dgees(lambda re, im: 0, self.A)
            if info:
                raise np.linalg.LinAlgError("Schur factorization did not converge")
            return _frozen(T, Z, wr + 1j * wi)
        if kind == "dynamics":
            return of._schur
        if kind == "dual":
            T, Z, lam = of._schur
            return _frozen(
                np.asfortranarray(T.T[::-1, ::-1]), Z[:, ::-1].copy(), lam[::-1].copy()
            )
        (Tg, Zg, pg), (Tr, Zr, pr) = of._schur, minus._schur
        return _frozen(
            np.asfortranarray(sla.block_diag(Tg, Tr)),
            sla.block_diag(Zg, Zr),
            np.concatenate([pg, pr]),
        )

    @cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(T, left, right) with G(s) = left (sI - T)^-1 right + D, on which
        every response and slope is solved.

        A model built from matrices whose unit eigenvectors V = Z W of A
        (W those of T) have cond(V) <= ``_MODAL_COND_MAX`` gets the
        diagonal form of Laub (IEEE TAC 26(2), 1981): T is the 1-D vector
        of eigenvalues lam, left = C V and right = V^-1 B.  A dual
        transposes its operand's diagonal factor.  Every other model gets
        its real Schur T, with left = C Z and right = Z^T B.
        """
        kind, of, _ = self._origin
        if kind == "dual" and of._factor[0].ndim == 1:
            lam, left, right = of._factor
            return lam, right.T, left.T
        T, Z, _ = self._schur
        if kind is None and self.n:
            lam, W = np.linalg.eig(T)
            if np.linalg.cond(W) <= _MODAL_COND_MAX:
                right = np.linalg.solve(W, Z.T @ self.B)
                return _frozen(lam + 0j, self.C @ Z @ W, right)
        return _frozen(T, self.C @ Z, Z.T @ self.B)

    @cached_property
    def _seeds(self) -> np.ndarray:
        """Sorted seed frequencies of the L-infinity search (Bruinsma and
        Steinbuch): omega = 0 and the |Im| and modulus of every pole."""
        lam = poles(self)
        return np.unique(
            np.concatenate([[0.0], np.abs(lam.imag[lam.imag != 0]), np.abs(lam)])
        )

    @cached_property
    def _seed_responses(self) -> np.ndarray:
        """The k x p x q response at the k ``_seeds``, solved once; only a
        model that solves its own responses (see ``_response``) reads it."""
        return _solve_response(self, self._seeds)

    @cached_property
    def _reachability(self) -> numkernels.GramianResult:
        """P with A P + P A^T = -B B^T.  A model on the same states shares
        its operand's, and a dual reads its operand's observability
        Gramian.  A difference G - R assembles [[P_G, X], [X^T, P_R]] from
        its operands' Gramians and the cross block X, which
        ``solve_lyapunov`` gives for the pair; that solve tests every
        eigenvalue pair of the stacked spectrum, G - R pairs included."""
        kind, g, r = self._origin
        if kind is None:
            return numkernels.solve_lyapunov(self)
        if kind == "dynamics":
            return g._reachability
        if kind == "dual":
            return g._observability
        cross = numkernels.solve_lyapunov(g, other=r)
        P_g, P_r = g._reachability, r._reachability
        P = np.block([[P_g.P, cross.P], [cross.P.T, P_r.P]])
        P.setflags(write=False)
        residual = max(P_g.residual, cross.residual, P_r.residual)
        return numkernels.GramianResult(P, residual)

    @cached_property
    def _observability(self) -> numkernels.GramianResult:
        """Q with A^T Q + Q A = -C^T C, the reachability Gramian of the
        dual: a ``dual`` reads its operand's, any other model solves it on
        its own dual, which reuses its Schur form."""
        kind, of, _ = self._origin
        if kind == "dual":
            return of._reachability
        return numkernels.solve_lyapunov(dual(self))

    @cached_property
    def _balancing(self) -> _Balancing:
        """The balanced realization of a stable model by the square-root
        method, from its two cached Gramians P = Lc Lc^T, Q = Lo Lo^T and
        the SVD Lo^T Lc = U diag(hsv) Vt: with S = diag(hsv)^-1/2,
        T = Lc Vt^T S and W = Lo U S give (W^T A T, W^T B, C T).
        Directions whose Hankel value is numerically zero decouple as
        inert states (unit decay, no input or output coupling).  A dual
        reads its operand's transposed: (A_b^T, C_b^T, B_b^T)."""
        kind, of, _ = self._origin
        if kind == "dual":
            A, B, C, hsv, tails = of._balancing
            return _Balancing(A.T, C.T, B.T, hsv, tails)
        Lc = _psd_factor(self._reachability.P)
        Lo = _psd_factor(self._observability.P)
        U, hsv, Vt = np.linalg.svd(Lo.T @ Lc)
        keep = hsv > _NEGLIGIBLE_HSV_RTOL * max(hsv[0], np.finfo(float).tiny)
        scale = np.where(keep, 1.0 / np.sqrt(np.where(keep, hsv, 1.0)), 0.0)
        T = Lc @ Vt.T * scale
        W = Lo @ U * scale
        del Lc, Lo, U, Vt
        A = W.T @ self.A @ T
        dead = np.flatnonzero(~keep)
        A[dead, :] = 0.0
        A[:, dead] = 0.0
        A[dead, dead] = -1.0
        # summed from the smallest value up, so each tail keeps its digits
        tails = np.append(np.cumsum(hsv[::-1])[::-1], 0.0)
        return _Balancing(*_frozen(A, W.T @ self.B, self.C @ T, hsv, tails))


def _derived(model: StateSpace, *origin) -> StateSpace:
    object.__setattr__(model, "_origin", _Origin(*origin))
    return model


def _same_dynamics(sys: StateSpace, C, D) -> StateSpace:
    """(A, B, C, D) on the states of ``sys``, sharing its Schur form,
    seeds and reachability Gramian."""
    return _derived(StateSpace(sys.A, sys.B, C, D), "dynamics", sys)


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


def _balanced_truncation(sys: StateSpace, order: int) -> StateSpace:
    """The balanced truncation of a stable ``sys`` to 0 < ``order`` <= n
    states: the leading block of its cached balanced realization, read at
    O(order^2) cost."""
    A, B, C, _, _ = sys._balancing
    return StateSpace(A[:order, :order], B[:order], C[:, :order], sys.D)


def _frozen(*arrays):
    for M in arrays:
        M.setflags(write=False)
    return arrays


def static_gain(D) -> StateSpace:
    """Zero-state system realizing the constant gain ``D``."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p, q = D.shape
    return StateSpace(np.zeros((0, 0)), np.zeros((0, q)), np.zeros((p, 0)), D)


# Column pairs per chunk of ``_shifted_solve``: 16 frequencies of a
# one-column right side, 16 // m of an m-column one.  Each LAPACK
# ``dtrsyl`` call has a fixed cost far above one quasi-triangular
# back-substitution, while the zero blocks of its rotation matrix add
# O(n pairs^2) work and each chunk holds O(n pairs) memory.
_CHUNK = 16

_EIGENVALUE_AT = "j*{:g} is an eigenvalue of A within solver precision"


def _shifted_solve(
    T: np.ndarray, omegas: np.ndarray, rhs: np.ndarray, trans: bool = False
) -> Iterator[tuple[slice, np.ndarray]]:
    """Solve (j*omega I - T) X = rhs, or (j*omega I - T^T) X = rhs with
    ``trans``, for T a ``_factor``'s (1-D eigenvalues or quasi-triangular),
    n x m real or complex rhs and every omega of the 1-D ``omegas``.
    Yields (at, X) per chunk of ``_CHUNK`` // m frequencies (at least
    one), with X[i] the n x m solution at omegas[at][i], so a caller
    consumes each chunk in O(n _CHUNK) memory.
    """
    step = max(1, _CHUNK // rhs.shape[1])
    for start in range(0, omegas.size, step):
        at = slice(start, start + step)
        yield at, _solve_chunk(T, omegas[at], rhs, trans)


def _solve_chunk(
    T: np.ndarray, omegas: np.ndarray, rhs: np.ndarray, trans: bool
) -> np.ndarray:
    """The k x n x m solutions of ``_shifted_solve`` at k frequencies.

    A 1-D T is diagonal: one division by the gaps j*omega - lam, unless
    a gap is within eps of max(|lam|, |omega|), which raises
    ``SingularAtFrequency`` at the first such frequency.  A quasi-
    triangular T is solved in real arithmetic by one ``dtrsyl`` call:
    X = Xr + j Xi makes the chunk one Sylvester equation T [Xr Xi] +
    [Xr Xi] Omega = [-Re rhs, -Im rhs], one column pair per (omega,
    column of rhs) and one block [[0, -omega], [omega, 0]] of Omega per
    pair, so each pair's arithmetic is that of its own one-frequency
    solve.  The call's singularity threshold reads the chunk's largest
    |omega|, and its overflow scale covers the whole chunk, so a chunk
    that reports either is solved again one frequency at a time: the
    first frequency at which j*omega is an eigenvalue of T within solver
    precision raises ``SingularAtFrequency``, the others keep their
    one-frequency values.
    """
    if T.ndim == 1:
        gaps = 1j * omegas[:, None] - T
        tiny = np.finfo(float).eps * np.maximum(np.abs(T).max(), np.abs(omegas))
        zero = np.abs(gaps).min(axis=1) <= tiny
        if zero.any():
            raise SingularAtFrequency(_EIGENVALUE_AT.format(omegas[zero][0]))
        X = np.empty(omegas.shape + rhs.shape, dtype=complex)
        X[...] = rhs  # divided in place, as each broadcast operand costs a buffer
        X /= gaps[:, :, None]
        return X
    (n, m), k = rhs.shape, omegas.size
    c = np.empty((n, 2 * k * m), order="F")
    # column 2 (i m + j) + part holds part (Re, Im) of column j at omegas[i]
    pairs = c.reshape((n, 2, m, k), order="F")
    pairs[:, 0] = -rhs.real[:, :, None]
    pairs[:, 1] = -rhs.imag[:, :, None]
    rotation = np.zeros((2 * k * m, 2 * k * m), order="F")
    even = np.arange(0, 2 * k * m, 2)
    omega = np.repeat(omegas, m)
    rotation[even, even + 1] = -omega
    rotation[even + 1, even] = omega
    x, scale, info = dtrsyl(
        T, rotation, c, trana="T" if trans else "N", overwrite_c=True
    )
    if (info or scale != 1.0) and k > 1:
        return np.concatenate(
            [_solve_chunk(T, omegas[i : i + 1], rhs, trans) for i in range(k)]
        )
    if info:
        raise SingularAtFrequency(_EIGENVALUE_AT.format(omegas[0]))
    pairs = x.reshape((n, 2, m, k), order="F")
    # C-contiguous per frequency, so a stacked product runs for each
    # frequency the BLAS kernel (dot, gemv or gemm) that a one-frequency
    # chunk runs, and a stack equals its scalar calls bit for bit.
    X = np.empty((k, n, m), dtype=complex)
    X.real = pairs[:, 0].transpose(2, 0, 1)
    X.imag = pairs[:, 1].transpose(2, 0, 1)
    if scale != 1.0:
        X /= scale
    return X


def _output_resolvent(sys: StateSpace, omegas: np.ndarray) -> np.ndarray:
    """The k x p x n rows C (j*omega I - A)^-1 at the 1-D ``omegas``,
    each a transposed view of the n x p product Z X of its chunk."""
    value = np.zeros((omegas.size, sys.n, sys.p), dtype=complex)
    if sys.n:
        T, Z, _ = sys._schur
        for at, X in _shifted_solve(T, omegas, (sys.C @ Z).T, trans=True):
            value[at] = Z @ X
    return value.transpose(0, 2, 1)


def _solve_response(sys: StateSpace, omegas: np.ndarray) -> np.ndarray:
    """k x p x q response left (j omega I - T)^-1 right + D at the 1-D
    ``omegas`` on the model's ``_factor``, by shifted solves on the side
    of fewer columns, each chunk added in as it is solved."""
    value = np.empty(omegas.shape + sys.D.shape, dtype=complex)
    value[...] = sys.D
    if sys.n and omegas.size:
        T, left, right = sys._factor
        if sys.p < sys.q:
            for at, X in _shifted_solve(T, omegas, left.T, trans=True):
                value[at] += X.transpose(0, 2, 1) @ right
        else:
            for at, X in _shifted_solve(T, omegas, right):
                value[at] += left @ X
        value.imag[omegas == 0.0] = 0.0  # exactly real, as G(0) is
    return value


def _response_slope(sys: StateSpace, omega: float, v: np.ndarray) -> np.ndarray:
    """dG(j omega)/d omega v = -j left (j omega I - T)^-2 right v for a
    q x 1 v, by two one-frequency solves on the ``_factor``; a difference
    subtracts R's from G's."""
    kind, of, minus = sys._origin
    if kind == "difference":
        return _response_slope(of, omega, v) - _response_slope(minus, omega, v)
    if not sys.n:
        return np.zeros((sys.p, 1), complex)
    (T, left, right), at = sys._factor, np.array([omega])
    X = _solve_chunk(T, at, right @ v, False)[0]
    return -1j * (left @ _solve_chunk(T, at, X, False)[0])


def _response(sys: StateSpace, omegas: np.ndarray, seeded: bool) -> np.ndarray:
    """k x p x q response at the 1-D ``omegas``, by the model's origin.

    A dual transposes its operand's response and a difference G - R
    subtracts R's from G's, with G ``seeded``.  Any other model reads its
    ``_seed_responses`` at the frequencies that are seeds, once they exist
    or when ``seeded`` asks for them, and solves the rest.
    """
    kind, of, minus = sys._origin
    if kind == "dual":
        return _response(of, omegas, seeded).transpose(0, 2, 1)
    if kind == "difference":
        return _response(of, omegas, True) - _response(minus, omegas, False)
    if not seeded and "_seed_responses" not in sys.__dict__:
        return _solve_response(sys, omegas)
    seeds, known = sys._seeds, sys._seed_responses
    at = np.minimum(np.searchsorted(seeds, omegas), seeds.size - 1)
    hit = seeds[at] == omegas
    value = np.empty(omegas.shape + sys.D.shape, dtype=complex)
    value[hit] = known[at[hit]]
    value[~hit] = _solve_response(sys, omegas[~hit])
    return value


def eval_freq(sys: StateSpace, omega) -> np.ndarray:
    """Evaluate G(j*omega) = C (j*omega I - A)^-1 B + D.

    A scalar ``omega`` gives the p x q response; a 1-D array of k
    frequencies gives a k x p x q stack, each entry bit-identical to the
    scalar call at its frequency.  Unless it is a cached seed, each
    frequency costs one shifted solve on the model's ``_factor``, O(n p q)
    on a diagonal T and O(n^2 min(p, q)) on a Schur T, in chunks whose
    memory grows with the chunk and not with k.  The error system
    of ``subtract`` returns G(j*omega) - R(j*omega), so it solves only R
    at the seeds of G.  Raises ``SingularAtFrequency``, naming the first
    such frequency, when j*omega is (numerically) an eigenvalue of A or
    the response there overflows.
    """
    omegas = np.asarray(omega, dtype=float).reshape(-1)
    # an overflow shows as a non-finite entry, which the check below names
    with np.errstate(over="ignore", invalid="ignore"):
        value = _response(sys, omegas, False)
    finite = np.isfinite(value).all(axis=(1, 2))
    if not finite.all():
        raise SingularAtFrequency(
            f"response overflow at omega={omegas[np.argmin(finite)]:g}"
        )
    return value.reshape(np.shape(omega) + sys.D.shape)


def subtract(g: StateSpace, r: StateSpace) -> StateSpace:
    """Realize the error system G(s) - R(s) (block-diagonal states).

    The result remembers its operands: its Schur factors, seeds,
    reachability Gramian and response are assembled from those of ``g``
    and ``r``, so a fixed ``g`` is factored, and solved at its seeds,
    only once.
    """
    if (g.p, g.q) != (r.p, r.q):
        raise DimensionMismatch(
            f"cannot subtract {r.p}x{r.q} system from {g.p}x{g.q} system"
        )
    A = sla.block_diag(g.A, r.A)
    B = np.vstack([g.B, r.B])
    C = np.hstack([g.C, -r.C])
    return _derived(StateSpace(A, B, C, g.D - r.D), "difference", g, r)


def dual(sys: StateSpace) -> StateSpace:
    """Transpose the transfer matrix: (A, B, C, D) -> (A^T, C^T, B^T, D^T).

    The result reuses the factors, seed responses and Gramians of ``sys``
    (its two Gramians trade places).
    """
    return _derived(StateSpace(sys.A.T, sys.C.T, sys.B.T, sys.D.T), "dual", sys)


def poles(sys: StateSpace) -> np.ndarray:
    """Eigenvalues of A (empty for static gains), read-only.  Those of a
    difference are its operands', so reading them forms no Schur form of
    the stacked states."""
    kind, of, minus = sys._origin
    if kind == "difference":
        return _frozen(np.concatenate([poles(of), poles(minus)]))[0]
    return sys._schur[2]


def _axis_margin(sys: StateSpace) -> float:
    """|Re(pole)| at or below this counts as on the imaginary axis: 1e-8
    times the spectral radius, and at least 1e-8."""
    return 1e-8 * max(1.0, float(np.abs(poles(sys)).max(initial=0.0)))


def is_stable(sys: StateSpace) -> bool:
    """True when every pole lies left of the imaginary axis by more than
    the axis margin."""
    return bool(np.all(poles(sys).real < -_axis_margin(sys)))
