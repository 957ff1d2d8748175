"""Core state-space type and exact structural algebra.

A continuous-time LTI system is carried as a real quadruple (A, B, C, D)
with transfer function G(s) = C (sI - A)^-1 B + D.  Static gains (n = 0)
are first-class.  All operations are pure: they validate, build new
matrices, and return a fresh ``StateSpace``.

Each instance factors A once, into its real Schur form A = Z T Z^T, and
every pole, frequency-response and Gramian computation reads that
factorization: a response costs one quasi-triangular O(n^2) solve per
frequency, and each Gramian one Lyapunov back-substitution, cached with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgees, dtrsyl

from . import numkernels
from .exceptions import DimensionMismatch, SingularAtFrequency

__all__ = [
    "StateSpace",
    "static_gain",
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


@dataclass(frozen=True)
class StateSpace:
    """Real (A, B, C, D) quadruple with n states, q inputs, p outputs.

    Matrices are validated for shape consistency and finiteness on
    construction and stored read-only, so instances are safely shareable.
    ``n = 0`` represents a static gain y = D u.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        D = _as_matrix(self.D, name="D")
        p, q = D.shape
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
        C = np.asarray(self.C, dtype=float)
        if C.ndim < 2:
            C = C.reshape(1, -1)
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

    @cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(T, Z, poles) with A = Z T Z^T, T real quasi-triangular."""
        if self.n == 0:
            return _frozen(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0, complex))
        # sort_t=0: no eigenvalue reordering, so the select callback is unused
        T, _, wr, wi, Z, _, info = dgees(lambda re, im: 0, self.A)
        if info:
            raise np.linalg.LinAlgError("Schur factorization did not converge")
        return _frozen(T, Z, wr + 1j * wi)

    @cached_property
    def _reachability(self) -> numkernels.GramianResult:
        """P with A P + P A^T = -B B^T, shared with ``_same_dynamics``
        copies; a ``dual`` reads the observability Gramian of its operand."""
        if "_dynamics_of" in self.__dict__:
            return self._dynamics_of._reachability
        if "_dual_of" in self.__dict__:
            return self._dual_of._observability
        return numkernels.solve_lyapunov(self)

    @cached_property
    def _observability(self) -> numkernels.GramianResult:
        """Q with A^T Q + Q A = -C^T C; a ``dual`` reads the reachability
        Gramian of its operand."""
        if "_dual_of" in self.__dict__:
            return self._dual_of._reachability
        return numkernels.solve_lyapunov(self, trans=True)


def _same_dynamics(sys: StateSpace, C, D) -> StateSpace:
    """(A, B, C, D) on the states of ``sys``, sharing its Schur form and,
    once either asks for it, its reachability Gramian."""
    out = StateSpace(sys.A, sys.B, C, D)
    object.__setattr__(out, "_schur", sys._schur)
    object.__setattr__(out, "_dynamics_of", sys)
    return out


def _frozen(*arrays):
    for M in arrays:
        M.setflags(write=False)
    return arrays


def static_gain(D) -> StateSpace:
    """Zero-state system realizing the constant gain ``D``."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p, q = D.shape
    return StateSpace(np.zeros((0, 0)), np.zeros((0, q)), np.zeros((p, 0)), D)


def _shifted_solve(
    T: np.ndarray, omega: float, rhs: np.ndarray, trans: bool = False
) -> np.ndarray:
    """Solve (j*omega I - T) X = rhs, or (j*omega I - T^T) X = rhs with
    ``trans``, for quasi-triangular T and real rhs, in real arithmetic.

    Splitting X = Xr + j Xi turns the shifted solve into the Sylvester
    equation T [Xr Xi] + [Xr Xi] [[0, -omega], [omega, 0]] = [-rhs 0],
    one rotation block per column, which LAPACK ``dtrsyl`` solves by
    back-substitution on T without copying it.
    """
    n, k = rhs.shape
    c = np.zeros((n, 2 * k), order="F")
    c[:, ::2] = -rhs
    rotation = np.zeros((2 * k, 2 * k))
    even = np.arange(0, 2 * k, 2)
    rotation[even, even + 1] = -omega
    rotation[even + 1, even] = omega
    x, scale, info = dtrsyl(T, rotation, c, trana="T" if trans else "N")
    if info:
        raise SingularAtFrequency(
            f"j*{omega:g} is an eigenvalue of A within solver precision"
        )
    return (x[:, ::2] + 1j * x[:, 1::2]) / scale


def _output_resolvent(sys: StateSpace, omega: float) -> np.ndarray:
    """The p x n rows C (j*omega I - A)^-1."""
    if sys.n == 0:
        return np.zeros((sys.p, 0), dtype=complex)
    T, Z, _ = sys._schur
    return (Z @ _shifted_solve(T, omega, (sys.C @ Z).T, trans=True)).T


def eval_freq(sys: StateSpace, omega) -> np.ndarray:
    """Evaluate G(j*omega) = C (j*omega I - A)^-1 B + D.

    A scalar ``omega`` gives the p x q response; a 1-D array of k
    frequencies gives a k x p x q stack.  Each frequency costs one
    shifted solve against the cached Schur form of A, on the side with
    fewer columns.  Raises ``SingularAtFrequency`` when j*omega is
    (numerically) an eigenvalue of A.
    """
    omegas = np.asarray(omega, dtype=float)
    value = np.empty(omegas.shape + sys.D.shape, dtype=complex)
    value[...] = sys.D
    if sys.n:
        T, Z, _ = sys._schur
        CZ, ZB = sys.C @ Z, Z.T @ sys.B
        left = sys.p < sys.q
        for k in np.ndindex(omegas.shape):
            if left:
                value[k] += _shifted_solve(T, omegas[k], CZ.T, trans=True).T @ ZB
            else:
                value[k] += CZ @ _shifted_solve(T, omegas[k], ZB)
    if not np.all(np.isfinite(value)):
        raise SingularAtFrequency(f"response overflow at omega={omega}")
    return value


def subtract(g: StateSpace, r: StateSpace) -> StateSpace:
    """Realize the error system G(s) - R(s) (block-diagonal states).

    The Schur factors of the result are assembled block-diagonally from
    those of ``g`` and ``r``, so a fixed ``g`` is factored only once; a
    static ``r`` leaves the states of ``g``, whose Gramian is then shared.
    """
    if (g.p, g.q) != (r.p, r.q):
        raise DimensionMismatch(
            f"cannot subtract {r.p}x{r.q} system from {g.p}x{g.q} system"
        )
    if r.n == 0:
        return _same_dynamics(g, g.C, g.D - r.D)
    A = sla.block_diag(g.A, r.A)
    B = np.vstack([g.B, r.B])
    C = np.hstack([g.C, -r.C])
    D = g.D - r.D
    err = StateSpace(A, B, C, D)
    (Tg, Zg, pg), (Tr, Zr, pr) = g._schur, r._schur
    factors = (
        np.asfortranarray(sla.block_diag(Tg, Tr)),
        sla.block_diag(Zg, Zr),
        np.concatenate([pg, pr]),
    )
    object.__setattr__(err, "_schur", _frozen(*factors))
    return err


def dual(sys: StateSpace) -> StateSpace:
    """Transpose the transfer matrix: (A, B, C, D) -> (A^T, C^T, B^T, D^T).

    The result reuses the factors of ``sys``: with E the reversal
    permutation, A^T = (Z E) (E T^T E) (Z E)^T and E T^T E is again real
    quasi-triangular, and the two Gramians of ``sys`` trade places.
    """
    out = StateSpace(sys.A.T, sys.C.T, sys.B.T, sys.D.T)
    T, Z, lam = sys._schur
    factors = (
        np.asfortranarray(T.T[::-1, ::-1]),
        Z[:, ::-1].copy(),
        lam[::-1].copy(),
    )
    object.__setattr__(out, "_schur", _frozen(*factors))
    object.__setattr__(out, "_dual_of", sys)
    return out


def poles(sys: StateSpace) -> np.ndarray:
    """Eigenvalues of A (empty for static gains), read-only."""
    return sys._schur[2]


def _axis_margin(sys: StateSpace) -> float:
    """|Re(pole)| at or below this counts as on the imaginary axis: 1e-8
    times the spectral radius, and at least 1e-8."""
    return 1e-8 * max(1.0, float(np.abs(poles(sys)).max(initial=0.0)))


def is_stable(sys: StateSpace) -> bool:
    """True when every pole lies left of the imaginary axis by more than
    the axis margin."""
    return bool(np.all(poles(sys).real < -_axis_margin(sys)))
