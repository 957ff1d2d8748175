"""The Lyapunov and Sylvester solve behind every Gramian.

It is Bartels-Stewart back-substitution on the real Schur form each
``StateSpace`` caches, so it factors nothing itself; every solve reports
its relative residual instead of assuming success.  It solves for
reachability Gramians only: an observability Gramian is the reachability
Gramian of the dual, whose Schur form is the model's reversed.  The same
solve, given a second model, returns the cross block of the Gramian of
the two models' stacked states, a Sylvester equation on the two Schur
forms: that is how the Gramian of an error system G - R is split into
G's cached Gramian, R's small one and that block.

The package's two LAPACK routines, the real Schur factorization
``dgees`` and the quasi-triangular Sylvester solve ``dtrsyl``, are bound
here, once, from ``scipy.linalg._flapack``: the compiled wrapper module
that ``scipy.linalg.lapack`` re-exports, so they are the very same
objects, on the same LAPACK build.  It is loaded by its file spec under
scipy's ``linalg`` directory, which runs neither ``scipy/__init__`` nor
``scipy/linalg/__init__``: importing ``scipy.linalg``, which even
``scipy.linalg.lapack`` alone does, takes longer than importing numpy,
and each ``sysmor`` command would pay it.  Where a scipy build has no such
module, both come from ``scipy.linalg.lapack``.  ``block_diag`` writes
what ``scipy.linalg.block_diag`` does, so no module of the package
imports ``scipy.linalg``.

The Hamiltonian eigensolve of every L-infinity level test is LAPACK's
``dgeev`` in the OpenBLAS that numpy's linear-algebra extension links,
the routine ``np.linalg.eigvals`` runs, called through ctypes by
``_eigvals_overwrite``.  It overwrites the caller's column-major H in
place, so no copy of H is made, and ctypes releases the GIL for the call,
at every size.  Its spectrum is numpy's, bit for bit.  Where that numpy
exports no such symbol (a build on another LAPACK), ``np.linalg.eigvals``
solves H instead.  ``_sorted_unique`` is ``np.unique`` of a 1-D float
array without the ``numpy.ma`` import that ``np.unique`` makes on its
first call.

dgees and dtrsyl stay on scipy's LAPACK build, and ``dgeev`` stays on
numpy's, so that every output keeps its bits: the two wheels bundle
different OpenBLAS releases, which differ at roundoff.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .exceptions import IllPosedLyapunov

if TYPE_CHECKING:
    from .statespace import StateSpace

__all__ = ["solve_lyapunov"]

# lam_i + lam_j magnitudes below this (relative to the spectral radius) make
# the Lyapunov operator numerically singular.
_SPECTRUM_PAIR_RTOL = 1e-10

# Eigenvalues per block of that pair test: it holds O(n _PAIR_ROWS) sums
# at a time rather than all n^2.
_PAIR_ROWS = 64


def _lapack_routines():
    """(dgees, dtrsyl) of ``scipy.linalg._flapack``, loaded without
    importing ``scipy.linalg``; of ``scipy.linalg.lapack`` where no such
    extension is found.  Without scipy this raises a plain ``ImportError``."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        dirs = (scipy and scipy.submodule_search_locations) or ()
        spec = PathFinder.find_spec(name, [os.path.join(d, "linalg") for d in dirs])
        if spec is None:
            from scipy.linalg.lapack import dgees, dtrsyl

            return dgees, dtrsyl
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # a later ``import scipy.linalg`` re-exports this module, not a copy
        sys.modules[name] = module
    return module.dgees, module.dtrsyl


dgees, dtrsyl = _lapack_routines()


def _numpy_dgeev():
    """``dgeev`` of the ILP64 OpenBLAS that numpy's ``_umath_linalg``
    links (``scipy_dgeev_64_``, found through that extension's own
    dependencies), as a ctypes function that releases the GIL; None where
    numpy's LAPACK exports no such symbol."""
    try:
        fn = ctypes.CDLL(_umath_linalg.__file__).scipy_dgeev_64_
    except (OSError, AttributeError):
        return None
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    # JOBVL, JOBVR, N, A, LDA, WR, WI, VL, LDVL, VR, LDVR, WORK, LWORK,
    # INFO, then the two hidden lengths of the Fortran strings
    fn.argtypes = [ctypes.c_char_p] * 2 + [i64, ptr, i64, ptr, ptr] + [
        ptr, i64, ptr, i64, ptr, i64, i64, ctypes.c_size_t, ctypes.c_size_t
    ]
    fn.restype = None
    return fn


_dgeev = _numpy_dgeev()


def _eigvals_overwrite(H: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals(H)``, bit for bit, dtype and errors included,
    for a writable float64 Fortran-ordered square ``H``, which it
    overwrites: ``dgeev`` factors H where it lies, with the workspace size
    LAPACK's query returns, as numpy queries it.  Any other array is
    refused rather than copied."""
    if not (
        H.dtype == np.float64 and H.ndim == 2 and H.shape[0] == H.shape[1]
        and H.flags.f_contiguous and H.flags.writeable
    ):
        raise ValueError("H must be a writable float64 Fortran-ordered square array")
    if _dgeev is None:
        return np.linalg.eigvals(H)
    if not np.isfinite(H).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    n = H.shape[0]
    w = np.empty(2 * n)  # the real parts, then the imaginary ones
    wr, wi = w[:n], w[n:]
    N, ld, lwork, info = (ctypes.c_int64(v) for v in (n, max(n, 1), -1, 0))
    work = np.empty(1)
    args = [b"N", b"N", N, H.ctypes.data, ld, wr.ctypes.data, wi.ctypes.data,
            None, ld, None, ld]
    _dgeev(*args, work.ctypes.data, lwork, info, 1, 1)
    if info.value == 0:
        lwork.value = int(work[0])
        work = np.empty(max(lwork.value, 1))
        _dgeev(*args, work.ctypes.data, lwork, info, 1, 1)
    if info.value:
        raise LinAlgError("Eigenvalues did not converge")
    if not wi.any():
        return wr
    lam = np.empty(n, dtype=complex)
    lam.real, lam.imag = wr, wi
    return lam


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the finite 1-D float array ``x``,
    ``np.unique(x)`` byte for byte (the same sort, then the first of each
    run of equal values), without the ``numpy.ma`` import of
    ``np.unique``."""
    x = np.sort(x)
    keep = np.ones(x.shape, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """The 2-D blocks (any shape, 0 x 0 included) on the diagonal of one
    C-ordered array, zero elsewhere: the bytes of
    ``scipy.linalg.block_diag``."""
    out = np.zeros(
        tuple(map(sum, zip(*(b.shape for b in blocks)))),
        dtype=np.result_type(*blocks),
    )
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


@dataclass(frozen=True, eq=False)
class GramianResult:
    """Read-only symmetric Lyapunov solution P plus its relative residual."""

    P: np.ndarray
    residual: float


def solve_lyapunov(sys: StateSpace, other: StateSpace | None = None) -> GramianResult:
    """Reachability Gramian of ``sys``: A P + P A^T = -B B^T.  The
    observability Gramian is that of ``dual(sys)``, which shares the
    Schur form of ``sys``.

    With ``other`` (A_o, B_o) it returns instead the off-diagonal block X
    of the Gramian of the system that stacks the states of both
    (block-diagonal A, inputs [B; B_o]): the Sylvester equation
    A X + X A_o^T = -B B_o^T.

    One LAPACK ``dtrsyl`` back-substitution on the cached real Schur forms
    A = Z T Z^T and A_o = Z_o T_o Z_o^T solves for Z^T X Z_o.  Raises
    ``IllPosedLyapunov`` when some eigenvalue pair of A, or with ``other``
    of the stacked system, satisfies lambda_i + lambda_j ~ 0 relative to
    that spectrum's radius (the operator is then singular; upstream this
    signals an error system with poles mirrored across the imaginary axis).
    """
    other = sys if other is None else other
    if sys.n == 0 or other.n == 0:
        return GramianResult(np.zeros((sys.n, other.n)), 0.0)
    T, Z, lam = sys._schur
    To, Zo, lam_o = other._schur
    if other is not sys:
        lam = np.concatenate([lam, lam_o])
    closest = min(
        np.abs(lam[i : i + _PAIR_ROWS, None] + lam[None, :]).min()
        for i in range(0, lam.size, _PAIR_ROWS)
    )
    radius = max(1.0, float(np.max(np.abs(lam))))
    if closest <= _SPECTRUM_PAIR_RTOL * radius:
        raise IllPosedLyapunov(
            "eigenvalue pair of A sums to ~0; Lyapunov equation has no unique solution"
        )

    # Overflow shows as a non-finite P, refused below, never as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        X, scale, info = dtrsyl(
            T, To, -(Z.T @ sys.B) @ (Zo.T @ other.B).T, trana="N", tranb="T"
        )
        if info:
            raise IllPosedLyapunov("Lyapunov solve met (nearly) mirrored eigenvalues")
        P = Z @ (X / scale) @ Zo.T
        if other is sys:
            P = 0.5 * (P + P.T)
        P.setflags(write=False)  # cached and shared by the model's instances
        if not np.all(np.isfinite(P)):
            raise IllPosedLyapunov("Lyapunov solve produced non-finite entries")
        # on B, B_o scaled to unit largest entry: no norm overflows to 0 or NaN
        b, b_o = (max(np.abs(M.B).max(), np.finfo(float).tiny) for M in (sys, other))
        P_s, Q = P / b / b_o, (sys.B / b) @ (other.B / b_o).T
        res = np.linalg.norm(sys.A @ P_s + P_s @ other.A.T + Q, "fro")
        denom = max(np.linalg.norm(Q, "fro"), np.finfo(float).eps)
        return GramianResult(P, float(res / denom))

