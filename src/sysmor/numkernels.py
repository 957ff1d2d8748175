"""The Lyapunov and Sylvester solve behind every Gramian.

It is Bartels-Stewart back-substitution on the real Schur forms each
``StateSpace`` caches, so it factors nothing itself; every solve reports
its relative residual instead of assuming success.  It solves
``solve_lyapunov(sys, other)``: a model's own reachability Gramian when
``other`` is ``sys``, else the cross block of the Gramian of the two
models' stacked states, a Sylvester equation on the two Schur forms.
``StateSpace`` caches each model's two Gramians from these solves (an
observability Gramian is the reachability Gramian of the dual, whose
Schur form is the model's reversed), and assembles those of an error
system G - R from G's cached Gramians, R's small ones and the cross
blocks; ``solve_lyapunov(sys)`` returns the cached reachability Gramian.

The package's three LAPACK routines, the real Schur factorization
``dgees``, the quasi-triangular Sylvester solve ``dtrsyl`` and the
eigensolve ``dgeev``, are bound here, once, through ctypes from the
OpenBLAS that numpy's linear-algebra extension links: numpy's wheel
bundles it, so a ``sysmor`` process loads one LAPACK and no scipy module.
Each ctypes call releases the GIL.  ``dgees`` and ``dtrsyl`` each have
the one narrow signature the package calls: (T, Z, eigenvalues) of one
matrix, and a solve in place into the right side.  ``dgees`` passes
scipy's workspace size, so its factors are the bits scipy's wrapper
computes on this LAPACK.  ``dtrsyl`` has no workspace, but its bits
depend on the LAPACK build, so its solves differ from those of scipy's
own OpenBLAS at roundoff.

The Hamiltonian eigensolve of every L-infinity level test is the
``dgeev`` that ``np.linalg.eigvals`` runs, called by
``_eigvals_overwrite``.  It overwrites the caller's column-major H in
place, so no copy of H is made, and its spectrum is numpy's, bit for
bit; only where ``dgeev`` is not bound (below) does
``np.linalg.eigvals`` solve a copy of H, so that each level test holds
H twice.  ``_sorted_unique`` is ``np.unique`` of a 1-D float array
without the ``numpy.ma`` import that ``np.unique`` makes on its first
call.  ``block_diag`` writes what ``scipy.linalg.block_diag`` does.

Where numpy's LAPACK does not export all three routines under these
names (a build on Accelerate or MKL, say), none is bound:
``np.linalg.eigvals`` solves a copy of each H, and ``dgees`` and
``dtrsyl`` call, behind the same signatures, scipy's compiled
``scipy.linalg._flapack``.  It is loaded by its file spec under scipy's
``linalg`` directory, which runs neither ``scipy/__init__`` nor
``scipy/linalg/__init__``: importing ``scipy.linalg`` there would cost
about 18 MB of peak RSS and 0.25 s of import (see the README).
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

from .exceptions import DimensionMismatch, IllPosedLyapunov

if TYPE_CHECKING:
    from .statespace import StateSpace

__all__ = ["solve_lyapunov"]

# lam_i + lam_j magnitudes below this (relative to the spectral radius) make
# the Lyapunov operator numerically singular.
_SPECTRUM_PAIR_RTOL = 1e-10

# Eigenvalues per block of that pair test: it holds O(n _PAIR_ROWS) sums
# at a time rather than all n^2.
_PAIR_ROWS = 64


def _scipy_flapack():
    """``scipy.linalg._flapack``, loaded without importing ``scipy.linalg``;
    ImportError where scipy has no such module."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        dirs = (scipy and scipy.submodule_search_locations) or ()
        spec = PathFinder.find_spec(name, [os.path.join(d, "linalg") for d in dirs])
        if spec is None:
            raise ImportError(f"no scipy_dgees_64_ in numpy's LAPACK, and no {name}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # a later ``import scipy.linalg`` re-exports this module, not a copy
        sys.modules[name] = module
    return module


# ctypes types of the LAPACK arguments: a Fortran string, a pointer to an
# integer, to a double, or to an array (None passes NULL); the two hidden
# lengths of the Fortran strings follow the last argument.
_ARGTYPES = {
    "s": ctypes.c_char_p,
    "i": ctypes.POINTER(ctypes.c_int64),
    "d": ctypes.POINTER(ctypes.c_double),
    "p": ctypes.c_void_p,
}

# The arguments of each routine, in LAPACK's order.
_SIGNATURES = {
    # JOBVL, JOBVR, N, A, LDA, WR, WI, VL, LDVL, VR, LDVR, WORK, LWORK, INFO
    "dgeev": "ssipipppipipii",
    # JOBVS, SORT, SELECT, N, A, LDA, SDIM, WR, WI, VS, LDVS, WORK, LWORK,
    # BWORK, INFO
    "dgees": "sspipiipppipipi",
    # TRANA, TRANB, ISGN, M, N, A, LDA, B, LDB, C, LDC, SCALE, INFO
    "dtrsyl": "ssiiipipipidi",
}


def _numpy_lapack():
    """``dgeev``, ``dgees`` and ``dtrsyl`` of the ILP64 OpenBLAS that
    numpy's ``_umath_linalg`` links (``scipy_<name>_64_``, found through
    that extension's own dependencies), as ctypes functions that release
    the GIL; all three None unless numpy's LAPACK exports all three."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines = [getattr(lib, f"scipy_{name}_64_") for name in _SIGNATURES]
    except (OSError, AttributeError):
        return (None,) * len(_SIGNATURES)
    for fn, args in zip(routines, _SIGNATURES.values()):
        fn.argtypes = [_ARGTYPES[a] for a in args] + [ctypes.c_size_t] * 2
        fn.restype = None
    return routines


_dgeev, _dgees, _dtrsyl = _numpy_lapack()


def _ints(*values: int) -> list[ctypes.c_int64]:
    """One ctypes integer per value, for LAPACK's integer arguments."""
    return [ctypes.c_int64(v) for v in values]


# scipy's routines, where numpy's LAPACK binds none of the three
_flapack = _scipy_flapack() if _dgees is None else None


def dgees(a: np.ndarray):
    """The real Schur form a = Z T Z^T of the square ``a``, unsorted, as
    (T, Z, eigenvalues); LinAlgError where it does not converge.  A
    Fortran copy of ``a`` is factored with scipy's workspace of
    max(3n, 1), so the bits are those of scipy's wrapper on this LAPACK."""
    if _flapack is not None:
        t, _, wr, wi, z, _, info = _flapack.dgees(lambda re, im: 0, a)
    else:
        t = np.array(a, dtype=np.float64, order="F")
        n = t.shape[0]
        if t.shape != (n, n):
            raise ValueError("a must be a square matrix")
        wr, wi = np.empty(n), np.empty(n)
        z = np.empty((n, n), order="F")
        work = np.empty(max(3 * n, 1))
        N, ld, sdim, lwork, info = _ints(n, max(n, 1), 0, work.size, 0)
        _dgees(b"V", b"N", None, N, t.ctypes.data, ld, sdim, wr.ctypes.data,
               wi.ctypes.data, z.ctypes.data, ld, work.ctypes.data, lwork,
               None, info, 1, 1)
        info = info.value
    if info:
        raise LinAlgError("Schur factorization did not converge")
    return t, z, wr + 1j * wi


def dtrsyl(a: np.ndarray, b: np.ndarray, c: np.ndarray, trana: str, tranb: str):
    """Overwrite ``c`` with X, where op(a) X + X op(b) = scale c for the
    quasi-triangular ``a`` and ``b`` (op transposes where ``trana`` or
    ``tranb`` is "T"), and return (scale, info).  All three must be float64
    and Fortran-ordered, and ``c`` writable: other operands are refused,
    not copied."""
    m, n = c.shape
    if not (
        a.shape == (m, m) and b.shape == (n, n) and c.flags.writeable
        and a.dtype == b.dtype == c.dtype == np.float64
        and a.flags.f_contiguous and b.flags.f_contiguous and c.flags.f_contiguous
    ):
        raise ValueError("dtrsyl needs float64 Fortran-ordered a, b and c, c writable")
    if _flapack is not None:
        return _flapack.dtrsyl(a, b, c, trana, tranb, overwrite_c=True)[1:]
    scale = ctypes.c_double()
    isgn, M, N, ldm, ldn, info = _ints(1, m, n, max(m, 1), max(n, 1), 0)
    _dtrsyl(trana.encode(), tranb.encode(), isgn, M, N, a.ctypes.data, ldm,
            b.ctypes.data, ldn, c.ctypes.data, ldm, scale, info, 1, 1)
    return scale.value, info.value


def _eigvals_overwrite(H: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals(H)``, bit for bit, dtype and errors included,
    for a writable float64 Fortran-ordered square ``H``, which it
    overwrites: ``dgeev`` factors H where it lies, with the workspace size
    LAPACK's query returns, as numpy queries it.  Any other array is
    refused rather than copied.  Where numpy's ``dgeev`` is not bound,
    ``np.linalg.eigvals`` solves a copy of H and leaves H as it was."""
    if not (
        H.dtype == np.float64 and H.ndim == 2 and H.shape[0] == H.shape[1]
        and H.flags.f_contiguous and H.flags.writeable
    ):
        raise ValueError("H must be a writable float64 Fortran-ordered square array")
    if _dgeev is None:
        return np.linalg.eigvals(H)
    # min and max propagate NaN: no boolean temporary the size of H
    if H.size and not (np.isfinite(H.min()) and np.isfinite(H.max())):
        raise LinAlgError("Array must not contain infs or NaNs")
    n = H.shape[0]
    w = np.empty(2 * n)  # the real parts, then the imaginary ones
    wr, wi = w[:n], w[n:]
    N, ld, lwork, info = _ints(n, max(n, 1), -1, 0)
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
    """Reachability Gramian of ``sys``, P with A P + P A^T = -B B^T: the
    model's cached ``_reachability`` itself, so every caller reads one
    Gramian per model.  The observability Gramian is that of
    ``dual(sys)``.

    With ``other`` (A_o, B_o, the same input count) it solves instead for
    the off-diagonal block X of the Gramian of the system that stacks the
    states of both (block-diagonal A, inputs [B; B_o]): the Sylvester
    equation A X + X A_o^T = -B B_o^T.  ``other`` is ``sys`` for a
    model's own Gramian, which ``StateSpace`` solves this way and caches.

    One LAPACK ``dtrsyl`` back-substitution on the cached real Schur forms
    A = Z T Z^T and A_o = Z_o T_o Z_o^T solves for Z^T X Z_o.  Raises
    ``DimensionMismatch`` when the input counts differ, and
    ``IllPosedLyapunov`` when some eigenvalue pair of A, or of the stacked
    system, satisfies lambda_i + lambda_j ~ 0 relative to that spectrum's
    radius (the operator is then singular; upstream this signals an error
    system with poles mirrored across the imaginary axis).
    """
    if other is None:
        return sys._reachability
    if other.q != sys.q:
        raise DimensionMismatch(
            f"cross Gramian block needs equal input counts, got {sys.q} and {other.q}"
        )
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
        X = np.asfortranarray(-(Z.T @ sys.B) @ (Zo.T @ other.B).T)
        scale, info = dtrsyl(T, To, X, "N", "T")
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

