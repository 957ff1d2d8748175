"""Output checks that share no code path with the library.

Responses come from an eigendecomposition of A (for grids) or a direct
dense solve (at single frequencies), Hankel singular values from Gramians
built in the eigenbasis, and model files are parsed here.  Everything
works on plain ``(A, B, C, D)`` arrays; a library ``StateSpace`` is turned
into arrays by reading its four attributes and nothing else.

Each ``check_*`` function raises ``CheckFailed`` with a message saying what
did not hold.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Grid evaluation through the eigenvector basis is trusted only below this
# eigenvector condition number; above it, direct solves are used.
_EIG_COND_LIMIT = 1e8

# A certified bound may not sit below a gain the oracle observes by more
# than arithmetic noise.
CERT_RTOL = 1e-9

# Interpolation residual allowed at a support point, relative to 1 + |G|.
INTERP_RTOL = 1e-8


class CheckFailed(Exception):
    """An output check did not hold."""


def matrices(sys):
    """``(A, B, C, D)`` float arrays of a state-space object."""
    return tuple(np.asarray(getattr(sys, k), dtype=float) for k in "ABCD")


def transpose_system(abcd):
    """Realization of G(s)^T."""
    A, B, C, D = abcd
    return A.T, C.T, B.T, D.T


def response(abcd, omega: float) -> np.ndarray:
    """G(j omega) by one dense complex solve."""
    A, B, C, D = abcd
    if A.shape[0] == 0:
        return D.astype(complex)
    shifted = 1j * omega * np.eye(A.shape[0]) - A
    return C @ np.linalg.solve(shifted, B.astype(complex)) + D


def grid_response(abcd, omegas, chunk: int = 2000) -> np.ndarray:
    """G(j w) for every w in ``omegas``, stacked along the first axis."""
    A, B, C, D = abcd
    omegas = np.asarray(omegas, dtype=float)
    if A.shape[0] == 0:
        return np.broadcast_to(D.astype(complex), (omegas.size,) + D.shape)
    lam, T = np.linalg.eig(A)
    if np.linalg.cond(T) > _EIG_COND_LIMIT:
        return np.array([response(abcd, w) for w in omegas])
    CT = C @ T
    TB = np.linalg.solve(T, B.astype(complex))
    out = np.empty((omegas.size,) + D.shape, dtype=complex)
    for start in range(0, omegas.size, chunk):
        w = omegas[start:start + chunk]
        inv = 1.0 / (1j * w[:, None] - lam[None, :])
        out[start:start + chunk] = (
            np.einsum("pn,wn,nq->wpq", CT, inv, TB, optimize=True) + D
        )
    return out


def max_gain(resp) -> float:
    """Largest singular value over a stack of responses."""
    return float(np.max(np.linalg.svd(resp, compute_uv=False)[:, 0]))


def check_grid(abcd_list, extra=(), points: int = 4000) -> np.ndarray:
    """Log grid over the dynamics of every system, plus every damped
    resonance, plus the frequencies in ``extra`` and omega = 0."""
    lams = np.concatenate(
        [np.linalg.eigvals(A) for A, *_ in abcd_list if A.shape[0]]
        or [np.array([1.0])]
    )
    mags = np.abs(lams)
    mags = mags[mags > 0] if np.any(mags > 0) else np.array([1.0])
    lo, hi = np.min(mags) * 1e-2, np.max(mags) * 1e2
    resonances = np.abs(lams.imag)
    return np.unique(
        np.concatenate(
            [
                [0.0],
                np.logspace(math.log10(lo), math.log10(hi), points),
                resonances,
                np.asarray(list(extra), dtype=float),
            ]
        )
    )


def check_certified(g, r, linf_error: float, extra=()) -> float:
    """(1) The reported L-infinity error is at least every gain of G - R
    the oracle sees on its grid, at the support frequencies and at the
    reported peak (all passed in ``extra``).  Returns the oracle's max."""
    if not math.isfinite(linf_error):
        raise CheckFailed(f"reported linf_error is {linf_error}")
    grid = check_grid([g, r], extra)
    observed = max_gain(grid_response(g, grid) - grid_response(r, grid))
    if observed > linf_error * (1.0 + CERT_RTOL):
        raise CheckFailed(
            f"reported linf_error {linf_error:.12g} is below the gain "
            f"{observed:.12g} the oracle observes"
        )
    return observed


def check_interpolates(g, r, omegas) -> None:
    """(2) Full method: R matches G at every support frequency."""
    for w in omegas:
        Gw = response(g, w)
        gap = np.linalg.norm(Gw - response(r, w), 2)
        scale = 1.0 + np.linalg.norm(Gw, 2)
        if not gap <= INTERP_RTOL * scale:
            raise CheckFailed(
                f"support omega {w:.9g}: |G - R| = {gap:.3e}, "
                f"{gap / scale:.3e} relative"
            )


def check_tangential(g_work, r_work, points) -> None:
    """(2) Low-rank method, in its working domain: for every support point
    ``(omega, U)`` the columns of U span a dominant left singular subspace
    of G(j omega) and U^H (G - R)(j omega) vanishes."""
    for omega, U in points:
        U = np.asarray(U, dtype=complex)
        Gw = response(g_work, omega)
        r = U.shape[1]
        sv = np.linalg.svd(Gw, compute_uv=False)
        captured = np.linalg.norm(U.conj().T @ Gw, "fro") ** 2
        dominant = float(np.sum(sv[:r] ** 2))
        if abs(captured - dominant) > 1e-8 * dominant:
            raise CheckFailed(
                f"support omega {omega:.9g}: rank-{r} directions are not "
                "a dominant singular subspace of the sample"
            )
        gap = np.linalg.norm(U.conj().T @ (Gw - response(r_work, omega)), 2)
        scale = 1.0 + float(sv[0])
        if not gap <= INTERP_RTOL * scale:
            raise CheckFailed(
                f"support omega {omega:.9g}: |U^H (G - R)| = {gap:.3e}, "
                f"{gap / scale:.3e} relative"
            )


def _eigen_gramian(lam, M) -> np.ndarray:
    """Solution X of diag(lam) X + X diag(lam)^H = -M."""
    return -M / (lam[:, None] + lam.conj()[None, :])


def _psd_root(X) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (X + X.conj().T))
    return V * np.sqrt(np.clip(w, 0.0, None))


def hankel_singular_values(abcd) -> np.ndarray:
    """Hankel singular values (nonincreasing) of a stable, diagonalizable
    model, from both Gramians written in the eigenbasis of A."""
    A, B, C, _ = abcd
    lam, T = np.linalg.eig(A)
    Bt = np.linalg.solve(T, B.astype(complex))
    Ct = C @ T
    P = _eigen_gramian(lam, Bt @ Bt.conj().T)
    Q = _eigen_gramian(lam.conj(), Ct.conj().T @ Ct)
    return np.linalg.svd(
        _psd_root(Q).conj().T @ _psd_root(P), compute_uv=False
    )


def check_balanced_bound(entries, hsv) -> None:
    """(3) Every balanced entry obeys linf_error <= 2 * sum(hsv[order:])."""
    for order, linf in entries:
        bound = 2.0 * float(np.sum(hsv[order:]))
        if not linf <= bound * (1.0 + 1e-6) + 1e-12 * float(hsv[0]):
            raise CheckFailed(
                f"balanced order {order}: linf_error {linf:.9g} exceeds "
                f"twice the Hankel tail {bound:.9g}"
            )


def parse_model_file(path):
    """``(A, B, C, D)`` from a file in the ``ss n q p`` text format."""
    with open(path, encoding="ascii") as fh:
        rows = [ln.split() for ln in fh if ln.strip()]
    head = rows[0]
    if len(head) != 4 or head[0] != "ss":
        raise CheckFailed(f"{path}: bad header {head}")
    n, q, p = (int(v) for v in head[1:])
    body = rows[1:]
    out, pos = [], 0
    for r, c in ((n, n), (n, q), (p, n), (p, q)):
        if r == 0 or c == 0:
            out.append(np.zeros((r, c)))
            continue
        block = np.array(body[pos:pos + r], dtype=float)
        if block.shape != (r, c):
            raise CheckFailed(f"{path}: matrix of shape {block.shape}, not {(r, c)}")
        out.append(block)
        pos += r
    if pos != len(body):
        raise CheckFailed(f"{path}: {len(body) - pos} trailing rows")
    return tuple(out)


def check_sigma_csv(path, rows: int = 2000) -> None:
    """(4) The sigma CSV has a header and ``rows`` rows of 4 finite values."""
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    if len(table) != rows + 1:
        raise CheckFailed(f"{path}: {len(table) - 1} data rows, expected {rows}")
    values = np.array(table[1:], dtype=float)
    if values.shape != (rows, 4) or not np.all(np.isfinite(values)):
        raise CheckFailed(f"{path}: data is not {rows} rows of 4 finite values")
