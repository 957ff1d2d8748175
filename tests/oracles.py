"""Shared test helpers: random system generation and independent oracles.

The oracles here recompute frequency responses and norms from the raw
matrices with their own (eigendecomposition-based) arithmetic so that
library results are checked against something that does not share their
code path.
"""

import numpy as np

from sysmor import StateSpace


def random_stable(rng, n, q, p, damping=0.5, feedthrough=False):
    """Random strictly stable system; every pole has Re <= -damping."""
    A = rng.standard_normal((n, n))
    shift = float(np.max(np.linalg.eigvals(A).real)) + damping
    A = A - shift * np.eye(n)
    B = rng.standard_normal((n, q))
    C = rng.standard_normal((p, n))
    D = rng.standard_normal((p, q)) if feedthrough else np.zeros((p, q))
    return StateSpace(A, B, C, D)


def mass_chain(seed, masses, inputs, outputs, jitter=1e-2):
    """Mass-spring-damper chain between two walls (2 * masses states):
    unit masses, springs of stiffness 100 and dampers of 0.2 plus 0.01
    times the stiffness, each jittered by the relative amount ``jitter``.
    Forces act on the masses listed in ``inputs``; the outputs are the
    positions of the masses listed in ``outputs``.  Its Hankel singular
    values decay fast, as those of most smooth physical models do."""
    rng = np.random.default_rng([seed, masses])
    m = masses
    mass, spring, damper = (
        nominal * (1.0 + jitter * rng.uniform(-1.0, 1.0, size))
        for nominal, size in ((1.0, m), (100.0, m + 1), (0.2, m))
    )
    K = np.diag(spring[:-1] + spring[1:])
    K -= np.diag(spring[1:-1], 1) + np.diag(spring[1:-1], -1)
    Minv = np.diag(1.0 / mass)
    A = np.block(
        [[np.zeros((m, m)), np.eye(m)], [-Minv @ K, -Minv @ (np.diag(damper) + 0.01 * K)]]
    )
    B = np.zeros((2 * m, len(inputs)))
    for j, k in enumerate(inputs):
        B[m + k, j] = 1.0 / mass[k]
    C = np.zeros((len(outputs), 2 * m))
    for i, k in enumerate(outputs):
        C[i, k] = 1.0
    return StateSpace(A, B, C, np.zeros((len(outputs), len(inputs))))


def tf_eval(A, B, C, D, s):
    """Direct transfer evaluation C (sI - A)^{-1} B + D at one point."""
    n = A.shape[0]
    if n == 0:
        return np.asarray(D, dtype=complex)
    return C @ np.linalg.solve(s * np.eye(n) - A, B.astype(complex)) + D


def grid_gains(sys, omegas, chunk=20000):
    """sigma_max(G(j w)) on a frequency grid via one eigendecomposition."""
    omegas = np.asarray(omegas, dtype=float)
    if sys.n == 0:
        return np.full(omegas.shape, np.linalg.norm(sys.D, 2))
    lam, T = np.linalg.eig(sys.A)
    CT = sys.C @ T.astype(complex)
    TB = np.linalg.solve(T, sys.B.astype(complex))
    gains = np.empty(omegas.size)
    for start in range(0, omegas.size, chunk):
        w = omegas[start:start + chunk]
        den = 1j * w[:, None] - lam[None, :]
        resp = np.einsum("pn,wn,nq->wpq", CT, 1.0 / den, TB, optimize=True)
        resp += sys.D
        gains[start:start + chunk] = np.linalg.svd(resp, compute_uv=False)[:, 0]
    return gains


def oracle_grid(sys, points=100_000):
    """Log grid spanning two decades beyond the pole magnitudes, plus 0."""
    mags = np.abs(np.linalg.eigvals(sys.A)) if sys.n else np.array([1.0])
    lo = max(np.min(mags) * 1e-2, 1e-8)
    hi = np.max(mags) * 1e2
    return np.concatenate([[0.0], np.logspace(np.log10(lo), np.log10(hi), points)])


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))
