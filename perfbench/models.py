"""Seeded model generators for the benchmark workloads.

Every model is a nominal system whose physical parameters the seed
jitters by a small relative amount.  The nominal systems are fixed, so
every seed poses the same reduction problem (same sizes, same kind of
spectrum) on different numbers; the library only ever sees the generated
matrices or the model file written from them.

The jitter is as large as each workload's outputs allow while staying
steady from seed to seed (see README.md): the sixth iterate of ``reduce``
on the 270-state chain moves its certified error by about 1700 times a
relative parameter change, so that chain is jittered by 1e-5; the SISO
chain reaches its target within 2 % of it, so it is jittered by 1e-3; the
modal model's outputs move little, so it is jittered by 1e-2.

Generators return plain ``(A, B, C, D)`` float arrays so that the oracle
can use them without going through the library's types.
"""

from __future__ import annotations

import numpy as np


def _jitter(rng: np.random.Generator, nominal, size, rel: float) -> np.ndarray:
    """``nominal`` times 1 + a uniform draw from [-rel, rel]."""
    return nominal * (1.0 + rel * rng.uniform(-1.0, 1.0, size))


def mass_spring_chain(seed: int, masses: int, inputs, outputs, jitter: float):
    """Chain of ``masses`` masses between two walls (2 * masses states).

    The nominal values are the README quickstart: unit masses, springs of
    stiffness 100, damping 0.2 per mass plus 0.01 times the stiffness.
    The seed jitters each mass, each spring and each damper by the
    relative amount ``jitter``.  Forces act on
    the masses listed in ``inputs``; the outputs are the positions of the
    masses listed in ``outputs``.
    """
    rng = np.random.default_rng([seed, masses, 1])
    m = masses
    mass = _jitter(rng, 1.0, m, jitter)
    spring = _jitter(rng, 100.0, m + 1, jitter)  # spring k sits left of mass k
    damper = _jitter(rng, 0.2, m, jitter)
    K = np.diag(spring[:-1] + spring[1:])
    K -= np.diag(spring[1:-1], 1) + np.diag(spring[1:-1], -1)
    Minv = np.diag(1.0 / mass)
    A = np.block(
        [
            [np.zeros((m, m)), np.eye(m)],
            [-Minv @ K, -Minv @ (np.diag(damper) + 0.01 * K)],
        ]
    )
    B = np.zeros((2 * m, len(inputs)))
    for j, k in enumerate(inputs):
        B[m + k, j] = 1.0 / mass[k]
    C = np.zeros((len(outputs), 2 * m))
    for i, k in enumerate(outputs):
        C[i, k] = 1.0
    D = np.zeros((len(outputs), len(inputs)))
    return A, B, C, D


def chain_mimo(seed: int, masses: int = 135, jitter: float = 1e-5):
    """3x3 chain: forces on the first mass of each third of the chain,
    positions of the last mass of each third (270 states by default)."""
    m = masses
    return mass_spring_chain(
        seed, m, inputs=(0, m // 3, 2 * m // 3),
        outputs=(m // 3 - 1, 2 * m // 3 - 1, m - 1), jitter=jitter,
    )


def chain_siso(seed: int, masses: int = 60, jitter: float = 1e-3):
    """SISO chain: force on the first mass, position of the last."""
    return mass_spring_chain(
        seed, masses, inputs=(0,), outputs=(masses - 1,), jitter=jitter
    )


def lightly_damped_modal(
    seed: int, modes: int = 135, q: int = 3, p: int = 6, jitter: float = 1e-2
):
    """Block-diagonal modal model with ``modes`` lightly damped modes.

    Nominal natural frequencies are log-spaced over three decades
    (0.5 to 500 rad/s), every damping ratio is 0.01, and the input and
    output directions come from a fixed generator.  Input directions grow
    as the square root of the frequency, so the Hankel singular values
    fall off only as omega^-1/2 and many modes matter at low order.  The
    seed jitters every frequency, damping ratio and direction entry by the
    relative amount ``jitter``.
    """
    nominal = np.random.default_rng(20231001)
    base_b = nominal.standard_normal((modes, 2, q))
    base_c = nominal.standard_normal((p, modes, 2))

    rng = np.random.default_rng([seed, modes, 2])
    omega = _jitter(
        rng, np.logspace(np.log10(0.5), np.log10(500.0), modes), modes, jitter
    )
    zeta = _jitter(rng, 0.01, modes, jitter)
    b = _jitter(rng, base_b, base_b.shape, jitter) * np.sqrt(omega)[:, None, None]
    c = _jitter(rng, base_c, base_c.shape, jitter)

    n = 2 * modes
    A = np.zeros((n, n))
    for k in range(modes):
        sigma = zeta[k] * omega[k]
        wd = omega[k] * np.sqrt(1.0 - zeta[k] ** 2)
        A[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[-sigma, wd], [-wd, -sigma]]
    B = b.reshape(n, q)
    C = c.reshape(p, n)
    D = np.zeros((p, q))
    return A, B, C, D
