"""Properties of every record the three reduction paths certify.

Each record of ``reduce`` and ``reduce_lowrank`` and each balanced row of
``compare_methods`` is checked against oracles that rebuild the error
system G - R from raw matrices: its sampled gain never exceeds the
certified bound, and its H2 metric matches SciPy's Lyapunov solver.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sysmor import StateSpace, StoppingOptions, reduce, reduce_lowrank
from sysmor.cli import compare_methods
from conftest import grid_gains, oracle_grid, random_stable


def _raw_error(g, r):
    """G - R on stacked states, built without the library's ``subtract``."""
    A = np.zeros((g.n + r.n, g.n + r.n))
    A[: g.n, : g.n], A[g.n :, g.n :] = g.A, r.A
    return StateSpace(
        A, np.vstack([g.B, r.B]), np.hstack([g.C, -r.C]), g.D - r.D
    )


def _check(g, r, order, linf_error, h2_metric):
    assert order == r.n
    for value in (linf_error, h2_metric):
        assert value is None or not math.isnan(value)
    err = _raw_error(g, r)
    if math.isfinite(linf_error):
        # Below the driver's numerical floor, 1e-13 of the model's gain,
        # both sides are roundoff in the difference of G and R.
        floor = 1e-13 * (1.0 + grid_gains(g, oracle_grid(g, points=2000)).max())
        gains = grid_gains(err, oracle_grid(err, points=2000))
        assert gains.max() <= max(linf_error * (1.0 + 1e-4), floor)
    if h2_metric is not None:
        # tr(C P C^T) cancels between G's and R's states; its roundoff is
        # relative to the same sum taken over absolute values.
        P = scipy.linalg.solve_continuous_lyapunov(err.A, -err.B @ err.B.T)
        trace = abs(np.trace(err.C @ P @ err.C.T))
        scale = np.trace(np.abs(err.C) @ np.abs(P) @ np.abs(err.C).T)
        assert abs(h2_metric**2 - trace) <= 1e-8 * scale


def _check_every_record(seed):
    rng = np.random.default_rng(seed)
    n, q, p = (int(rng.integers(1, hi)) for hi in (9, 3, 3))
    g = random_stable(rng, n, q, p)
    opts = StoppingOptions(max_iterations=8)
    for driver in (reduce, reduce_lowrank):
        _, report = driver(g, opts)
        for rec, iterate in zip(report.records, report.iterates, strict=True):
            for value in (rec.omega, rec.w0_condition):
                assert value is None or not math.isnan(value)
            _check(g, iterate.sys, rec.order, rec.linf_error, rec.h2_metric)
    rows = compare_methods(g, ["balanced"], n, opts)
    assert [row["order"] for row in rows] == list(range(1, n + 1))
    for row in rows:
        _check(g, row["system"], row["order"], row["linf_error"], row["h2_metric"])


# Derandomized, so that the suite does not fail at random: about one model
# in 400 still fails, as the two cases below (found by sweeping the seeds
# 1000-1399 and 2000-2399) record.
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_every_certified_record_is_sound(seed):
    _check_every_record(seed)


@pytest.mark.xfail(
    strict=True,
    reason="an iterate with W0 condition above 1e5 has a realization too "
    "badly scaled for the Hamiltonian level test: a crossing goes unseen "
    "and linf_error under-reports the gain",
)
@pytest.mark.parametrize("seed", [1104, 2009])
def test_badly_scaled_iterates_are_certified(seed):
    _check_every_record(seed)
