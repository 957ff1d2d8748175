"""Properties of every record the three reduction paths certify.

Each record of ``reduce`` and ``reduce_lowrank`` and each balanced row of
``compare_methods`` is checked against oracles that rebuild the error
system G - R from raw matrices: its sampled gain never exceeds the
certified bound, and its H2 metric matches SciPy's Lyapunov solver.  The
error system itself, which is assembled from its operands (G's cached
seed responses and Gramian, R's own), is checked the same way, with R
stable or not.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import sysmor.sysaaa
from sysmor import (
    IllPosedLyapunov,
    StateSpace,
    StoppingOptions,
    balanced_truncate,
    dual,
    eval_freq,
    h2_error_metric,
    is_stable,
    linf_norm,
    reduce,
    reduce_lowrank,
    subtract,
)
from sysmor.cli import compare_methods
from sysmor.norms import LinfResult
from oracles import (
    grid_gains,
    oracle_grid,
    random_orthogonal,
    random_stable,
    tf_eval,
)


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
# in 800 still fails, as the case below (found by sweeping the seeds
# 1000-1399 and 2000-2399) records.
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
@pytest.mark.parametrize("seed", [1104])
def test_badly_scaled_iterates_are_certified(seed):
    _check_every_record(seed)


def test_badly_scaled_iterate_lands_on_its_peak():
    # Iterate 3 of this model has W0 condition 2.5e5.  Its last level test
    # sat below the peak, and the badly scaled Hamiltonian missed the
    # crossings there, so the bound was 0.27 % below the gain.  With the
    # peak refined first, the level test sits above the peak, where there
    # are no crossings to miss.
    _check_every_record(2009)


def test_certified_records_are_not_below_the_gain():
    # A near-tangent crossing pair at a last level test below the peak
    # once looked like an off-axis mirror pair, so iterate 7 certified a
    # bound 1.2e-5 below the gain.  Every certified bound must be at or
    # above the gain on a 100k-point grid.
    rng = np.random.default_rng(156)
    n, q, p = (int(rng.integers(1, hi)) for hi in (9, 3, 3))
    g = random_stable(rng, n, q, p)
    _, report = reduce(g, StoppingOptions(max_iterations=8))
    for rec, iterate in zip(report.records, report.iterates, strict=True):
        if rec.certified:
            err = _raw_error(g, iterate.sys)
            gain = grid_gains(err, oracle_grid(err)).max()
            assert rec.linf_error >= gain * (1.0 - 1e-9), rec.iteration


def _operands(seed, unstable):
    """A model G and a smaller R of the same shape, R unstable on request.
    An unstable R is shifted so that its leftmost pole, at real part 0.8,
    does not mirror G's rightmost, at -0.5."""
    rng = np.random.default_rng(seed)
    n, k, q, p = (int(rng.integers(1, hi)) for hi in (9, 5, 3, 3))
    g = random_stable(rng, n, q, p)
    r = random_stable(rng, k, q, p)
    if unstable:
        r = StateSpace(0.3 * np.eye(k) - r.A, r.B, r.C, r.D)
    return rng, g, r


@given(seed=st.integers(0, 2**32 - 1), unstable=st.booleans())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_error_system_and_dual_responses(seed, unstable):
    # G's seeds read its seed cache, the random frequencies are solved.
    rng, g, r = _operands(seed, unstable)
    omegas = np.concatenate([g._seeds, 10.0 ** rng.uniform(-2, 2, 5)])
    raw = _raw_error(g, r)
    for _ in range(2):
        got = eval_freq(subtract(g, r), omegas)
        for w, value in zip(omegas, got):
            want = tf_eval(raw.A, raw.B, raw.C, raw.D, 1j * w)
            assert np.allclose(value, want, rtol=1e-9, atol=1e-12)
    got = eval_freq(dual(g), omegas)
    for w, value in zip(omegas, got):
        want = tf_eval(g.A.T, g.C.T, g.B.T, g.D.T, 1j * w)
        assert np.allclose(value, want, rtol=1e-9, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1), unstable=st.booleans())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_error_system_h2_metric(seed, unstable):
    _, g, r = _operands(seed, unstable)
    err = _raw_error(g, r)
    P = scipy.linalg.solve_continuous_lyapunov(err.A, -err.B @ err.B.T)
    trace = abs(np.trace(err.C @ P @ err.C.T))
    scale = np.trace(np.abs(err.C) @ np.abs(P) @ np.abs(err.C).T)
    assert abs(h2_error_metric(subtract(g, r)) ** 2 - trace) <= 1e-8 * scale


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_mirrored_pole_pair_is_ill_posed(seed):
    # R carries -lambda for a pole lambda of G: lambda_G + lambda_R = 0.
    rng = np.random.default_rng(seed)
    n, q, p = (int(rng.integers(1, hi)) for hi in (9, 3, 3))
    g = random_stable(rng, n, q, p)
    lam = np.linalg.eigvals(g.A)[int(rng.integers(n))]
    if lam.imag == 0.0:
        A = np.array([[-lam.real]])
    else:
        A = np.array([[-lam.real, lam.imag], [-lam.imag, -lam.real]])
    k = A.shape[0]
    r = StateSpace(
        A, rng.standard_normal((k, q)), rng.standard_normal((p, k)), np.zeros((p, q))
    )
    with pytest.raises(IllPosedLyapunov):
        h2_error_metric(subtract(g, r))


@given(seed=st.integers(0, 2**32 - 1), unstable=st.booleans())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_bound_is_above_the_gain_and_dual_invariant(seed, unstable):
    rng, g, r = _operands(seed, unstable)
    err = subtract(g, r)
    res = linf_norm(err)
    assert res.certified
    raw = _raw_error(g, r)
    probes = np.concatenate([
        10.0 ** rng.uniform(-3, 3, 200),
        res.omega_peak * (1.0 + np.linspace(-1e-3, 1e-3, 21)),
    ])
    assert grid_gains(raw, probes).max() <= res.gamma * (1.0 + 1e-9)
    transposed = linf_norm(dual(err))
    assert transposed.gamma == pytest.approx(res.gamma, rel=3e-6)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_coordinate_invariance(seed):
    # An orthogonal change of state coordinates keeps the transfer
    # function, so the norms, the stability verdict and the Hankel
    # singular values (which read both Gramians) must not move.
    rng = np.random.default_rng(seed)
    n, q, p = (int(rng.integers(1, hi)) for hi in (9, 3, 3))
    g = random_stable(rng, n, q, p)
    Q = random_orthogonal(rng, n)
    moved = StateSpace(Q.T @ g.A @ Q, Q.T @ g.B, g.C @ Q, g.D)
    assert linf_norm(moved).gamma == pytest.approx(linf_norm(g).gamma, rel=1e-5)
    assert h2_error_metric(moved) == pytest.approx(h2_error_metric(g), rel=1e-9)
    assert is_stable(moved) == is_stable(g)
    hsv = balanced_truncate(g, 0)[1]
    np.testing.assert_allclose(
        balanced_truncate(moved, 0)[1], hsv, rtol=0, atol=1e-9 * hsv[0]
    )


def test_uncertified_bound_is_marked(monkeypatch):
    rng = np.random.default_rng(5)
    g = random_stable(rng, 4, 1, 1)
    _, report = reduce(g, StoppingOptions(max_iterations=2))
    text = report.format_text()
    assert all(rec.certified for rec in report.records)
    assert "~" not in text

    real = sysmor.sysaaa.linf_norm

    def uncertified(err, rel_tol=1e-6):
        res = real(err, rel_tol)
        return LinfResult(res.gamma, res.omega_peak, res.iterations, False)

    monkeypatch.setattr(sysmor.sysaaa, "linf_norm", uncertified)
    _, marked = reduce(g, StoppingOptions(max_iterations=2))
    assert [rec.linf_error for rec in marked.records] == [
        rec.linf_error for rec in report.records
    ]
    assert not any(rec.to_dict()["certified"] for rec in marked.records)
    rows = marked.format_text().splitlines()
    for rec in marked.records:
        assert f"{rec.linf_error:.6g}~" in rows[2 + rec.iteration]
    assert any(line.startswith("  (~ linf_error not certified") for line in rows)
    table = 2 + len(report.records)
    for old, new in zip(text.splitlines()[:table], rows[:table], strict=True):
        assert new.replace("~", " ").split() == old.split()
