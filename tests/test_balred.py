"""Balanced truncation: exactness, error bound, Hankel values."""

import numpy as np
import pytest

from sysmor import (
    RankOutOfRange,
    StateSpace,
    UnstableInput,
    balanced_truncate,
    dual,
    eval_freq,
    is_stable,
    linf_norm,
    subtract,
)
from sysmor.statespace import static_gain
from oracles import random_stable

FIRST_ORDER = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


def _refactored(sys, order):
    """The square-root method redone from the model's Gramians at every
    call: Cholesky factors Lc and Lo, the SVD of Lo^T Lc, and the
    projection onto its leading ``order`` directions."""
    Lc = np.linalg.cholesky(sys._reachability.P)
    Lo = np.linalg.cholesky(sys._observability.P)
    U, hsv, Vt = np.linalg.svd(Lo.T @ Lc)
    scale = 1.0 / np.sqrt(hsv[:order])
    T = Lc @ Vt[:order].T * scale
    W = Lo @ U[:, :order] * scale
    return StateSpace(W.T @ sys.A @ T, W.T @ sys.B, sys.C @ T, sys.D), hsv


class TestBalancedTruncate:
    def test_first_order_hankel_value(self):
        # P = Q = 1/2 for 1/(s+1), so the single Hankel value is 1/2.
        reduced, hsv = balanced_truncate(FIRST_ORDER, 1)
        np.testing.assert_allclose(hsv, [0.5], rtol=1e-12)
        for omega in (0.0, 1.0, 5.0):
            np.testing.assert_allclose(
                eval_freq(reduced, omega), eval_freq(FIRST_ORDER, omega), atol=1e-12
            )

    def test_full_order_is_exact(self):
        rng = np.random.default_rng(81)
        sys = random_stable(rng, n=7, q=2, p=2, feedthrough=True)
        reduced, hsv = balanced_truncate(sys, 7)
        assert hsv.shape == (7,)
        assert np.all(np.diff(hsv) <=
                      1e-12 * hsv[0])
        for omega in (0.0, 0.9, 13.0):
            gap = np.linalg.norm(eval_freq(reduced, omega) - eval_freq(sys, omega), 2)
            assert gap <= 1e-9 * (1.0 + np.linalg.norm(eval_freq(sys, omega), 2))

    def test_error_bound_every_order(self):
        rng = np.random.default_rng(82)
        sys = random_stable(rng, n=10, q=2, p=2)
        _, hsv = balanced_truncate(sys, 0)
        for k in range(0, 11):
            reduced, _ = balanced_truncate(sys, k)
            err = linf_norm(subtract(sys, reduced)).gamma
            assert err <= 2.0 * hsv[k:].sum() + 1e-6

    def test_truncation_keeps_stability(self):
        rng = np.random.default_rng(83)
        for _ in range(5):
            sys = random_stable(rng, n=9, q=2, p=2)
            for k in (1, 3, 5):
                reduced, _ = balanced_truncate(sys, k)
                assert is_stable(reduced)
                assert reduced.n == k

    def test_hankel_values_are_coordinate_free(self):
        rng = np.random.default_rng(84)
        sys = random_stable(rng, n=6, q=2, p=2)
        T = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        Ti = np.linalg.inv(T)
        moved = StateSpace(Ti @ sys.A @ T, Ti @ sys.B, sys.C @ T, sys.D)
        _, hsv_a = balanced_truncate(sys, 0)
        _, hsv_b = balanced_truncate(moved, 0)
        np.testing.assert_allclose(hsv_a, hsv_b, rtol=1e-8)

    def test_order_zero_returns_feedthrough(self):
        rng = np.random.default_rng(85)
        sys = random_stable(rng, n=5, q=2, p=3, feedthrough=True)
        reduced, hsv = balanced_truncate(sys, 0)
        assert reduced.n == 0
        np.testing.assert_array_equal(reduced.D, sys.D)
        assert hsv.shape == (5,)

    def test_static_input(self):
        sys = static_gain([[4.0]])
        reduced, hsv = balanced_truncate(sys, 0)
        assert reduced.n == 0
        assert hsv.size == 0

    def test_unstable_rejected(self):
        with pytest.raises(UnstableInput):
            balanced_truncate(StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]]), 1)

    def test_order_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            balanced_truncate(FIRST_ORDER, 2)
        with pytest.raises(RankOutOfRange):
            balanced_truncate(FIRST_ORDER, -1)

    def test_nonminimal_full_order_keeps_transfer(self):
        # Two copies of the same pole reachable through a single channel:
        # the second Hankel value vanishes, so that direction cannot be
        # balanced and decouples while the transfer 2/(s+1) survives.
        sys = StateSpace(
            np.diag([-1.0, -1.0]),
            [[1.0], [1.0]],
            [[1.0, 1.0]],
            [[0.0]],
        )
        reduced, hsv = balanced_truncate(sys, 2)
        assert reduced.n == 2
        assert hsv[1] <= 1e-12 * hsv[0]
        assert is_stable(reduced)
        for omega in (0.0, 0.7, 3.0):
            np.testing.assert_allclose(
                eval_freq(reduced, omega), eval_freq(sys, omega), atol=1e-9
            )

    def test_orders_share_one_balancing_transform(self, monkeypatch):
        # Twelve orders of one model, and of its dual, run one SVD; each
        # matches the square-root method redone from scratch.
        rng = np.random.default_rng(86)
        sys = random_stable(rng, n=20, q=2, p=3)
        expected = [_refactored(sys, k) for k in range(1, 13)]
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        omegas = np.concatenate([[0.0], np.logspace(-2, 2, 40)])
        for k, (want, want_hsv) in enumerate(expected, start=1):
            got, hsv = balanced_truncate(sys, k)
            np.testing.assert_allclose(hsv, want_hsv, rtol=1e-12, atol=0.0)
            gap = np.abs(eval_freq(got, omegas) - eval_freq(want, omegas)).max()
            assert gap <= 1e-12 * np.abs(eval_freq(want, omegas)).max()
            flipped, _ = balanced_truncate(dual(sys), k)
            gap = np.abs(eval_freq(flipped, omegas).transpose(0, 2, 1)
                         - eval_freq(want, omegas)).max()
            assert gap <= 1e-12 * np.abs(eval_freq(want, omegas)).max()
        assert calls == [(20, 20)]

    def test_balancing_caches_the_realization(self):
        # The cache holds the balanced realization: one n x n array, A_b,
        # beside B_b, C_b and the Hankel values; a dual's is its transpose.
        rng = np.random.default_rng(87)
        sys = random_stable(rng, n=20, q=2, p=3)
        bal = sys._balancing
        square = [f for f in bal if np.shape(f) == (20, 20)]
        assert len(square) == 1 and square[0] is bal.A
        assert bal.B.shape == (20, 2) and bal.C.shape == (3, 20)
        flipped = dual(sys)._balancing
        np.testing.assert_array_equal(flipped.A, bal.A.T)
        np.testing.assert_array_equal(flipped.B, bal.C.T)
        np.testing.assert_array_equal(flipped.C, bal.B.T)
        np.testing.assert_array_equal(flipped.hsv, bal.hsv)
