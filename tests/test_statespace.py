"""State-space container, frequency evaluation, interconnections, minreal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysmor import (
    DimensionMismatch,
    SingularAtFrequency,
    StateSpace,
    dual,
    eval_freq,
    is_stable,
    minreal,
    poles,
    sample_support_point,
    static_gain,
    subtract,
)
from conftest import random_stable, tf_eval


class TestConstruction:
    def test_shapes_and_counts(self):
        sys = StateSpace(np.eye(3) * -1.0, np.ones((3, 2)), np.ones((4, 3)), np.zeros((4, 2)))
        assert (sys.n, sys.q, sys.p) == (3, 2, 4)

    def test_static_gain_has_no_states(self):
        sys = static_gain([[1.0, 2.0], [3.0, 4.0]])
        assert sys.n == 0
        assert (sys.p, sys.q) == (2, 2)
        np.testing.assert_array_equal(sys.D, [[1.0, 2.0], [3.0, 4.0]])

    def test_b_row_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            StateSpace(np.eye(2) * -1.0, np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)))

    def test_c_column_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            StateSpace(np.eye(2) * -1.0, np.ones((2, 1)), np.ones((1, 3)), np.zeros((1, 1)))

    def test_d_decides_io_counts(self):
        with pytest.raises(DimensionMismatch):
            StateSpace(np.eye(2) * -1.0, np.ones((2, 2)), np.ones((1, 2)), np.zeros((1, 1)))

    def test_nonsquare_a_raises(self):
        with pytest.raises(DimensionMismatch):
            StateSpace(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            StateSpace([[np.nan]], [[1.0]], [[1.0]], [[0.0]])

    def test_matrices_are_read_only(self):
        sys = static_gain([[1.0]])
        with pytest.raises(ValueError):
            sys.D[0, 0] = 2.0

    def test_construction_copies_input(self):
        A = np.array([[-1.0]])
        sys = StateSpace(A, [[1.0]], [[1.0]], [[0.0]])
        A[0, 0] = 5.0
        assert sys.A[0, 0] == -1.0


class TestEvalFreq:
    def test_matches_direct_solve(self):
        rng = np.random.default_rng(7)
        sys = random_stable(rng, n=6, q=2, p=3, feedthrough=True)
        for omega in (0.0, 0.3, 2.0, 50.0):
            expected = tf_eval(sys.A, sys.B, sys.C, sys.D, 1j * omega)
            np.testing.assert_allclose(eval_freq(sys, omega), expected, rtol=1e-12)

    def test_first_order_closed_form(self):
        # G(s) = 1/(s+1): |G(j)| = 1/sqrt(2), phase -45 degrees.
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        val = eval_freq(sys, 1.0)[0, 0]
        assert val == pytest.approx((1 - 1j) / 2, abs=1e-15)

    def test_static_gain_is_frequency_independent(self):
        sys = static_gain([[2.0, -1.0]])
        np.testing.assert_array_equal(eval_freq(sys, 0.0), eval_freq(sys, 1e6))

    def test_singular_on_imaginary_axis_pole(self):
        # Undamped oscillator: poles at +/- j, so G(j*1) does not exist.
        sys = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        with pytest.raises(SingularAtFrequency):
            eval_freq(sys, 1.0)

    def test_freq_sample_wraps_value(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        point = sample_support_point(sys, 2.0)
        assert point.omega == 2.0
        np.testing.assert_allclose(point.sample, eval_freq(sys, 2.0))

    def test_negative_omega_sample_rejected(self):
        sys = static_gain([[1.0]])
        with pytest.raises(ValueError):
            sample_support_point(sys, -1.0)


class TestInterconnections:
    def test_subtract_transfer(self):
        rng = np.random.default_rng(11)
        g = random_stable(rng, n=5, q=2, p=2, feedthrough=True)
        r = random_stable(rng, n=3, q=2, p=2)
        err = subtract(g, r)
        assert err.n == 8
        for omega in (0.0, 1.0, 10.0):
            np.testing.assert_allclose(
                eval_freq(err, omega),
                eval_freq(g, omega) - eval_freq(r, omega),
                atol=1e-12,
            )

    def test_subtract_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subtract(static_gain(np.zeros((2, 2))), static_gain(np.zeros((1, 2))))

    def test_dual_transposes_transfer(self):
        rng = np.random.default_rng(15)
        sys = random_stable(rng, n=5, q=2, p=3, feedthrough=True)
        d = dual(sys)
        assert (d.p, d.q) == (2, 3)
        for omega in (0.0, 2.2):
            np.testing.assert_allclose(
                eval_freq(d, omega), eval_freq(sys, omega).T, atol=1e-12
            )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_dual_is_an_involution(self, seed):
        rng = np.random.default_rng(seed)
        sys = random_stable(rng, n=3, q=2, p=2, feedthrough=True)
        back = dual(dual(sys))
        np.testing.assert_array_equal(back.A, sys.A)
        np.testing.assert_array_equal(back.B, sys.B)
        np.testing.assert_array_equal(back.C, sys.C)
        np.testing.assert_array_equal(back.D, sys.D)


class TestMinreal:
    def test_self_difference_collapses_to_static(self):
        rng = np.random.default_rng(21)
        g = random_stable(rng, n=6, q=2, p=2)
        err = minreal(subtract(g, g))
        assert err.n == 0
        np.testing.assert_array_equal(err.D, np.zeros((2, 2)))

    def test_unreachable_modes_removed(self):
        # Second state is driven by nothing and observed by nothing.
        sys = StateSpace(
            np.diag([-1.0, -2.0]), [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]]
        )
        red = minreal(sys)
        assert red.n == 1
        assert red.A[0, 0] == pytest.approx(-1.0)

    def test_zero_b_collapses(self):
        sys = StateSpace(np.diag([-1.0, -2.0]), np.zeros((2, 1)), np.ones((1, 2)), [[3.0]])
        red = minreal(sys)
        assert red.n == 0
        assert red.D[0, 0] == 3.0

    def test_transfer_preserved(self):
        rng = np.random.default_rng(22)
        g = random_stable(rng, n=5, q=2, p=2, feedthrough=True)
        # Pad with disconnected states, then reduce back down.
        padded = StateSpace(
            np.block([[g.A, np.zeros((5, 3))], [np.zeros((3, 5)), -np.eye(3)]]),
            np.vstack([g.B, np.zeros((3, 2))]),
            np.hstack([g.C, np.zeros((2, 3))]),
            g.D,
        )
        red = minreal(padded)
        assert red.n == 5
        for omega in (0.0, 1.0, 4.0):
            np.testing.assert_allclose(
                eval_freq(red, omega), eval_freq(g, omega), atol=1e-10
            )

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        g = random_stable(rng, n=6, q=2, p=1)
        once = minreal(g)
        twice = minreal(once)
        assert twice.n == once.n

    def test_static_passthrough(self):
        sys = static_gain([[1.0, 0.0]])
        assert minreal(sys) is sys

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            minreal(static_gain([[1.0]]), tol=0.0)


class TestPolesStability:
    def test_poles_of_diagonal(self):
        sys = StateSpace(np.diag([-1.0, -3.0]), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])
        got = np.sort(poles(sys).real)
        np.testing.assert_allclose(got, [-3.0, -1.0])

    def test_static_has_no_poles_and_is_stable(self):
        sys = static_gain([[1.0]])
        assert poles(sys).size == 0
        assert is_stable(sys)

    def test_unstable_detected(self):
        sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert not is_stable(sys)

    def test_marginal_pole_is_not_stable(self):
        sys = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        assert not is_stable(sys)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_stable_really_is(self, seed):
        rng = np.random.default_rng(seed)
        sys = random_stable(rng, n=4, q=1, p=1)
        assert is_stable(sys)
        assert np.max(poles(sys).real) <= -0.5 + 1e-9
