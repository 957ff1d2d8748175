"""State-space container, frequency evaluation, interconnections, poles."""

import tracemalloc

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
    poles,
    sample_support_point,
    static_gain,
    subtract,
)
from sysmor.statespace import _CHUNK
from conftest import mass_chain, random_stable, tf_eval


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
        normal = random_stable(rng, n=6, q=2, p=3, feedthrough=True)
        # Near-Jordan A: its eigenvector basis has condition above 1e8, so
        # a modal (eigendecomposition) evaluator could not be trusted here.
        A = -np.diag(1.0 + 0.1 * np.arange(6)) + 10.0 * np.eye(6, k=1)
        assert np.linalg.cond(np.linalg.eig(A)[1]) > 1e8
        nonnormal = StateSpace(
            A,
            rng.standard_normal((6, 2)),
            rng.standard_normal((3, 6)),
            rng.standard_normal((3, 2)),
        )
        for sys in (normal, nonnormal):
            for omega in (0.0, 0.3, 2.0, 50.0):
                expected = tf_eval(sys.A, sys.B, sys.C, sys.D, 1j * omega)
                np.testing.assert_allclose(
                    eval_freq(sys, omega), expected, rtol=1e-12
                )

    @pytest.mark.parametrize("p,q", [(3, 2), (2, 3)])
    def test_array_input_stacks_scalar_calls(self, p, q):
        rng = np.random.default_rng(8)
        sys = random_stable(rng, n=5, q=q, p=p, feedthrough=True)
        omegas = np.array([0.0, 0.4, 3.0, 80.0])
        stacked = eval_freq(sys, omegas)
        assert stacked.shape == (4, p, q)
        assert eval_freq(sys, 0.4).shape == (p, q)
        np.testing.assert_array_equal(
            stacked, np.stack([eval_freq(sys, w) for w in omegas])
        )
        assert eval_freq(static_gain(sys.D), omegas).shape == (4, p, q)

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


def _batched_models():
    """One model per response path: p < q, p >= q, SISO, a difference
    (G from seeds, R solved) and a dual."""
    rng = np.random.default_rng(21)
    wide = random_stable(rng, n=6, q=3, p=2, feedthrough=True)
    tall = random_stable(rng, n=7, q=2, p=3, feedthrough=True)
    siso = random_stable(rng, n=5, q=1, p=1)
    r = random_stable(rng, n=3, q=2, p=3)
    return {
        "p<q": wide,
        "p>=q": tall,
        "siso": siso,
        "difference": subtract(tall, r),
        "dual": dual(tall),
    }


class TestBatchedSolve:
    """A stack of frequencies is solved in chunks, one LAPACK call each."""

    OSCILLATOR = StateSpace(
        [[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]
    )

    @pytest.mark.parametrize("name", list(_batched_models()))
    def test_stack_is_bit_identical_to_scalar_calls(self, name):
        sys = _batched_models()[name]
        chunk = max(1, _CHUNK // min(sys.p, sys.q))
        rng = np.random.default_rng(22)
        # the seeds exercise the seed cache of a difference's G
        pool = np.concatenate([[0.0], sys._seeds, 10.0 ** rng.uniform(-2, 2, 2000)])
        for k in sorted({1, chunk - 1, chunk, chunk + 1, 2000} - {0}):
            omegas = pool[:k]
            stacked = eval_freq(sys, omegas)
            single = np.stack([eval_freq(sys, w) for w in omegas])
            assert stacked.tobytes() == single.tobytes(), (name, k)

    @pytest.mark.parametrize("name", list(_batched_models()))
    def test_matches_dense_oracle(self, name):
        sys = _batched_models()[name]
        omegas = np.concatenate([[0.0], np.logspace(-2, 2, 40)])
        stacked = eval_freq(sys, omegas)
        for value, w in zip(stacked, omegas):
            expected = tf_eval(sys.A, sys.B, sys.C, sys.D, 1j * w)
            gap = np.linalg.norm(value - expected)
            assert gap <= 1e-12 * np.linalg.norm(expected), (name, w)

    @pytest.mark.parametrize("name", list(_batched_models()))
    def test_response_at_zero_is_real(self, name):
        sys = _batched_models()[name]
        assert np.all(eval_freq(sys, 0.0).imag == 0.0)
        stacked = eval_freq(sys, np.array([3.0, 0.0, 0.5]))
        assert np.all(stacked[1].imag == 0.0)

    @pytest.mark.parametrize(
        "omegas",
        [
            [1.0, 0.5, 2.0],
            [0.5, 1.0, 2.0],
            [0.5, 2.0, 1.0],
            np.insert(np.linspace(0.05, 4.0, 39), _CHUNK + 1, 1.0),
        ],
        ids=["first", "middle", "last", "past-chunk-boundary"],
    )
    def test_singular_frequency_is_named_in_a_batch(self, omegas):
        with pytest.raises(
            SingularAtFrequency, match=r"^j\*1 is an eigenvalue of A"
        ):
            eval_freq(self.OSCILLATOR, np.asarray(omegas))

    def test_chunk_threshold_refuses_no_solvable_frequency(self):
        # One dtrsyl call flags near-singular pivots below eps times the
        # largest |omega| of its chunk: 2.2e-12 with 1e4 in it, above this
        # pole's distance 1e-13 from j*0.  Each frequency keeps the value
        # of its own solve.
        sys = StateSpace([[-1e-13]], [[1.0]], [[1.0]], [[0.0]])
        stacked = eval_freq(sys, np.array([0.0, 1e4]))
        assert stacked[0, 0, 0] == eval_freq(sys, 0.0)[0, 0]
        assert stacked[0, 0, 0].real == pytest.approx(1e13, rel=1e-12)

    def test_grid_memory_stays_per_chunk(self):
        # A k x n x m stack of solutions (2000 x 270 x 3 complex, 26 MB)
        # would dwarf the 288 kB response.
        io = (0, 67, 134)
        sys = mass_chain(0, 135, inputs=io, outputs=io)
        omegas = np.logspace(-2, 2, 2000)
        poles(sys)  # the Schur form (n x n) is cached before measuring
        tracemalloc.start()
        try:
            value = eval_freq(sys, omegas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value.shape == (2000, 3, 3)
        assert peak < 2 * value.nbytes


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
