"""State-space container, frequency evaluation, interconnections, poles."""

import copy
import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from sysmor import (
    DimensionMismatch,
    SingularAtFrequency,
    StateSpace,
    StoppingOptions,
    assemble_error_system,
    balanced_truncate,
    dual,
    eval_freq,
    h2_error_metric,
    is_stable,
    linf_norm,
    poles,
    reduce,
    reduce_lowrank,
    sample_support_point,
    solve_lyapunov,
    subtract,
)
from sysmor.cli import compare_methods
from sysmor.statespace import (
    _CHUNK,
    _DIAGONAL_CHUNK,
    _balanced_truncation,
    _response_slope,
    _same_dynamics,
    _shifted_solve,
    _solve_chunk,
    _solve_response,
    static_gain,
)
from oracles import mass_chain, random_stable, tf_eval


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

    @pytest.mark.parametrize(
        "B, C, D",
        [
            (np.zeros((2, 0)), np.ones((1, 2)), np.zeros((1, 0))),
            (np.ones((2, 1)), np.zeros((0, 2)), np.zeros((0, 1))),
        ],
        ids=["no-inputs", "no-outputs"],
    )
    def test_model_needs_inputs_and_outputs(self, B, C, D):
        with pytest.raises(DimensionMismatch):
            StateSpace(-np.eye(2), B, C, D)

    def test_one_dimensional_b_and_c(self):
        # A 1-D B is one input column, a 1-D C one output row.
        sys = StateSpace([[-1, 0], [0, -2]], [1, 1], [1, 1], 0)
        assert sys.B.shape == (2, 1) and sys.C.shape == (1, 2)
        np.testing.assert_array_equal(sys.B, [[1.0], [1.0]])
        np.testing.assert_array_equal(sys.C, [[1.0, 1.0]])

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

    @pytest.mark.parametrize("trans", [False, True])
    def test_diagonal_chunks_are_bit_identical_to_one_frequency_solves(
        self, trans
    ):
        # A diagonal factor's chunks are sized by their entries of X, so a
        # small model's batch spans several chunks of hundreds of frequencies.
        sys = _batched_models()["p>=q"]
        T, left, right = sys._factor
        rhs = left.T if trans else right
        assert T.ndim == 1
        omegas = 10.0 ** np.random.default_rng(23).uniform(-2, 2, 2000)
        chunks = list(_shifted_solve(T, omegas, rhs, trans))
        step = _DIAGONAL_CHUNK // rhs.size
        assert 1 < step < omegas.size and len(chunks) == -(-omegas.size // step)
        stacked = np.concatenate([X for _, X in chunks])
        single = np.stack(
            [_solve_chunk(T, omegas[i : i + 1], rhs, trans)[0]
             for i in range(omegas.size)]
        )
        assert stacked.tobytes() == single.tobytes()

    def test_wide_model_solves_on_a_diagonal_factor(self):
        # so the transposed side (p < q) of the diagonal solve is covered
        sys = _batched_models()["p<q"]
        assert sys.p < sys.q and _is_diagonal(sys)

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

    def test_overflow_names_the_first_frequency(self):
        huge = StateSpace([[-1.0]], [[1e300]], [[1e300]], [[0.0]])
        # G(j w) = 1e308 + 1e308 / (1 + j w) overflows only below w ~ 0.5
        edge = StateSpace([[-1.0]], [[1e154]], [[1e154]], [[1e308]])
        cases = [
            (huge, 0.5, "0.5"),
            (huge, np.linspace(0.1, 1, 3000), "0.1"),
            (edge, np.array([2.0, 1.0, 0.3, 0.1]), "0.3"),
        ]
        for sys, omega, named in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularAtFrequency) as err:
                    eval_freq(sys, omega)
            assert str(err.value) == f"response overflow at omega={named}"
        assert np.isfinite(eval_freq(edge, 2.0)).all()

    def test_singular_schur_chunk_is_solved_one_frequency_at_a_time(self):
        # A Schur factor's chunk that dtrsyl reports singular is solved
        # again per frequency: the singular one is named, and a chunk
        # without it keeps the values of one-frequency calls.
        G = StateSpace([[0.0, 2.0], [-2.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        sys = _same_dynamics(G, G.C, G.D)
        assert sys._factor[0].ndim == 2
        with pytest.raises(SingularAtFrequency, match=r"^j\*2 is an eigenvalue of A"):
            eval_freq(sys, np.array([1.0, 2.0, 3.0]))
        stacked = eval_freq(sys, np.array([1.0, 3.0]))
        single = np.stack([eval_freq(sys, w) for w in (1.0, 3.0)])
        assert stacked.tobytes() == single.tobytes()

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
        sys._factor  # the factor (n x n) is cached before measuring
        tracemalloc.start()
        try:
            value = eval_freq(sys, omegas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value.shape == (2000, 3, 3)
        assert peak < 2 * value.nbytes


def _near_jordan(rng):
    """A model on the near-Jordan A of
    ``TestEvalFreq.test_matches_direct_solve``, whose eigenvector basis
    has condition above 1e8."""
    A = -np.diag(1.0 + 0.1 * np.arange(6)) + 10.0 * np.eye(6, k=1)
    return StateSpace(
        A,
        rng.standard_normal((6, 2)),
        rng.standard_normal((3, 6)),
        rng.standard_normal((3, 2)),
    )


def _on_schur_form(sys):
    """The same model solved on its Schur form: a new output map on the
    same states has no diagonal factor."""
    return _same_dynamics(sys, sys.C, sys.D)


def _is_diagonal(sys):
    return sys._factor[0].ndim == 1


class TestModalFactor:
    """A well-conditioned model's ``_factor`` is diagonal, T = lam from
    A = V diag(lam) V^-1; the others carry the Schur T.  Responses and
    slopes are solved on either by the same kernel."""

    @staticmethod
    def _models():
        rng = np.random.default_rng(61)
        io = (0, 20, 39)
        yield mass_chain(0, 40, inputs=io, outputs=io)
        for _ in range(8):
            n, q, p = (int(v) for v in rng.integers((2, 1, 1), (25, 4, 4)))
            yield random_stable(rng, n, q, p, feedthrough=True)

    def test_modal_and_schur_responses_agree(self):
        # Relative to the model's largest response on the grid: the chain
        # rolls off to roundoff at high frequency on either path.
        for sys in self._models():
            assert _is_diagonal(sys)
            omegas = np.concatenate([[0.0], sys._seeds, np.logspace(-2, 3, 200)])
            modal = eval_freq(sys, omegas)
            schur = eval_freq(_on_schur_form(sys), omegas)
            assert np.all(modal[0].imag == 0.0)
            assert np.abs(modal - schur).max() <= 1e-12 * np.abs(schur).max()

    def test_near_jordan_model_falls_back_to_schur(self):
        sys = _near_jordan(np.random.default_rng(7))
        assert not _is_diagonal(sys)
        assert not _is_diagonal(dual(sys))
        for omega in (0.0, 0.3, 2.0, 50.0):
            expected = tf_eval(sys.A, sys.B, sys.C, sys.D, 1j * omega)
            np.testing.assert_allclose(eval_freq(sys, omega), expected, rtol=1e-12)

    def test_dual_and_dynamics_reuse_the_factor(self, monkeypatch):
        # A dual transposes its operand's diagonal factor; a model on the
        # same states and a difference solve on the shared Schur forms.
        # Only the operand forms a diagonal factor.
        rng = np.random.default_rng(62)
        sys = random_stable(rng, n=9, q=2, p=3, feedthrough=True)
        factored = []
        eig = np.linalg.eig

        def counted(a, *args, **kwargs):
            factored.append(a.shape)
            return eig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", counted)
        lam, left, right = sys._factor
        flipped = dual(sys)
        same = _same_dynamics(sys, rng.standard_normal((4, 9)), np.zeros((4, 2)))
        assert lam.ndim == 1 and flipped._factor[0] is lam
        assert flipped._factor[1].base is right and flipped._factor[2].base is left
        assert not _is_diagonal(same) and not _is_diagonal(subtract(sys, sys))
        omegas = np.array([0.0, 0.4, 7.0])
        for model in (flipped, same):
            for w, value in zip(omegas, _solve_response(model, omegas)):
                expected = tf_eval(model.A, model.B, model.C, model.D, 1j * w)
                np.testing.assert_allclose(value, expected, rtol=1e-12)
        assert factored == [(9, 9)]

    @pytest.mark.parametrize("path", ["modal", "schur"])
    def test_slope_matches_central_difference(self, path):
        # Re(u^H G_omega v) is the slope of sigma_max, for u, v its singular
        # vectors, on either factor and on an error system G - R.
        rng = np.random.default_rng(63)
        g = random_stable(rng, n=8, q=2, p=3, feedthrough=True)
        r = random_stable(rng, n=3, q=2, p=3)
        if path == "schur":
            g, r = _near_jordan(rng), _on_schur_form(r)
            assert not _is_diagonal(g) and not _is_diagonal(r)
        else:
            assert _is_diagonal(g) and _is_diagonal(r)

        def sigma(sys, w):
            return np.linalg.norm(eval_freq(sys, w), 2)

        for sys in (g, subtract(g, r)):
            for w in (0.3, 1.1, 4.0):
                U, _, Vh = np.linalg.svd(eval_freq(sys, w))
                slope = U[:, :1].conj().T @ _response_slope(sys, w, Vh[:1].conj().T)
                h = 1e-6 * w
                central = (sigma(sys, w + h) - sigma(sys, w - h)) / (2 * h)
                assert slope.real[0, 0] == pytest.approx(central, rel=1e-5)


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

    def test_subtract_adopts_its_stacked_arrays(self):
        # At the size of a 270-state G less a 12-state R, the stacked A
        # (0.64 MB) is built once, on its first read, and kept uncopied:
        # the traced peak of subtract and that read is 0.66 MB, where a
        # defensive copy would make it 1.31 MB.  Arrays a caller passes in
        # are still copied and frozen.
        rng = np.random.default_rng(17)
        g = StateSpace(rng.standard_normal((270, 270)), rng.standard_normal((270, 3)),
                       rng.standard_normal((6, 270)), np.zeros((6, 3)))
        r = random_stable(rng, n=12, q=3, p=6)
        tracemalloc.start()
        try:
            err = subtract(g, r)
            err.A
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.n == 282 and peak < 1.1 * err.A.nbytes
        assert not any(M.flags.writeable for M in (err.A, err.B, err.C, err.D))
        A = r.A.copy()
        own = StateSpace(A, r.B, r.C, r.D)
        A[0, 0] += 1.0
        assert own.A[0, 0] == r.A[0, 0] and not own.A.flags.writeable

    def test_difference_forms_its_A_on_first_read(self):
        rng = np.random.default_rng(18)
        g = random_stable(rng, n=5, q=2, p=3, feedthrough=True)
        r = random_stable(rng, n=3, q=2, p=3)
        err = subtract(g, r)
        assert "A" not in vars(err)
        assert err.n == 8 and "A" not in vars(err)
        A = err.A
        assert A.tobytes() == sla.block_diag(g.A, r.A).tobytes()
        assert not A.flags.writeable and err.A is A
        # A public read of its Schur form factors that A: its Gramian
        # solved on it is the one assembled from the operands, and its
        # dual's poles are theirs.
        P, assembled = solve_lyapunov(err).P, err._reachability.P
        assert np.linalg.norm(P - assembled) <= 1e-12 * np.linalg.norm(assembled)
        lam = np.concatenate([poles(g), poles(r)])
        np.testing.assert_allclose(
            np.sort(poles(dual(err))), np.sort(lam), rtol=1e-12, atol=1e-12
        )
        # a 0-state operand adds no rows and no columns
        static = subtract(g, static_gain(np.ones((3, 2))))
        assert static.n == 5 and static.A.tobytes() == sla.block_diag(g.A).tobytes()
        assert solve_lyapunov(static).P.tobytes() == g._reachability.P.tobytes()
        assert np.sort(poles(dual(static))).tobytes() == np.sort(poles(g)).tobytes()
        omegas = np.array([0.0, 0.7, 3.0])
        fresh = subtract(g, r)
        clones = [copy.copy(fresh), copy.deepcopy(fresh),
                  pickle.loads(pickle.dumps(fresh)), dataclasses.replace(fresh)]
        for clone in clones:
            assert clone.n == 8 and clone.A.tobytes() == A.tobytes()
        for clone in clones[:3]:  # still differences of g and r
            np.testing.assert_array_equal(eval_freq(clone, omegas), eval_freq(err, omegas))
        # a replaced model is built from its matrices, and factors its own A
        np.testing.assert_allclose(
            eval_freq(clones[3], omegas), eval_freq(err, omegas), rtol=1e-12
        )
        for model in (err, g):
            with pytest.raises(AttributeError, match="no_such_name"):
                model.no_such_name

    def test_dual_shares_its_operands_frozen_arrays(self):
        rng = np.random.default_rng(19)
        g = random_stable(rng, n=6, q=2, p=3, feedthrough=True)
        d = dual(g)
        for mine, theirs in ((d.A, g.A), (d.B, g.C), (d.C, g.B), (d.D, g.D)):
            assert np.shares_memory(mine, theirs) and not mine.flags.writeable
            assert mine.tobytes() == np.ascontiguousarray(theirs.T).tobytes()

    def test_same_dynamics_shares_A_and_B_and_checks_C_and_D(self):
        rng = np.random.default_rng(20)
        g = random_stable(rng, n=6, q=2, p=3)
        C = rng.standard_normal((4, 6))
        same = _same_dynamics(g, C, np.zeros((4, 2)))
        for mine, theirs in ((same.A, g.A), (same.B, g.B)):
            assert np.shares_memory(mine, theirs) and not mine.flags.writeable
        assert same.C.tobytes() == C.tobytes() and not same.C.flags.writeable
        assert (same.n, same.q, same.p) == (6, 2, 4)
        with pytest.raises(DimensionMismatch):
            _same_dynamics(g, rng.standard_normal((4, 5)), np.zeros((4, 2)))
        with pytest.raises(DimensionMismatch):
            _same_dynamics(g, C, np.zeros((3, 2)))
        bad = C.copy()  # C itself was adopted, and is frozen now
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="C contains non-finite"):
            _same_dynamics(g, bad, np.zeros((4, 2)))

    def test_surrogate_views_the_balanced_realization(self):
        # A level test's surrogate G_k is a view of G's cached balanced
        # realization; balanced_truncate hands its caller the same model
        # as its own copy, and the public constructor copies too.
        rng = np.random.default_rng(21)
        g = random_stable(rng, n=8, q=2, p=3, feedthrough=True)
        Ab, Bb, Cb, _, _ = g._balancing
        surrogate = _balanced_truncation(g, 5)
        kept, _ = balanced_truncate(g, 5)
        built = StateSpace(g.A, g.B, g.C, g.D)
        for mine, theirs in zip(
            (surrogate.A, surrogate.B, surrogate.C, surrogate.D), (Ab, Bb, Cb, g.D)
        ):
            assert np.shares_memory(mine, theirs) and not mine.flags.writeable
        for a, b in zip((kept.A, kept.B, kept.C, kept.D),
                        (surrogate.A, surrogate.B, surrogate.C, surrogate.D)):
            assert a.tobytes() == np.ascontiguousarray(b).tobytes()
            assert not a.flags.writeable
        for model, operand in ((kept, g._balancing), (built, g)):
            for mine in (model.A, model.B, model.C, model.D):
                assert not any(
                    np.shares_memory(mine, theirs)
                    for theirs in (operand.A, operand.B, operand.C, g.D)
                )

    @pytest.mark.parametrize("kind", ["dual", "cancelled"])
    def test_shared_models_clone_as_a_difference_does(self, kind):
        # As for the difference in test_difference_forms_its_A_on_first_read:
        # copy, deepcopy and pickle keep the derivation; a replaced model
        # is built from copies of its matrices and factors its own A.
        rng = np.random.default_rng(22)
        g = random_stable(rng, n=6, q=2, p=3, feedthrough=True)
        if kind == "dual":
            model = dual(g)
        else:
            model = assemble_error_system([sample_support_point(g, 0.8)], g)
            assert model._origin.kind == "dynamics" and model.p == 3 + 6
        omegas = np.array([0.0, 0.7, 3.0])
        clones = [copy.copy(model), copy.deepcopy(model),
                  pickle.loads(pickle.dumps(model)), dataclasses.replace(model)]
        for clone in clones:
            for name in "ABCD":
                assert getattr(clone, name).tobytes() == getattr(model, name).tobytes()
        for clone in clones[:3]:
            assert clone._origin.kind == model._origin.kind
            assert eval_freq(clone, omegas).tobytes() == eval_freq(model, omegas).tobytes()
        replaced = clones[3]
        assert replaced._origin.kind is None
        assert not any(np.shares_memory(getattr(replaced, name), getattr(model, name))
                       for name in "ABCD")
        np.testing.assert_allclose(
            eval_freq(replaced, omegas), eval_freq(model, omegas), rtol=1e-12
        )

    def test_dual_transposes_transfer(self):
        rng = np.random.default_rng(15)
        sys = random_stable(rng, n=5, q=2, p=3, feedthrough=True)
        d = dual(sys)
        assert (d.p, d.q) == (2, 3)
        for omega in (0.0, 2.2):
            np.testing.assert_allclose(
                eval_freq(d, omega), eval_freq(sys, omega).T, atol=1e-12
            )

    def test_derived_models_seed_at_their_operands_seeds(self):
        # Seeds come from the poles, which a difference stacks and a dual
        # reverses: the same floats as the operands' seeds.
        rng = np.random.default_rng(16)
        g = random_stable(rng, n=7, q=2, p=3, feedthrough=True)
        r = random_stable(rng, n=4, q=2, p=3)
        union = np.union1d(g._seeds, r._seeds)
        assert subtract(g, r)._seeds.tobytes() == union.tobytes()
        assert dual(g)._seeds.tobytes() == g._seeds.tobytes()

    def test_difference_poles_form_no_stacked_schur(self):
        # The poles of G - R are its operands' poles, read without the
        # block-diagonal Schur form, which neither the L-infinity norm nor
        # the H2 metric of the error system needs.
        rng = np.random.default_rng(17)
        g = random_stable(rng, n=9, q=2, p=3)
        r = random_stable(rng, n=4, q=2, p=3)
        err = subtract(g, r)
        lam = poles(err)
        assert lam.tobytes() == np.concatenate([poles(g), poles(r)]).tobytes()
        assert not lam.flags.writeable
        linf_norm(err)
        h2_error_metric(err)
        assert "_schur" not in err.__dict__

    def test_runs_read_no_schur_form_of_a_difference_or_cancelled_system(
        self, monkeypatch
    ):
        # Only a dual reuses its operand's Schur form; a difference or a
        # cancelled error system factors its own A when its form is read.
        # No reduction or compare run reads either, nor a difference's A.
        import sysmor.statespace as mod

        derive, derived = mod._derived, []

        def recorded(kind, *operands, **arrays):
            model = derive(kind, *operands, **arrays)
            if kind in ("difference", "dynamics"):
                derived.append(model)
            return model

        monkeypatch.setattr(mod, "_derived", recorded)
        square, tall = mass_chain(0, 6, [0, 5], [0, 5]), mass_chain(1, 6, [0], [2, 5])
        reduce(square, StoppingOptions(max_iterations=3))
        reduce_lowrank(tall, StoppingOptions(max_iterations=3))
        compare_methods(
            tall, ["balanced", "lowrank-aaa", "sys-aaa"], 4, StoppingOptions()
        )
        assert {model._origin.kind for model in derived} == {"difference", "dynamics"}
        for model in derived:
            assert "_schur" not in vars(model)
            assert model._origin.kind == "dynamics" or "A" not in vars(model)

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
