"""Adaptive rational interpolation: support-point blocks, weights,
realization, driver."""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad_vec
from scipy.linalg import solve_sylvester

import sysmor.numkernels
import sysmor.statespace
from sysmor.cli import compare_methods

from sysmor import (
    ImaginaryAxisPoles,
    InsufficientSpectrum,
    Interpolant,
    LinfResult,
    NonRealSampleAtZero,
    ResidualImaginaryPoles,
    SingularW0,
    StateSpace,
    StoppingOptions,
    SupportPoint,
    UnstableInput,
    assemble_error_system,
    compute_X,
    eval_freq,
    linf_norm,
    realize_interpolant,
    reduce,
    reduce_lowrank,
    sample_support_point,
    solve_weights,
    subtract,
)
from sysmor.statespace import static_gain
from sysmor.sysaaa import WeightMatrix
from oracles import mass_chain, random_orthogonal, random_stable, tf_eval

FIRST_ORDER = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])

BOTH_DRIVERS = pytest.mark.parametrize(
    "driver", [reduce, reduce_lowrank], ids=["sys-aaa", "lowrank-aaa"]
)


def nm_eval(points, D, s):
    """Direct evaluation of the stacked pair [N(s) M(s)].

    The first row block is the constant [D I]; the block of every support
    point k contributes [(sI - A_k)^-1 B1_k, (sI - A_k)^-1 B2_k].
    """
    D = np.atleast_2d(D)
    p = D.shape[0]
    N_rows = [D.astype(complex)]
    M_rows = [np.eye(p, dtype=complex)]
    for pt in points:
        inv = np.linalg.inv(s * np.eye(pt.order) - pt.A)
        N_rows.append(inv @ pt.B1)
        M_rows.append(inv @ pt.B2)
    return np.vstack(N_rows), np.vstack(M_rows)


class TestBuildBlock:
    """A support point's own interpolation block, built on first read."""

    def test_zero_frequency_scalar(self):
        pt = SupportPoint(0.0, np.array([[1.0 + 0.0j]]))
        np.testing.assert_array_equal(pt.A, [[0.0]])
        np.testing.assert_array_equal(pt.B1, [[1.0]])
        np.testing.assert_array_equal(pt.B2, [[1.0]])
        assert pt.order == 1

    def test_nonzero_frequency_scalar(self):
        pt = SupportPoint(2.0, np.array([[1.0 + 1.0j]]))
        np.testing.assert_array_equal(pt.A, [[0.0, 2.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(pt.B1, [[1.0], [-1.0]])
        np.testing.assert_array_equal(pt.B2, [[1.0], [0.0]])
        assert pt.order == 2

    def test_rational_forms(self):
        # For the sample g at omega, the block realizes
        # N(s) = (g_r s - g_i w) / (s^2 + w^2) stacked over
        #        -(g_i s + g_r w) / (s^2 + w^2)
        # and M(s) = [s; -w] / (s^2 + w^2).
        omega, g = 2.0, 1.0 + 1.0j
        pt = SupportPoint(omega, np.array([[g]]))
        s = 0.7j
        inv = np.linalg.inv(s * np.eye(2) - pt.A)
        den = s * s + omega * omega
        np.testing.assert_allclose(
            inv @ pt.B1,
            np.array([[g.real * s - g.imag * omega], [-(g.imag * s + g.real * omega)]])
            / den,
            atol=1e-14,
        )
        np.testing.assert_allclose(
            inv @ pt.B2, np.array([[s], [-omega]]) / den, atol=1e-14
        )

    def test_size_scales_with_outputs(self):
        rng = np.random.default_rng(51)
        val = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        pt = SupportPoint(1.5, val)
        assert pt.order == 6
        assert pt.A.shape == (6, 6)
        assert pt.B1.shape == (6, 2)
        assert pt.B2.shape == (6, 3)
        real_val = rng.standard_normal((3, 2)).astype(complex)
        pt0 = SupportPoint(0.0, real_val)
        assert pt0.order == 3
        assert pt0.A.shape == (3, 3)

    def test_complex_sample_at_zero_rejected(self):
        with pytest.raises(NonRealSampleAtZero):
            SupportPoint(0.0, np.array([[1.0 + 1.0j]]))

    def test_negative_frequency_rejected(self):
        # NaN and infinite frequencies are rejected alike: A = omega [[0,
        # I], [-I, 0]] would carry them into every realization.
        for omega in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                SupportPoint(omega, np.array([[1.0 + 0.0j]]))

    def test_sample_support_point(self):
        pt = sample_support_point(FIRST_ORDER, 1.0)
        assert not pt.is_zero
        assert pt.sample[0, 0] == pytest.approx((1 - 1j) / 2)
        assert sample_support_point(FIRST_ORDER, 0.0).is_zero


def cancelled(points, sys):
    """The cancelled error system H as a model: the A and B of ``sys``,
    the output map of ``assemble_error_system`` and no feedthrough."""
    rows = assemble_error_system(points, sys)
    return StateSpace(sys.A, sys.B, rows, np.zeros((rows.shape[0], sys.q)))


class TestAssembleErrorSystem:
    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(52)
        sys = random_stable(rng, n=7, q=2, p=2, feedthrough=True)
        points = [sample_support_point(sys, 0.0), sample_support_point(sys, 1.3)]
        h = cancelled(points, sys)
        for omega in (0.4, 2.9, 11.0):
            N, M = nm_eval(points, sys.D, 1j * omega)
            expect = N - M @ eval_freq(sys, omega)
            np.testing.assert_allclose(eval_freq(h, omega), expect, atol=1e-9)

    def test_block_states_cancel(self):
        rng = np.random.default_rng(53)
        sys = random_stable(rng, n=6, q=2, p=2)
        points = [sample_support_point(sys, 0.0), sample_support_point(sys, 2.0)]
        rows = assemble_error_system(points, sys)
        # Only the states of the sampled model survive the cancellation:
        # p rows of -C, then p rows of the point at 0 and 2p of the other.
        assert rows.shape == (sys.p + 2 + 4, sys.n)
        np.testing.assert_array_equal(rows[: sys.p], -sys.C)

    @pytest.mark.parametrize("rank", [None, 1, 2])
    def test_interpolation_encoded_in_residues(self, rank):
        # N_k - M_k G has a removable singularity at j*omega exactly when
        # (A_k + j*omega I)(B1_k - B2_k G(j*omega)) = 0; that identity is
        # what lets assemble_error_system cancel the block modes.  A rank-r
        # point interpolates U* G, so it satisfies it with G itself too.
        rng = np.random.default_rng(54)
        sys = random_stable(rng, n=6, q=3, p=3)
        for omega in (0.0, 1.7):
            pt = sample_support_point(sys, omega, rank)
            G = eval_freq(sys, omega)
            assert pt.A.shape == (pt.order, pt.order)
            L = np.eye(3) if rank is None else pt.U.conj().T
            np.testing.assert_array_equal(pt.L, L)
            res = (pt.A + 1j * omega * np.eye(pt.order)) @ (pt.B1 - pt.B2 @ G)
            assert np.abs(res).max() <= 1e-12 * (1.0 + np.abs(G).max())

    @pytest.mark.parametrize("omega", [0.0, 1.7])
    def test_cross_terms_solve_the_sylvester_equation(self, omega):
        # Block k's output rows Y_k solve A_k Y_k - Y_k A = B2_k C; the
        # library forms them in closed form, the reference solves directly.
        rng = np.random.default_rng(71)
        sys = random_stable(rng, n=9, q=3, p=3, feedthrough=True)
        sample = eval_freq(sys, omega)
        points = [SupportPoint(omega, sample), SupportPoint(omega, sample, 2)]
        rows = assemble_error_system(points, sys)
        row = sys.p
        for pt in points:
            ref = solve_sylvester(pt.A, -sys.A, pt.B2 @ sys.C)
            np.testing.assert_allclose(
                rows[row:row + pt.order], ref, rtol=1e-10, atol=1e-12
            )
            row += pt.order
        assert row == rows.shape[0]

    def test_no_blocks_gives_feedthrough_error(self):
        rng = np.random.default_rng(55)
        sys = random_stable(rng, n=4, q=2, p=2, feedthrough=True)
        h = cancelled([], sys)
        np.testing.assert_allclose(
            eval_freq(h, 0.9), sys.D - eval_freq(sys, 0.9), atol=1e-11
        )

    def test_static_model_no_blocks_is_zero(self):
        sys = static_gain([[2.0, 1.0]])
        assert assemble_error_system([], sys).shape == (1, 0)
        np.testing.assert_array_equal(eval_freq(cancelled([], sys), 0.9), 0.0)

    def test_wrong_sample_leaves_axis_poles(self):
        # A sample that is not G(j*omega) cannot cancel the block modes.
        pt = SupportPoint(1.0, np.array([[123.0 + 0.0j]]))
        with pytest.raises(ResidualImaginaryPoles):
            assemble_error_system([pt], FIRST_ORDER)


class TestComputeX:
    def test_first_order_closed_form(self):
        # H = 1/(s+1): P = 1/2, C = 1, so X = [[0.5]].
        X = compute_X(FIRST_ORDER.C, FIRST_ORDER)
        np.testing.assert_allclose(X, [[0.5]], rtol=1e-12)

    def test_static_system_gives_zero(self):
        X = compute_X(np.zeros((3, 0)), static_gain(np.zeros((3, 2))))
        np.testing.assert_array_equal(X, np.zeros((3, 3)))

    def test_quadrature_oracle(self):
        # X = (1/pi) * Re integral_0^inf H(jw) H(jw)^* dw.
        rng = np.random.default_rng(56)
        sys = random_stable(rng, n=5, q=2, p=3)

        def integrand(omega):
            H = eval_freq(sys, omega)
            return (H @ H.conj().T).real.ravel()

        integral, _ = quad_vec(integrand, 0.0, np.inf)
        oracle = integral.reshape(3, 3) / math.pi
        np.testing.assert_allclose(compute_X(sys.C, sys), oracle, atol=1e-8)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(57)
        sys = random_stable(rng, n=8, q=2, p=4)
        X = compute_X(sys.C, sys)
        np.testing.assert_allclose(X, X.T, atol=1e-13)
        assert np.min(np.linalg.eigvalsh(X)) >= -1e-12 * np.trace(X)


class TestSolveWeights:
    def test_picks_smallest_distinct_nonzero(self):
        M = np.diag([0.0, 1.0, 2.0, 3.0])
        weight = solve_weights(M, p=2)
        assert weight.selected_eigenvalues == (1.0, 2.0)
        assert not weight.degenerate
        np.testing.assert_allclose(
            np.abs(weight.W),
            [[0, 1, 0, 0], [0, 0, 1, 0]],
            atol=1e-12,
        )
        assert np.trace(weight.W @ M @ weight.W.T) == pytest.approx(3.0)

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(58)
        M = rng.standard_normal((6, 6))
        weight = solve_weights(M @ M.T, p=3)
        np.testing.assert_allclose(weight.W @ weight.W.T, np.eye(3), atol=1e-12)

    def test_identity_spectrum_single_row(self):
        weight = solve_weights(np.eye(4), p=1)
        assert np.trace(weight.W @ weight.W.T) == pytest.approx(1.0)
        assert not weight.degenerate

    def test_insufficient_nonzero_eigenvalues(self):
        with pytest.raises(InsufficientSpectrum):
            solve_weights(np.diag([0.0, 0.0, 0.0, 1.0]), p=2)

    def test_zero_matrix_rejected(self):
        with pytest.raises(InsufficientSpectrum):
            solve_weights(np.zeros((3, 3)), p=1)

    def test_repeated_eigenvalues_flagged_degenerate(self):
        weight = solve_weights(np.diag([1.0, 1.0]), p=2)
        assert weight.degenerate
        assert weight.selected_eigenvalues == (1.0, 1.0)

    def test_w0_condition_scalar_row(self):
        weight = WeightMatrix(np.array([[0.6, 0.8]]), (1.0,))
        assert weight.w0_condition == pytest.approx(1.0 / 0.6)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            solve_weights(np.eye(2), p=0)


class TestRealizeInterpolant:
    def test_no_blocks_returns_feedthrough(self):
        D = np.array([[1.0, 2.0]])
        sys = realize_interpolant([], WeightMatrix(np.eye(1), ()), D)
        assert sys.n == 0
        np.testing.assert_array_equal(sys.D, D)

    def test_single_iteration_interpolates(self):
        rng = np.random.default_rng(59)
        g = random_stable(rng, n=8, q=2, p=2)
        omega = 1.3
        points = [sample_support_point(g, omega)]
        X = compute_X(assemble_error_system(points, g), g)
        weight = solve_weights(X, g.p)
        r = realize_interpolant(points, weight, g.D)
        assert r.n == 4
        G = eval_freq(g, omega)
        gap = np.linalg.norm(eval_freq(r, omega) - G, 2)
        assert gap <= 1e-8 * (1.0 + np.linalg.norm(G, 2))

    def test_stacks_the_points_blocks(self):
        # a p-state block at 0 and a 2p-state one elsewhere, stacked as
        # scipy.linalg.block_diag stacks them
        rng = np.random.default_rng(61)
        g = random_stable(rng, n=8, q=2, p=2)
        points = [sample_support_point(g, 0.0), sample_support_point(g, 1.3)]
        weight = solve_weights(compute_X(assemble_error_system(points, g), g), g.p)
        r = realize_interpolant(points, weight, g.D)
        assert [pt.A.shape for pt in points] == [(2, 2), (4, 4)]
        what = np.linalg.solve(weight.w0, weight.W[:, g.p :])
        B2 = np.vstack([pt.B2 for pt in points])
        A = scipy.linalg.block_diag(*[pt.A for pt in points]) - B2 @ what
        assert r.A.tobytes() == A.tobytes()

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(60)
        g = random_stable(rng, n=6, q=2, p=2)
        points = [sample_support_point(g, 0.8)]
        weight = solve_weights(compute_X(assemble_error_system(points, g), g), g.p)
        r = realize_interpolant(points, weight, g.D)
        v_pos = tf_eval(r.A, r.B, r.C, r.D, 1j * 2.4)
        v_neg = tf_eval(r.A, r.B, r.C, r.D, -1j * 2.4)
        np.testing.assert_allclose(v_neg, v_pos.conj(), atol=1e-12)

    def test_singular_normalization_rejected(self):
        points = [SupportPoint(0.0, np.array([[1.0 + 0.0j]]))]
        bad = WeightMatrix(np.array([[1e-15, 1.0]]), (1.0,))
        with pytest.raises(SingularW0):
            realize_interpolant(points, bad, np.zeros((1, 1)))

    def test_weight_width_checked(self):
        points = [SupportPoint(0.0, np.array([[1.0 + 0.0j]]))]
        with pytest.raises(ValueError):
            realize_interpolant(points, WeightMatrix(np.eye(1), ()), np.zeros((1, 1)))


class TestReduceDriver:
    def test_static_model_is_exact_immediately(self):
        sys = static_gain([[1.0, -2.0], [0.5, 3.0]])
        chosen, report = reduce(sys)
        assert chosen.order == 0
        np.testing.assert_array_equal(chosen.sys.D, sys.D)
        assert report.termination == "error at numerical floor"
        assert len(report.records) == 1

    def test_first_order_hand_run(self):
        # One pass on 1/(s+1) interpolates at omega = 0; excluding the
        # exactly-interpolated direction leaves the reflected pole, so the
        # iterate is -1/(s-1) in closed form: matches at s = 0, unstable.
        opts = StoppingOptions(max_iterations=1, keep_best=False)
        chosen, report = reduce(FIRST_ORDER, opts)
        np.testing.assert_allclose(chosen.sys.A, [[1.0]], atol=1e-10)
        np.testing.assert_allclose(chosen.sys.B, [[-1.0]], atol=1e-10)
        np.testing.assert_allclose(chosen.sys.C, [[1.0]], atol=1e-10)
        np.testing.assert_array_equal(chosen.sys.D, [[0.0]])
        assert eval_freq(chosen.sys, 0.0)[0, 0] == pytest.approx(1.0, abs=1e-12)
        rec = report.records[-1]
        assert rec.omega == 0.0
        assert rec.order == 1
        assert not rec.stable
        assert rec.h2_metric is None  # mirrored poles make the metric ill-posed
        assert report.termination == "max_iterations reached"

    def test_order_growth_matches_frequency_type(self):
        rng = np.random.default_rng(61)
        sys = random_stable(rng, n=14, q=2, p=2)
        _, report = reduce(sys, StoppingOptions(max_iterations=4, keep_best=False))
        prev = 0
        for rec in report.records[1:]:
            if rec.action != "add":
                continue
            step = sys.p if rec.omega == 0.0 else 2 * sys.p
            assert rec.order - prev == step
            prev = rec.order

    def test_each_block_built_once_per_run(self, monkeypatch):
        # Every step assembles the error system from the points so far.  A
        # point carried from one step to the next hands over the same B1
        # array object, so its block is built once in the whole run.
        import sysmor.sysaaa as mod

        real, seen = mod.assemble_error_system, []

        def recording(points, sys):
            seen.append([pt.B1 for pt in points])
            return real(points, sys)

        monkeypatch.setattr(mod, "assemble_error_system", recording)
        rng = np.random.default_rng(61)
        sys = random_stable(rng, n=14, q=2, p=2)
        _, report = reduce(sys, StoppingOptions(max_iterations=4, keep_best=False))
        assert len(seen) == 4
        for before, after in zip(seen, seen[1:]):
            assert len(after) == len(before) + 1
            assert all(a is b for a, b in zip(before, after))
        last = report.iterates[-1].support
        assert all(pt.B1 is b1 for pt, b1 in zip(last, seen[-1]))

    def test_interpolation_at_all_support_points(self):
        rng = np.random.default_rng(62)
        sys = random_stable(rng, n=16, q=2, p=2)
        chosen, _ = reduce(sys, StoppingOptions(max_iterations=5))
        assert chosen.weights.w0_condition < 1e8
        for pt in chosen.support:
            gap = np.linalg.norm(eval_freq(chosen.sys, pt.omega) - pt.sample, 2)
            assert gap <= 1e-8 * (1.0 + np.linalg.norm(pt.sample, 2))

    def test_keep_best_returns_smallest_error(self):
        rng = np.random.default_rng(63)
        sys = random_stable(rng, n=12, q=1, p=1)
        chosen, report = reduce(sys, StoppingOptions(max_iterations=6))
        errors = [r.linf_error for r in report.records]
        assert report.best_iteration == int(np.argmin(errors))
        recheck = linf_norm(subtract(sys, chosen.sys))
        assert recheck.gamma <= min(errors) * (1.0 + 1e-4) + 1e-12

    def test_error_decreases_on_rich_model(self):
        rng = np.random.default_rng(64)
        sys = random_stable(rng, n=18, q=2, p=2)
        _, report = reduce(sys, StoppingOptions(max_iterations=5))
        errors = [r.linf_error for r in report.records]
        assert min(errors) < errors[0]

    def test_unstable_model_rejected(self):
        unstable = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(UnstableInput):
            reduce(unstable)

    def test_target_linf_stops_early(self):
        rng = np.random.default_rng(65)
        sys = random_stable(rng, n=12, q=2, p=2)
        first = linf_norm(subtract(sys, static_gain(sys.D))).gamma
        _, report = reduce(
            sys, StoppingOptions(max_iterations=15, target_linf=0.8 * first)
        )
        assert report.termination == "target_linf reached"
        assert report.records[-1].linf_error <= 0.8 * first

    def test_target_order_respected(self):
        rng = np.random.default_rng(66)
        sys = random_stable(rng, n=14, q=2, p=2)
        _, report = reduce(
            sys,
            StoppingOptions(max_iterations=10, target_order=4, keep_best=False),
        )
        assert report.termination == "target_order would be exceeded"
        assert all(r.order <= 4 for r in report.records)

    def test_coordinate_change_invariance(self):
        rng = np.random.default_rng(67)
        sys = random_stable(rng, n=10, q=2, p=2)
        Q = random_orthogonal(rng, 10)
        rotated = StateSpace(Q.T @ sys.A @ Q, Q.T @ sys.B, sys.C @ Q, sys.D)
        opts = StoppingOptions(max_iterations=3, keep_best=False)
        a, _ = reduce(sys, opts)
        b, _ = reduce(rotated, opts)
        for omega in (0.0, 0.7, 3.1):
            np.testing.assert_allclose(
                eval_freq(a.sys, omega), eval_freq(b.sys, omega), atol=1e-9
            )

    @BOTH_DRIVERS
    def test_duplicate_peak_terminates_with_warning(self, monkeypatch, driver):
        # The pinned peak drifts by 1e-7 relative per call: inside the
        # duplicate band, but outside a min_dist radius below it, so the
        # low-rank driver proposes a new point instead of growing one.
        import sysmor.sysaaa as mod

        calls = itertools.count(1)

        def pinned(err, rel_tol=1e-6):
            omega = 1.3 * (1.0 + 1e-7 * next(calls))
            return LinfResult(gamma=1.0, omega_peak=omega, iterations=1)

        monkeypatch.setattr(mod, "linf_norm", pinned)
        rng = np.random.default_rng(68)
        sys = random_stable(rng, n=6, q=1, p=1)
        opts = StoppingOptions(max_iterations=10, min_dist=1e-8)
        _, report = driver(sys, opts)
        assert report.termination == "duplicate support point"
        assert len(report.records) == 2
        assert any(w.startswith("DuplicateSupportPoint") for w in report.warnings)

    @BOTH_DRIVERS
    def test_peak_at_infinity_terminates(self, monkeypatch, driver):
        # A supremum approached only as omega -> inf leaves nothing to
        # sample; the driver must stop instead of chasing it.
        import sysmor.sysaaa as mod

        monkeypatch.setattr(
            mod, "linf_norm", lambda err, rel_tol=1e-6: LinfResult(0.5, math.inf, 1)
        )
        rng = np.random.default_rng(70)
        sys = random_stable(rng, n=6, q=1, p=1)
        chosen, report = driver(sys)
        assert report.termination == "no finite peak frequency"
        assert chosen.order == 0
        assert report.warnings

    def test_axis_pole_iterate_terminates_gracefully(self, monkeypatch):
        # An iterate whose error system has imaginary-axis poles (injected
        # at iterate 3 by wrapping linf_norm) ends the loop with a warning,
        # not an exception, and the best certified iterate is still
        # handed back.
        import sysmor.sysaaa as mod

        real, calls = mod.linf_norm, itertools.count()

        def axis_poles_at_third(err, rel_tol=1e-6):
            if next(calls) == 3:
                raise ImaginaryAxisPoles("injected")
            return real(err, rel_tol)

        monkeypatch.setattr(mod, "linf_norm", axis_poles_at_third)
        sys = random_stable(np.random.default_rng(70), n=12, q=2, p=2)
        chosen, report = reduce(sys, StoppingOptions(max_iterations=8))
        assert report.termination == "interpolant has imaginary-axis poles"
        assert "iteration 3: interpolant poles on the axis" in report.warnings
        assert len(report.records) == 4
        assert math.isinf(report.records[-1].linf_error)
        best = report.records[report.best_iteration]
        assert best.iteration < 3
        assert math.isfinite(best.linf_error) and best.certified
        assert chosen is report.iterates[best.iteration]

    def test_highpass_best_iterate_is_smallest_finite_error(self):
        # s/(s+1) is a hard target for this scheme: every iterate after
        # the static D is unstable and none improves on it.  The run still
        # ends and hands back an iterate no worse than the smallest
        # finite error it recorded.
        highpass = StateSpace([[-1.0]], [[1.0]], [[-1.0]], [[1.0]])
        chosen, report = reduce(highpass)
        assert report.termination is not None
        finite = [r.linf_error for r in report.records if math.isfinite(r.linf_error)]
        best = linf_norm(subtract(highpass, chosen.sys)).gamma
        assert best <= min(finite) * (1.0 + 1e-4)

    def test_keep_best_returns_certified_iterate(self, monkeypatch):
        # The smallest error any record shows is a bound no level test
        # proved (the last iterate's, marked so by wrapping linf_norm);
        # keep_best returns the first smallest certified error instead.
        import sysmor.sysaaa as mod

        real, calls = mod.linf_norm, itertools.count()

        def last_uncertified(err, rel_tol=1e-6):
            res = real(err, rel_tol)
            certified = next(calls) < 4
            return LinfResult(res.gamma, res.omega_peak, res.iterations, certified)

        monkeypatch.setattr(mod, "linf_norm", last_uncertified)
        rng = np.random.default_rng(64)
        sys = random_stable(rng, n=12, q=1, p=1)
        _, report = reduce(sys, StoppingOptions(max_iterations=4))
        certified = [r.linf_error for r in report.records if r.certified]
        assert min(r.linf_error for r in report.records) < min(certified)
        best = report.records[report.best_iteration]
        assert best.certified
        assert best.linf_error == min(certified)
        assert report.best_iteration == 3

    def test_keep_best_ignores_bisection_noise(self):
        # Every certified error of s/(s+1) is 1 + 1e-6 within roundoff, and
        # every iterate but the static D is unstable: a later error
        # displaces the kept one only when smaller by more than
        # bisect_rel_tol.
        highpass = StateSpace([[-1.0]], [[1.0]], [[-1.0]], [[1.0]])
        chosen, report = reduce(highpass)
        assert report.best_iteration == 0
        assert chosen.sys.n == 0 and report.records[0].stable

    @BOTH_DRIVERS
    @pytest.mark.parametrize("failure", [SingularW0, InsufficientSpectrum])
    def test_weight_failure_terminates_with_warning(
        self, monkeypatch, driver, failure
    ):
        # A weight solve that fails mid-run ends the loop with a report
        # warning and hands back the last iterate recorded before it.
        import sysmor.sysaaa as mod

        real, calls = mod.solve_weights, itertools.count(1)

        def failing(X, p):
            if next(calls) == 3:
                raise failure("injected")
            return real(X, p)

        monkeypatch.setattr(mod, "solve_weights", failing)
        rng = np.random.default_rng(81)
        sys = random_stable(rng, n=10, q=2, p=2)
        opts = StoppingOptions(max_iterations=6, keep_best=False)
        chosen, report = driver(sys, opts)
        assert report.termination == "weight computation failed"
        assert report.warnings[-1] == f"{failure.__name__}: injected"
        assert len(report.records) == 3
        assert report.best_iteration == 2
        assert chosen is report.iterates[2]

    @BOTH_DRIVERS
    def test_repeated_gramian_eigenvalues_warn(self, driver):
        # Two identical decoupled channels, I/(s+1), give an error Gramian
        # whose eigenvalues come in equal pairs: the weights relax
        # distinctness and the report names the iterate.
        twin = StateSpace(-np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        opts = StoppingOptions(max_iterations=2, keep_best=False)
        chosen, report = driver(twin, opts)
        assert chosen.weights.degenerate
        assert (
            "iteration 2: repeated Gramian eigenvalues, distinctness relaxed"
            in report.warnings
        )

    def test_model_is_factored_once(self, monkeypatch):
        # Every pole, response and Gramian computation reads one cached
        # Schur form per StateSpace: the model's A is factored once per run,
        # each iterate only factors its own r x r state matrix, and G's
        # Gramians are solved once however many iterations or orders read
        # them (the observability Gramian, which the balanced surrogate of
        # the level tests reads, is one solve on the dual).  G is solved at
        # each of its seed frequencies once per run, and the Gramian of
        # G - R is split, so no Lyapunov solve runs on the n + r stacked
        # states.
        rng = np.random.default_rng(72)
        sys = random_stable(rng, n=40, q=2, p=2)
        fresh = StateSpace(sys.A, sys.B, sys.C, sys.D)
        shapes, eig_shapes, solves, omegas = [], [], [], []
        dgees = sysmor.statespace.dgees
        eigvals, eigvals_overwrite = np.linalg.eigvals, sysmor.norms._eigvals_overwrite
        solve = sysmor.numkernels.solve_lyapunov
        solve_response = sysmor.statespace._solve_response

        def counted(a):
            shapes.append(np.shape(a))
            return dgees(a)

        def recorded_eigvals(a):
            eig_shapes.append(np.shape(a))
            return eigvals(a)

        def recorded_hamiltonian(H):
            eig_shapes.append(np.shape(H))
            return eigvals_overwrite(H)

        def counted_solve(model, other=None):
            # An observability Gramian is solved on the model's dual, and a
            # Gramian solve names the model twice (None marks it).
            dualized = model._origin.kind == "dual"
            solves.append((model.n, dualized, None if other is model else other.n))
            return solve(model, other)

        def counted_response(model, at):
            if model.n == 40:
                omegas.extend(at.tolist())
            return solve_response(model, at)

        def forbidden(*args, **kwargs):
            raise AssertionError("solve_continuous_lyapunov called")

        def solved_once_at_seeds(model):
            counts = collections.Counter(omegas)
            return all(counts[w] == 1 for w in model._seeds.tolist())

        monkeypatch.setattr(sysmor.statespace, "dgees", counted)
        monkeypatch.setattr(np.linalg, "eigvals", recorded_eigvals)
        monkeypatch.setattr(sysmor.norms, "_eigvals_overwrite", recorded_hamiltonian)
        monkeypatch.setattr(sysmor.numkernels, "solve_lyapunov", counted_solve)
        monkeypatch.setattr(sysmor.statespace, "_solve_response", counted_response)
        monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", forbidden)
        _, report = reduce(sys, StoppingOptions(max_iterations=5))
        assert shapes.count((40, 40)) == 1
        iterates = [(r.order, r.order) for r in report.records[1:] if r.order]
        assert sorted(s for s in shapes if s != (40, 40)) == sorted(iterates)
        assert len(iterates) == 5
        # the only eigensolves left are the 2(n + r) Hamiltonians
        assert eig_shapes and (40, 40) not in eig_shapes
        assert solves.count((40, False, None)) == 1
        assert max(n for n, _, _ in solves) == 40
        assert [s for s in solves if s[1]] == [(40, True, None)]
        assert len(sys._seeds) > 20 and solved_once_at_seeds(sys)

        solves.clear()
        entries = compare_methods(fresh, ["balanced"], 5, StoppingOptions())
        assert [e["order"] for e in entries] == [1, 2, 3, 4, 5]
        assert solves.count((40, False, None)) == 1
        assert solves.count((40, True, None)) == 1
        assert max(n for n, _, _ in solves) == 40

        # A model with p > q is reduced through its dual, which reuses the
        # model's Schur form, seed responses and Gramians (roles swapped).
        wide = random_stable(rng, n=40, q=2, p=3)
        shapes.clear()
        solves.clear()
        omegas.clear()
        entries = compare_methods(
            wide, ["balanced", "lowrank-aaa"], 5, StoppingOptions()
        )
        assert {e["method"] for e in entries} == {"balanced", "lowrank-aaa"}
        assert all((e["system"].p, e["system"].q) == (3, 2) for e in entries)
        assert shapes.count((40, 40)) == 1
        assert solves.count((40, False, None)) == 1
        assert solves.count((40, True, None)) == 1
        assert max(n for n, _, _ in solves) == 40
        assert solved_once_at_seeds(wide)

    def test_report_metadata(self):
        rng = np.random.default_rng(69)
        sys = random_stable(rng, n=8, q=2, p=2)
        chosen, report = reduce(sys, StoppingOptions(max_iterations=2))
        assert report.method == "sys-aaa"
        assert report.records[0].action == "init"
        assert isinstance(chosen, Interpolant)
        assert chosen.order == chosen.sys.n
        doc = report.to_dict()
        assert doc["method"] == "sys-aaa"
        assert len(doc["records"]) == len(report.records)


class TestAdvance:
    """One driver step on its own, from what a ``reduce`` run certified."""

    @staticmethod
    def _certified_run(monkeypatch):
        import sysmor.sysaaa as mod

        model = mass_chain(0, 6, inputs=(0, 2), outputs=(3, 5))
        opts = StoppingOptions(max_iterations=3, keep_best=False)
        real, certified = mod.certify, []

        def recording(*args, **kwargs):
            certified.append(real(*args, **kwargs))
            return certified[-1]

        monkeypatch.setattr(mod, "certify", recording)
        _, report = reduce(model, opts)
        assert [rec for rec, _ in certified] == report.records
        floor = 1e-13 * (1.0 + report.records[0].linf_error)
        return mod._advance, model, opts, report, certified, floor

    @staticmethod
    def _bytes(interp):
        sys = interp.sys
        return [m.tobytes() for m in (sys.A, sys.B, sys.C, sys.D)], [
            pt.omega for pt in interp.support
        ]

    def test_same_inputs_give_the_same_step_and_stay_untouched(self, monkeypatch):
        advance, model, opts, report, certified, floor = self._certified_run(
            monkeypatch
        )
        current = report.iterates[2]
        record, lres = certified[2]
        support = current.support
        blocks = [
            [np.copy(a) for a in (pt.sample, pt.L, pt.A, pt.B1, pt.B2)]
            for pt in support
        ]
        before = dataclasses.replace(record), dataclasses.replace(lres)

        first, second = (
            advance(model, opts, None, current, record, lres, floor) for _ in range(2)
        )
        assert first[0] is None and first[1] is None
        assert first[3:] == second[3:] == ("add", report.records[3].omega)
        assert self._bytes(first[2]) == self._bytes(second[2])
        # the step the loop took from the same iterate
        assert self._bytes(first[2]) == self._bytes(report.iterates[3])

        assert current.support is support and len(support) == 2
        for pt, copies in zip(support, blocks):
            now = (pt.sample, pt.L, pt.A, pt.B1, pt.B2)
            assert [a.tobytes() for a in now] == [b.tobytes() for b in copies]
        assert (record, lres) == before

    def test_a_stopping_rule_returns_only_its_reason(self, monkeypatch):
        advance, model, opts, report, certified, floor = self._certified_run(
            monkeypatch
        )
        record, lres = certified[3]
        step = advance(model, opts, None, report.iterates[3], record, lres, floor)
        assert step == ("max_iterations reached", None, None, None, None)
        assert report.termination == "max_iterations reached"
