"""Low-rank interpolation: rank-limited support points, rank growth,
dualization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sysmor import (
    DegenerateFactors,
    DuplicateSupportPoint,
    NonRealSampleAtZero,
    Saturated,
    StateSpace,
    StoppingOptions,
    SupportPoint,
    UnstableInput,
    dual,
    eval_freq,
    reduce,
    reduce_lowrank,
    select_or_grow,
)
from sysmor.statespace import static_gain
from oracles import random_stable


def make_point(omega, sample, rank):
    return SupportPoint(omega, np.asarray(sample, dtype=complex), rank)


class TestTruncateSample:
    """A rank-r ``SupportPoint`` keeps the leading left singular
    directions of its sample."""

    def test_rank_one_of_diagonal(self):
        pt = SupportPoint(1.0, np.diag([2.0, 1.0]).astype(complex), 1)
        assert pt.rank == 1
        recon = pt.U @ pt.U.conj().T @ pt.sample
        np.testing.assert_allclose(recon, [[2.0, 0.0], [0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(pt.sample, np.diag([2.0, 1.0]), atol=1e-15)

    def test_zero_frequency_requires_real(self):
        with pytest.raises(NonRealSampleAtZero):
            SupportPoint(0.0, np.array([[1.0 + 1.0j]]), 1)

    def test_zero_frequency_factors_are_real(self):
        pt = SupportPoint(0.0, np.array([[3.0, 0.0], [0.0, 1.0]]), 2)
        assert not np.iscomplexobj(pt.U)
        assert pt.is_zero
        assert pt.order == 2

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            SupportPoint(-2.0, np.eye(2), 1)

    def test_order_counts_states(self):
        sample = (np.eye(2) + 1j * np.eye(2)).astype(complex)
        assert SupportPoint(1.0, sample, 1).order == 2
        assert SupportPoint(1.0, sample, 2).order == 4

    def test_one_svd_per_point(self, monkeypatch):
        # U and numerical_rank come from one SVD of the sample, and the
        # block takes none; a rank growth makes a new point, which factors
        # the sample once.
        real, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        rng = np.random.default_rng(70)
        sample = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        pt = make_point(1.0, sample, 1)
        assert pt.numerical_rank == 2 and pt.U.shape == (3, 1)
        assert (pt.A.shape, pt.B1.shape, pt.B2.shape) == ((2, 2), (2, 2), (2, 3))
        assert select_or_grow(1.001, [pt], min_dist=0.01) == 0
        grown = replace(pt, rank=2)
        assert (grown.A.shape, grown.B1.shape, grown.B2.shape) == (
            (4, 4), (4, 2), (4, 3)
        )
        with pytest.raises(Saturated):
            select_or_grow(1.001, [grown], min_dist=0.01)
        assert calls == [(3, 2), (3, 2)]


class TestBuildLowRankBlock:
    """The block of a rank-r point: directions U^H, data U^H G."""

    def test_state_counts(self):
        rng = np.random.default_rng(71)
        sample = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert make_point(1.0, sample, 1).A.shape == (2, 2)
        assert make_point(1.0, sample, 2).A.shape == (4, 4)
        assert make_point(0.0, sample.real, 1).A.shape == (1, 1)

    def test_full_rank_zero_frequency_matches_sample(self):
        rng = np.random.default_rng(72)
        sample = rng.standard_normal((2, 2))
        pt = SupportPoint(0.0, sample, 2)
        # U B1 = U U^T G recovers the sample; U B2 = U U^T = I at full rank.
        np.testing.assert_allclose(pt.U @ pt.B1, sample, atol=1e-12)
        np.testing.assert_allclose(pt.U @ pt.B2, np.eye(2), atol=1e-12)

    def test_degenerate_rank_rejected(self):
        rank_one = np.outer([1.0, 2.0], [3.0, 4.0]).astype(complex)
        pt = make_point(1.0, rank_one, 2)
        with pytest.raises(DegenerateFactors):
            pt.L


class TestSelectOrGrow:
    def test_empty_support_adds(self):
        assert select_or_grow(1.3, [], min_dist=0.02) is None

    def test_nearby_candidate_grows_nearest(self):
        pts = [make_point(1.0, np.eye(2), 1), make_point(5.0, np.eye(2), 1)]
        assert select_or_grow(1.005, pts, min_dist=0.01) == 0

    def test_distant_candidate_adds(self):
        pts = [make_point(1.0, np.eye(2), 1)]
        assert select_or_grow(1.02, pts, min_dist=0.01) is None

    def test_radius_scales_with_frequency(self):
        pts = [make_point(100.0, np.eye(2), 1)]
        assert select_or_grow(100.5, pts, min_dist=0.02) == 0

    def test_full_rank_point_saturates(self):
        pts = [make_point(1.0, np.eye(2), 2)]
        with pytest.raises(Saturated):
            select_or_grow(1.001, pts, min_dist=0.01)

    def test_rank_deficient_sample_saturates_at_numerical_rank(self):
        # A rank-1 sample has nothing to grow past rank 1, although
        # min(p, q) = 2.
        rank_one = np.outer([1.0, 2.0], [3.0, 4.0]).astype(complex)
        pts = [make_point(1.0, rank_one, 1)]
        with pytest.raises(Saturated):
            select_or_grow(1.001, pts, min_dist=0.01)

    def test_full_point_at_peak_is_duplicate(self):
        pts = [make_point(1.0, np.eye(2), None)]
        with pytest.raises(DuplicateSupportPoint):
            select_or_grow(1.0, pts, min_dist=0.02)

    def test_full_point_never_grows(self):
        # Inside the min_dist radius but outside the duplicate band: a
        # full point funds a new point instead of growing.
        pts = [make_point(1.0, np.eye(2), None)]
        assert select_or_grow(1.005, pts, min_dist=0.02) is None

    def test_rank_limited_duplicate_outside_radius(self):
        # Outside a tiny min_dist radius but inside the duplicate band.
        pts = [make_point(1.0, np.eye(2), 1)]
        with pytest.raises(DuplicateSupportPoint):
            select_or_grow(1.0 + 5e-7, pts, min_dist=1e-8)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            select_or_grow(1.0, [], min_dist=0.0)


@pytest.mark.parametrize("driver", [reduce, reduce_lowrank])
@pytest.mark.parametrize("min_dist", [0.0, -0.5])
def test_drivers_reject_nonpositive_radius(driver, min_dist):
    rng = np.random.default_rng(73)
    sys = random_stable(rng, n=6, q=2, p=2)
    with pytest.raises(ValueError):
        driver(sys, StoppingOptions(max_iterations=3, min_dist=min_dist))


@pytest.mark.parametrize("min_dist", [0.0, -1.0, math.inf, math.nan])
def test_options_reject_bad_radius(min_dist):
    with pytest.raises(ValueError, match="min_dist must be positive"):
        StoppingOptions(min_dist=min_dist)


@pytest.mark.parametrize(
    "field, value",
    [
        ("bisect_rel_tol", 0.0), ("bisect_rel_tol", -1e-6),
        ("bisect_rel_tol", math.inf), ("bisect_rel_tol", math.nan),
        ("target_linf", 0.0), ("target_linf", -1.0), ("target_linf", math.inf),
        ("target_linf", math.nan),
    ],
)
def test_options_reject_bad_tolerance_and_target(field, value):
    # A zero tolerance would fail inside the first linf_norm, and a NaN
    # target is never met, so both are refused when the options are built.
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        StoppingOptions(**{field: value})


def test_radius_checked_before_the_first_step():
    # Runs that stop before any step still reject the radius.
    with pytest.raises(ValueError, match="min_dist must be positive"):
        reduce(static_gain([[1.0]]), StoppingOptions(min_dist=0.0))
    first_order = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="min_dist must be positive"):
        reduce(first_order, StoppingOptions(min_dist=-1, max_iterations=0))


class TestReduceLowRank:
    def test_siso_agrees_with_full_driver(self):
        # Rank truncation of a scalar is exact, so both drivers must
        # produce the same interpolant on single-input single-output data.
        rng = np.random.default_rng(74)
        sys = random_stable(rng, n=12, q=1, p=1)
        opts = StoppingOptions(max_iterations=4, keep_best=False)
        full, full_rep = reduce(sys, opts)
        low, low_rep = reduce_lowrank(sys, opts)
        assert low.order == full.order
        for omega in (0.0, 0.3, 1.0, 4.0, 20.0):
            full_w = eval_freq(full.sys, omega)
            gap = np.linalg.norm(eval_freq(low.sys, omega) - full_w, 2)
            assert gap <= 1e-9 * (1.0 + np.linalg.norm(full_w, 2))
        assert [r.order for r in low_rep.records] == [
            r.order for r in full_rep.records
        ]

    def test_rank_one_entry_and_growth_steps(self):
        rng = np.random.default_rng(75)
        sys = random_stable(rng, n=14, q=3, p=3)
        _, report = reduce_lowrank(
            sys, StoppingOptions(max_iterations=5, keep_best=False)
        )
        adds = [r for r in report.records if r.action == "add"]
        assert adds and all(max(r.ranks) == 1 for r in adds[:1])
        prev = 0
        for rec in report.records[1:]:
            step = rec.order - prev
            assert step == (1 if rec.omega == 0.0 else 2)
            prev = rec.order

    def test_growth_and_saturation_with_wide_radius(self):
        # A huge radius funnels every peak into the first point, forcing
        # rank growth to saturation; the point is then fully interpolated.
        rng = np.random.default_rng(76)
        sys = random_stable(rng, n=12, q=2, p=2)
        opts = StoppingOptions(max_iterations=10, keep_best=False, min_dist=1e6)
        chosen, report = reduce_lowrank(sys, opts)
        actions = [r.action for r in report.records]
        assert "grow" in actions
        assert report.termination == "saturated support point"
        pt = chosen.support[0]
        assert pt.rank == 2
        gap = np.linalg.norm(eval_freq(chosen.sys, pt.omega) - pt.sample, 2)
        assert gap <= 1e-8 * (1.0 + np.linalg.norm(pt.sample, 2))

    def test_wide_models_reduced_through_dual(self):
        rng = np.random.default_rng(77)
        sys = random_stable(rng, n=10, q=2, p=3)
        opts = StoppingOptions(max_iterations=3, keep_best=False)
        chosen, report = reduce_lowrank(sys, opts)
        assert report.dualized
        assert chosen is report.iterates[report.best_iteration]
        # every iterate is stored in the model's input/output domain
        assert len(report.iterates) == len(report.records)
        assert all((it.sys.p, it.sys.q) == (3, 2) for it in report.iterates)
        # Identical to reducing the transposed model directly.
        mirror, _ = reduce_lowrank(dual(sys), opts)
        for omega in (0.0, 1.1):
            np.testing.assert_allclose(
                eval_freq(chosen.sys, omega),
                eval_freq(mirror.sys, omega).T,
                atol=1e-10,
            )

    def test_tall_models_not_dualized(self):
        rng = np.random.default_rng(78)
        sys = random_stable(rng, n=8, q=3, p=2)
        _, report = reduce_lowrank(sys, StoppingOptions(max_iterations=2))
        assert not report.dualized

    def test_target_order_respected(self):
        rng = np.random.default_rng(79)
        sys = random_stable(rng, n=12, q=2, p=2)
        _, report = reduce_lowrank(
            sys, StoppingOptions(max_iterations=10, target_order=3, keep_best=False)
        )
        assert report.termination == "target_order would be exceeded"
        assert all(r.order <= 3 for r in report.records)

    def test_unstable_model_rejected(self):
        unstable = StateSpace([[0.2]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(UnstableInput):
            reduce_lowrank(unstable)

    def test_method_label(self):
        rng = np.random.default_rng(80)
        sys = random_stable(rng, n=6, q=2, p=2)
        _, report = reduce_lowrank(sys, StoppingOptions(max_iterations=1))
        assert report.method == "lowrank-aaa"
        assert report.records[0].ranks == ()
