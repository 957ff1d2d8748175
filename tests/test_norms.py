"""Peak-gain (Hamiltonian level search) and H2 error metric."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad_vec

import sysmor.norms
import sysmor.statespace
import sysmor.sysaaa
from sysmor import (
    ImaginaryAxisPoles,
    NonzeroFeedthrough,
    SingularAtFrequency,
    StateSpace,
    StoppingOptions,
    balanced_truncate,
    dual,
    eval_freq,
    h2_error_metric,
    linf_norm,
    reduce,
    reduce_lowrank,
    subtract,
)
from sysmor.numkernels import GramianResult
from sysmor.statespace import static_gain
from sysmor.norms import _slope_root
from oracles import grid_gains, mass_chain, oracle_grid, random_stable
from test_records import _check, _raw_error

# Second-order resonance 1/(s^2 + 2*zeta*s + 1) with zeta = 0.1: the peak
# gain is 1/(2*zeta*sqrt(1 - zeta^2)) at omega = sqrt(1 - 2*zeta^2).
RESONANT = StateSpace([[0.0, 1.0], [-1.0, -0.2]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
RESONANT_GAMMA = 1.0 / (0.2 * math.sqrt(0.99))
RESONANT_OMEGA = math.sqrt(0.98)

FIRST_ORDER = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


class TestSlope:
    @staticmethod
    def _check(sys, omegas):
        from sysmor.norms import _gain_and_slope

        def sigma(w):
            return np.linalg.norm(eval_freq(sys, w), 2)

        for w in omegas:
            gain, slope = _gain_and_slope(sys, w)
            h = 1e-6 * w
            central = (sigma(w + h) - sigma(w - h)) / (2 * h)
            assert gain == pytest.approx(sigma(w), rel=1e-12)
            assert slope == pytest.approx(central, rel=1e-5)

    def test_mimo(self):
        rng = np.random.default_rng(48)
        sys = random_stable(rng, n=7, q=2, p=3, feedthrough=True)
        self._check(sys, 10.0 ** rng.uniform(-1, 1, 5))

    def test_error_system_with_unstable_reduced_model(self):
        rng = np.random.default_rng(49)
        g = random_stable(rng, n=8, q=2, p=2)
        r = random_stable(rng, n=3, q=2, p=2)
        r = StateSpace(0.3 * np.eye(3) - r.A, r.B, r.C, r.D)
        self._check(subtract(g, r), 10.0 ** rng.uniform(-1, 1, 5))

    def test_dual(self):
        rng = np.random.default_rng(50)
        g = random_stable(rng, n=6, q=3, p=2)
        self._check(dual(g), 10.0 ** rng.uniform(-1, 1, 5))

    def test_fewer_outputs_than_inputs(self):
        # p < q: both solves run on the transpose
        rng = np.random.default_rng(51)
        sys = random_stable(rng, n=7, q=3, p=2, feedthrough=True)
        self._check(sys, 10.0 ** rng.uniform(-1, 1, 5))
        self._check(subtract(sys, random_stable(rng, n=3, q=3, p=2)), [0.3, 2.0])


class TestSlopeRootExits:
    """``_slope_root`` gives up, with None, on a synthetic gain-and-slope
    evaluator that has no usable slope or never changes sign."""

    @staticmethod
    def _evaluator(gain_and_slope):
        calls = []

        def counted(omega):
            calls.append(omega)
            return gain_and_slope(omega)

        return counted, calls

    def test_no_slope_while_bracketing(self):
        evaluate, calls = self._evaluator(
            lambda omega: (1.0, 1.0 if omega == 1.0 else None)
        )
        assert _slope_root(evaluate, 0.5, 1.0, 2.0) is None
        assert calls == [1.0, 1.5]

    def test_bracketing_budget_spent_without_sign_change(self):
        # The gain rises and the slope stays negative all the way toward
        # omega = 0: each halving step moves mid, and the bracket never
        # narrows relative to it, so the step budget runs out.
        evaluate, calls = self._evaluator(lambda omega: (2.0 - omega, -1.0))
        assert _slope_root(evaluate, 0.0, 1.0, 2.0) is None
        assert len(calls) == 1 + sysmor.norms._MAX_SLOPE_STEPS
        assert calls[-1] == 2.0 ** -sysmor.norms._MAX_SLOPE_STEPS

    def test_no_slope_during_illinois_steps(self):
        # The first halving step closes the bracket [1, 1.5]; the first
        # secant point, 1.25, has no slope.
        slopes = {1.0: 1.0, 1.5: -1.0}
        evaluate, calls = self._evaluator(lambda omega: (1.0, slopes.get(omega)))
        assert _slope_root(evaluate, 0.5, 1.0, 2.0) is None
        assert calls == [1.0, 1.5, 1.25]


def _force_tangency(monkeypatch):
    """Make every level test see a crossing at 1e4 rad/s, where the gain
    stays below the level."""
    import sysmor.norms as mod

    spectrum = mod._axis_frequencies
    monkeypatch.setattr(
        mod, "_axis_frequencies",
        lambda lam: (np.append(spectrum(lam)[0], 1e4), True),
    )


class TestLinfNorm:
    def test_static_gain(self):
        D = np.array([[3.0, 0.0], [0.0, 1.0]])
        res = linf_norm(static_gain(D))
        assert res.gamma == pytest.approx(3.0)
        assert res.omega_peak == 0.0
        assert res.iterations == 0

    def test_first_order_lowpass(self):
        res = linf_norm(FIRST_ORDER)
        assert res.gamma == pytest.approx(1.0, rel=1e-5)
        assert res.gamma >= 1.0 - 1e-12
        assert res.omega_peak == pytest.approx(0.0, abs=1e-6)

    def test_resonant_peak_certified_by_one_level_test(self):
        # The refinement lands on the peak, so the first level test, at
        # the peak gain times 1 + rel_tol, has no crossings.
        res = linf_norm(RESONANT)
        assert res.iterations == 1 and res.certified

    def test_level_tests_on_criterion_3_systems(self):
        # The 50 random systems of acceptance criterion 3 need at most 60
        # level tests in all (92 before the refinement, 50 at the floor).
        rng = np.random.default_rng(1003)
        total = 0
        for case in range(50):
            n, q, p = (int(rng.integers(lo, hi)) for lo, hi in ((2, 41), (1, 4), (1, 4)))
            sys = random_stable(rng, n, q, p, feedthrough=case % 2 == 0)
            total += linf_norm(sys).iterations
        assert total <= 60

    def test_resonant_peak_closed_form(self):
        res = linf_norm(RESONANT, rel_tol=1e-9)
        assert res.gamma == pytest.approx(RESONANT_GAMMA, rel=1e-7)
        assert res.omega_peak == pytest.approx(RESONANT_OMEGA, rel=1e-4)
        assert res.iterations >= 1

    def test_certified_upper_bound_vs_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            sys = random_stable(rng, n=12, q=2, p=2)
            res = linf_norm(sys)
            grid_max = float(np.max(grid_gains(sys, oracle_grid(sys, points=20000))))
            assert res.gamma >= grid_max * (1.0 - 1e-9)
            assert res.gamma <= grid_max * (1.0 + 1e-3)

    def test_gain_attained_at_reported_peak(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            sys = random_stable(rng, n=8, q=2, p=2, feedthrough=True)
            res = linf_norm(sys)
            if math.isinf(res.omega_peak):
                continue
            peak = np.linalg.norm(eval_freq(sys, res.omega_peak), 2)
            assert peak >= res.gamma * (1.0 - 1e-5)

    def test_zero_error_system_hits_floor(self):
        rng = np.random.default_rng(44)
        g = random_stable(rng, n=4, q=2, p=2)
        res = linf_norm(subtract(g, g))
        scale = 1.0 + np.linalg.norm(g.B) * np.linalg.norm(g.C)
        assert res.gamma <= 1e-10 * scale

    def test_certified_only_when_a_level_test_proves_the_bound(self, monkeypatch):
        import sysmor.norms as mod

        rng = np.random.default_rng(46)
        g = random_stable(rng, n=4, q=2, p=2)
        assert linf_norm(RESONANT).certified and linf_norm(g).certified
        assert linf_norm(static_gain([[2.0]])).certified
        # The probed maximum below the floor is returned as is.
        assert not linf_norm(subtract(g, g)).certified
        # A crossing whose probes stay below the level (tangency).
        _force_tangency(monkeypatch)
        tangent = linf_norm(RESONANT)
        assert not tangent.certified
        assert tangent.gamma == pytest.approx(RESONANT_GAMMA, rel=1e-5)
        monkeypatch.undo()
        # The level cap ends the search while crossings remain: without
        # the peak refinement the first level test finds crossings.
        monkeypatch.setattr(mod, "_slope_root", lambda *args: None)
        monkeypatch.setattr(mod, "_MAX_LEVEL_ITERATIONS", 1)
        capped = linf_norm(RESONANT)
        assert capped.iterations == 1 and not capped.certified

    def test_tangency_level_probes_once(self, monkeypatch):
        # Every level test, the accepted tangency level included, probes
        # the response once, as one batch, after the one batch of the
        # seeds; the peak refinement evaluates one scalar frequency per
        # gain and slope.
        import sysmor.norms as mod

        _force_tangency(monkeypatch)
        evaluate, batches, scalars = mod.eval_freq, [], []

        def counted(sys, omega):
            (batches if np.ndim(omega) else scalars).append(omega)
            return evaluate(sys, omega)

        monkeypatch.setattr(mod, "eval_freq", counted)
        tangent = linf_norm(RESONANT)
        assert not tangent.certified
        assert len(batches) == 1 + tangent.iterations
        assert len(scalars) == tangent.slope_evaluations > 0

    def test_axis_frequencies_classification(self):
        from sysmor.norms import _axis_frequencies

        # Mirror pairs (lam, -conj(lam)) are off the axis: nothing to probe.
        paired = np.array([-1 + 2j, -1 - 2j, 1 + 2j, 1 - 2j])
        suspects, crossed = _axis_frequencies(paired)
        assert suspects.size == 0 and not crossed
        # An off-axis eigenvalue without its mirror is probed, but is no
        # crossing; an eigenvalue on the axis is both.
        lone = np.append(paired, [0.01 + 3j, 0.01 - 3j])
        suspects, crossed = _axis_frequencies(lone)
        np.testing.assert_array_equal(suspects, [3.0])
        assert not crossed
        suspects, crossed = _axis_frequencies(np.append(lone, [5j, -5j]))
        np.testing.assert_array_equal(suspects, [3.0, 5.0])
        assert crossed

    @pytest.mark.parametrize("size", [1, 63, 64, 65, 130])
    def test_axis_frequencies_match_dense_mirror_search(self, size):
        # Searched in blocks of rows, the nearest mirrors are those of the
        # full N x N distance matrix, bit for bit, across block edges.
        from sysmor.norms import _IMAG_CLASS_RTOL, _axis_frequencies

        rng = np.random.default_rng(size)
        lam = []
        while len(lam) < size:
            z = complex(rng.standard_normal(), 5.0 * rng.standard_normal())
            kind = rng.integers(4)
            if kind == 0 and len(lam) + 2 <= size:
                lam += [z, -z.conjugate()]  # an exact mirror pair
            elif kind == 1 or not lam:
                lam.append(z)  # a lone eigenvalue
            elif kind == 2:
                lam.append(lam[rng.integers(len(lam))])  # a repeated value
            else:
                lam.append(1j * z.imag)  # on the axis
        lam = np.array(lam)
        on_axis = np.abs(lam.real) <= _IMAG_CLASS_RTOL * np.maximum(1.0, np.abs(lam))
        dist = np.abs(lam.conj()[:, None] + lam[None, :])
        np.fill_diagonal(dist, np.inf)
        lone = dist.min(axis=1, initial=np.inf) > np.abs(lam.real)
        suspects, crossed = _axis_frequencies(lam)
        np.testing.assert_array_equal(
            suspects, np.unique(np.abs(lam[on_axis | lone].imag))
        )
        assert crossed == bool(on_axis.any())

    @pytest.mark.parametrize("feedthrough", [False, True])
    def test_hamiltonian_blocks(self, monkeypatch, feedthrough):
        # The Hamiltonian written block by block into one array is
        # [[A + B R^-1 D^T C, B R^-1 B^T], [-C^T (I + D R^-1 D^T) C, -(.)^T]]
        # with R = gamma^2 I - D^T D, on states scaled by a power of two.
        sys = random_stable(np.random.default_rng(79), n=6, q=2, p=3,
                            feedthrough=feedthrough)
        gamma, seen = 7.0, []
        eigvals = sysmor.norms._eigvals_overwrite

        def captured(H):
            seen.append(H.copy())
            return eigvals(H)

        monkeypatch.setattr(sysmor.norms, "_eigvals_overwrite", captured)
        sysmor.norms._hamiltonian_spectrum(sys, gamma)
        (H,) = seen
        A, B, C, D = sys.A, sys.B, sys.C, sys.D
        s = 2.0 ** round(0.5 * (math.log2(np.abs(B).max()) - math.log2(np.abs(C).max())))
        B, C = B / s, C * s
        R = gamma**2 * np.eye(2) - D.T @ D
        Acl = A + B @ np.linalg.solve(R, D.T) @ C
        want = np.block([
            [Acl, B @ np.linalg.solve(R, B.T)],
            [-C.T @ (np.eye(3) + D @ np.linalg.solve(R, D.T)) @ C, -Acl.T],
        ])
        np.testing.assert_allclose(H, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())

    @pytest.mark.parametrize("case", ["D = 0", "D != 0", "surrogate"])
    def test_hamiltonian_of_operands_is_that_of_the_stacked_model(
        self, monkeypatch, case
    ):
        # H of the difference G - R from ``subtract``, its A blocks written
        # from the operands, equals, bit for bit, H of the stacked model,
        # and so do the spectra; neither the test nor ``linf_norm`` forms
        # the difference's stacked A.
        rng = np.random.default_rng(80)
        if case == "surrogate":  # G_m - R on a chain, as a surrogate test runs it
            chain = mass_chain(0, 40, inputs=(0,), outputs=(39,))
            g = sysmor.statespace._balanced_truncation(chain, 30)
            r, _ = balanced_truncate(chain, 8)
        else:
            feedthrough = case == "D != 0"
            g = random_stable(rng, n=12, q=2, p=3, feedthrough=feedthrough)
            r = random_stable(rng, n=5, q=2, p=3, feedthrough=feedthrough)
        err = subtract(g, r)
        assert err.D.any() == (case == "D != 0")
        stacked = _raw_error(g, r)
        gamma = 1.5 * linf_norm(err).gamma
        seen, eigvals = [], sysmor.norms._eigvals_overwrite

        def captured(H):
            seen.append(H.copy())
            return eigvals(H)

        monkeypatch.setattr(sysmor.norms, "_eigvals_overwrite", captured)
        spectra = [
            sysmor.norms._hamiltonian_spectrum(model, gamma) for model in (stacked, err)
        ]
        assert seen[0].shape == (2 * err.n, 2 * err.n)
        assert seen[1].tobytes() == seen[0].tobytes()
        assert spectra[1].tobytes() == spectra[0].tobytes()
        assert "A" not in err.__dict__

    @pytest.mark.parametrize("seed, build", [(78, "balanced"), (156, "reduce")])
    def test_crossing_moved_off_axis_is_not_missed(self, seed, build):
        # Small errors of close approximations: roundoff moves a crossing
        # eigenvalue of the final level test beyond the class margin (the
        # balanced case misses one crossing of a pair, the reduce case
        # both), so the level looked certified while the gain exceeded it
        # by 0.4 % and 4.5 %.  Criterion 3's tolerance, one-sided.
        rng = np.random.default_rng(seed)
        n, q, p = (int(rng.integers(1, hi)) for hi in (9, 3, 3))
        g = random_stable(rng, n, q, p)
        if build == "balanced":
            r, _ = balanced_truncate(g, 4)
        else:
            r = reduce(g, StoppingOptions(max_iterations=6, keep_best=False))[0].sys
        err = subtract(g, r)
        gamma = linf_norm(err).gamma
        assert grid_gains(err, oracle_grid(err)).max() <= gamma * (1.0 + 1e-4)

    def test_supremum_at_infinity_reported(self):
        # G(s) = s/(s+1): gain increases monotonically toward 1 at infinity.
        highpass = StateSpace([[-1.0]], [[1.0]], [[-1.0]], [[1.0]])
        res = linf_norm(highpass)
        assert res.gamma == pytest.approx(1.0, rel=1e-5)
        assert math.isinf(res.omega_peak)

    def test_imaginary_axis_pole_rejected(self):
        osc = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        with pytest.raises(ImaginaryAxisPoles):
            linf_norm(osc)

    def test_unstable_reflection_has_same_norm(self):
        # |1/(jw - 1)| = |1/(jw + 1)|: the metric only sees the axis values.
        mirrored = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        res = linf_norm(mirrored)
        assert res.gamma == pytest.approx(1.0, rel=1e-5)

    def test_bad_rel_tol(self):
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                linf_norm(FIRST_ORDER, rel_tol=bad)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(45)
        sys = random_stable(rng, n=6, q=2, p=2)
        scaled = StateSpace(sys.A, sys.B, 10.0 * sys.C, sys.D)
        a = linf_norm(sys)
        b = linf_norm(scaled)
        assert b.gamma == pytest.approx(10.0 * a.gamma, rel=1e-5)

    def test_input_map_whose_squares_overflow(self):
        # ||B||^2 = 1e310 overflows, the gain 1e150 and the level test do
        # not: the rough scale of the numerical floor must not overflow.
        res = linf_norm(StateSpace([[-1.0]], [[1e155]], [[1e-5]], [[0.0]]))
        assert res.certified and res.omega_peak == 0.0
        assert res.gamma == pytest.approx(1e150, rel=2e-6)

    def test_badly_scaled_maps_do_not_overflow_the_hamiltonian(self):
        # B B^T = 1e320 overflows at gain 1: the level test runs on states
        # rescaled so that B and C have matching entries.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = linf_norm(StateSpace([[-1.0]], [[1e160]], [[1e-160]], [[0.0]]))
        assert res.certified and res.omega_peak == 0.0
        assert res.gamma == pytest.approx(1.0, rel=2e-6)

    def test_gain_beyond_the_level_test_is_refused(self):
        # gamma^2 overflows at a gain of 1e200: a documented error, not an
        # OverflowError or an uncertifiable level test.
        with pytest.raises(SingularAtFrequency, match="overflows"):
            linf_norm(StateSpace([[-1.0]], [[1e200]], [[1.0]], [[0.0]]))


def _shift(g, k):
    """delta(k) = 2 (sum_{i>k} sigma_i + c n eps sigma_1), from the Hankel
    values that balanced_truncate returns."""
    hsv = balanced_truncate(g, 0)[1]
    allowance = sysmor.norms._ROUNDOFF_ALLOWANCE * g.n * np.finfo(float).eps
    return 2.0 * (hsv[k:].sum() + allowance * hsv[0])


def _modal(modes, q, p, zeta=0.01):
    """Lightly damped modes over three decades whose input directions grow
    as sqrt(omega): every mode has about the same Hankel values, so no
    truncation below full order is accurate."""
    rng = np.random.default_rng(7)
    omega = np.logspace(np.log10(0.5), np.log10(500.0), modes)
    A = np.zeros((2 * modes, 2 * modes))
    for k, w in enumerate(omega):
        A[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [
            [-zeta * w, w * math.sqrt(1 - zeta**2)],
            [-w * math.sqrt(1 - zeta**2), -zeta * w],
        ]
    B = rng.standard_normal((modes, 2, q)) * np.sqrt(omega)[:, None, None]
    C = rng.standard_normal((p, 2 * modes))
    return StateSpace(A, B.reshape(2 * modes, q), C, np.zeros((p, q)))


class TestSurrogateLevelTest:
    """Level tests on G_k - R at the level less delta(k), with G_k the
    balanced truncation of G, prove bounds on G - R."""

    CHAIN = mass_chain(0, 40, inputs=(0,), outputs=(39,))

    def test_truncation_error_within_shift(self):
        g = self.CHAIN
        for k in (10, 25, 40, 55, 70):
            g_k, _ = balanced_truncate(g, k)
            err = _raw_error(g, g_k)
            gains = grid_gains(err, oracle_grid(err, points=20000))
            assert gains.max() <= _shift(g, k), k

    @pytest.mark.parametrize("build", ["balanced", "reduce"])
    def test_surrogate_certifies_like_the_full_test(self, build):
        g = self.CHAIN
        if build == "balanced":
            r, _ = balanced_truncate(g, 12)
        else:
            r = reduce(g, StoppingOptions(max_iterations=6, keep_best=False))[0].sys
        res = linf_norm(subtract(g, r))
        assert res.surrogate_tests > 0 and res.certified
        # A model built from matrices has no operands: the full test.
        raw = _raw_error(g, r)
        full = linf_norm(raw)
        assert full.surrogate_tests == 0 and full.certified
        assert res.gamma == pytest.approx(full.gamma, rel=1e-6)
        assert res.gamma >= grid_gains(raw, oracle_grid(raw)).max()

    def test_unrefuted_surrogate_crossing_runs_the_exact_test(self, monkeypatch):
        # A spurious axis eigenvalue at 1e4 rad/s, where the error's gain
        # is far below the level, on every surrogate spectrum: a surrogate
        # test whose crossings no probe refutes is repeated exactly, and
        # only the exact test certifies.
        g = self.CHAIN
        r, _ = balanced_truncate(g, 12)
        err = subtract(g, r)
        clean = linf_norm(err)
        spectrum, sizes = sysmor.norms._hamiltonian_spectrum, []

        def spurious(sys, gamma):
            sizes.append(sys.n)
            lam = spectrum(sys, gamma)
            return lam if sizes[-1] == err.n else np.append(lam, [1e4j, -1e4j])

        monkeypatch.setattr(sysmor.norms, "_hamiltonian_spectrum", spurious)
        res = linf_norm(err)
        assert res.certified and res.surrogate_tests > 0
        assert sizes.count(err.n) == res.iterations - res.surrogate_tests >= 1
        assert sizes[-1] == err.n
        assert res.gamma == pytest.approx(clean.gamma, rel=1e-6)

    def test_no_surrogate_for_unstable_model_or_flat_hankel_decay(self):
        g = self.CHAIN
        unstable = StateSpace(-g.A, g.B, g.C, g.D)
        r = random_stable(np.random.default_rng(11), n=4, q=1, p=1)
        res = linf_norm(subtract(unstable, r))
        assert res.surrogate_tests == 0 and res.certified
        modal = _modal(40, q=2, p=3)
        for order in (2, 6, 12):
            r, _ = balanced_truncate(modal, order)
            res = linf_norm(subtract(modal, r))
            assert res.surrogate_tests == 0 and res.certified

    def test_no_surrogate_without_hankel_values(self):
        # With C = 0 every Hankel value of G is zero: the order the shift
        # rule picks has a negligible sigma_k, and the exact test runs.
        chain = self.CHAIN
        g = StateSpace(chain.A, chain.B, np.zeros_like(chain.C), chain.D)
        r = random_stable(np.random.default_rng(12), n=4, q=1, p=1)
        assert not g._balancing.hsv.any()
        res = linf_norm(subtract(g, r))
        assert res.surrogate_tests == 0 and res.certified
        raw = _raw_error(g, r)
        assert res.gamma >= grid_gains(raw, oracle_grid(raw)).max()

    def test_no_surrogate_when_a_gramian_residual_exceeds_the_allowance(self):
        # A fresh chain, since its cached Gramian is overwritten: one
        # residual above c n eps and the exact test runs instead.
        g = mass_chain(0, 40, inputs=(0,), outputs=(39,))
        r, _ = balanced_truncate(g, 12)
        assert linf_norm(subtract(g, r)).surrogate_tests > 0
        allowance = sysmor.norms._ROUNDOFF_ALLOWANCE * g.n * np.finfo(float).eps
        g.__dict__["_reachability"] = GramianResult(
            g._reachability.P, 2.0 * allowance
        )
        res = linf_norm(subtract(g, r))
        assert res.surrogate_tests == 0 and res.certified
        raw = _raw_error(g, r)
        assert res.gamma >= grid_gains(raw, oracle_grid(raw)).max()

    def test_no_surrogate_on_a_residual_that_measured_nothing(self):
        # A NaN residual fails the gate, as one above the allowance does.
        g = mass_chain(0, 40, inputs=(0,), outputs=(39,))
        r, _ = balanced_truncate(g, 12)
        err = subtract(g, r)
        gamma_lb = linf_norm(err).gamma
        assert sysmor.norms._surrogate(err, gamma_lb, 1e-6) is not None
        g.__dict__["_observability"] = GramianResult(g._observability.P, math.nan)
        assert sysmor.norms._surrogate(err, gamma_lb, 1e-6) is None

    @pytest.mark.parametrize("driver", [reduce, reduce_lowrank])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chain_records_are_sound(self, seed, driver, monkeypatch):
        # One force, two positions: the low-rank driver works on the dual,
        # whose balancing transform is the model's with the roles swapped.
        g = mass_chain(seed, 30, inputs=(0,), outputs=(14, 29))
        real, results = sysmor.sysaaa.linf_norm, []

        def recorded(err, rel_tol=1e-6):
            results.append(real(err, rel_tol))
            return results[-1]

        monkeypatch.setattr(sysmor.sysaaa, "linf_norm", recorded)
        _, report = driver(g, StoppingOptions(max_iterations=8))
        assert sum(res.surrogate_tests for res in results) > 0
        for rec, iterate in zip(report.records, report.iterates, strict=True):
            _check(g, iterate.sys, rec.order, rec.linf_error, rec.h2_metric)


class TestH2Metric:
    def test_first_order_closed_form(self):
        # ||1/(s+1)||_2 = 1/sqrt(2).
        assert h2_error_metric(FIRST_ORDER) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_zero_system(self):
        assert h2_error_metric(static_gain(np.zeros((2, 3)))) == 0.0

    def test_feedthrough_rejected(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(NonzeroFeedthrough):
            h2_error_metric(sys)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(46)
        sys = random_stable(rng, n=6, q=2, p=2)
        T = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        Ti = np.linalg.inv(T)
        transformed = StateSpace(Ti @ sys.A @ T, Ti @ sys.B, sys.C @ T, sys.D)
        assert h2_error_metric(transformed) == pytest.approx(h2_error_metric(sys), rel=1e-9)

    def test_quadrature_oracle(self):
        # ||G||_2^2 = (1/pi) * integral_0^inf ||G(jw)||_F^2 dw.
        rng = np.random.default_rng(47)
        sys = random_stable(rng, n=5, q=2, p=2)

        def integrand(omega):
            return np.linalg.norm(eval_freq(sys, omega), "fro") ** 2

        integral, _ = quad_vec(integrand, 0.0, np.inf)
        assert h2_error_metric(sys) ** 2 == pytest.approx(integral / math.pi, rel=1e-6)
