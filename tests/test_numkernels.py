"""The dense kernels: the Lyapunov solve, the symmetric eigensolve of
``solve_weights`` and the SVD a ``SupportPoint`` factors its sample by."""

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov, solve_sylvester

from sysmor import (
    IllPosedLyapunov,
    RankOutOfRange,
    StateSpace,
    SupportPoint,
    dual,
    solve_lyapunov,
    solve_weights,
)
from sysmor.numkernels import GramianResult
from sysmor.statespace import static_gain
from oracles import random_stable


def _with_input(A, B):
    """A model whose reachability equation is A P + P A^T = -B B^T."""
    A, B = np.atleast_2d(A), np.atleast_2d(B)
    return StateSpace(A, B, np.ones((1, A.shape[0])), np.zeros((1, B.shape[1])))


def _unstable_well_posed(rng, n):
    """A dense model with poles on both sides of the axis, no pair summing
    to ~0: the case the H2 metric meets for unstable iterates."""
    lam = np.diag([-1.0, -2.5, 0.7, 1.9])
    rot = np.array([[-0.4, 3.0], [-3.0, -0.4]])
    core = np.block([[lam, np.zeros((4, 2))], [np.zeros((2, 4)), rot]])
    V = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    A = V @ np.kron(np.eye(n // 6), core) @ np.linalg.inv(V)
    return StateSpace(A, rng.standard_normal((n, 2)),
                      rng.standard_normal((3, n)), np.zeros((3, 2)))


class TestSolveLyapunov:
    def test_residual_is_measured_at_any_scale(self):
        # ||B B^T||_F overflows at B ~ 1e150: the residual is measured on
        # the scaled equation, so it neither reads 0 nor NaN.
        sys = random_stable(np.random.default_rng(36), n=4, q=2, p=2)
        unit = solve_lyapunov(sys).residual
        huge = solve_lyapunov(StateSpace(sys.A, 1e150 * sys.B, sys.C, sys.D))
        assert np.isfinite(huge.P).all()
        assert 0.0 < huge.residual <= 10.0 * unit < 1e-13

    def test_scalar_closed_form(self):
        # a p + p a = -b^2 with a = -1, b = 1 gives p = 1/2.
        result = solve_lyapunov(_with_input([[-1.0]], [[1.0]]))
        assert isinstance(result, GramianResult)
        assert result.P[0, 0] == pytest.approx(0.5, rel=1e-14)
        assert result.residual <= 1e-14

    def test_diagonal_closed_form(self):
        # For A = diag(a_i), B = I the solution is P_ij = -delta_ij / (2 a_i).
        A = np.diag([-1.0, -2.0, -5.0])
        result = solve_lyapunov(_with_input(A, np.eye(3)))
        np.testing.assert_allclose(result.P, np.diag([0.5, 0.25, 0.1]), rtol=1e-13)

    def test_residual_small_for_dense_random(self):
        rng = np.random.default_rng(31)
        sys = random_stable(rng, n=50, q=3, p=3)
        for model in (sys, dual(sys)):
            result = solve_lyapunov(model)
            assert result.residual <= 1e-10
            # Gramians of a reachable, observable stable system are PSD.
            np.testing.assert_allclose(result.P, result.P.T, atol=1e-14)
            assert np.min(np.linalg.eigvalsh(result.P)) >= -1e-12 * np.trace(result.P)

    def test_mirrored_spectrum_rejected(self):
        # lambda = +1 and lambda = -1 sum to zero: operator is singular.
        with pytest.raises(IllPosedLyapunov):
            solve_lyapunov(_with_input(np.diag([1.0, -1.0]), np.eye(2)))

    def test_mirrored_pair_found_across_blocks(self):
        # The pair test runs in blocks of rows: -1 and +1 at the two ends
        # of a 130-state spectrum lie in different blocks.
        lam = -np.arange(1.0, 131.0)
        lam[-1] = 1.0
        with pytest.raises(IllPosedLyapunov):
            solve_lyapunov(_with_input(np.diag(lam), np.ones((130, 1))))

    def test_imaginary_axis_pole_rejected(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(IllPosedLyapunov):
            solve_lyapunov(_with_input(A, np.eye(2)))

    def test_overflow_refused_without_warnings(self):
        # B B^T overflows; the suite turns a leaked RuntimeWarning into an error.
        with pytest.raises(IllPosedLyapunov, match="non-finite"):
            solve_lyapunov(_with_input([[-1.0]], [[1e200]]))

    def test_empty_problem(self):
        result = solve_lyapunov(static_gain(np.ones((2, 1))))
        assert result.P.shape == (0, 0)
        assert result.residual == 0.0

    @pytest.mark.parametrize("dualized", [False, True])
    @pytest.mark.parametrize("kind", ["stable", "unstable"])
    def test_matches_scipy_reference(self, kind, dualized):
        rng = np.random.default_rng(37)
        if kind == "stable":
            sys = random_stable(rng, n=30, q=2, p=3)
        else:
            sys = _unstable_well_posed(rng, n=30)
        # The dual's reachability Gramian is the observability Gramian.
        A, F = (sys.A.T, sys.C.T) if dualized else (sys.A, sys.B)
        ref = solve_continuous_lyapunov(A, -F @ F.T)
        result = solve_lyapunov(dual(sys) if dualized else sys)
        assert result.residual <= 1e-10
        np.testing.assert_allclose(
            result.P, ref, rtol=0, atol=1e-10 * np.abs(ref).max()
        )

    @pytest.mark.parametrize("dualized", [False, True])
    def test_cross_block_matches_scipy_sylvester(self, dualized):
        # The off-diagonal block of the stacked system's Gramian, with an
        # unstable second model.
        rng = np.random.default_rng(38)
        g = random_stable(rng, n=20, q=2, p=3)
        r = _unstable_well_posed(rng, n=6)
        if dualized:
            g, r = dual(g), dual(r)
        ref = solve_sylvester(g.A, r.A.T, -g.B @ r.B.T)
        result = solve_lyapunov(g, other=r)
        assert result.P.shape == (20, 6)
        assert result.residual <= 1e-10
        np.testing.assert_allclose(
            result.P, ref, rtol=0, atol=1e-10 * np.abs(ref).max()
        )
        assert solve_lyapunov(g, other=static_gain(g.D)).P.shape == (20, 0)


class TestSymEig:
    """The eigensolve of ``solve_weights``: its selected eigenvalues
    ascend and its weight rows are the matching orthonormal
    eigenvectors of the symmetrized X."""

    def test_ascending_order_and_orthonormality(self):
        rng = np.random.default_rng(33)
        M = rng.standard_normal((8, 8))
        X = M @ M.T
        weight = solve_weights(X, 8)
        values, vectors = np.array(weight.selected_eigenvalues), weight.W.T
        assert np.all(np.diff(values) >= 0)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(X @ vectors, vectors * values, atol=1e-10)

    def test_known_spectrum(self):
        weight = solve_weights(np.diag([3.0, 1.0, 2.0]), 3)
        values = weight.selected_eigenvalues
        np.testing.assert_allclose(values, [1.0, 2.0, 3.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(weight.W), np.eye(3)[[1, 2, 0]], atol=1e-14)
        # A negative eigenvalue is below the zero threshold and skipped.
        weight = solve_weights(np.diag([3.0, -1.0, 2.0]), 2)
        np.testing.assert_allclose(weight.selected_eigenvalues, [2.0, 3.0], atol=1e-14)

    def test_slightly_asymmetric_input_symmetrized(self):
        X = np.array([[1.0, 1e-13], [0.0, 2.0]])
        weight = solve_weights(X, 2)
        np.testing.assert_allclose(weight.selected_eigenvalues, [1.0, 2.0], atol=1e-12)


class TestSvdTruncate:
    """The directions of a rank-r ``SupportPoint``: U U^H M is the best
    rank-r approximation of its sample M."""

    def test_factors_reconstruct_best_rank(self):
        rng = np.random.default_rng(34)
        M = rng.standard_normal((6, 4))
        U = SupportPoint(1.0, M, 2).U
        assert U.shape == (6, 2)
        np.testing.assert_allclose(U.T @ U, np.eye(2), atol=1e-12)
        # U spans the leading singular directions ...
        full = np.linalg.svd(M, compute_uv=False)
        kept = np.linalg.svd(U.T @ M, compute_uv=False)
        np.testing.assert_allclose(kept, full[:2], rtol=1e-10)
        # ... and Eckart-Young: the residual is the first discarded one.
        err = np.linalg.norm(M - U @ U.T @ M, 2)
        assert err == pytest.approx(full[2], rel=1e-10)

    def test_full_rank_reproduces_matrix(self):
        rng = np.random.default_rng(35)
        M = rng.standard_normal((3, 5))
        U = SupportPoint(1.0, M, 3).U
        np.testing.assert_allclose(U @ U.T @ M, M, atol=1e-12)

    def test_complex_input(self):
        rng = np.random.default_rng(36)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        U = SupportPoint(1.0, M, 4).U
        np.testing.assert_allclose(U @ U.conj().T @ M, M, atol=1e-12)

    def test_rank_bounds(self):
        M = np.ones((3, 2))
        with pytest.raises(RankOutOfRange):
            SupportPoint(1.0, M, 0)
        with pytest.raises(RankOutOfRange):
            SupportPoint(1.0, M, 3)
        # the one SVD also gives the numerical rank, for any rank
        assert SupportPoint(1.0, M).numerical_rank == 1
        assert SupportPoint(1.0, M, 2).numerical_rank == 1
