"""The dense kernels: the Lyapunov solve, the symmetric eigensolve of
``solve_weights``, the SVD a ``SupportPoint`` factors its sample by, the
in-place Hamiltonian eigensolve, and the LAPACK routines, block-diagonal
stacking and sorted distinct values the package runs on."""

import ctypes
import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack, solve_continuous_lyapunov, solve_sylvester

from sysmor import (
    DimensionMismatch,
    IllPosedLyapunov,
    RankOutOfRange,
    StateSpace,
    SupportPoint,
    dual,
    solve_lyapunov,
    solve_weights,
)
from sysmor import numkernels
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


# A run of the package in a fresh interpreter: a small reduction to R, a
# small compare of balanced truncation and lowrank-aaa (whose balanced
# orders' first level tests the worker thread solves), the L-infinity norm
# of the dual of the error system G - R (which factors the stacked A) and
# both its Gramians (each assembled from its operands' Gramians and one
# cross block).
_REDUCE = """
import sysmor, sysmor.cli
from oracles import mass_chain
model = mass_chain(0, 4, [0], [3])
reduced, report = sysmor.reduce(model, sysmor.StoppingOptions(max_iterations=3))
assert reduced.order > 0 and len(report.records) == 4
entries = sysmor.cli.compare_methods(
    model, ["balanced", "lowrank-aaa"], 3, sysmor.StoppingOptions()
)
assert {e["method"] for e in entries} == {"balanced", "lowrank-aaa"}
err = sysmor.subtract(model, reduced.sys)
norm = sysmor.linf_norm(sysmor.dual(err))
gramians = [sysmor.solve_lyapunov(m).P for m in (err, sysmor.dual(err))]
"""


def _fresh(*parts: str, fallback: bool = False) -> subprocess.CompletedProcess:
    """The code ``parts``, each dedented, run in turn by a fresh interpreter
    that imports ``sysmor`` from this checkout's ``src`` (and the test
    oracles); with ``fallback``, ``fallback/sitecustomize.py``, first on
    its path, hides numpy's ``scipy_*`` symbols from ctypes at startup."""
    here = Path(__file__).resolve().parent
    dirs = ([here / "fallback"] if fallback else []) + [here.parent / "src", here]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, dirs)),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", "\n".join(map(textwrap.dedent, parts))],
        env=env, capture_output=True, text=True, timeout=120,
    )


# What ``_REDUCE`` ran, as one JSON line: the records of its reduction,
# the entries of its compare without their reduced models, the two
# Gramians of G - R and the norm of its dual.
_RECORDS = """
import json
print(json.dumps({
    "records": [record.to_dict() for record in report.records],
    "entries": [{k: v for k, v in e.items() if k != "system"} for e in entries],
    "gramian": gramians[0].tolist(),
    "observability": gramians[1].tolist(),
    "linf": [norm.gamma, norm.omega_peak],
}))
"""

# Bound on ``dtrsyl`` against scipy's own build, relative to the solution's
# largest entry: the two OpenBLAS builds differ at roundoff (4.2e-15 on the
# seeded 50 x 50 case below).
_DTRSYL_BUILD_RTOL = 1e-13

_BOUND = numkernels._dgees is not None
needs_numpy_lapack = pytest.mark.skipif(
    not _BOUND, reason="numpy's LAPACK exports no scipy_dgees_64_"
)

# The scipy-openblas that numpy's wheels bundle from 2.0 on, whose symbols
# numkernels binds; the wheels of numpy 1.x bundle an OpenBLAS that names
# its routines otherwise.
_SHIPS_SCIPY_OPENBLAS = any(
    (Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("libscipy_openblas64_*")
)


def _chain_mimo_A() -> np.ndarray:
    """The state matrix of the benchmark's 270-state chain at seed 0."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "models.py"
    spec = importlib.util.spec_from_file_location("_perfbench_models", path)
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    return models.chain_mimo(0)[0]


def _sylvester_residual(a, b, c, x, scale, trana, tranb) -> float:
    """||op(a) x + x op(b) - scale c||_F relative to the terms' sizes."""
    op_a = a.T if trana == "T" else a
    op_b = b.T if tranb == "T" else b
    res = np.linalg.norm(op_a @ x + x @ op_b - scale * c)
    size = (np.linalg.norm(a) + np.linalg.norm(b)) * np.linalg.norm(x)
    return res / (size + scale * np.linalg.norm(c))


class TestLapackRoutines:
    @pytest.mark.skipif(
        not _SHIPS_SCIPY_OPENBLAS, reason="numpy ships no libscipy_openblas64_"
    )
    def test_binds_all_three_on_numpys_openblas(self):
        # a renamed symbol would fall back to np.linalg.eigvals and scipy's
        # LAPACK unseen: every other test passes on either path
        done = _fresh("""
            from sysmor import numkernels
            for name in ("_dgeev", "_dgees", "_dtrsyl"):
                assert getattr(numkernels, name) is not None, name
        """)
        assert done.returncode == 0, done.stderr

    def test_import_and_run_load_no_scipy_linalg(self):
        # numpy's OpenBLAS runs all three routines: no scipy module and one
        # OpenBLAS in the process (where numpy binds none of them, only
        # scipy's compiled wrapper module, without scipy.linalg)
        done = _fresh("""
            import sys
        """, _REDUCE, """
            loaded = sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
            bound = sysmor.numkernels._dgees is not None
            assert loaded == ([] if bound else ["scipy.linalg._flapack"]), loaded
            if bound and sys.platform == "linux":
                with open("/proc/self/maps") as maps:
                    paths = {line.split()[-1] for line in maps if "openblas" in line}
                assert len(paths) == 1, paths
        """)
        assert done.returncode == 0, done.stderr

    def test_loaded_after_scipy_linalg(self):
        # the fallback calls the very module scipy.linalg has loaded
        done = _fresh("""
            from scipy.linalg import _flapack
            import sysmor
            assert sysmor.numkernels._flapack is _flapack
        """, _REDUCE, fallback=True)
        assert done.returncode == 0, done.stderr
        assert numkernels._scipy_flapack() is lapack._flapack

    def test_bit_identical_to_scipy_lapack(self):
        # dgees with scipy's workspace size writes scipy's bytes; dtrsyl's
        # bits depend on the LAPACK build, so it is checked by its residual
        # and its distance from scipy's
        rng = np.random.default_rng(0)
        A, B, C = (rng.standard_normal((50, 50)) for _ in range(3))
        for M in (A, _chain_mimo_A()):
            t, _, wr, wi, z, _, info = lapack.dgees(lambda re, im: 0, M)
            assert info == 0
            assert [F.tobytes() for F in numkernels.dgees(M)] == [
                t.tobytes(), z.tobytes(), (wr + 1j * wi).tobytes()
            ]
        T, S = (numkernels.dgees(M)[0] for M in (A, B))
        x = np.asfortranarray(C)
        scale, info = numkernels.dtrsyl(T, S, x, "N", "T")
        x_s, scale_s, info_s = lapack.dtrsyl(T, S, C, tranb="T")
        assert (scale, info) == (scale_s, info_s) == (1.0, 0)
        assert _sylvester_residual(T, S, C, x, scale, "N", "T") < 1e-14
        assert np.abs(x - x_s).max() <= _DTRSYL_BUILD_RTOL * np.abs(x_s).max()

    def test_falls_back_to_scipy_linalg_lapack(self):
        # numpy's LAPACK without the symbols: np.linalg.eigvals, and scipy's
        # routines from its compiled module alone, behind the same signatures
        ran = _fresh(_REDUCE, _RECORDS)
        assert ran.returncode == 0, ran.stderr
        done = _fresh("""
            import sys
            import sysmor
            from sysmor import numkernels
            assert numkernels._dgeev is numkernels._dgees is numkernels._dtrsyl is None
        """, _REDUCE, """
            loaded = [k for k in sys.modules if k.split(".")[0] == "scipy"]
            assert loaded == ["scipy.linalg._flapack"], loaded
        """, _RECORDS, fallback=True)
        assert done.returncode == 0, done.stderr
        # the same run, up to scipy's dtrsyl build in the Gramians and the
        # H2 metric
        ours, theirs = json.loads(ran.stdout), json.loads(done.stdout)
        for part in ("records", "entries"):
            rows, other = ours[part], theirs[part]
            assert rows and [r.keys() for r in rows] == [t.keys() for t in other], part
            for r, t in zip(rows, other):
                for key, value in r.items():
                    if isinstance(value, float):
                        assert math.isclose(value, t[key], rel_tol=1e-12), key
                    else:
                        assert value == t[key], key
        for part in ("gramian", "observability"):
            P, P_fallback = (np.array(run[part]) for run in (ours, theirs))
            assert P.size and np.linalg.norm(P - P_fallback) <= 1e-12 * np.linalg.norm(P)
        for value, other in zip(ours["linf"], theirs["linf"]):
            assert math.isclose(value, other, rel_tol=1e-12)

    def test_binds_all_three_or_none(self):
        done = _fresh("""
            import sitecustomize
            sitecustomize.PREFIX = "scipy_dtrsyl_64_"
            from sysmor import numkernels
            assert numkernels._dgeev is numkernels._dgees is None
            assert numkernels._flapack is not None
        """, fallback=True)
        assert done.returncode == 0, done.stderr

    def test_without_scipy_import_fails_plainly(self):
        # with numpy's routines the package needs no scipy; without them
        # the import names what is missing
        if _BOUND:
            bound = _fresh("""
                import sys
                sys.modules["scipy"] = None
            """, _REDUCE)
            assert bound.returncode == 0, bound.stderr
        done = _fresh("""
            import sys
            sys.modules["scipy"] = None
            try:
                import sysmor
            except ImportError as exc:
                assert "scipy.linalg._flapack" in str(exc), exc
            else:
                raise AssertionError("imported without scipy")
        """, fallback=True)
        assert done.returncode == 0, done.stderr

    def test_run_loads_no_numpy_ma(self):
        # np.unique imports numpy.ma on its first call; _sorted_unique does
        # not (numpy 1.x imports numpy.ma itself)
        done = _fresh("""
            import sys
            import numpy
            preloaded = "numpy.ma" in sys.modules
        """, _REDUCE, """
            assert preloaded or "numpy.ma" not in sys.modules
        """)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize(
        "values",
        [[3.0, 1.0, 3.0, 2.0, 1.0], [0.0, -0.0, 1.0], [-0.0, 0.0, -0.0, 2.0],
         [5.0], []],
    )
    def test_sorted_unique_writes_np_unique_bytes(self, values):
        x = np.array(values, dtype=float)
        ours, theirs = numkernels._sorted_unique(x), np.unique(x)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()

    def test_sorted_unique_on_seeded_duplicates(self):
        rng = np.random.default_rng(40)
        for size in (2, 17, 300, 5000):
            x = rng.integers(-20, 20, size) / 4.0
            x[rng.integers(size, size=size // 3)] *= -0.0  # both signed zeros
            assert numkernels._sorted_unique(x).tobytes() == np.unique(x).tobytes()

    @pytest.mark.parametrize(
        "shapes",
        [[(3, 3)], [(2, 2), (0, 0), (3, 3)], [(2, 3), (0, 2), (3, 0), (1, 1)],
         [(0, 0)], [(0, 0), (0, 0)]],
    )
    def test_block_diag_writes_scipys_bytes(self, shapes):
        rng = np.random.default_rng(len(shapes))
        blocks = [rng.standard_normal(shape) for shape in shapes]
        ours, theirs = numkernels.block_diag(*blocks), sla.block_diag(*blocks)
        assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
        assert ours.flags.c_contiguous and ours.tobytes() == theirs.tobytes()


def _overwritten(M: np.ndarray) -> np.ndarray:
    """The spectrum ``_eigvals_overwrite`` gives on a Fortran copy of M."""
    return numkernels._eigvals_overwrite(np.asfortranarray(M, dtype=float))


def _read_only(M: np.ndarray) -> np.ndarray:
    M = np.asfortranarray(M)
    M.setflags(write=False)
    return M


def _schur_pair(seed: int, m: int = 7, n: int = 4):
    """Quasi-triangular real Schur factors of seeded m x m and n x n
    matrices, and an m x n right side."""
    rng = np.random.default_rng(seed)
    A, B, C = (rng.standard_normal(shape) for shape in ((m, m), (n, n), (m, n)))
    return numkernels.dgees(A)[0], numkernels.dgees(B)[0], C


class TestLapackWrappers:
    """``dgees`` and ``dtrsyl`` have the one narrow signature each the
    package calls, on numpy's OpenBLAS and on scipy's fallback alike."""

    def test_overwrite_c_writes_into_a_fortran_float64_c(self):
        T, S, C = _schur_pair(50)
        c = np.asfortranarray(C)
        scale, info = numkernels.dtrsyl(T, S, c, "N", "N")
        assert info == 0
        assert _sylvester_residual(T, S, C, c, scale, "N", "N") < 1e-14

    @pytest.mark.parametrize(
        "make",
        [np.ascontiguousarray, _read_only, lambda C: C.astype(np.float32, order="F")],
    )
    def test_any_other_c_is_refused(self, make):
        T, S, C = _schur_pair(51)
        c = make(C)
        before = c.copy()
        with pytest.raises(ValueError, match="Fortran-ordered"):
            numkernels.dtrsyl(T, S, c, "N", "N")
        assert np.array_equal(c, before)

    def test_c_ordered_operands_are_refused(self):
        T, S, C = _schur_pair(53)
        for a, b in ((np.ascontiguousarray(T), S), (T, np.ascontiguousarray(S))):
            with pytest.raises(ValueError, match="Fortran-ordered"):
                numkernels.dtrsyl(a, b, np.asfortranarray(C), "N", "N")

    @pytest.mark.parametrize("trana, tranb", [("N", "T"), ("N", "N"), ("T", "N")])
    def test_transposes_the_package_uses(self, trana, tranb):
        # N/T: solve_lyapunov; N or T with N: _solve_chunk
        T, S, C = _schur_pair(52, m=30, n=12)
        x = np.asfortranarray(C)
        scale, info = numkernels.dtrsyl(T, S, x, trana, tranb)
        x_s, scale_s, info_s = lapack.dtrsyl(T, S, C, trana=trana, tranb=tranb)
        assert (scale, info) == (scale_s, info_s) == (1.0, 0)
        assert _sylvester_residual(T, S, C, x, scale, trana, tranb) < 1e-14
        assert np.abs(x - x_s).max() <= _DTRSYL_BUILD_RTOL * np.abs(x_s).max()

    @needs_numpy_lapack
    @pytest.mark.parametrize("name", ["_dgees", "_dtrsyl"])
    def test_bindings_release_the_gil(self, name):
        # as _dgeev's (TestEigvalsOverwrite): CDLL functions, not PyDLL ones
        fn = getattr(numkernels, name)
        assert not fn._flags_ & ctypes._FUNCFLAG_PYTHONAPI
        assert fn._flags_ & ctypes._FUNCFLAG_CDECL

    @needs_numpy_lapack
    def test_dgees_failure_raises_schur_error(self, monkeypatch):
        bound = numkernels._dgees

        def fails(*args):
            bound(*args)
            args[14].value = 1  # INFO

        monkeypatch.setattr(numkernels, "_dgees", fails)
        A = np.random.default_rng(54).standard_normal((6, 6))
        model = StateSpace(A, np.ones((6, 1)), np.ones((1, 6)), np.zeros((1, 1)))
        with pytest.raises(np.linalg.LinAlgError, match="Schur factorization"):
            model._schur


class TestEigvalsOverwrite:
    """The in-place ``dgeev`` of the Hamiltonian level tests gives what
    ``np.linalg.eigvals`` gives, bytes, dtype and errors included."""

    @pytest.mark.parametrize("n", [1, 2, 50, 232, 564])
    @pytest.mark.parametrize("spectrum", ["complex", "real"])
    def test_bit_identical_to_numpy(self, n, spectrum):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n))
        if spectrum == "real":
            M = np.triu(M)
        elif n == 2:
            M = np.array([[0.5, 2.0], [-3.0, 0.25]])
        ours, theirs = _overwritten(M), np.linalg.eigvals(M)
        kind = complex if spectrum == "complex" and n > 1 else float
        assert ours.dtype == theirs.dtype == kind
        assert ours.tobytes() == theirs.tobytes()

    def test_overwrites_in_place(self):
        M = np.asfortranarray(np.random.default_rng(41).standard_normal((30, 30)))
        H = M.copy(order="F")
        assert numkernels._eigvals_overwrite(H).tobytes() == (
            np.linalg.eigvals(M).tobytes()
        )
        if numkernels._dgeev is None:
            # the documented fallback: np.linalg.eigvals solves a copy
            assert np.array_equal(H, M)
        else:
            assert not np.array_equal(H, M)  # dgeev's Schur factor

    def test_finiteness_check_forms_no_mask_of_H(self):
        # At N = 564, the largest level test of compare-modal270, the
        # traced peak is dgeev's workspace and the spectrum, about
        # 0.07 H.nbytes; a boolean mask of H would add 0.125 H.nbytes.
        if numkernels._dgeev is None:
            pytest.skip("numpy's LAPACK exports no scipy_dgeev_64_")
        H = np.asfortranarray(np.random.default_rng(564).standard_normal((564, 564)))
        tracemalloc.start()
        try:
            numkernels._eigvals_overwrite(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * H.nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_as_numpy_refuses(self, bad):
        M = np.eye(4)
        M[2, 1] = bad
        with pytest.raises(np.linalg.LinAlgError) as theirs:
            np.linalg.eigvals(M)
        with pytest.raises(np.linalg.LinAlgError) as ours:
            _overwritten(M)
        assert str(ours.value) == str(theirs.value)

    def test_no_convergence_raises_numpys_error(self, monkeypatch):
        if numkernels._dgeev is None:
            pytest.skip("numpy's LAPACK exports no scipy_dgeev_64_")
        dgeev = numkernels._dgeev

        def fails(*args):
            dgeev(*args)
            if args[12].value > 0:  # the solve, not the workspace query
                args[13].value = 1

        monkeypatch.setattr(numkernels, "_dgeev", fails)
        with pytest.raises(np.linalg.LinAlgError) as theirs:
            np.linalg._linalg._raise_linalgerror_eigenvalues_nonconvergence(None, None)
        with pytest.raises(np.linalg.LinAlgError) as ours:
            _overwritten(np.diag([1.0, 2.0]))
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("spectrum", ["complex", "real"])
    def test_fallback_gives_the_same_bytes(self, monkeypatch, spectrum):
        M = np.random.default_rng(42).standard_normal((40, 40))
        if spectrum == "real":
            M = np.triu(M)
        bound = _overwritten(M)
        monkeypatch.setattr(numkernels, "_dgeev", None)
        fallback = _overwritten(M)
        assert fallback.dtype == bound.dtype
        assert fallback.tobytes() == bound.tobytes()

    @pytest.mark.parametrize(
        "make",
        [np.ascontiguousarray, lambda M: M.astype(np.float32, order="F"),
         lambda M: M.astype(complex, order="F"), lambda M: M[:, :3].copy(order="F"),
         lambda M: M.ravel(order="F"), _read_only],
    )
    def test_refuses_rather_than_copies(self, make):
        H = make(np.random.default_rng(43).standard_normal((4, 4)))
        before = H.copy()
        with pytest.raises(ValueError, match="writable float64 Fortran-ordered square"):
            numkernels._eigvals_overwrite(H)
        assert np.array_equal(H, before)

    def test_binding_releases_the_gil(self):
        # a CDLL function releases the GIL for its call; a PyDLL one holds it
        if numkernels._dgeev is None:
            pytest.skip("numpy's LAPACK exports no scipy_dgeev_64_")
        assert not numkernels._dgeev._flags_ & ctypes._FUNCFLAG_PYTHONAPI
        assert numkernels._dgeev._flags_ & ctypes._FUNCFLAG_CDECL


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

    @pytest.mark.parametrize("skip_self", [False, True])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_pair_minima_equal_the_dense_minima(self, n, skip_self):
        # the blocked scan of this pair test and of the L-infinity mirror
        # search, against all n x n sums at once (min is exact)
        rng = np.random.default_rng(n)
        a, b = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        b[::3] = -a[::3]  # pairs that sum to 0, on and off the diagonal
        b[1::3] = -a[::-1][1::3]
        dense = np.abs(a[:, None] + b[None, :])
        if skip_self:
            np.fill_diagonal(dense, np.inf)
        ours = numkernels._pair_minima(a, b, skip_self)
        assert ours.tobytes() == dense.min(axis=1).tobytes()

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

    def test_cross_block_refuses_other_input_counts(self):
        # The cross block needs equal input counts, and only those: a
        # different output count is solved, a different input count is
        # refused before any solve.
        rng = np.random.default_rng(39)
        g = random_stable(rng, n=4, q=2, p=2)
        narrow = random_stable(rng, n=3, q=2, p=1)
        assert solve_lyapunov(g, other=narrow).P.shape == (4, 3)
        with pytest.raises(DimensionMismatch, match="input counts"):
            solve_lyapunov(g, other=random_stable(rng, n=3, q=1, p=2))


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
