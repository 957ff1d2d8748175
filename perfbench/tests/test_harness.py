"""Tests of the benchmark harness itself, on tiny models.

    python3 -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sysmor
from sysmor import StateSpace, StoppingOptions, balanced_truncate, reduce
from sysmor import format_model

from perfbench import models, oracle, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]


def test_models_follow_the_seed():
    a = models.chain_siso(3, masses=4)
    b = models.chain_siso(3, masses=4)
    c = models.chain_siso(4, masses=4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    m1 = models.lightly_damped_modal(1, modes=5)
    m2 = models.lightly_damped_modal(2, modes=5)
    assert m1[0].shape == (10, 10) and m1[1].shape == (10, 3)
    assert m1[2].shape == (6, 10) and not np.array_equal(m1[1], m2[1])


def test_jitter_stays_near_the_nominal_chain():
    A, B, C, D = models.mass_spring_chain(
        0, 4, inputs=(0,), outputs=(3,), jitter=0.0
    )
    K = 100.0 * (2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1))
    assert np.allclose(A[4:, :4], -K)
    assert np.allclose(A[4:, 4:], -0.2 * np.eye(4) - 0.01 * K)
    Aj = models.mass_spring_chain(0, 4, inputs=(0,), outputs=(3,), jitter=1e-3)[0]
    assert np.max(np.abs(Aj - A)) <= 3e-3 * np.max(np.abs(A))


def test_oracle_response_matches_library():
    abcd = models.lightly_damped_modal(0, modes=4)
    G = StateSpace(*abcd)
    omegas = np.array([0.0, 0.7, 3.0, 40.0])
    grid = oracle.grid_response(abcd, omegas)
    for w, resp in zip(omegas, grid):
        assert np.allclose(resp, sysmor.eval_freq(G, w), rtol=1e-10, atol=1e-12)
        assert np.allclose(resp, oracle.response(abcd, w), rtol=1e-10, atol=1e-12)


def test_oracle_hankel_values_match_balanced_truncation():
    abcd = models.lightly_damped_modal(0, modes=6)
    _, hsv = balanced_truncate(StateSpace(*abcd), 2)
    assert np.allclose(oracle.hankel_singular_values(abcd), hsv, rtol=1e-8)


def test_oracle_rejects_understated_error_and_missed_sample():
    abcd = models.chain_siso(0, masses=4)
    interp, report = reduce(StateSpace(*abcd), StoppingOptions(max_iterations=2))
    R = oracle.matrices(interp.sys)
    linf = report.final_record.linf_error
    support = [pt.omega for pt in interp.support]
    assert oracle.check_certified(abcd, R, linf, support) <= linf
    oracle.check_interpolates(abcd, R, support)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_certified(abcd, R, 0.9 * linf, support)
    wrong = (R[0], R[1], R[2], R[3] + 1e-3)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_interpolates(abcd, wrong, support)


def test_oracle_parses_model_files(tmp_path):
    abcd = models.lightly_damped_modal(0, modes=2)
    path = tmp_path / "m.ss"
    path.write_text(format_model(StateSpace(*abcd)))
    assert all(np.array_equal(a, b)
               for a, b in zip(oracle.parse_model_file(path), abcd))
    csv = tmp_path / "s.csv"
    csv.write_text("a,b,c,d\n" + "1,2,3,4\n" * 3)
    oracle.check_sigma_csv(csv, rows=3)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_sigma_csv(csv, rows=4)


TINY = [
    workloads.ReduceChain270(masses=6),
    workloads.CliSiso120(masses=6),
    workloads.CompareModal270(modes=8),
]


@pytest.mark.parametrize("wl", TINY, ids=[w.name for w in TINY])
def test_tiny_workloads_pass_their_checks(wl, tmp_path):
    state = wl.setup(0, str(tmp_path))
    out = wl.outcome(state, wl.run(state, 0))
    assert out.self_problems(wl.expected) == []
    assert wl.check(state, out) == []
    again = wl.outcome(state, wl.run(state, 1))
    assert again.fingerprint() == out.fingerprint()


@pytest.mark.parametrize("wl", TINY, ids=[w.name for w in TINY])
def test_traced_run_matches_and_restores(wl, tmp_path):
    state = wl.setup(0, str(tmp_path))
    plain = wl.outcome(state, wl.run(state, 0))
    original = sysmor.norms.eval_freq
    tr = tracer.Tracer()
    tr.install()
    try:
        assert sysmor.norms.eval_freq is not original
        assert sysmor.eval_freq is sysmor.norms.eval_freq
        traced = wl.outcome(state, wl.run(state, 1))
    finally:
        tr.uninstall()
    assert sysmor.norms.eval_freq is original
    assert traced.fingerprint() == plain.fingerprint()
    assert tr.reduce_steps and tr.invariant_violations() == []
    assert tr.absent == []
    m = tr.layer_metrics()
    assert m["norms.linf_norm.probes"] <= m["statespace.eval_freq.calls"]
    assert m["norms.linf_norm.calls"] >= 1


def test_invariants_count_linf_calls_per_reduce(tmp_path):
    wl = workloads.ReduceChain270(masses=6)
    state = wl.setup(0, str(tmp_path))
    tr = tracer.Tracer()
    tr.install()
    try:
        wl.run(state, 0)
    finally:
        tr.uninstall()
    m = tr.layer_metrics()
    assert m["norms.linf_norm.calls"] == wl.iterations + 1
    assert m["sysaaa.assemble_error_system.calls"] == wl.iterations
    assert m["sysaaa.block_solve_ratio"] == pytest.approx(
        wl.iterations / sum(range(1, wl.iterations + 1))
    )
    tr.reduce_steps[0] = (tr.reduce_steps[0][0], wl.iterations + 1)
    assert len(tr.invariant_violations()) == 2


def test_missing_binding_is_reported_absent(monkeypatch):
    monkeypatch.setitem(
        tracer.EXPECTED_BINDINGS, "norms.no_such_function", ("sysmor.norms",)
    )
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["sysmor.norms.no_such_function"]


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "cli-siso120", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_unknown_workload_is_an_error():
    done = _bench(ROOT, "--workload", "nope", "--seed", "0", "--seconds", "1")
    assert done.returncode != 0
    assert "choose from" in done.stderr
