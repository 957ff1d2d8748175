"""End-to-end command-line runs: artifacts, table output, exit codes."""

import itertools
import json
import threading
import time
from sys import getswitchinterval, setswitchinterval
from types import SimpleNamespace

import numpy as np
import pytest

from sysmor import (
    DegenerateFactors,
    ImaginaryAxisPoles,
    LinfResult,
    NonRealSampleAtZero,
    ResidualImaginaryPoles,
    SingularW0,
    StateSpace,
    StoppingOptions,
    eval_freq,
    read_model,
    reduce_lowrank,
    write_model,
)
import sysmor.cli
import sysmor.numkernels
import sysmor.statespace
from sysmor.cli import _write_sigma_csv, main
from oracles import random_stable, tf_eval


@pytest.fixture
def model_path(tmp_path):
    rng = np.random.default_rng(101)
    sys = random_stable(rng, n=8, q=2, p=2)
    path = tmp_path / "plant.ss"
    write_model(sys, path)
    return path


@pytest.fixture
def siso_path(tmp_path):
    rng = np.random.default_rng(102)
    sys = random_stable(rng, n=8, q=1, p=1)
    path = tmp_path / "siso.ss"
    write_model(sys, path)
    return path


def _highpass(tmp_path):
    """Model file of s/(s+1) = 1 - 1/(s+1)."""
    path = tmp_path / "highpass.ss"
    write_model(StateSpace([[-1.0]], [[1.0]], [[-1.0]], [[1.0]]), path)
    return path


class TestReduceCommand:
    def test_default_run_writes_reduced_model(self, model_path, capsys):
        code = main(["reduce", str(model_path), "--iters", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "method: sys-aaa" in out
        assert "final: order" in out
        reduced = read_model(str(model_path) + ".reduced")
        assert reduced.q == 2 and reduced.p == 2

    def test_all_artifacts(self, model_path, tmp_path, capsys):
        out_model = tmp_path / "red.ss"
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "sigma.csv"
        code = main(
            [
                "reduce", str(model_path),
                "--iters", "3",
                "--output", str(out_model),
                "--report-json", str(out_json),
                "--sigma-csv", str(out_csv),
            ]
        )
        assert code == 0
        _ = capsys.readouterr()
        reduced = read_model(out_model)
        doc = json.loads(out_json.read_text())
        assert doc["method"] == "sys-aaa"
        assert doc["input"] == str(model_path)
        assert doc["output"] == str(out_model)
        assert doc["records"][0]["action"] == "init"
        assert all(rec["certified"] for rec in doc["records"])
        assert doc["records"][-1]["order"] >= 0
        assert "iterates" not in doc
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "omega_rad_s,sigma_max_G,sigma_max_R,sigma_max_error"
        assert len(lines) == 2001
        model = read_model(model_path)
        for line in lines[1::250]:
            omega, *gains = (float(v) for v in line.split(","))
            G = tf_eval(model.A, model.B, model.C, model.D, 1j * omega)
            R = tf_eval(reduced.A, reduced.B, reduced.C, reduced.D, 1j * omega)
            expected = [np.linalg.norm(M, 2) for M in (G, R, G - R)]
            np.testing.assert_allclose(gains, expected, rtol=1e-8)
        # reported orders match the written model
        best = doc["best_iteration"]
        rec = next(r for r in doc["records"] if r["iteration"] == best)
        assert rec["order"] == reduced.n

    def test_sigma_csv_solves_each_model_once(self, tmp_path, monkeypatch):
        # The error column is G - R from the two responses: the grid is
        # solved once on each model and never on the stacked states.
        rng = np.random.default_rng(103)
        model = random_stable(rng, n=8, q=2, p=2)
        reduced = random_stable(rng, n=3, q=2, p=2)
        solved = []
        solve = sysmor.statespace._solve_response

        def counted(sys, omegas):
            solved.extend([sys.n] * omegas.size)
            return solve(sys, omegas)

        monkeypatch.setattr(sysmor.statespace, "_solve_response", counted)
        _write_sigma_csv(tmp_path / "sigma.csv", model, reduced, points=40)
        assert sorted(solved) == [3] * 40 + [8] * 40

    def test_static_model_sigma_csv_uses_default_grid(self, tmp_path, capsys):
        # No poles to centre the grid on: it spans 1e-2 to 1e2 rad/s.
        path = tmp_path / "static.ss"
        path.write_text("ss 0 1 1\n2.5\n")
        out_csv = tmp_path / "sigma.csv"
        assert main(["reduce", str(path), "--sigma-csv", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()[1:]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert rows.shape == (2000, 4)
        assert rows[0, 0] == pytest.approx(1e-2, rel=1e-10)
        assert rows[-1, 0] == pytest.approx(1e2, rel=1e-10)
        assert np.all(np.diff(rows[:, 0]) > 0)
        np.testing.assert_array_equal(rows[:, 1:], [[2.5, 2.5, 0.0]] * 2000)

    def test_balanced_method(self, model_path, tmp_path, capsys):
        out_model = tmp_path / "bal.ss"
        code = main(
            [
                "reduce", str(model_path),
                "--method", "balanced",
                "--order", "4",
                "--output", str(out_model),
            ]
        )
        assert code == 0
        assert "method: balanced" in capsys.readouterr().out
        assert read_model(out_model).n == 4

    def test_balanced_requires_order(self, model_path, capsys):
        code = main(["reduce", str(model_path), "--method", "balanced"])
        assert code == 3
        assert "error[DimensionMismatch]" in capsys.readouterr().err

    def test_lowrank_method(self, model_path, tmp_path, capsys):
        out_model = tmp_path / "lr.ss"
        code = main(
            [
                "reduce", str(model_path),
                "--method", "lowrank-aaa",
                "--iters", "3",
                "--output", str(out_model),
            ]
        )
        assert code == 0
        assert "method: lowrank-aaa" in capsys.readouterr().out
        assert read_model(out_model).q == 2

    def test_wide_model_notes_transposition(self, tmp_path, capsys):
        rng = np.random.default_rng(103)
        sys = random_stable(rng, n=6, q=2, p=3)
        path = tmp_path / "wide.ss"
        write_model(sys, path)
        code = main(
            ["reduce", str(path), "--method", "lowrank-aaa", "--iters", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "transposed internally" in out
        assert read_model(str(path) + ".reduced").p == 3

    def test_lowrank_saturates_at_numerical_rank(self, tmp_path, capsys):
        # Parallel input columns make every sample G(jw) rank 1, so a peak
        # back at a rank-1 point has nothing left to grow: the run ends as
        # saturated and keeps its best iterate instead of failing.
        rng = np.random.default_rng(5)
        base = random_stable(rng, n=8, q=1, p=2)
        b = base.B
        path = tmp_path / "parallel.ss"
        write_model(
            StateSpace(base.A, np.hstack([b, 2.0 * b]), base.C, np.zeros((2, 2))),
            path,
        )
        out_json = tmp_path / "report.json"
        code = main(
            [
                "reduce", str(path), "--method", "lowrank-aaa",
                "--min-dist", "1e6", "--iters", "6",
                "--report-json", str(out_json),
            ]
        )
        assert code == 0
        _ = capsys.readouterr()
        doc = json.loads(out_json.read_text())
        assert doc["termination"] == "saturated support point"
        errors = [rec["linf_error"] for rec in doc["records"]]
        assert doc["best_iteration"] == int(np.argmin(errors))
        assert all(max(rec["ranks"], default=1) == 1 for rec in doc["records"])

    def test_axis_pole_iterate_reports_strict_json(
        self, tmp_path, capsys, monkeypatch
    ):
        # An iterate whose error system has imaginary-axis poles (here the
        # third, by wrapping linf_norm) ends the run with an infinite
        # error: the report holds null there, and no constant that strict
        # JSON lacks.
        import sysmor.sysaaa as mod

        real, calls = mod.linf_norm, itertools.count()

        def axis_poles_at_third(err, rel_tol=1e-6):
            if next(calls) == 3:
                raise ImaginaryAxisPoles("injected")
            return real(err, rel_tol)

        monkeypatch.setattr(mod, "linf_norm", axis_poles_at_third)
        out_json = tmp_path / "report.json"
        code = main(
            ["reduce", str(_highpass(tmp_path)), "--report-json", str(out_json)]
        )
        assert code == 0
        _ = capsys.readouterr()

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(out_json.read_text(), parse_constant=reject)
        assert doc["termination"] == "interpolant has imaginary-axis poles"
        assert doc["records"][-1]["linf_error"] is None
        assert all(rec["linf_error"] is not None for rec in doc["records"][:-1])

    def test_final_line_marks_uncertified_bound(
        self, tmp_path, capsys, monkeypatch
    ):
        # The returned iterate has a bound no level test proved (every
        # bound is marked so, by wrapping linf_norm): returned without
        # keep_best, the final line carries the table's "~" mark.
        import sysmor.sysaaa as mod

        real = mod.linf_norm

        def uncertified(err, rel_tol=1e-6):
            res = real(err, rel_tol)
            return LinfResult(res.gamma, res.omega_peak, res.iterations, False)

        monkeypatch.setattr(mod, "linf_norm", uncertified)
        code = main(
            ["reduce", str(_highpass(tmp_path)), "--iters", "3", "--no-keep-best"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        returned = int(
            next(ln for ln in lines if ln.startswith("returned iterate")).split()[-1]
        )
        assert returned == 3
        cell = lines[2 + returned].split()[4]
        assert cell.endswith("~")
        final = next(ln for ln in lines if ln.startswith("final:"))
        assert f"linf_error {cell}," in final

    def test_weight_failure_exits_cleanly(self, model_path, tmp_path, monkeypatch):
        # A weight solve that fails mid-run is a report termination, not
        # a solver error: exit 0 and the reason in the JSON report.
        import sysmor.sysaaa as mod

        real, calls = mod.solve_weights, itertools.count(1)

        def failing(X, p):
            if next(calls) == 2:
                raise SingularW0("injected")
            return real(X, p)

        monkeypatch.setattr(mod, "solve_weights", failing)
        out_json = tmp_path / "report.json"
        code = main(["reduce", str(model_path), "--report-json", str(out_json)])
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["termination"] == "weight computation failed"
        assert "SingularW0: injected" in doc["warnings"]
        assert len(doc["records"]) == 2

    def test_hz_display(self, model_path, capsys):
        code = main(["reduce", str(model_path), "--iters", "2", "--hz"])
        assert code == 0
        assert "omega_hz" in capsys.readouterr().out

    def test_deterministic_reruns(self, model_path, tmp_path, capsys):
        paths = []
        for tag in ("a", "b"):
            out_model = tmp_path / f"red_{tag}.ss"
            out_json = tmp_path / f"rep_{tag}.json"
            main(
                [
                    "reduce", str(model_path), "--iters", "3",
                    "--output", str(out_model),
                    "--report-json", str(out_json),
                ]
            )
            paths.append((out_model, out_json))
        _ = capsys.readouterr()
        assert paths[0][0].read_text() == paths[1][0].read_text()
        a = json.loads(paths[0][1].read_text())
        b = json.loads(paths[1][1].read_text())
        a.pop("output"), b.pop("output")
        assert a == b


class TestCompareCommand:
    def test_table_lists_all_methods(self, model_path, tmp_path, capsys):
        out_json = tmp_path / "cmp.json"
        code = main(
            [
                "compare", str(model_path),
                "--max-order", "4",
                "--iters", "6",
                "--report-json", str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "method" in out and "order" in out
        doc = json.loads(out_json.read_text())
        methods = {e["method"] for e in doc["entries"]}
        assert methods == {"sys-aaa", "lowrank-aaa", "balanced"}
        assert all("system" not in e for e in doc["entries"])
        balanced_orders = [
            e["order"] for e in doc["entries"] if e["method"] == "balanced"
        ]
        assert balanced_orders == [1, 2, 3, 4]
        assert all(1 <= e["order"] <= 4 for e in doc["entries"])

    def test_siso_adaptive_methods_agree(self, siso_path, tmp_path, capsys):
        out_json = tmp_path / "cmp.json"
        code = main(
            [
                "compare", str(siso_path),
                "--max-order", "5",
                "--report-json", str(out_json),
            ]
        )
        assert code == 0
        _ = capsys.readouterr()
        doc = json.loads(out_json.read_text())
        full = [e for e in doc["entries"] if e["method"] == "sys-aaa"]
        low = [e for e in doc["entries"] if e["method"] == "lowrank-aaa"]
        assert [e["order"] for e in full] == [e["order"] for e in low]
        for a, b in zip(full, low):
            assert a["linf_error"] == pytest.approx(b["linf_error"], rel=1e-6, abs=1e-12)

    def test_unstable_iterates_flagged(self, tmp_path, capsys):
        # 1/(s+1): the first interpolation iterate is -1/(s-1), unstable.
        path = tmp_path / "lag.ss"
        write_model(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]]), path)
        code = main(["compare", str(path), "--methods", "sys-aaa", "balanced"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if ln.startswith("sys-aaa")]
        assert rows and all(row.rstrip().endswith("x") for row in rows)
        assert "(x marks an unstable reduced model)" in out

    def test_max_order_validated(self, model_path, capsys):
        for value in ("9", "0", "-2"):
            code = main(["compare", str(model_path), "--max-order", value])
            assert code == 3
            assert "error[DimensionMismatch]" in capsys.readouterr().err

    def test_dispatch_reads_module_global_reduce_lowrank(
        self, model_path, monkeypatch
    ):
        # compare_methods and run_method look reduce_lowrank up on the cli
        # module at call time, so a patched binding sees every call.
        import sysmor.cli as cli

        reports = []

        def recorder(model, opts):
            result = reduce_lowrank(model, opts)
            reports.append(result[1])
            return result

        monkeypatch.setattr(cli, "reduce_lowrank", recorder)
        model = read_model(model_path)
        entries = cli.compare_methods(
            model, ["lowrank-aaa"], 4, StoppingOptions(max_iterations=6)
        )
        (report,) = reports
        expected = [
            (rec.order, rec.linf_error, it.sys)
            for rec, it in zip(report.records, report.iterates)
            if 1 <= rec.order <= 4
        ]
        assert expected
        assert [(e["order"], e["linf_error"], e["system"]) for e in entries] == (
            sorted(expected, key=lambda row: row[0])
        )

        reduced, run_report = cli.run_method(
            model, "lowrank-aaa", StoppingOptions(max_iterations=2)
        )
        assert len(reports) == 2 and run_report is reports[1]
        assert reduced is run_report.iterates[run_report.best_iteration].sys



def _plant():
    """A stable 16-state model with 2 inputs and 3 outputs."""
    return random_stable(np.random.default_rng(103), n=16, q=2, p=3)


class TestBalancedSweep:
    """``compare_methods`` certifies balanced orders on two threads."""

    def test_entries_match_a_sequential_loop(self):
        opts = StoppingOptions()
        threads = threading.active_count()
        entries = sysmor.cli.compare_methods(_plant(), ["balanced"], 8, opts)
        assert threading.active_count() == threads
        model = _plant()
        want = []
        for order in range(1, 9):
            reduced, report = sysmor.cli.run_method(
                model, "balanced", StoppingOptions(target_order=order)
            )
            want.append((report.records[0], reduced))
        assert [e["order"] for e in entries] == list(range(1, 9))
        for entry, (rec, reduced) in zip(entries, want):
            assert entry["method"] == "balanced"
            assert (entry["order"], entry["linf_error"], entry["h2_metric"],
                    entry["certified"], entry["stable"]) == (
                rec.order, rec.linf_error, rec.h2_metric, rec.certified,
                rec.stable)
            for name in "ABCD":
                np.testing.assert_array_equal(
                    getattr(entry["system"], name), getattr(reduced, name)
                )

    def test_lowest_failing_order_is_raised(self, monkeypatch):
        # Order 4 fails at once and order 3 only later: the error raised
        # is order 3's, as in a loop that stops at its first failure.
        real = sysmor.cli.run_method

        def failing(model, method, opts):
            if opts.target_order == 3:
                time.sleep(0.2)
                raise ArithmeticError("order 3")
            if opts.target_order == 4:
                raise LookupError("order 4")
            return real(model, method, opts)

        monkeypatch.setattr(sysmor.cli, "run_method", failing)
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match="order 3"):
            sysmor.cli.compare_methods(
                _plant(), ["balanced"], 6, StoppingOptions()
            )
        assert threading.active_count() == threads

    def test_every_order_runs_once_under_fast_switching(self, monkeypatch):
        # Thread switches every microsecond: no order is lost or taken by
        # both threads, and the entries still come back in order.
        calls = []

        def recorded(model, method, opts):
            calls.append(opts.target_order)
            rec = SimpleNamespace(order=opts.target_order, linf_error=1.0,
                                  certified=True, h2_metric=1.0, stable=True)
            return model, SimpleNamespace(records=[rec])

        monkeypatch.setattr(sysmor.cli, "run_method", recorded)
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            entries = sysmor.cli.compare_methods(
                _plant(), ["balanced"], 2000, StoppingOptions()
            )
        finally:
            setswitchinterval(interval)
        assert sorted(calls) == list(range(1, 2001))
        assert [e["order"] for e in entries] == list(range(1, 2001))

    def test_shared_caches_are_built_once(self, monkeypatch):
        # On a cold model the sweep solves G's two Gramians and runs its
        # balancing SVD once, whichever thread first needs them.
        model = _plant()
        solve, svd, gramians, svds = (
            sysmor.numkernels.solve_lyapunov, np.linalg.svd, [], []
        )

        def counted_solve(sys, other=None):
            if other is None and sys.n == model.n:
                gramians.append(sys)
            return solve(sys, other)

        def counted_svd(M, *args, **kwargs):
            if np.shape(M) == (model.n, model.n):
                svds.append(M)
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(sysmor.numkernels, "solve_lyapunov", counted_solve)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        sysmor.cli.compare_methods(model, ["balanced"], 8, StoppingOptions())
        assert len(gramians) == 2
        assert len(svds) == 1

class TestConvertCommand:
    def test_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(104)
        sys = random_stable(rng, n=3, q=2, p=2, feedthrough=True)
        raw = tmp_path / "dump.txt"
        raw.write_text(
            " ".join(
                f"{v:.17g}"
                for M in (sys.A, sys.B, sys.C, sys.D)
                for v in M.ravel()
            )
        )
        out = tmp_path / "model.ss"
        code = main(
            ["convert", str(raw), "-n", "3", "-q", "2", "-p", "2",
             "--output", str(out)]
        )
        assert code == 0
        assert "stable=True" in capsys.readouterr().out
        back = read_model(out)
        np.testing.assert_array_equal(back.A, sys.A)
        for omega in (0.0, 1.0):
            np.testing.assert_allclose(
                eval_freq(back, omega), eval_freq(sys, omega), atol=1e-14
            )

    def test_count_mismatch_exit_code(self, tmp_path, capsys):
        raw = tmp_path / "dump.txt"
        raw.write_text("1 2 3")
        out = tmp_path / "model.ss"
        code = main(
            ["convert", str(raw), "-n", "1", "-q", "1", "-p", "1",
             "--output", str(out)]
        )
        assert code == 2
        assert "error[ParseError]" in capsys.readouterr().err

    def test_non_ascii_dump_exit_code(self, tmp_path, capsys):
        raw = tmp_path / "dump.txt"
        raw.write_bytes(b"-1 1 1 \xe9\n")
        code = main(
            ["convert", str(raw), "-n", "1", "-q", "1", "-p", "1",
             "--output", str(tmp_path / "model.ss")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error[ParseError]" in err
        assert "Traceback" not in err


class TestExitCodes:
    @pytest.mark.parametrize(
        "flag", ["--min-dist", "--tol-bisect", "--target-linf"]
    )
    @pytest.mark.parametrize("value", ["0", "-0.5", "inf"])
    def test_nonpositive_tolerance_is_malformed_input(
        self, model_path, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "reduce", str(model_path), "--method", "lowrank-aaa",
                    "--iters", "2", flag, value,
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be positive" in err
        assert "Traceback" not in err

    def test_negative_iters_is_malformed_input(self, model_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", str(model_path), "--iters", "-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be nonnegative" in err
        assert "Traceback" not in err

    def test_non_integer_iters_is_malformed_input(self, model_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", str(model_path), "--iters", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid int value: 'abc'" in err
        assert "Traceback" not in err

    def test_negative_order_rejected(self, model_path, capsys):
        for method in ("sys-aaa", "lowrank-aaa", "balanced"):
            code = main(
                ["reduce", str(model_path), "--method", method, "--order", "-2"]
            )
            assert code == 3, method
            assert "error[DimensionMismatch]" in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path, capsys):
        code = main(["reduce", str(tmp_path / "nope.ss")])
        assert code == 2
        assert "error[ParseError]" in capsys.readouterr().err

    def test_malformed_model_file(self, tmp_path, capsys):
        path = tmp_path / "bad.ss"
        path.write_text("ss 1 1 1\n-1\n")
        code = main(["reduce", str(path)])
        assert code == 2
        _ = capsys.readouterr()
        # a non-ASCII byte is malformed input too, not a decode traceback
        path.write_bytes(b"ss 1 1 1\n-1\n1\n1\n0 \xe9\n")
        code = main(["reduce", str(path)])
        assert code == 2
        assert "error[ParseError]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--output", "--report-json", "--sigma-csv"])
    def test_unwritable_output_path(self, model_path, tmp_path, capsys, flag):
        target = str(tmp_path / "no" / "such" / "dir" / "out")
        code = main(["reduce", str(model_path), "--iters", "1", flag, target])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[WriteError]" in err
        assert "Traceback" not in err

    def test_unstable_model(self, tmp_path, capsys):
        path = tmp_path / "unstable.ss"
        write_model(StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]]), path)
        code = main(["reduce", str(path)])
        assert code == 5
        assert "error[UnstableInput]" in capsys.readouterr().err

    def test_order_out_of_range(self, model_path, capsys):
        code = main(
            ["reduce", str(model_path), "--method", "balanced", "--order", "99"]
        )
        assert code == 3
        _ = capsys.readouterr()

    @pytest.mark.parametrize("method", ["sys-aaa", "lowrank-aaa", "balanced"])
    def test_near_axis_pole_is_unstable_input(self, tmp_path, capsys, method):
        # Poles within the stability margin of the imaginary axis make the
        # model unstable input for every method, before any solver sees it.
        path = tmp_path / "nearaxis.ss"
        write_model(
            StateSpace(
                [[-1e-12, 1.0], [-1.0, -1e-12]],
                [[1.0], [0.0]],
                [[1.0, 0.0]],
                [[0.0]],
            ),
            path,
        )
        code = main(["reduce", str(path), "--method", method, "--order", "1"])
        assert code == 5
        err = capsys.readouterr().err
        assert "error[UnstableInput]" in err
        assert "Traceback" not in err

    def test_gain_beyond_float_range_is_a_solver_failure(self, tmp_path, capsys):
        # B = 1e200: the floor's scale must not overflow (the suite turns
        # that RuntimeWarning into an error), and the level test, whose
        # gamma^2 would, refuses the level.
        path = tmp_path / "huge.ss"
        write_model(StateSpace([[-1.0]], [[1e200]], [[1.0]], [[0.0]]), path)
        assert main(["reduce", str(path)]) == 4
        err = capsys.readouterr().err
        assert "error[SolverFailure]" in err and "overflows" in err

    @pytest.mark.parametrize(
        "name, error",
        [
            ("build_block", DegenerateFactors),
            ("assemble_error_system", ResidualImaginaryPoles),
            ("sample_support_point", NonRealSampleAtZero),
        ],
    )
    def test_solver_failure_inside_a_run(
        self, model_path, capsys, monkeypatch, name, error
    ):
        # Raised on the second call, which the driver makes in its second
        # step (the first step builds, assembles and samples once): exit 4,
        # no traceback and no reduced model beside the input.
        import sysmor.sysaaa as mod

        real, calls = getattr(mod, name), itertools.count(1)

        def failing(*args):
            if next(calls) == 2:
                raise error("injected")
            return real(*args)

        monkeypatch.setattr(mod, name, failing)
        code = main(["reduce", str(model_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert "error[SolverFailure]: injected" in err
        assert "Traceback" not in err
        assert list(model_path.parent.iterdir()) == [model_path]

    def test_solver_failure_category(self, tmp_path, capsys):
        # 1/(s+1) - 1 vanishes at omega = 0, where the first error peak
        # lies: a rank-1 point there retains a numerically zero singular
        # value, which the block builder rejects.
        path = tmp_path / "zero_dc.ss"
        write_model(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[-1.0]]), path)
        code = main(["reduce", str(path), "--method", "lowrank-aaa"])
        assert code == 4
        assert "error[SolverFailure]" in capsys.readouterr().err
