"""End-to-end command-line runs: artifacts, table output, exit codes."""

import inspect
import itertools
import json
import threading
import time
from sys import getswitchinterval, modules as loaded, setswitchinterval
from types import SimpleNamespace

import numpy as np
import pytest

from sysmor import (
    DimensionMismatch,
    ImaginaryAxisPoles,
    LinfResult,
    NonRealSampleAtZero,
    ResidualImaginaryPoles,
    SingularAtFrequency,
    SingularW0,
    StateSpace,
    StoppingOptions,
    balanced_truncate,
    eval_freq,
    read_model,
    reduce_lowrank,
    write_model,
)
import sysmor.cli
import sysmor.norms
import sysmor.numkernels
import sysmor.statespace
from sysmor.cli import _write_sigma_csv, main
from oracles import mass_chain, random_stable, tf_eval


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

    def test_sigma_csv_bytes(self, tmp_path):
        # 1/(s+1) + 1/(s+10) against 1/(s+1): the grid spans 4 decades
        # around the poles; rows end in CRLF as csv.writer wrote them.
        model = StateSpace(
            [[-1.0, 0.0], [0.0, -10.0]], [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]]
        )
        reduced = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        path = tmp_path / "sigma.csv"
        _write_sigma_csv(path, model, reduced, points=3)
        assert path.read_bytes() == (
            b"omega_rad_s,sigma_max_G,sigma_max_R,sigma_max_error\r\n"
            b"3.1622776602e-02,1.0994630874e+00,9.9950037469e-01,9.9999500004e-02\r\n"
            b"3.1622776602e+00,3.6477095723e-01,3.0151134458e-01,9.5346258925e-02\r\n"
            b"3.1622776602e+02,6.3223198397e-03,3.1622618489e-03,3.1606977062e-03\r\n"
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_siso_sigma_csv_matches_the_svd(self, tmp_path, seed):
        # sigma_max of a SISO response is its modulus: the CSV of the
        # 60-mass chain (force on the first mass, position of the last)
        # reads byte for byte as one written from the batched SVD.
        model = mass_chain(seed, 60, inputs=(0,), outputs=(59,), jitter=1e-3)
        reduced, _ = balanced_truncate(model, 8)
        path = tmp_path / "sigma.csv"
        _write_sigma_csv(path, model, reduced)
        omegas = sysmor.cli._sigma_grid(model)
        full, red = eval_freq(model, omegas), eval_freq(reduced, omegas)
        columns = [omegas] + [
            np.linalg.norm(value, 2, axis=(1, 2)) for value in (full, red, full - red)
        ]
        rows = "".join(
            ",".join(f"{v:.10e}" for v in row) + "\r\n" for row in zip(*columns)
        )
        assert path.read_bytes().split(b"\r\n", 1)[1] == rows.encode()

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

    def test_lowrank_grows_rank_one_samples_to_min_pq(self, tmp_path, capsys):
        # Parallel input columns make every sample G(jw) rank 1, yet a peak
        # back at a rank-1 point grows it to rank min(p, q) = 2; only then
        # does the run end as saturated, keeping its best iterate.
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
        assert [rec["action"] for rec in doc["records"]] == ["init", "add", "grow"]
        assert doc["records"][-1]["ranks"] == [2]

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

    def test_method_listed_twice_gives_its_rows_once(self, model_path, capsys):
        # Each method runs once, in the order first listed.
        model = random_stable(np.random.default_rng(7), n=6, q=2, p=2)
        twice = sysmor.cli.compare_methods(
            model, ["balanced", "balanced", "lowrank-aaa", "lowrank-aaa"], 2,
            StoppingOptions(),
        )
        once = sysmor.cli.compare_methods(
            model, ["balanced", "lowrank-aaa"], 2, StoppingOptions()
        )
        rows = [(e["method"], e["order"], e["linf_error"]) for e in twice]
        assert rows == [(e["method"], e["order"], e["linf_error"]) for e in once]
        assert len(set(rows)) == len(rows)
        code = main(["compare", str(model_path), "--max-order", "3",
                     "--methods", "balanced", "balanced"])
        assert code == 0
        out = capsys.readouterr().out
        assert [ln.split()[1] for ln in out.splitlines()
                if ln.startswith("balanced")] == ["1", "2", "3"]

    def test_max_order_validated(self, model_path, capsys):
        for value in ("9", "0", "-2"):
            code = main(["compare", str(model_path), "--max-order", value])
            assert code == 3
            assert "error[DimensionMismatch]" in capsys.readouterr().err

    @pytest.mark.parametrize("max_order", [0, -1])
    @pytest.mark.parametrize(
        "methods", [["balanced"], ["lowrank-aaa"], ["balanced", "sys-aaa"]]
    )
    def test_compare_methods_refuses_max_order_below_1(
        self, methods, max_order, monkeypatch
    ):
        # Refused before any truncation or adaptive run, whichever
        # methods are listed.
        calls = []
        for name in ("balanced_truncate", "run_method"):
            monkeypatch.setattr(sysmor.cli, name, lambda *args: calls.append(args))
        with pytest.raises(DimensionMismatch, match=f"max_order {max_order}"):
            sysmor.cli.compare_methods(
                mass_chain(0, 4, [0], [3]), methods, max_order, StoppingOptions()
            )
        assert calls == []

    def test_compare_methods_runs_every_method_at_zero_dc_gain(self):
        # D = C A^-1 B makes G(0) = 0, and with p > q the low-rank run is
        # dualized; its zero samples are interpolation conditions like
        # any other, so every method contributes entries.
        base = random_stable(np.random.default_rng(3), 10, 2, 4)
        model = StateSpace(
            base.A, base.B, base.C, base.C @ np.linalg.solve(base.A, base.B)
        )
        entries = sysmor.cli.compare_methods(
            model, ["sys-aaa", "lowrank-aaa", "balanced"], 8,
            StoppingOptions(max_iterations=4),
        )
        assert {e["method"] for e in entries} == {"sys-aaa", "lowrank-aaa", "balanced"}
        assert all(1 <= e["order"] <= 8 for e in entries)

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
    """``compare_methods`` solves the balanced orders' first level tests on
    a worker thread while the calling thread runs the adaptive methods."""

    def test_entries_match_a_sequential_loop(self, monkeypatch):
        # Entries, the lowrank-aaa report's records and every balanced
        # system equal those of run_method called order by order.
        reports = []

        def recorder(model, opts):
            result = reduce_lowrank(model, opts)
            reports.append(result[1])
            return result

        monkeypatch.setattr(sysmor.cli, "reduce_lowrank", recorder)
        opts = StoppingOptions()
        threads = threading.active_count()
        entries = sysmor.cli.compare_methods(
            _plant(), ["balanced", "lowrank-aaa"], 8, opts
        )
        assert threading.active_count() == threads
        model = _plant()
        want = []
        for order in range(1, 9):
            reduced, report = sysmor.cli.run_method(
                model, "balanced", StoppingOptions(target_order=order)
            )
            want.append((report.records[0], reduced))
        _, sequential = sysmor.cli.run_method(
            model, "lowrank-aaa", StoppingOptions(
                max_iterations=20, target_order=8, keep_best=False
            )
        )
        threaded, rerun = reports  # the sequential run is recorded too
        assert rerun is sequential and threaded.records == sequential.records
        balanced = [e for e in entries if e["method"] == "balanced"]
        assert [e["order"] for e in balanced] == list(range(1, 9))
        for entry, (rec, reduced) in zip(balanced, want):
            assert (entry["order"], entry["linf_error"], entry["h2_metric"],
                    entry["certified"], entry["stable"]) == (
                rec.order, rec.linf_error, rec.h2_metric, rec.certified,
                rec.stable)
            for name in "ABCD":
                np.testing.assert_array_equal(
                    getattr(entry["system"], name), getattr(reduced, name)
                )
        lowrank = [e for e in entries if e["method"] == "lowrank-aaa"]
        assert [(e["order"], e["linf_error"], e["h2_metric"]) for e in lowrank] == [
            (rec.order, rec.linf_error, rec.h2_metric)
            for rec in sequential.records if 1 <= rec.order <= 8
        ]

    def test_public_calls_run_on_the_calling_thread(self, monkeypatch):
        # Every public function of every layer, at every module binding,
        # runs on the caller; the worker only solves spectra.
        caller, threads, solvers = threading.get_ident(), {}, set()
        modules = [m for name, m in sorted(loaded.items())
                   if name == "sysmor" or name.startswith("sysmor.")]
        for layer in modules:
            for name in getattr(layer, "__all__", ()):
                fn = getattr(layer, name)
                if not inspect.isfunction(fn) or fn.__module__ != layer.__name__:
                    continue

                def wrapped(*args, _fn=fn, _name=f"{layer.__name__}.{name}", **kw):
                    threads.setdefault(_name, set()).add(threading.get_ident())
                    return _fn(*args, **kw)

                for home in modules:
                    for attr, value in list(vars(home).items()):
                        if value is fn:
                            monkeypatch.setattr(home, attr, wrapped)
        spectrum = sysmor.norms._hamiltonian_spectrum

        def solved(*args):
            solvers.add(threading.get_ident())
            return spectrum(*args)

        monkeypatch.setattr(sysmor.norms, "_hamiltonian_spectrum", solved)
        sysmor.cli.compare_methods(
            _plant(), ["balanced", "lowrank-aaa"], 8, StoppingOptions()
        )
        assert {"sysmor.balred.balanced_truncate", "sysmor.norms.linf_norm",
                "sysmor.norms.linf_sweep", "sysmor.sysaaa.certify",
                "sysmor.statespace.subtract", "sysmor.lowrank.reduce_lowrank",
                "sysmor.cli.run_method"} <= threads.keys()
        assert {name: ids for name, ids in threads.items() if ids != {caller}} == {}
        assert solvers - {caller}, "the worker solved no spectrum"

    def test_lowest_failing_order_is_raised(self, monkeypatch):
        # Order 4's spectrum fails on the worker at once and order 3 fails
        # later, on the caller: the error raised is order 3's, as in a loop
        # that stops at its first failure.
        caller, failed_on = threading.get_ident(), []
        spectrum, real = sysmor.norms._hamiltonian_spectrum, sysmor.norms._linf_steps

        def failing_spectrum(sys, gamma):
            if threading.get_ident() == caller:
                time.sleep(0.2)  # the worker takes every order it can
            elif sys._origin.minus.n == 4:
                failed_on.append(threading.get_ident())
                raise LookupError("order 4")
            return spectrum(sys, gamma)

        def failing_steps(sys, tol):
            result = yield from real(sys, tol)
            if sys._origin.minus.n == 3:
                raise ArithmeticError("order 3")
            return result

        monkeypatch.setattr(sysmor.norms, "_hamiltonian_spectrum", failing_spectrum)
        monkeypatch.setattr(sysmor.norms, "_linf_steps", failing_steps)
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match="order 3"):
            sysmor.cli.compare_methods(_plant(), ["balanced"], 6, StoppingOptions())
        assert threading.active_count() == threads
        assert failed_on and caller not in failed_on

    @pytest.mark.parametrize("where", ["spectrum", "prepare"])
    @pytest.mark.parametrize("balanced_first", [True, False])
    def test_first_failing_method_wins(self, monkeypatch, where, balanced_first):
        # lowrank-aaa raises and balanced order 2 fails, in its spectrum
        # or while it is prepared: the error raised is that of the method
        # listed first, and one that fails while prepared, listed first,
        # keeps the adaptive method from running at all.
        ran = []

        def failing_method(model, method, opts):
            ran.append(method)
            raise LookupError("adaptive")

        def broken(real):  # fails order 2: balanced_truncate(G, 2) or G - R_2
            def call(*args):
                if args[-1] == 2 or getattr(args[0]._origin.minus, "n", None) == 2:
                    raise ArithmeticError("balanced")
                return real(*args)
            return call

        monkeypatch.setattr(sysmor.cli, "run_method", failing_method)
        home, name = ((sysmor.norms, "_hamiltonian_spectrum") if where == "spectrum"
                      else (sysmor.cli, "balanced_truncate"))
        monkeypatch.setattr(home, name, broken(getattr(home, name)))
        methods = ["balanced", "lowrank-aaa"]
        if not balanced_first:
            methods.reverse()
        threads = threading.active_count()
        with pytest.raises(ArithmeticError if balanced_first else LookupError):
            sysmor.cli.compare_methods(_plant(), methods, 4, StoppingOptions())
        assert threading.active_count() == threads
        assert ran == ([] if balanced_first and where == "prepare" else ["lowrank-aaa"])

    def test_interrupt_joins_the_worker(self, monkeypatch):
        # An interrupt in the adaptive run reaches the caller once the
        # worker has finished the spectrum it is solving; it starts no other.
        spectrum, solved = sysmor.norms._hamiltonian_spectrum, []

        def slow(*args):
            time.sleep(0.05)
            solved.append(args[0].n)
            return spectrum(*args)

        def interrupted(model, method, opts):
            time.sleep(0.02)
            raise KeyboardInterrupt

        monkeypatch.setattr(sysmor.norms, "_hamiltonian_spectrum", slow)
        monkeypatch.setattr(sysmor.cli, "run_method", interrupted)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            sysmor.cli.compare_methods(
                _plant(), ["balanced", "sys-aaa"], 8, StoppingOptions()
            )
        assert threading.active_count() == threads
        count = len(solved)
        time.sleep(0.1)
        assert len(solved) == count < 8

    def test_every_order_runs_once_under_fast_switching(self, monkeypatch):
        # Thread switches every microsecond while the worker runs the
        # queued spectra lowest first and the caller cancels and solves
        # them highest first (the worker waits on its first order until
        # the caller solves one): no order's spectrum is lost or solved
        # twice, and each order is finished with its own, in order.
        caller, calls, solvers, go = threading.get_ident(), [], set(), threading.Event()

        def steps(k, tol):  # order k stands for G_k and for G - G_k
            return (yield (k,))

        def certify(model, order, rel_tol, linf, **fields):
            assert linf == order  # the steps hand back their spectrum
            return SimpleNamespace(order=order, linf_error=1.0, certified=True,
                                   h2_metric=1.0, stable=True), None

        def solve(order):
            if threading.get_ident() == caller:
                go.set()
            go.wait(10.0)
            calls.append(order)
            solvers.add(threading.get_ident())
            return order

        monkeypatch.setattr(sysmor.cli, "balanced_truncate", lambda G, k: (k, None))
        monkeypatch.setattr(sysmor.norms, "subtract", lambda G, k: k)
        monkeypatch.setattr(sysmor.norms, "_linf_steps", steps)
        monkeypatch.setattr(sysmor.norms, "_hamiltonian_spectrum", solve)
        monkeypatch.setattr(sysmor.cli, "certify", certify)
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            threads = threading.active_count()
            entries = sysmor.cli.compare_methods(
                _plant(), ["balanced"], 2000, StoppingOptions()
            )
        finally:
            setswitchinterval(interval)
        assert threading.active_count() == threads
        assert sorted(calls) == list(range(1, 2001))
        assert len(solvers) == 2
        assert [e["order"] for e in entries] == list(range(1, 2001))

    def test_shared_caches_are_built_once(self, monkeypatch):
        # On a cold model the sweep solves G's two Gramians and runs its
        # balancing SVD once, whichever thread first needs them.
        model = _plant()
        solve, svd, gramians, svds = (
            sysmor.numkernels.solve_lyapunov, np.linalg.svd, [], []
        )

        def counted_solve(sys, other=None):
            # a Gramian solve names the model twice
            if other is sys and sys.n == model.n:
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

    def test_at_most_two_spectra_in_flight(self, monkeypatch):
        # Each spectrum sleeps before it solves, so that the GIL cannot
        # hide a third concurrent call: at most two are in flight, and
        # both threads solve some.
        spectrum, lock = sysmor.norms._hamiltonian_spectrum, threading.Lock()
        flight, solvers = {"now": 0, "peak": 0}, set()

        def counted(*args):
            with lock:
                flight["now"] += 1
                flight["peak"] = max(flight["peak"], flight["now"])
                solvers.add(threading.get_ident())
            try:
                time.sleep(0.01)
                return spectrum(*args)
            finally:
                with lock:
                    flight["now"] -= 1

        for name, home in list(loaded.items()):
            if name.startswith("sysmor") and getattr(
                home, "_hamiltonian_spectrum", None
            ) is spectrum:
                monkeypatch.setattr(home, "_hamiltonian_spectrum", counted)
        sysmor.cli.compare_methods(
            _plant(), ["balanced", "lowrank-aaa"], 8, StoppingOptions()
        )
        assert 1 <= flight["peak"] <= 2
        assert len(solvers) == 2

    def test_error_systems_form_no_stacked_A_before_the_adaptive_run(
        self, monkeypatch
    ):
        # No error system G - G_k built for a balanced order's first test
        # has formed its stacked A by the time the first adaptive method
        # starts, so no (n + k)^2 array is held while the adaptive run goes.
        subtract, run = sysmor.statespace.subtract, sysmor.cli.run_method
        built, at_start = [], []

        def tracked(g, r):
            err = subtract(g, r)
            built.append(err)
            return err

        def first_run(model, method, opts):
            if not at_start:
                at_start.append(["A" not in vars(err) for err in built])
            return run(model, method, opts)

        for name, home in list(loaded.items()):
            if name.startswith("sysmor") and getattr(home, "subtract", None) is subtract:
                monkeypatch.setattr(home, "subtract", tracked)
        monkeypatch.setattr(sysmor.cli, "run_method", first_run)
        sysmor.cli.compare_methods(
            _plant(), ["balanced", "lowrank-aaa"], 8, StoppingOptions()
        )
        assert at_start == [[True] * 8]


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

    @pytest.mark.parametrize(
        "flag", [["--target-linf", "0.1"], ["--keep-best"], ["--no-keep-best"]]
    )
    def test_compare_refuses_the_flags_of_reduce(self, model_path, capsys, flag):
        # compare's adaptive runs go to --max-order and keep every iterate,
        # so a stopping target or a best-iterate choice has no meaning there
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(model_path), *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag[0] in err

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

    def test_oversized_header_is_malformed_input(self, tmp_path, capsys):
        # dimensions that would allocate terabytes, in a file of one value
        path = tmp_path / "big.ss"
        for text in ("ss 1000000 1 1\n-1\n", "ss 1 1000000000000 1\n-1\n1\n1\n0\n"):
            path.write_text(text)
            assert main(["reduce", str(path)]) == 2
            err = capsys.readouterr().err
            assert "error[ParseError]" in err and "Traceback" not in err

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
            ("realize_interpolant", SingularAtFrequency),
            ("assemble_error_system", ResidualImaginaryPoles),
            ("sample_support_point", NonRealSampleAtZero),
        ],
    )
    def test_solver_failure_inside_a_run(
        self, model_path, capsys, monkeypatch, name, error
    ):
        # Raised on the second call, which the driver makes in its second
        # step (the first step samples, assembles and realizes once): exit 4,
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
        # -s/(s+1) vanishes at omega = 0, where the first error peak lies.
        # Its zero sample there is an ordinary interpolation condition, so
        # lowrank-aaa is no solver failure: it ends as sys-aaa does.
        path = tmp_path / "zero_dc.ss"
        write_model(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[-1.0]]), path)
        finals = []
        for method in ("lowrank-aaa", "sys-aaa"):
            assert main(["reduce", str(path), "--method", method]) == 0
            lines = capsys.readouterr().out.splitlines()
            finals.append([line for line in lines if line.startswith("final:")])
        assert len(finals[0]) == 1 and finals[0] == finals[1]
