"""End-to-end command-line runs: artifacts, table output, exit codes."""

import json

import numpy as np
import pytest

from sysmor import StateSpace, eval_freq, read_model, write_model
from sysmor.cli import main
from conftest import random_stable


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
        assert doc["records"][-1]["order"] >= 0
        assert "iterates" not in doc
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "omega_rad_s,sigma_max_G,sigma_max_R,sigma_max_error"
        assert len(lines) == 2001
        # reported orders match the written model
        best = doc["best_iteration"]
        rec = next(r for r in doc["records"] if r["iteration"] == best)
        assert rec["order"] == reduced.n

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
        code = main(["compare", str(model_path), "--max-order", "9"])
        assert code == 3
        assert "error[DimensionMismatch]" in capsys.readouterr().err


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


class TestExitCodes:
    @pytest.mark.parametrize("flag", ["--min-dist", "--tol-bisect", "--tol-minreal"])
    @pytest.mark.parametrize("value", ["0", "-0.5"])
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

    def test_solver_failure_category(self, tmp_path, capsys):
        # Poles hugging the imaginary axis defeat the Lyapunov solver even
        # though the model counts as (barely) stable.
        path = tmp_path / "nearaxis.ss"
        write_model(
            StateSpace(
                [[-1e-13, 1.0], [-1.0, -1e-13]],
                [[1.0], [0.0]],
                [[1.0, 0.0]],
                [[0.0]],
            ),
            path,
        )
        code = main(
            ["reduce", str(path), "--method", "balanced", "--order", "1"]
        )
        assert code == 4
        assert "error[SolverFailure]" in capsys.readouterr().err
