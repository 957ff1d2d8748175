"""The three benchmark workloads.

Each workload has four steps:

* ``setup(seed, workdir)`` builds the model from the seed (and writes the
  model file the CLI reads); the benchmark times it as ``setup_s``;
* ``run(state, k)`` is one operation, the only timed part;
* ``outcome(state, raw)`` reads what the operation returned or wrote;
* ``check(state, outcome)`` runs the oracle checks and returns the
  messages of the checks that failed.

See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import sysmor
from sysmor import StateSpace, StoppingOptions, cli

from . import models, oracle

@dataclass
class Outcome:
    """What one operation produced, in the terms the metrics use."""

    order: int
    linf_error: float
    h2_error: float | None
    support: tuple[float, ...]
    termination: str
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict, repr=False)

    def fingerprint(self) -> tuple:
        """Outputs that must repeat exactly for the same model."""
        return (self.order, self.linf_error, self.h2_error, self.support,
                self.termination)

    def self_problems(self, expected_terminations) -> list[str]:
        """Failures visible without an oracle: NaN, failure terminations."""
        out = list(self.problems)
        if self.termination not in expected_terminations:
            out.append(f"termination {self.termination!r}")
        for name in ("linf_error", "h2_error"):
            value = getattr(self, name)
            if value is None or not math.isfinite(value):
                out.append(f"{name} is {value}")
        return out


@dataclass
class State:
    abcd: tuple
    model: StateSpace
    workdir: str
    path: str | None = None


def _peak_after(omegas, best: int) -> list[float]:
    """Peak frequency of iterate ``best``'s error, when the record after it
    acted on that frequency (``omegas`` lists every record's omega)."""
    if best + 1 < len(omegas) and omegas[best + 1] is not None:
        return [omegas[best + 1]]
    return []


class ReduceChain270:
    """Full method (``reduce``), 6 steps, no target, on the 270-state 3x3 chain."""

    name = "reduce-chain270"
    iterations = 6
    expected = {"max_iterations reached"}

    def __init__(self, masses: int = 135):
        self.masses = masses

    def setup(self, seed: int, workdir: str) -> State:
        abcd = models.chain_mimo(seed, self.masses)
        return State(abcd, StateSpace(*abcd), workdir)

    def run(self, state: State, k: int):
        # Called through the package so that the tracer sees the call.
        return sysmor.reduce(
            state.model,
            StoppingOptions(max_iterations=self.iterations, keep_best=False),
        )

    def outcome(self, state: State, raw) -> Outcome:
        interp, report = raw
        final = report.final_record
        out = Outcome(
            order=interp.order,
            linf_error=final.linf_error,
            h2_error=final.h2_metric,
            support=tuple(pt.omega for pt in interp.support),
            termination=report.termination,
            detail={
                "R": oracle.matrices(interp.sys),
                "peak": _peak_after(
                    [rec.omega for rec in report.records], report.best_iteration
                ),
            },
        )
        steps = len(report.records) - 1
        if steps != self.iterations:
            out.problems.append(f"{steps} steps, expected {self.iterations}")
        return out

    def check(self, state: State, out: Outcome) -> list[str]:
        R = out.detail["R"]
        return _run_checks(
            lambda: oracle.check_certified(
                state.abcd, R, out.linf_error,
                extra=out.support + tuple(out.detail["peak"]),
            ),
            lambda: oracle.check_interpolates(state.abcd, R, out.support),
        )


class CliSiso120:
    """``sysmor reduce`` to a stated accuracy on the 120-state SISO chain."""

    name = "cli-siso120"
    target = 1e-4
    expected = {"target_linf reached"}
    grid_points = 2000

    def __init__(self, masses: int = 60):
        self.masses = masses

    def setup(self, seed: int, workdir: str) -> State:
        abcd = models.chain_siso(seed, self.masses)
        state = State(abcd, StateSpace(*abcd), workdir)
        state.path = os.path.join(workdir, "siso.ss")
        sysmor.write_model(state.model, state.path)
        return state

    def run(self, state: State, k: int):
        base = os.path.join(state.workdir, f"op{k}")
        files = {
            "output": base + ".reduced",
            "report": base + ".report.json",
            "sigma": base + ".sigma.csv",
        }
        argv = [
            "reduce", state.path,
            "--target-linf", repr(self.target),
            "--sigma-csv", files["sigma"],
            "--report-json", files["report"],
            "--output", files["output"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, files

    def outcome(self, state: State, raw) -> Outcome:
        code, files = raw
        if code != 0:
            return Outcome(0, math.nan, None, (), f"exit code {code}",
                           problems=[f"sysmor exited with {code}"])
        with open(files["report"]) as fh:
            doc = json.load(fh)
        records = doc["records"]
        best = doc["best_iteration"]
        final = next(r for r in records if r["iteration"] == best)
        support = tuple(
            r["omega"] for r in records[1:best + 1] if r["action"] == "add"
        )
        return Outcome(
            order=final["order"],
            linf_error=final["linf_error"],
            h2_error=final["h2_metric"],
            support=support,
            termination=doc["termination"],
            detail={
                "files": files,
                "peak": _peak_after([r["omega"] for r in records], best),
            },
        )

    def check(self, state: State, out: Outcome) -> list[str]:
        files = out.detail["files"]
        try:
            R = oracle.parse_model_file(files["output"])
        except (OSError, ValueError, oracle.CheckFailed) as exc:
            return [f"reduced model file: {exc}"]

        def target():
            if not out.linf_error <= self.target:
                raise oracle.CheckFailed(
                    f"linf_error {out.linf_error:.6g} above target {self.target:g}"
                )

        def reads_back():
            back = oracle.matrices(sysmor.read_model(files["output"]))
            if not all(np.array_equal(a, b) for a, b in zip(R, back)):
                raise oracle.CheckFailed("reduced model does not read back exactly")

        return _run_checks(
            target,
            reads_back,
            lambda: oracle.check_sigma_csv(files["sigma"], self.grid_points),
            lambda: oracle.check_certified(
                state.abcd, R, out.linf_error,
                extra=out.support + tuple(out.detail["peak"]),
            ),
            lambda: oracle.check_interpolates(state.abcd, R, out.support),
        )


@contextlib.contextmanager
def _capture(module, name: str, sink: list):
    """Append every return value of ``module.name`` to ``sink``."""
    inner = getattr(module, name)

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, name, capture)
    try:
        yield
    finally:
        setattr(module, name, inner)


class CompareModal270:
    """``compare_methods`` (balanced, lowrank-aaa; orders up to 12) on the
    270-state lightly damped modal model with 3 inputs and 6 outputs."""

    name = "compare-modal270"
    methods = ("balanced", "lowrank-aaa")
    max_order = 12
    expected = {"target_order would be exceeded", "max_iterations reached"}

    def __init__(self, modes: int = 135):
        self.modes = modes

    def setup(self, seed: int, workdir: str) -> State:
        abcd = models.lightly_damped_modal(seed, self.modes)
        return State(abcd, StateSpace(*abcd), workdir)

    def run(self, state: State, k: int):
        # The low-rank report is kept only to read its support points; the
        # capture adds one Python call per operation.
        reports: list = []
        with _capture(cli, "reduce_lowrank", reports):
            entries = cli.compare_methods(
                state.model, list(self.methods), self.max_order,
                StoppingOptions(),
            )
        return entries, reports

    def outcome(self, state: State, raw) -> Outcome:
        entries, reports = raw
        (_, report), = reports
        lowrank = [e for e in entries if e["method"] == "lowrank-aaa"]
        top = max(lowrank, key=lambda e: e["order"])
        index = next(
            i for i, rec in enumerate(report.records) if rec.order == top["order"]
        )
        points = report.iterates[index].support
        balanced = [
            (e["order"], e["linf_error"], e["h2_metric"])
            for e in entries if e["method"] == "balanced"
        ]
        out = Outcome(
            order=top["order"],
            linf_error=top["linf_error"],
            h2_error=top["h2_metric"],
            support=tuple(pt.omega for pt in points),
            termination=report.termination,
            detail={
                "R": oracle.matrices(top["system"]),
                "points": [(pt.omega, pt.U) for pt in points],
                "dualized": report.dualized,
                "balanced": [(order, linf) for order, linf, _ in balanced],
                "peak": _peak_after([rec.omega for rec in report.records], index),
            },
        )
        for order, linf, h2 in balanced:
            if not (math.isfinite(linf) and h2 is not None and math.isfinite(h2)):
                out.problems.append(f"balanced order {order}: {linf}, {h2}")
        if len(balanced) != self.max_order:
            out.problems.append(f"{len(balanced)} balanced entries")
        return out

    def check(self, state: State, out: Outcome) -> list[str]:
        R = out.detail["R"]
        if out.detail["dualized"]:
            g_work = oracle.transpose_system(state.abcd)
            r_work = oracle.transpose_system(R)
        else:
            g_work, r_work = state.abcd, R
        return _run_checks(
            lambda: oracle.check_certified(
                state.abcd, R, out.linf_error,
                extra=out.support + tuple(out.detail["peak"]),
            ),
            lambda: oracle.check_tangential(g_work, r_work, out.detail["points"]),
            lambda: oracle.check_balanced_bound(
                out.detail["balanced"],
                oracle.hankel_singular_values(state.abcd),
            ),
        )


def _run_checks(*checks) -> list[str]:
    """Run every check; collect the failures instead of stopping."""
    failures = []
    for check in checks:
        try:
            check()
        except Exception as exc:  # a failed check must not abort the run
            failures.append(f"{type(exc).__name__}: {exc}")
    return failures


WORKLOADS = {
    wl.name: wl for wl in (ReduceChain270(), CliSiso120(), CompareModal270())
}
