"""Command-line front end: reduce, compare, convert.

``reduce`` runs one method on a model file and writes the reduced model,
a human-readable report, and optional JSON / sigma-plot CSV artifacts.
``compare`` tabulates error against order for several methods on the
same model.  ``convert`` wraps a raw whitespace-separated matrix dump
into the documented model format.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys as _sys

import numpy as np

from .balred import balanced_truncate
from .exceptions import (
    DimensionMismatch,
    ParseError,
    RankOutOfRange,
    SysmorError,
    UnstableInput,
)
from .lowrank import reduce_lowrank
from .modelio import read_model, read_raw_matrices, write_model
from .norms import linf_sweep
from .report import IterationRecord, ReductionReport, error_cells
from .statespace import StateSpace, eval_freq, is_stable, poles
from .sysaaa import StoppingOptions, certify, reduce as reduce_sysaaa

__all__ = ["main", "compare_methods", "run_method"]

METHODS = ("sys-aaa", "lowrank-aaa", "balanced")


def _options_from_args(args) -> StoppingOptions:
    # --order, --target-linf and --keep-best are flags of reduce alone
    defaults = StoppingOptions()
    order = getattr(args, "order", None)
    if order is not None and order < 0:
        raise DimensionMismatch(f"--order {order} is negative")
    return StoppingOptions(
        max_iterations=args.iters,
        target_linf=getattr(args, "target_linf", defaults.target_linf),
        target_order=order,
        keep_best=getattr(args, "keep_best", defaults.keep_best),
        bisect_rel_tol=args.tol_bisect,
        min_dist=args.min_dist,
    )


def run_method(
    model: StateSpace, method: str, opts: StoppingOptions
) -> tuple[StateSpace, ReductionReport]:
    """Dispatch one reduction method; balanced uses opts.target_order."""
    if method in ("sys-aaa", "lowrank-aaa"):
        driver = reduce_sysaaa if method == "sys-aaa" else reduce_lowrank
        interp, report = driver(model, opts)
        return interp.sys, report
    if method == "balanced":
        if opts.target_order is None:
            raise RankOutOfRange("balanced truncation needs an explicit order")
        reduced, hsv = balanced_truncate(model, opts.target_order)
        record, _ = certify(
            model, reduced, opts.bisect_rel_tol,
            iteration=0, action="trunc", omega=None,
        )
        report = ReductionReport(
            method="balanced",
            options={"order": opts.target_order, "hsv": [float(v) for v in hsv]},
            records=[record],
            termination="requested order reached",
            best_iteration=0,
        )
        return reduced, report
    raise ValueError(f"unknown method {method!r}")


def compare_methods(
    model: StateSpace, methods, max_order: int, opts: StoppingOptions
):
    """Error-vs-order entries for each method, sorted by (method, order).

    Adaptive methods contribute one entry per recorded iterate with
    1 <= order <= max_order; balanced truncation contributes every order
    in that range.  Each entry carries the reduced system for reuse.

    Entries, and the error raised, are those of running each method once,
    in the order first listed: the first failing method wins, and of the
    balanced orders the lowest that fails.  The balanced orders are
    truncated first, up to the first that fails.  Their L-infinity errors
    come from ``norms.linf_sweep``, which runs the adaptive methods, one
    after another on this thread, while its worker thread solves the
    balanced orders' first level tests (each eigensolve releases the GIL,
    so they overlap at every size).  A failed truncation keeps the
    methods listed after balanced from running.
    """
    methods = list(dict.fromkeys(methods))  # a method listed twice runs once
    runs = {}  # method -> its entries, or the exception that ended its run
    reduced = []
    for order in range(1, max_order + 1 if "balanced" in methods else 1):
        try:
            reduced.append(balanced_truncate(model, order)[0])
        except Exception as exc:
            runs["balanced"] = exc  # raised unless a lower order fails
            break

    def adaptive_runs():
        for method in methods:
            if method == "balanced" and "balanced" in runs:
                break  # a balanced order fails: no later method runs
            if method == "balanced":
                continue
            try:
                runs[method] = _adaptive_entries(model, method, max_order, opts)
            except Exception as exc:
                runs[method] = exc
                break

    linfs = linf_sweep(model, reduced, opts.bisect_rel_tol, adaptive_runs)
    entries = []
    for method in methods:
        if method == "balanced":
            rows = []
            for system, linf in zip(reduced, linfs):  # raises the lowest failure
                record, _ = certify(
                    model, system, opts.bisect_rel_tol, linf,
                    iteration=0, action="trunc", omega=None,
                )
                rows.append(_entry(method, record, system))
            runs.setdefault(method, rows)  # a failed truncation stays
        if isinstance(runs[method], Exception):
            raise runs[method]
        entries += runs[method]
    entries.sort(key=lambda e: (e["method"], e["order"]))
    return entries


def _adaptive_entries(model, method, max_order, opts):
    """The entries of one adaptive run to ``max_order``."""
    run_opts = dataclasses.replace(
        opts,
        max_iterations=max(opts.max_iterations, max_order),
        target_order=max_order,
        keep_best=False,
        target_linf=None,
    )
    _, report = run_method(model, method, run_opts)
    return [
        _entry(method, rec, iterate.sys)
        for rec, iterate in zip(report.records, report.iterates)
        if 1 <= rec.order <= max_order
    ]


def _entry(method: str, rec: IterationRecord, system: StateSpace) -> dict:
    return {"method": method, "order": rec.order, "linf_error": rec.linf_error,
            "certified": rec.certified, "h2_metric": rec.h2_metric,
            "stable": rec.stable, "system": system}


def _sigma_grid(sys: StateSpace, points: int = 2000) -> np.ndarray:
    """Log-spaced grid spanning at least 4 decades around the dynamics."""
    mags = [abs(v) for v in poles(sys) if abs(v) > 0]
    if mags:
        lo, hi = min(mags) / 10.0, max(mags) * 10.0
    else:
        lo, hi = 1e-2, 1e2
    span = math.log10(hi / lo)
    if span < 4.0:
        pad = (4.0 - span) / 2.0
        lo /= 10.0**pad
        hi *= 10.0**pad
    return np.logspace(math.log10(lo), math.log10(hi), points)


def _write_sigma_csv(path, model, reduced, points=2000):
    omegas = _sigma_grid(model, points)
    full, red = eval_freq(model, omegas), eval_freq(reduced, omegas)
    siso = model.p == model.q == 1  # sigma_max of a scalar is its modulus
    g_full, g_red, g_err = (
        np.abs(value[:, 0, 0]) if siso else np.linalg.norm(value, 2, axis=(1, 2))
        for value in (full, red, full - red)
    )
    with open(path, "w", newline="") as fh:
        np.savetxt(
            fh, np.column_stack([omegas, g_full, g_red, g_err]), fmt="%.10e",
            delimiter=",", newline="\r\n", comments="",
            header="omega_rad_s,sigma_max_G,sigma_max_R,sigma_max_error",
        )


def _checked(kind, valid, requirement: str):
    """argparse type: parse with ``kind`` and exit 2 unless ``valid``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    return parse


_positive_float = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_nonnegative_int = _checked(int, lambda v: v >= 0, "nonnegative")


def _add_common_flags(sp):
    defaults = StoppingOptions()
    sp.add_argument("model", help="input model file (ss format)")
    sp.add_argument("--iters", type=_nonnegative_int, default=defaults.max_iterations,
                    help="iteration cap for adaptive methods (default %(default)s)")
    sp.add_argument("--min-dist", type=_positive_float, default=defaults.min_dist,
                    help="relative rank-growth radius for lowrank-aaa "
                    "(default %(default)s)")
    sp.add_argument("--tol-bisect", type=_positive_float,
                    default=defaults.bisect_rel_tol,
                    help="relative tolerance of the norm bisection "
                    "(default %(default)s)")
    sp.add_argument("--report-json", metavar="PATH",
                    help="write the machine-readable report here")
    sp.add_argument("--hz", action="store_true",
                    help="display frequencies in Hz instead of rad/s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sysmor",
        description="Model order reduction for LTI state-space models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    red = sub.add_parser("reduce", help="reduce one model with one method")
    _add_common_flags(red)
    red.add_argument("--method", choices=METHODS, default="sys-aaa")
    red.add_argument("--target-linf", type=_positive_float, default=None,
                     help="stop when the certified error reaches this")
    red.add_argument("--keep-best", action=argparse.BooleanOptionalAction,
                     default=StoppingOptions().keep_best,
                     help="return the lowest-error iterate (default %(default)s)")
    red.add_argument("--order", type=int, default=None,
                     help="target order (required for balanced)")
    red.add_argument("--output", "-o", metavar="PATH",
                     help="reduced model path (default MODEL.reduced)")
    red.add_argument("--sigma-csv", metavar="PATH",
                     help="write a gain-vs-frequency CSV here")

    cmp_ = sub.add_parser("compare", help="error-vs-order table of methods")
    _add_common_flags(cmp_)
    cmp_.add_argument("--methods", nargs="+", choices=METHODS,
                      default=list(METHODS))
    cmp_.add_argument("--max-order", type=int, default=None,
                      help="largest order to tabulate (default min(n, 10))")

    conv = sub.add_parser(
        "convert", help="wrap a raw A,B,C,D dump in the model format"
    )
    conv.add_argument("raw", help="whitespace-separated values of A,B,C,D")
    conv.add_argument("-n", type=int, required=True, help="state count")
    conv.add_argument("-q", type=int, required=True, help="input count")
    conv.add_argument("-p", type=int, required=True, help="output count")
    conv.add_argument("--output", "-o", required=True,
                      help="model file to write")
    return parser


def _write_json(path, doc: dict) -> None:
    """Write ``doc`` as strict JSON: a non-finite number, such as the
    infinite error of an iterate with imaginary-axis poles, is null."""
    def strict(value):
        if isinstance(value, dict):
            return {key: strict(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [strict(item) for item in value]
        return None if isinstance(value, float) and not math.isfinite(value) else value

    with open(path, "w") as fh:
        json.dump(strict(doc), fh, indent=2, allow_nan=False)
    print(f"wrote {path}")


def _cmd_reduce(args) -> int:
    model = read_model(args.model)
    opts = _options_from_args(args)
    reduced, report = run_method(model, args.method, opts)
    out_path = args.output or args.model + ".reduced"
    write_model(reduced, out_path)

    print(report.format_text(hz=args.hz))
    final = report.final_record
    if final is not None:
        linf, h2 = error_cells(final.linf_error, final.certified, final.h2_metric)
        print(
            f"final: order {final.order}, linf_error {linf}, "
            f"h2 {h2}, stable {final.stable}"
        )
    print(f"wrote {out_path}")

    if args.report_json:
        doc = {**report.to_dict(), "input": args.model, "output": out_path}
        _write_json(args.report_json, doc)
    if args.sigma_csv:
        _write_sigma_csv(args.sigma_csv, model, reduced)
        print(f"wrote {args.sigma_csv}")
    return 0


def _cmd_compare(args) -> int:
    model = read_model(args.model)
    max_order = args.max_order
    if max_order is None:
        max_order = min(model.n, 10)
    elif not 1 <= max_order <= model.n:
        raise DimensionMismatch(
            f"--max-order {max_order} outside 1..{model.n} (model order)"
        )
    opts = _options_from_args(args)
    entries = compare_methods(model, args.methods, max_order, opts)

    unit = "hz" if args.hz else "rad/s"
    print(f"model: {args.model} (n={model.n}, q={model.q}, p={model.p})")
    print(f"frequencies in {unit}")
    print(f"{'method':<12} {'order':>5} {'linf_error':>13} {'h2':>13}  flag")
    for e in entries:
        linf, h2 = error_cells(e["linf_error"], e["certified"], e["h2_metric"])
        flag = "" if e["stable"] else "x"
        print(f"{e['method']:<12} {e['order']:>5} {linf:>13} {h2:>13}  {flag}")
    if any(not e["stable"] for e in entries):
        print("(x marks an unstable reduced model)")
    if not all(e["certified"] for e in entries):
        print("(~ marks a linf_error not certified as an upper bound)")

    if args.report_json:
        rows = [{k: v for k, v in e.items() if k != "system"} for e in entries]
        doc = {"model": args.model, "max_order": max_order, "entries": rows}
        _write_json(args.report_json, doc)
    return 0


def _cmd_convert(args) -> int:
    model = read_raw_matrices(args.raw, args.n, args.q, args.p)
    write_model(model, args.output)
    print(
        f"wrote {args.output} (n={model.n}, q={model.q}, p={model.p}, "
        f"stable={is_stable(model)})"
    )
    return 0


# Reading maps its OSErrors to ParseError, so an OSError left over comes
# from writing an output file.
_ERROR_CODES = (
    (ParseError, "ParseError", 2),
    (OSError, "WriteError", 2),
    ((DimensionMismatch, RankOutOfRange), "DimensionMismatch", 3),
    (UnstableInput, "UnstableInput", 5),
    ((SysmorError, np.linalg.LinAlgError), "SolverFailure", 4),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "reduce": _cmd_reduce,
        "compare": _cmd_compare,
        "convert": _cmd_convert,
    }[args.command]
    try:
        return handler(args)
    except Exception as exc:  # map library errors to exit categories
        for types, label, code in _ERROR_CODES:
            if isinstance(exc, types):
                print(f"error[{label}]: {exc}", file=_sys.stderr)
                return code
        raise


if __name__ == "__main__":
    raise SystemExit(main())
