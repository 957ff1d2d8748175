"""Command-line front end: reduce, compare, convert.

``reduce`` runs one method on a model file and writes the reduced model,
a human-readable report, and optional JSON / sigma-plot CSV artifacts.
``compare`` tabulates error against order for several methods on the
same model.  ``convert`` wraps a raw whitespace-separated matrix dump
into the documented model format.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys as _sys
from concurrent.futures import ThreadPoolExecutor

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
from .modelio import _read_text, parse_raw_matrices, read_model, write_model
from .report import IterationRecord, ReductionReport, _error_cells
from .statespace import StateSpace, eval_freq, is_stable, poles
from .sysaaa import StoppingOptions, _certify, reduce as reduce_sysaaa

__all__ = ["main", "compare_methods", "run_method"]

METHODS = ("sys-aaa", "lowrank-aaa", "balanced")


def _options_from_args(args) -> StoppingOptions:
    order = getattr(args, "order", None)
    if order is not None and order < 0:
        raise DimensionMismatch(f"--order {order} is negative")
    return StoppingOptions(
        max_iterations=args.iters,
        target_linf=args.target_linf,
        target_order=order,
        keep_best=args.keep_best,
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
        record, _ = _certify(
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
    in that range, certified two orders at a time (see
    ``_balanced_entries``).  Each entry carries the reduced system for
    reuse.
    """
    entries = []
    for method in methods:
        if method == "balanced":
            entries += _balanced_entries(model, max_order, opts)
            continue
        run_opts = dataclasses.replace(
            opts,
            max_iterations=max(opts.max_iterations, max_order),
            target_order=max_order,
            keep_best=False,
            target_linf=None,
        )
        _, report = run_method(model, method, run_opts)
        for rec, iterate in zip(report.records, report.iterates):
            if 1 <= rec.order <= max_order:
                entries.append(_entry(method, rec, iterate.sys))
    entries.sort(key=lambda e: (e["method"], e["order"]))
    return entries


def _balanced_entries(model: StateSpace, max_order: int, opts: StoppingOptions):
    """The balanced entries of orders 1..max_order, in order, each as
    ``run_method`` gives it, or the error of the lowest order that fails.

    The caller's thread and one worker take the orders lowest first, so
    at most two certifications are in flight and their Hamiltonian
    eigensolves, which release the GIL, overlap; a third would add its
    eigensolve's memory.  G's shared caches (balanced realization with
    both Gramians, response factor and seed responses) are built first,
    on this thread and as a first certification would build them, so no
    thread builds one twice.  After a failure neither thread starts
    another order; every lower order has started by then, so the lowest
    failure is the one the sequential loop would meet.
    """
    if max_order >= 1 and model.n and is_stable(model):
        model._balancing
        with np.errstate(over="ignore", invalid="ignore"):  # as in eval_freq
            model._seed_responses
    pending = list(range(max_order, 0, -1))  # list.pop is atomic
    done = {}

    def work():
        while True:
            try:
                order = pending.pop()
            except IndexError:
                return
            try:
                reduced, report = run_method(
                    model, "balanced", dataclasses.replace(opts, target_order=order)
                )
                done[order] = _entry("balanced", report.records[0], reduced)
            except Exception as exc:
                done[order] = exc
                pending.clear()

    with ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(work)
        try:
            work()
        finally:
            pending.clear()  # an interrupted caller stops the worker too
        worker.result()
    results = [done[order] for order in sorted(done)]
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


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
    g_full, g_red, g_err = (
        np.linalg.norm(value, 2, axis=(1, 2)) for value in (full, red, full - red)
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["omega_rad_s", "sigma_max_G", "sigma_max_R", "sigma_max_error"]
        )
        for row in zip(omegas, g_full, g_red, g_err):
            writer.writerow([f"{v:.10e}" for v in row])


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
    sp.add_argument("--target-linf", type=_positive_float, default=None,
                    help="stop when the certified error reaches this")
    sp.add_argument("--min-dist", type=_positive_float, default=defaults.min_dist,
                    help="relative rank-growth radius for lowrank-aaa "
                    "(default %(default)s)")
    sp.add_argument("--keep-best", action=argparse.BooleanOptionalAction,
                    default=defaults.keep_best,
                    help="return the lowest-error iterate (default %(default)s)")
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
        linf, h2 = _error_cells(final.linf_error, final.certified, final.h2_metric)
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
        linf, h2 = _error_cells(e["linf_error"], e["certified"], e["h2_metric"])
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
    model = parse_raw_matrices(_read_text(args.raw), args.n, args.q, args.p)
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
