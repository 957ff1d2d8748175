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
from .modelio import parse_raw_matrices, read_model, write_model
from .norms import h2_error_metric, linf_norm
from .report import IterationRecord, ReductionReport
from .statespace import StateSpace, dual, eval_freq, is_stable, subtract
from .sysaaa import StoppingOptions, reduce as reduce_sysaaa

__all__ = ["main", "compare_methods", "run_method"]

METHODS = ("sys-aaa", "lowrank-aaa", "balanced")

_TWO_PI = 2.0 * math.pi


def _options_from_args(args) -> StoppingOptions:
    return StoppingOptions(
        max_iterations=args.iters,
        target_linf=args.target_linf,
        target_order=getattr(args, "order", None),
        keep_best=args.keep_best,
        bisect_rel_tol=args.tol_bisect,
        minreal_tol=args.tol_minreal,
        min_dist=args.min_dist,
    )


def run_method(
    model: StateSpace, method: str, opts: StoppingOptions
) -> tuple[StateSpace, ReductionReport]:
    """Dispatch one reduction method; balanced uses opts.target_order."""
    if method == "sys-aaa":
        interp, report = reduce_sysaaa(model, opts)
        return interp.sys, report
    if method == "lowrank-aaa":
        interp, report = reduce_lowrank(model, opts)
        return interp.sys, report
    if method == "balanced":
        if opts.target_order is None:
            raise RankOutOfRange("balanced truncation needs an explicit order")
        reduced, hsv = balanced_truncate(model, opts.target_order)
        err = subtract(model, reduced)
        report = ReductionReport(
            method="balanced",
            options={"order": opts.target_order},
        )
        report.records.append(
            IterationRecord(
                iteration=0,
                action="trunc",
                omega=None,
                order=reduced.n,
                linf_error=linf_norm(err, opts.bisect_rel_tol).gamma,
                h2_metric=h2_error_metric(err),
                h2_is_norm=True,
                stable=True,
            )
        )
        report.options["hsv"] = [float(v) for v in hsv]
        report.termination = "requested order reached"
        report.best_iteration = 0
        return reduced, report
    raise ValueError(f"unknown method {method!r}")


def compare_methods(
    model: StateSpace, methods, max_order: int, opts: StoppingOptions
):
    """Error-vs-order entries for each method, sorted by (method, order).

    Adaptive methods contribute one entry per recorded iterate with
    1 <= order <= max_order; balanced truncation contributes every order
    in that range.  Each entry carries the reduced system for reuse.
    """
    entries = []
    for method in methods:
        if method == "balanced":
            for order in range(1, max_order + 1):
                reduced, _ = balanced_truncate(model, order)
                err = subtract(model, reduced)
                entries.append(
                    {
                        "method": method,
                        "order": order,
                        "linf_error": linf_norm(err, opts.bisect_rel_tol).gamma,
                        "h2_metric": h2_error_metric(err),
                        "stable": True,
                        "system": reduced,
                    }
                )
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
            if rec.order < 1 or rec.order > max_order:
                continue
            entries.append(
                {
                    "method": method,
                    "order": rec.order,
                    "linf_error": rec.linf_error,
                    "h2_metric": rec.h2_metric,
                    "stable": rec.stable,
                    # iterates of a dualized run live in the transposed domain
                    "system": dual(iterate.sys) if report.dualized else iterate.sys,
                }
            )
    entries.sort(key=lambda e: (e["method"], e["order"]))
    return entries


def _fast_gains(sys: StateSpace, omegas: np.ndarray) -> np.ndarray:
    """sigma_max(G(j w)) over a grid, via one eigendecomposition of A.

    Falls back to per-frequency solves when A is too non-normal for its
    eigenvector basis to be trusted.
    """
    if sys.n == 0:
        return np.full(omegas.shape, np.linalg.norm(sys.D, 2))
    lam, T = np.linalg.eig(sys.A)
    if np.linalg.cond(T) < 1e8:
        CT = sys.C @ T
        TB = np.linalg.solve(T, sys.B.astype(complex))
        resp = np.empty((omegas.size, sys.p, sys.q), dtype=complex)
        for i, w in enumerate(omegas):
            resp[i] = CT @ (TB / (1j * w - lam)[:, None]) + sys.D
        return np.linalg.norm(resp, 2, axis=(1, 2))
    return np.array(
        [np.linalg.norm(eval_freq(sys, w), 2) for w in omegas]
    )


def _sigma_grid(sys: StateSpace, points: int = 2000) -> np.ndarray:
    """Log-spaced grid spanning at least 4 decades around the dynamics."""
    mags = []
    if sys.n:
        mags = [abs(v) for v in np.linalg.eigvals(sys.A) if abs(v) > 0]
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
    g_full = _fast_gains(model, omegas)
    g_red = _fast_gains(reduced, omegas)
    g_err = _fast_gains(subtract(model, reduced), omegas)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["omega_rad_s", "sigma_max_G", "sigma_max_R", "sigma_max_error"]
        )
        for row in zip(omegas, g_full, g_red, g_err):
            writer.writerow([f"{v:.10e}" for v in row])


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _add_common_flags(sp):
    sp.add_argument("model", help="input model file (ss format)")
    sp.add_argument("--iters", type=int, default=20,
                    help="iteration cap for adaptive methods (default 20)")
    sp.add_argument("--target-linf", type=float, default=None,
                    help="stop when the certified error reaches this")
    sp.add_argument("--min-dist", type=_positive_float, default=0.02,
                    help="relative rank-growth radius for lowrank-aaa")
    sp.add_argument("--keep-best", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="return the lowest-error iterate (default on)")
    sp.add_argument("--tol-bisect", type=_positive_float, default=1e-6,
                    help="relative tolerance of the norm bisection")
    sp.add_argument("--tol-minreal", type=_positive_float, default=1e-9,
                    help="rank tolerance of minimal realization")
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


def _disp_freq(omega: float | None, hz: bool) -> str:
    if omega is None:
        return "-"
    return f"{omega / _TWO_PI:.6g}" if hz else f"{omega:.6g}"


def _cmd_reduce(args) -> int:
    model = read_model(args.model)
    opts = _options_from_args(args)
    reduced, report = run_method(model, args.method, opts)
    out_path = args.output or args.model + ".reduced"
    write_model(reduced, out_path)

    print(report.format_text(hz=args.hz))
    final = report.final_record
    if final is not None:
        h2 = "-" if final.h2_metric is None else f"{final.h2_metric:.6g}"
        print(
            f"final: order {final.order}, linf_error {final.linf_error:.6g}, "
            f"h2 {h2}, stable {final.stable}"
        )
    print(f"wrote {out_path}")

    if args.report_json:
        doc = report.to_dict()
        doc["input"] = args.model
        doc["output"] = out_path
        with open(args.report_json, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.report_json}")
    if args.sigma_csv:
        _write_sigma_csv(args.sigma_csv, model, reduced)
        print(f"wrote {args.sigma_csv}")
    return 0


def _cmd_compare(args) -> int:
    model = read_model(args.model)
    max_order = args.max_order
    if max_order is None:
        max_order = min(model.n, 10)
    if max_order > model.n:
        raise DimensionMismatch(
            f"--max-order {max_order} exceeds model order {model.n}"
        )
    opts = _options_from_args(args)
    entries = compare_methods(model, args.methods, max_order, opts)

    unit = "hz" if args.hz else "rad/s"
    print(f"model: {args.model} (n={model.n}, q={model.q}, p={model.p})")
    print(f"frequencies in {unit}")
    print(f"{'method':<12} {'order':>5} {'linf_error':>13} {'h2':>13}  flag")
    for e in entries:
        h2 = "-" if e["h2_metric"] is None else f"{e['h2_metric']:.6g}"
        flag = "" if e["stable"] else "x"
        print(
            f"{e['method']:<12} {e['order']:>5} {e['linf_error']:>13.6g} "
            f"{h2:>13}  {flag}"
        )
    if any(not e["stable"] for e in entries):
        print("(x marks an unstable reduced model)")

    if args.report_json:
        doc = {
            "model": args.model,
            "max_order": max_order,
            "entries": [
                {k: v for k, v in e.items() if k != "system"}
                for e in entries
            ],
        }
        with open(args.report_json, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.report_json}")
    return 0


def _cmd_convert(args) -> int:
    try:
        with open(args.raw, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {args.raw}: {exc}") from None
    model = parse_raw_matrices(text, args.n, args.q, args.p)
    write_model(model, args.output)
    print(
        f"wrote {args.output} (n={model.n}, q={model.q}, p={model.p}, "
        f"stable={is_stable(model)})"
    )
    return 0


_ERROR_CODES = (
    (ParseError, "ParseError", 2),
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
