"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` of
the same checkout.  The workload runs as a closed loop in this process:
one operation at a time, with BLAS pinned to one thread, until ``S``
seconds have passed (at least one operation).  The outputs of every
distinct result are checked by an oracle that shares no code with the
library.  With ``--trace 1`` one more operation runs under the tracer and
the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pinned before numpy loads: one BLAS thread ran the 270-state reduce
# faster than two on a 2-core machine, and keeps results bit-identical.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Setup is timed in this many fresh interpreters; the median is reported.
SETUP_REPEATS = 5

# The child that times one setup: imports through model generation.
_SETUP_PROBE = """
import time
start = time.perf_counter()
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from perfbench.workloads import WORKLOADS
WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - start)
"""


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median setup time over SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(ROOT),
             workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _tail(samples) -> str:
    """Median plus the highest percentile with ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} s, n={n}"
    for pct in (99.9, 99, 90, 50):
        if n * (1 - pct / 100) >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")
            return text + f", p{pct:g} {q[int(pct * 10) - 1]:.4f} s"
    return text + " (too few samples for a tail percentile)"


class Op:
    """One timed operation and what became of it."""

    def __init__(self, seconds, raw=None, error=None):
        self.seconds = seconds
        self.raw = raw
        self.outcome = None
        self.problems = [error] if error else []


def timed(workload, state, k) -> Op:
    start = time.perf_counter()
    try:
        raw = workload.run(state, k)
    except Exception:  # an operation that raised is a failed operation
        return Op(time.perf_counter() - start,
                  error=traceback.format_exc(limit=3).strip())
    return Op(time.perf_counter() - start, raw)


def evaluate(workload, state, ops, verdicts) -> None:
    """Fill in outcome and problems of each operation; run the oracle once
    per distinct result (``verdicts`` caches it by fingerprint)."""
    for op in ops:
        if op.problems:
            continue
        try:
            op.outcome = workload.outcome(state, op.raw)
            op.problems = op.outcome.self_problems(workload.expected)
            key = op.outcome.fingerprint()
            if key not in verdicts:
                verdicts[key] = workload.check(state, op.outcome)
            op.problems += verdicts[key]
        except Exception:  # unreadable output is a failed operation
            op.problems.append(traceback.format_exc(limit=3).strip())
        op.raw = None


def run_traced(workload, state, k, untraced: Op, verdicts):
    """One operation under the tracer; returns (op, per-layer metrics,
    tracer)."""
    from perfbench.tracer import Tracer, TracerError

    tracer = Tracer()
    try:
        tracer.install()
    except TracerError as exc:
        tracer.uninstall()
        return Op(0.0, error=f"tracer self-check: {exc}"), tracer.layer_metrics(), tracer
    try:
        op = timed(workload, state, k)
    finally:
        tracer.uninstall()
    evaluate(workload, state, [op], verdicts)
    if op.outcome is not None and untraced.outcome is not None:
        if op.outcome.fingerprint() != untraced.outcome.fingerprint():
            op.problems.append("traced outputs differ from the untraced run")
    op.problems += tracer.invariant_violations()
    metrics = tracer.layer_metrics()
    return op, metrics, tracer


def _unit(name: str) -> str:
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("residual_max"):
        return "rel"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def _print_spans(tracer) -> None:
    rows = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])
    print(f"{'span':<38} {'calls':>7} {'incl_s':>9} {'self_s':>9}")
    for name, row in rows:
        print(f"{name:<38} {row['calls']:>7} {row['s']:>9.3f} {row['self_s']:>9.3f}")
    if tracer.absent:
        print("absent: " + ", ".join(tracer.absent))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "sysmor" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'sysmor'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import sysmor
    from perfbench.workloads import WORKLOADS

    if Path(sysmor.__file__).resolve().parent != (SRC / "sysmor").resolve():
        print(f"error: imported sysmor from {sysmor.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, workdir: Path) -> int:
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(machine_facts()))
    setup_s = None if args.trace else time_setup(workload.name, args.seed, workdir)
    state = workload.setup(args.seed, str(workdir))

    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds:
        ops.append(timed(workload, state, len(ops)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts = {}
    evaluate(workload, state, ops, verdicts)
    solve = [op.seconds for op in ops]
    print(f"solve_s {_tail(solve)}")

    first = next((op for op in ops if op.outcome is not None), ops[0])
    if args.trace:
        traced, layer, tracer = run_traced(
            workload, state, len(ops), first, verdicts
        )
        ops.append(traced)
        layer["trace.overhead_s"] = traced.seconds - statistics.median(solve)
        if tracer.spans:
            tracer.dump(OUT / f"trace-{workload.name}-seed{args.seed}.json")
            _print_spans(tracer)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}
    else:
        out = first.outcome
        ok = sum(not op.problems for op in ops)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": statistics.median(solve), "unit": "s"},
            "linf_error": {"value": out and out.linf_error, "unit": "gain"},
            "h2_error": {"value": out and out.h2_error, "unit": "gain"},
            "order": {"value": out and out.order, "unit": "states"},
            "ok_ops": {"value": ok / len(ops), "unit": "share"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    failed = [op for op in ops if op.problems]
    print(f"operations {len(ops)}, failed {len(failed)} "
          f"(failed_ops {len(failed) / len(ops):.3f})")
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"op {i} FAILED: {problem}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
