"""Outside-in tracer: wraps the public functions of each sysmor module.

Every function a layer module lists in ``__all__`` is replaced, at every
module binding that holds the same function object, by a wrapper that
records a span (name, start, end, parent span) and a few counts taken at
the same boundary.  Nothing in the library is edited; ``uninstall``
restores every binding.

Per-layer metrics are computed from the spans after the traced operation:
a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# The repository's modules; ``report`` and ``exceptions`` do no measurable work.
LAYERS = (
    "statespace", "norms", "numkernels", "sysaaa", "lowrank", "balred",
    "modelio", "cli",
)

# Bindings the self-check expects: home span name -> modules that import it.
EXPECTED_BINDINGS = {
    "statespace.eval_freq": (
        "sysmor.statespace", "sysmor.norms", "sysmor.sysaaa", "sysmor.cli",
        "sysmor",
    ),
    "sysaaa.assemble_error_system": ("sysmor.sysaaa", "sysmor.lowrank"),
    "sysaaa.compute_X": ("sysmor.sysaaa", "sysmor.lowrank"),
    "norms.linf_norm": ("sysmor.norms", "sysmor.lowrank"),
}

REDUCE_SPANS = ("sysaaa.reduce", "lowrank.reduce_lowrank")


class TracerError(Exception):
    """The tracer could not account for a binding it should have wrapped."""


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans for one traced operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self.residual_max = 0.0  # of every solve_lyapunov result
        self.absent: list[str] = []
        self.reduce_steps: list[tuple[int, int]] = []  # (span, steps)
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._seen_blocks: set = set()
        self._models: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer at all its bindings."""
        wrappers = {}  # span name -> (original, wrapper)
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"sysmor.{layer}")
            except ImportError:
                self.absent.append(f"sysmor.{layer}")
                continue
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    span = f"{layer}.{name}"
                    wrappers[span] = (fn, self._wrap(span, fn))
        originals = {id(fn): (fn, w) for fn, w in wrappers.values()}
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))
        self._self_check(wrappers, originals)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    @staticmethod
    def _modules():
        return [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "sysmor" or k.startswith("sysmor."))
        ]

    def _self_check(self, wrappers, originals) -> None:
        """Every binding of a wrapped function now holds its wrapper; the
        bindings named in EXPECTED_BINDINGS exist or are reported absent."""
        for mod in self._modules():
            for attr, val in vars(mod).items():
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    raise TracerError(f"{mod.__name__}.{attr} was not replaced")
        for span, homes in EXPECTED_BINDINGS.items():
            name = span.split(".")[1]
            wrapper = wrappers.get(span, (None, None))[1]
            for modname in homes:
                mod = sys.modules.get(modname)
                bound = getattr(mod, name, None) if mod is not None else None
                if wrapper is None or bound is None:
                    self.absent.append(f"{modname}.{name}")
                elif bound is not wrapper:
                    raise TracerError(f"{modname}.{name} is not the traced {span}")

    # -- recording ------------------------------------------------------

    def _wrap(self, span: str, fn):
        hook = getattr(self, "_on_" + span.replace(".", "_"), None)
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([span, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            active[span] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
                active[span] -= 1
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        return wrapper

    def _on_statespace_eval_freq(self, idx, args, kwargs, result):
        if self._active["norms.linf_norm"]:
            self.counts["norms.linf_norm.probes"] += 1

    def _on_norms_linf_norm(self, idx, args, kwargs, result):
        self.counts["norms.linf_norm.level_tests"] += result.iterations

    def _on_sysaaa_assemble_error_system(self, idx, args, kwargs, result):
        blocks = _arg(args, kwargs, 0, "blocks")
        self.counts["sysaaa.assemble_error_system.blocks"] += len(blocks)
        for blk in blocks:
            key = (blk.omega, _digest(blk.A, blk.B1, blk.B2))
            if key not in self._seen_blocks:
                self._seen_blocks.add(key)
                self.counts["sysaaa.new_blocks"] += 1

    def _on_statespace_minreal(self, idx, args, kwargs, result):
        before = _arg(args, kwargs, 0, "sys").n
        self.counts["statespace.minreal.states_removed"] += before - result.n

    def _on_numkernels_solve_lyapunov(self, idx, args, kwargs, result):
        self.residual_max = max(self.residual_max, result.residual)

    def _on_balred_balanced_truncate(self, idx, args, kwargs, result):
        model = _arg(args, kwargs, 0, "sys")
        self._models.add(_digest(model.A, model.B, model.C, model.D))

    def _on_sysaaa_reduce(self, idx, args, kwargs, result):
        report = result[1]
        self.reduce_steps.append((idx, len(report.records) - 1))

    def _on_lowrank_reduce_lowrank(self, idx, args, kwargs, result):
        report = result[1]
        self.reduce_steps.append((idx, len(report.records) - 1))
        self.counts["lowrank.grow_steps"] += sum(
            rec.action == "grow" for rec in report.records
        )

    # -- analysis -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def invariant_violations(self) -> list[str]:
        """Per reduce: linf_norm runs steps + 1 times and
        assemble_error_system runs steps times."""
        owner = {}
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name in REDUCE_SPANS:
                owner[i] = i
            elif parent >= 0 and parent in owner:
                owner[i] = owner[parent]
        calls = Counter(
            (owner[i], name) for i, (name, *_rest) in enumerate(self.spans)
            if i in owner
        )
        problems = []
        for idx, steps in self.reduce_steps:
            want = {"norms.linf_norm": steps + 1,
                    "sysaaa.assemble_error_system": steps}
            for name, expected in want.items():
                got = calls[(idx, name)]
                if got != expected:
                    problems.append(
                        f"{self.spans[idx][0]} with {steps} steps ran "
                        f"{name} {got} times, expected {expected}"
                    )
        return problems

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the traced operation."""
        s = self.summary()

        def get(name, field):
            return s.get(name, {}).get(field, 0)

        ev_calls = get("statespace.eval_freq", "calls")
        blocks = self.counts["sysaaa.assemble_error_system.blocks"]
        bt_calls = get("balred.balanced_truncate", "calls")
        m = {
            "statespace.eval_freq.calls": ev_calls,
            "statespace.eval_freq.s": get("statespace.eval_freq", "s"),
            "statespace.eval_freq.us_per_call": (
                1e6 * get("statespace.eval_freq", "s") / ev_calls
                if ev_calls else 0.0
            ),
            "norms.linf_norm.probes": self.counts["norms.linf_norm.probes"],
            "norms.linf_norm.calls": get("norms.linf_norm", "calls"),
            "norms.linf_norm.s": get("norms.linf_norm", "s"),
            "norms.linf_norm.self_s": get("norms.linf_norm", "self_s"),
            "norms.linf_norm.level_tests":
                self.counts["norms.linf_norm.level_tests"],
            "sysaaa.assemble_error_system.calls":
                get("sysaaa.assemble_error_system", "calls"),
            "sysaaa.assemble_error_system.self_s":
                get("sysaaa.assemble_error_system", "self_s"),
            "sysaaa.assemble_error_system.blocks": blocks,
            "sysaaa.block_solve_ratio": (
                self.counts["sysaaa.new_blocks"] / blocks if blocks else 0.0
            ),
            "statespace.minreal.s": get("statespace.minreal", "s"),
            "statespace.minreal.states_removed":
                self.counts["statespace.minreal.states_removed"],
            "numkernels.solve_lyapunov.calls":
                get("numkernels.solve_lyapunov", "calls"),
            "numkernels.solve_lyapunov.s": get("numkernels.solve_lyapunov", "s"),
            "numkernels.solve_lyapunov.residual_max": self.residual_max,
            "sysaaa.compute_X.self_s": get("sysaaa.compute_X", "self_s"),
            "norms.h2_error_metric.self_s": get("norms.h2_error_metric", "self_s"),
            "balred.balanced_truncate.calls": bt_calls,
            "balred.balanced_truncate.self_s":
                get("balred.balanced_truncate", "self_s"),
            "balred.gramian_reuse_ratio": (
                len(self._models) / bt_calls if bt_calls else 0.0
            ),
            "lowrank.truncate_sample.calls": get("lowrank.truncate_sample", "calls"),
            "lowrank.grow_steps": self.counts["lowrank.grow_steps"],
            "sysaaa.sample_support_point.calls":
                get("sysaaa.sample_support_point", "calls"),
            "sysaaa.solve_weights.s": get("sysaaa.solve_weights", "s"),
            "sysaaa.realize_interpolant.s": get("sysaaa.realize_interpolant", "s"),
            "modelio.read_model.s": get("modelio.read_model", "s"),
            "modelio.write_model.s": get("modelio.write_model", "s"),
            "cli.main.self_s": get("cli.main", "self_s"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                row["self_s"] for name, row in s.items()
                if name.split(".")[0] == layer
            )
        return m

    def dump(self, path) -> None:
        """Write the spans as JSON (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [[n, a - t0, b - t0, p] for n, a, b, p in self.spans],
                    "absent": self.absent,
                },
                fh,
            )
