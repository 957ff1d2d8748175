"""Structured progress reports for the reduction drivers."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

__all__ = ["IterationRecord", "ReductionReport", "error_cells"]


def error_cells(linf_error, certified, h2_metric) -> tuple[str, str]:
    """Text of an L-infinity error, with ``~`` when it is not certified as
    an upper bound, and of an H2 metric, ``-`` when there is none."""
    linf = f"{linf_error:.6g}" + ("" if certified else "~")
    return linf, "-" if h2_metric is None else f"{h2_metric:.6g}"


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one driver iteration.

    ``iteration`` 0 records the state before any support point is placed.
    ``action`` is one of ``"init"``, ``"add"``, ``"grow"``; ``omega`` is the
    frequency acted on (None for init).  ``h2_is_norm`` is False when the
    error system was unstable, in which case ``h2_metric`` is the same trace
    formula but not a norm.  ``ranks`` lists per-support-point ranks for the
    low-rank driver and is None otherwise.  ``certified`` is False when
    ``linf_error`` is not a proven upper bound (see ``LinfResult``).
    """

    iteration: int
    action: str
    omega: float | None
    order: int
    linf_error: float
    h2_metric: float | None
    h2_is_norm: bool
    stable: bool
    w0_condition: float | None = None
    ranks: tuple[int, ...] | None = None
    certified: bool = True

    def to_dict(self) -> dict:
        ranks = list(self.ranks) if self.ranks is not None else None
        return {**asdict(self), "ranks": ranks}


@dataclass
class ReductionReport:
    """Full run record: per-iteration history plus termination summary.

    ``iterates`` keeps the interpolant of each iteration (index-aligned
    with ``records``), in the model's input/output domain even when the
    run was ``dualized``; it is excluded from ``to_dict`` so reports stay
    JSON-friendly.
    """

    method: str
    options: dict = field(default_factory=dict)
    records: list[IterationRecord] = field(default_factory=list)
    termination: str = ""
    best_iteration: int | None = None
    dualized: bool = False
    warnings: list[str] = field(default_factory=list)
    iterates: list = field(default_factory=list)

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    @property
    def final_record(self) -> IterationRecord | None:
        if self.best_iteration is not None:
            return self.records[self.best_iteration]
        return self.records[-1] if self.records else None

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "options": dict(self.options),
            "records": [rec.to_dict() for rec in self.records],
            "termination": self.termination,
            "best_iteration": self.best_iteration,
            "dualized": self.dualized,
            "warnings": list(self.warnings),
        }

    def format_text(self, hz: bool = False) -> str:
        lines = [f"method: {self.method}"]
        if self.dualized:
            lines.append("note: inputs/outputs transposed internally (p > q)")
        freq_label = "omega_hz" if hz else "omega"
        scale = math.tau if hz else 1.0
        header = (
            f"{'iter':>4}  {'action':<6} {freq_label:>12}  {'order':>5} "
            f"{'linf_error':>12}  {'h2':>12}  {'stable':>6}"
        )
        lines.append(header)
        for rec in self.records:
            omega = f"{rec.omega / scale:.6g}" if rec.omega is not None else "-"
            linf, h2 = error_cells(rec.linf_error, rec.certified, rec.h2_metric)
            if rec.h2_metric is not None and not rec.h2_is_norm:
                h2 += "*"
            lines.append(
                f"{rec.iteration:>4}  {rec.action:<6} {omega:>12}  {rec.order:>5} "
                f"{linf:>12}  {h2:>12}  {str(rec.stable):>6}"
            )
        if not all(rec.certified for rec in self.records):
            lines.append("  (~ linf_error not certified as an upper bound)")
        if any(rec.h2_metric is not None and not rec.h2_is_norm for rec in self.records):
            lines.append("  (* error system unstable: value is a metric, not a norm)")
        lines.append(f"termination: {self.termination}")
        if self.best_iteration is not None:
            lines.append(f"returned iterate: iteration {self.best_iteration}")
        for msg in self.warnings:
            lines.append(f"warning: {msg}")
        return "\n".join(lines)
