"""Plain-text state-space model files.

Format::

    ss n q p
    <n lines of n reals>   A
    <n lines of q reals>   B
    <p lines of n reals>   C
    <p lines of q reals>   D

Values are ASCII decimal, whitespace-separated; blank lines are ignored
and a matrix with a zero dimension contributes no lines.  Values are
written with enough digits that read(write(sys)) is bit-identical.
NaN and infinity are rejected on input.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ParseError
from .statespace import StateSpace

__all__ = ["format_model", "read_model", "write_model", "parse_raw_matrices"]


def _parse_value(tok: str, where: str) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise ParseError(f"bad number {tok!r} in {where}") from None
    if not np.isfinite(val):
        raise ParseError(f"non-finite value {tok!r} in {where}")
    return val


def _parse_row(line: str, width: int, label: str, row: int) -> list[float]:
    tokens = line.split()
    if len(tokens) != width:
        raise ParseError(
            f"row {row + 1} of {label} has {len(tokens)} entries, "
            f"expected {width}"
        )
    return [_parse_value(tok, label) for tok in tokens]


def parse_model(text: str) -> StateSpace:
    """Parse the documented model format into a state-space model."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty model file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "ss":
        raise ParseError("header must be 'ss n q p'")
    try:
        n, q, p = (int(tok) for tok in header[1:])
    except ValueError:
        raise ParseError("header dimensions must be integers") from None
    if min(n, q, p) < 0 or q == 0 or p == 0:
        raise ParseError(f"invalid dimensions n={n} q={q} p={p}")

    body = lines[1:]
    pos = 0
    matrices = {}
    for label, rows, cols in (
        ("A", n, n), ("B", n, q), ("C", p, n), ("D", p, q)
    ):
        if rows == 0 or cols == 0:
            matrices[label] = np.zeros((rows, cols))
            continue
        if pos + rows > len(body):
            raise ParseError(f"file ends inside matrix {label}")
        data = [
            _parse_row(body[pos + i], cols, label, i) for i in range(rows)
        ]
        pos += rows
        matrices[label] = np.array(data).reshape(rows, cols)
    if pos != len(body):
        raise ParseError(f"{len(body) - pos} unexpected trailing lines")
    return StateSpace(matrices["A"], matrices["B"], matrices["C"], matrices["D"])


def format_model(sys: StateSpace) -> str:
    """Render a model in the documented format (round-trip exact)."""
    lines = [f"ss {sys.n} {sys.q} {sys.p}"]
    for M in (sys.A, sys.B, sys.C, sys.D):
        if M.shape[0] == 0 or M.shape[1] == 0:
            continue
        for row in M:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _read_text(path) -> str:
    """The ASCII text of a file; ParseError if it cannot be read or holds
    a non-ASCII byte."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def read_model(path) -> StateSpace:
    return parse_model(_read_text(path))


def write_model(sys: StateSpace, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_model(sys))


def parse_raw_matrices(text: str, n: int, q: int, p: int) -> StateSpace:
    """Convert a raw whitespace-separated dump of A, B, C, D (row-major,
    concatenated in that order) into a model, given its dimensions."""
    if min(n, q, p) < 0 or q == 0 or p == 0:
        raise ParseError(f"invalid dimensions n={n} q={q} p={p}")
    values = [_parse_value(tok, "raw matrix dump") for tok in text.split()]
    expected = n * n + n * q + p * n + p * q
    if len(values) != expected:
        raise ParseError(
            f"raw dump has {len(values)} values, expected {expected} "
            f"for n={n} q={q} p={p}"
        )
    flat = np.array(values)
    splits = np.cumsum([n * n, n * q, p * n])
    A, B, C, D = np.split(flat, splits)
    return StateSpace(
        A.reshape(n, n), B.reshape(n, q), C.reshape(p, n), D.reshape(p, q)
    )
