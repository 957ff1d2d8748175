"""Plain-text state-space model files.

Format::

    ss n q p
    <n lines of n reals>   A
    <n lines of q reals>   B
    <p lines of n reals>   C
    <p lines of q reals>   D

Values are ASCII, whitespace-separated; blank lines are ignored and a
matrix with a zero dimension contributes no lines.  A value is any finite
spelling Python's ``float`` reads (sign, exponent, ``1_000``), in model
files and raw dumps alike: NaN, infinity and overflow (``1e999``) are
rejected.  Values are written with ``%.17g``, so read(write(sys)) is exact.
"""

from __future__ import annotations

import io
import itertools
import re

import numpy as np

from .exceptions import ParseError
from .statespace import StateSpace

__all__ = ["format_model", "read_model", "write_model", "read_raw_matrices"]

# Tokens of a raw dump decoded at a time, so no list of all its tokens is held.
_RAW_SLICE = 4096


def _values(tokens: list[str], where: str) -> np.ndarray:
    """The tokens as float64 in one conversion (``np.array`` calls ``float``
    on each str); ParseError naming the first bad or non-finite token."""
    try:
        values = np.array(tokens, dtype=float)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        for tok in tokens:
            try:
                finite = np.isfinite(float(tok))
            except ValueError:
                raise ParseError(f"bad number {tok!r} in {where}") from None
            if not finite:
                raise ParseError(f"non-finite value {tok!r} in {where}")
    return values


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

    pos = 1
    matrices = []
    for label, rows, cols in (
        ("A", n, n), ("B", n, q), ("C", p, n), ("D", p, q)
    ):
        if rows and cols:
            if pos + rows > len(lines):
                raise ParseError(f"file ends inside matrix {label}")
            block = lines[pos : pos + rows]
            # A row of cols values is at least 2 cols - 1 characters long, so
            # a shorter block has a row of the wrong width, which the loop
            # reports: M is allocated only for a block that can fill it.
            fits = sum(map(len, block)) >= rows * (2 * cols - 1)
            M = np.empty((rows, cols) if fits else (0, cols))
            for i, line in enumerate(block):
                tokens = line.split()
                if len(tokens) != cols:
                    raise ParseError(
                        f"row {i + 1} of {label} has {len(tokens)} entries, "
                        f"expected {cols}"
                    )
                values = _values(tokens, label)
                if fits:
                    M[i] = values
            pos += rows
        else:
            M = np.empty((rows, cols))
        matrices.append(M)
    if pos != len(lines):
        raise ParseError(f"{len(lines) - pos} unexpected trailing lines")
    return StateSpace(*matrices)


def format_model(sys: StateSpace) -> str:
    """Render a model in the documented format (round-trip exact)."""
    out = io.StringIO()
    out.write(f"ss {sys.n} {sys.q} {sys.p}\n")
    for M in (sys.A, sys.B, sys.C, sys.D):
        if M.size:
            np.savetxt(out, M, fmt="%.17g")
    return out.getvalue()


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


def read_raw_matrices(path, n: int, q: int, p: int) -> StateSpace:
    return parse_raw_matrices(_read_text(path), n, q, p)


def parse_raw_matrices(text: str, n: int, q: int, p: int) -> StateSpace:
    """Convert a raw whitespace-separated dump of A, B, C, D (row-major,
    concatenated in that order) into a model, given its dimensions."""
    if min(n, q, p) < 0 or q == 0 or p == 0:
        raise ParseError(f"invalid dimensions n={n} q={q} p={p}")
    tokens = (match.group() for match in re.finditer(r"\S+", text))
    slices = iter(lambda: list(itertools.islice(tokens, _RAW_SLICE)), [])
    flat = np.concatenate(
        [np.empty(0)] + [_values(chunk, "raw matrix dump") for chunk in slices]
    )
    expected = n * n + n * q + p * n + p * q
    if flat.size != expected:
        raise ParseError(
            f"raw dump has {flat.size} values, expected {expected} "
            f"for n={n} q={q} p={p}"
        )
    A, B, C, D = np.split(flat, np.cumsum([n * n, n * q, p * n]))
    return StateSpace(
        A.reshape(n, n), B.reshape(n, q), C.reshape(p, n), D.reshape(p, q)
    )
