"""The tokenizer behind every text input (MTX, PRM, REP, CTB, DECSTATE and
the shipped fixtures): one file reader, one `MAGIC key=value ...` header
reader and one integer-grid reader.  Every fault they find is a FormatError,
which the CLI maps to exit code 3.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def read_text(path) -> str:
    """The contents of the file at `path`, which must be UTF-8 text."""
    if path is None:
        raise FormatError("an input file this command needs was not given")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def ints(tokens: list[str], what: str) -> list[int]:
    """The tokens as integers; any other token is a FormatError about `what`."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"{what}: expected integers, got {' '.join(tokens)[:60]!r}") from None


def header(text: str, magic: str, keys: dict) -> tuple[dict, list[str]]:
    """(values, non-blank body lines) of `text`, whose first non-blank line
    must be `magic key=value ...` with each key of `keys` exactly once and no
    other; `keys` maps each key to the type of its value, `str` or `int`, and
    an `int` value must not be negative."""
    lines = [line for line in text.splitlines() if line.strip()]
    head = lines[0].split() if lines else []
    if head[:1] != [magic]:
        got = repr(lines[0][:40]) if lines else "an empty file"
        raise FormatError(f"expected a {magic} header, got {got}")
    pairs = [tok.partition("=") for tok in head[1:]]
    try:
        if sorted(key for key, eq, _ in pairs if eq) != sorted(keys) or len(pairs) != len(keys):
            raise ValueError
        values = {key: keys[key](value) for key, _, value in pairs}
        if any(keys[key] is int and value < 0 for key, value in values.items()):
            raise ValueError
        return values, lines[1:]
    except ValueError:
        raise FormatError(f"bad header {lines[0][:60]!r}: needs each of {', '.join(keys)} once, counts >= 0") from None


def grid(lines: list[str], rows: int, cols: int, bound: int) -> np.ndarray:
    """The rows x cols int64 array of the integer tokens in `lines`, read in
    any line layout: exactly rows * cols of them, each in 0..bound-1."""
    try:
        values = [int(t) for line in lines for t in line.split()]
        if len(values) != rows * cols:
            raise FormatError(f"expected {rows * cols} entries ({rows} x {cols}), got {len(values)}")
        arr = np.array(values, dtype=np.int64).reshape(rows, cols)
        if arr.size and (arr.min() < 0 or arr.max() >= bound):
            raise ValueError
    except (ValueError, OverflowError):
        raise FormatError(f"entries must be integers in 0..{bound - 1}") from None
    return arr
