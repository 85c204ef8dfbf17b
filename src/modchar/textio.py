"""The tokenizer behind every text input (MTX, PRM, REP, CTB, DECSTATE and
the shipped fixtures): one file reader, one `MAGIC key=value ...` header
reader, one integer-grid reader and its writer.  Every fault they find is a
FormatError, which the CLI maps to exit code 3.

The grid of an MTX, PRM or REP body is read and written as bytes, a whole
array at a time.  An entry is 1 to ENTRY_DIGITS ASCII digits (leading zeros
allowed) and entries are separated by ASCII whitespace (space, tab, LF, CR,
VT, FF) in any line layout.  A sign, an underscore, a non-ASCII digit or
separator, or a longer entry is a FormatError.  Header counts of rows,
columns, points and generators (`dim`) are at most DIM_CEILING, checked
before anything is allocated.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError

# 2^12: the c x c nullspace basis of a 0 x c matrix, the largest result a
# header without a body can ask for, is then 2^24 int64 entries (128 MiB)
DIM_CEILING = 4096
# 10^18 - 1 < 2^63, so an entry's Horner sum stays exact in int64
ENTRY_DIGITS = 18

# the line ends of str.splitlines
_LINE_END = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


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


def dim(value: str) -> int:
    """A header count of rows, columns, points or generators: 0..DIM_CEILING."""
    n = int(value)
    if n > DIM_CEILING:
        raise FormatError(f"a header count of {n} exceeds the dimension ceiling {DIM_CEILING}")
    return n


def split_head(text: str) -> tuple[str, str]:
    """(first non-blank line, everything after its line end) of `text`."""
    head, *body = _LINE_END.split(text.lstrip(), 1)
    return head, "".join(body)


def header(text: str, magic: str, keys: dict) -> tuple[dict, str]:
    """(values, body) of `text`, whose first non-blank line must be
    `magic key=value ...` with each key of `keys` exactly once and no other;
    `keys` maps each key to the type of its value, `str`, `int` or `dim`, and
    an `int` or `dim` value must not be negative.  The body is the text after
    that line, as one string."""
    line, body = split_head(text)
    head = line.split()
    if head[:1] != [magic]:
        raise FormatError(f"expected a {magic} header, got {repr(line[:40]) if line else 'an empty file'}")
    pairs = [tok.partition("=") for tok in head[1:]]
    try:
        if sorted(key for key, eq, _ in pairs if eq) != sorted(keys) or len(pairs) != len(keys):
            raise ValueError
        values = {key: keys[key](value) for key, _, value in pairs}
        if any(keys[key] is not str and value < 0 for key, value in values.items()):
            raise ValueError
        return values, body
    except ValueError:
        raise FormatError(f"bad header {line[:60]!r}: needs each of {', '.join(keys)} once, counts >= 0") from None


def grid(body: str, rows: int, cols: int, bound: int) -> np.ndarray:
    """The rows x cols int64 array of the entries of `body`, read in any line
    layout: exactly rows * cols of them, each in 0..bound-1."""
    # a non-ASCII character becomes `?`, which the byte check refuses
    buf = np.frombuffer(body.encode("ascii", "replace"), dtype=np.uint8)
    # uint8 differences wrap, so each byte range is one comparison; ASCII
    # whitespace is space and the five bytes \t \n \v \f \r (9..13)
    digit = buf - ord("0") < 10
    if not (digit | (buf == ord(" ")) | (buf - 9 < 5)).all():
        raise FormatError("entries must be ASCII digits separated by ASCII whitespace")
    # an entry starts where the digit mask rises and ends where it falls
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    if len(starts) != rows * cols:
        raise FormatError(f"expected {rows * cols} entries ({rows} x {cols}), got {len(starts)}")
    lengths = ends - starts
    width = int(lengths.max()) if len(lengths) else 0
    if width > ENTRY_DIGITS:
        raise FormatError(f"an entry has more than {ENTRY_DIGITS} digits")
    # Horner over digit positions counted back from each entry's end; a
    # position before an entry's start reads as a leading zero
    values = np.zeros(len(starts), dtype=np.int64)
    for back in range(width, 0, -1):
        d = buf[ends - back] - ord("0")
        d[lengths < back] = 0
        values = 10 * values + d
    if values.size and values.max() >= bound:
        raise FormatError(f"entries must be integers in 0..{bound - 1}")
    return values.reshape(rows, cols)


def grid_text(arr: np.ndarray) -> str:
    """The 2-dimensional array of non-negative integers as text: one line per
    row, its entries in decimal separated by single spaces, each line ending
    in a newline."""
    rows, cols = arr.shape
    if not arr.size:
        return "\n" * rows
    width = len(str(int(arr.max())))
    # each entry's digits at byte positions 0..width-1, then its separator;
    # a digit position is kept where the entry reaches it, the last always
    out = np.empty((rows, cols, width + 1), dtype=np.uint8)
    keep = np.ones((rows, cols, width + 1), dtype=bool)
    rest = arr
    for pos in range(width - 1, -1, -1):
        quot = rest // 10
        out[:, :, pos] = rest - 10 * quot + ord("0")
        if pos < width - 1:
            keep[:, :, pos] = rest > 0
        rest = quot
    out[:, :, width] = ord(" ")
    out[:, -1, width] = ord("\n")
    return out[keep].tobytes().decode("ascii")
