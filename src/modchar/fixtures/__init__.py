"""Shipped data fixtures: published decomposition and condensation data for
the Harada-Norton group HN and its automorphism group HN.2 at p = 2 and 3.

Files live next to this module in fixtures/*.txt, in a small line-oriented
format (see parse_fixture).  Entries "." mean 0.  Every matrix fixture is
validated by the test suite against its stated degrees.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field

from ..errors import FormatError
from ..textio import ints


@dataclass(frozen=True)
class Fixture:
    name: str
    kind: str
    meta: dict[str, str]
    row_labels: tuple[str, ...] = ()
    row_degrees: tuple[int, ...] = ()
    row_extra: tuple[tuple[str, ...], ...] = ()
    matrix: tuple[tuple[int, ...], ...] = ()
    col_labels: tuple[str, ...] = ()
    col_degrees: tuple[int, ...] = ()
    basic_rows: tuple[str, ...] = ()
    col_pairs: tuple[tuple[int, int], ...] = ()
    indecomposable: tuple[bool, ...] = ()
    sections: dict[str, tuple] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.matrix)

    @property
    def l(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def basic_row_indices(self) -> tuple[int, ...]:
        """The `basicrows` labels as indices of this fixture's rows."""
        if not set(self.basic_rows) <= set(self.row_labels):
            raise FormatError(f"fixture {self.name}: basicrows names a label that is not a row label")
        return tuple(self.row_labels.index(lbl) for lbl in self.basic_rows)

    def meta_int(self, key: str) -> int:
        return ints([self.meta.get(key, "")], f"fixture {self.name} meta {key}")[0]


def _parse_entries(tokens):
    return tuple(ints(["0" if t == "." else t for t in tokens], "fixture entries"))


def parse_fixture(text: str) -> Fixture:
    fields: dict = {"name": "", "kind": "", "meta": {}, "col_pairs": (), "sections": {}}
    rows = []  # (label, degree, extra labels, entries)
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head, args = tokens[0], tokens[1:]
        if head in ("FIXTURE", "kind", "meta", "sline") and not args:
            raise FormatError(f"{head} without its argument")
        if head in ("FIXTURE", "kind"):
            fields["name" if head == "FIXTURE" else "kind"] = args[0]
        elif head == "meta":
            fields["meta"][args[0]] = " ".join(args[1:])
        elif head in ("collabels", "basicrows"):
            fields["col_labels" if head == "collabels" else "basic_rows"] = tuple(args)
        elif head == "coldegrees":
            fields["col_degrees"] = _parse_entries(args)
        elif head == "colpairs":
            pairs = [ints(pair.partition(":")[::2], f"fixture colpair {pair!r}") for pair in args]
            fields["col_pairs"] += tuple((a - 1, b - 1) for a, b in pairs)
        elif head == "indecomposable":
            fields["indecomposable"] = tuple(t == "x" for t in args)
        elif head == "row":
            sep = tokens.index(":") if ":" in tokens else 0
            if sep < 2:
                raise FormatError(f"row without a label and entry separator: {raw[:60]!r}")
            label, *more = tokens[1:sep]
            try:  # an optional degree follows the label
                degree, more = int(more[0]), more[1:]
            except (IndexError, ValueError):
                degree = 0
            rows.append((label, degree, tuple(more), _parse_entries(tokens[sep + 1 :])))
        elif head == "sline":
            # sline <section> <payload...>
            fields["sections"].setdefault(args[0], []).append(tuple(args[1:]))
        else:
            raise FormatError(f"unknown directive {head!r}")
    widths = {len(r[3]) for r in rows}
    if len(widths) > 1:
        raise FormatError(f"ragged matrix in fixture {fields['name']}: widths {sorted(widths)}")
    fields["sections"] = {k: tuple(v) for k, v in fields["sections"].items()}
    labels, degrees, extra, matrix = (tuple(col) for col in zip(*rows)) if rows else ((),) * 4
    return Fixture(row_labels=labels, row_degrees=degrees, row_extra=extra, matrix=matrix, **fields)


def _fixture_dir():
    return importlib.resources.files("modchar.fixtures")


def list_fixtures() -> list[str]:
    out = []
    for entry in _fixture_dir().iterdir():
        if entry.name.endswith(".txt"):
            out.append(entry.name[:-4])
    return sorted(out)


def load(name: str) -> Fixture:
    return parse_fixture(fixture_text(name))


def fixture_text(name: str) -> str:
    path = _fixture_dir() / f"{name}.txt"
    try:
        return path.read_text()
    except FileNotFoundError:
        raise FormatError(f"no fixture named {name!r}") from None
