"""Dataset file I/O.

Stimulus files are plain CSV: one row per stimulus, numeric feature columns,
last column the category label.  Lines starting with ``#`` and blank lines
are skipped.  A first row whose feature cells are all non-numeric is treated
as a header.  Probe files carry bare unlabelled vectors, one per line.
"""

from __future__ import annotations

import csv
from typing import Sequence

from .errors import DatasetError
from .som import Stimulus

__all__ = ["load_csv", "write_csv", "load_probes", "write_probes"]


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _clean_rows(path) -> list[tuple[int, list[str]]]:
    rows: list[tuple[int, list[str]]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for line_no, row in enumerate(reader, start=1):
                cells = [c.strip() for c in row]
                if not cells or all(c == "" for c in cells):
                    continue
                if cells[0].startswith("#"):
                    continue
                rows.append((line_no, cells))
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise DatasetError(str(exc), line=reader.line_num) from exc
    return rows


def load_csv(path) -> list[Stimulus]:
    """Read labelled stimuli.  Raises DatasetError with the offending line
    number on ragged rows, non-numeric feature cells, or empty labels."""
    rows = _clean_rows(path)
    if not rows:
        raise DatasetError(f"no data rows in {path}")
    if len(rows[0][1]) >= 2 and not any(_is_number(c) for c in rows[0][1][:-1]):
        rows = rows[1:]  # header row
        if not rows:
            raise DatasetError(f"no data rows in {path}")

    n_cols = len(rows[0][1])
    if n_cols < 2:
        raise DatasetError(
            "need at least one feature column plus a label column", line=rows[0][0]
        )
    data: list[Stimulus] = []
    for line_no, cells in rows:
        if len(cells) != n_cols:
            raise DatasetError(
                f"expected {n_cols} columns, got {len(cells)}", line=line_no
            )
        feats = []
        for j, cell in enumerate(cells[:-1]):
            if not _is_number(cell):
                raise DatasetError(
                    f"feature column {j} is not numeric: {cell!r}", line=line_no
                )
            feats.append(float(cell))
        label = cells[-1]
        if label == "":
            raise DatasetError("empty label", line=line_no)
        data.append(Stimulus(sid=f"row{line_no}", features=tuple(feats), label=label))
    return data


def write_csv(path, data: Sequence[Stimulus], header: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header and data:
            writer.writerow([f"f{j}" for j in range(data[0].dim)] + ["label"])
        for s in data:
            writer.writerow([format(v, ".17g") for v in s.features] + [s.label])


def load_probes(path) -> list[tuple[float, ...]]:
    """Read unlabelled probe vectors.  An empty file means no probes."""
    probes: list[tuple[float, ...]] = []
    dim: int | None = None
    for line_no, cells in _clean_rows(path):
        feats = []
        for j, cell in enumerate(cells):
            if not _is_number(cell):
                raise DatasetError(
                    f"probe column {j} is not numeric: {cell!r}", line=line_no
                )
            feats.append(float(cell))
        if dim is None:
            dim = len(feats)
        elif len(feats) != dim:
            raise DatasetError(
                f"probe has {len(feats)} values, expected {dim}", line=line_no
            )
        probes.append(tuple(feats))
    return probes


def write_probes(path, probes: Sequence[Sequence[float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for p in probes:
            writer.writerow([format(float(v), ".17g") for v in p])
