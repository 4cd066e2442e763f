"""Dominance reasoning, front filtering, and cross-method front merging."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

FRONT_CSV_HEADER = ("method", "param", "vc", "fz", "t", "ra", "mrr")


class Sense(Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"

    @property
    def sign(self) -> float:
        """+1 for minimized objectives, -1 for maximized ones: value * sign is the
        minimization form."""
        return 1.0 if self is Sense.MINIMIZE else -1.0


@dataclass(frozen=True)
class ParetoPoint:
    """A labeled solution: design point, natural-unit responses, and provenance tags."""

    x: tuple[float, ...]
    responses: tuple[float, ...]
    method: str
    tag: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "responses", tuple(float(v) for v in self.responses))


@dataclass(frozen=True)
class Front:
    """Ordered set of labeled points sharing one per-objective sense vector."""

    points: tuple[ParetoPoint, ...]
    senses: tuple[Sense, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "senses", tuple(self.senses))
        for p in self.points:
            if len(p.responses) != len(self.senses):
                raise ValueError(
                    f"point has {len(p.responses)} responses, front has {len(self.senses)} senses"
                )


def _min_form(values: Sequence[float], senses: Sequence[Sense]) -> np.ndarray:
    return np.asarray(values, dtype=float) * np.array([s.sign for s in senses])


def _eps_array(eps, n: int) -> np.ndarray:
    arr = np.asarray(eps, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"eps must be a scalar or length-{n} sequence")
    # written so that a NaN, which fails every comparison, is rejected too
    if not np.all((arr >= 0) & (arr < np.inf)):
        raise ValueError(f"eps must be finite and non-negative, got {eps!r}")
    return arr


def dominates(a: Sequence[float], b: Sequence[float], senses: Sequence[Sense], eps=0.0) -> bool:
    """True iff ``a`` is no worse than ``b`` everywhere and strictly better somewhere.

    ``eps`` widens the equality band per objective for comparing solver outputs
    whose agreement is tolerance-limited; the default 0 is an exact comparison.
    """
    if len(a) != len(b) or len(a) != len(senses):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)} responses, {len(senses)} senses")
    e = _eps_array(eps, len(senses))
    va, vb = _min_form(a, senses), _min_form(b, senses)
    return bool(np.all(va <= vb + e) and np.any(va < vb - e))


def _min_form_columns(values, senses: Sequence[Sense]) -> np.ndarray:
    """The minimization forms of the rows of ``values`` (n, 2), as the columns
    of a contiguous (2, n) array. Dominance is two-objective: any other number
    of senses is rejected here."""
    if len(senses) != 2:
        raise ValueError(f"dominance is defined for exactly two objectives, got {len(senses)}")
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValueError(f"values must have shape (n, 2), got {v.shape}")
    return np.ascontiguousarray(_min_form(v, senses).T)


def dominated_mask(values, senses: Sequence[Sense], eps=0.0) -> np.ndarray:
    """Per row of ``values`` (n, 2): whether some row dominates it, by the test of
    :func:`dominates`, in O(n log n) (Kung, Luccio & Preparata, JACM 22:469, 1975).

    In minimization form, row i is dominated iff a row with f1 < f1_i - e1 has
    f2 <= f2_i + e2, or a row with f1 <= f1_i + e1 has f2 < f2_i - e2. With the
    rows sorted by f1 once, each set is a prefix, found by binary search, and
    the least f2 of every prefix is a running minimum.
    """
    f1, f2 = _min_form_columns(values, senses)
    e1, e2 = _eps_array(eps, 2)
    order = np.argsort(f1)
    f1s = f1[order]
    # best[k]: least f2 of the first k rows in f1 order, skipping NaN; the empty
    # prefix is NaN, which compares false (+inf would let (-inf, +inf) dominate itself)
    best = np.concatenate(([np.nan], np.fmin.accumulate(f2[order])))
    dominated = best[np.searchsorted(f1s, f1 - e1, "left")] <= f2 + e2
    dominated |= best[np.searchsorted(f1s, f1 + e1, "right")] < f2 - e2
    # a NaN f1 sorts last, so its searches would count every other row
    return dominated & ~np.isnan(f1)


def _responses(points: Sequence[ParetoPoint], n_obj: int) -> np.ndarray:
    return np.array([p.responses for p in points], dtype=float).reshape(len(points), n_obj)


def filter_nondominated(
    points: Sequence[ParetoPoint], senses: Sequence[Sense], eps=0.0
) -> list[ParetoPoint]:
    """Maximal mutually non-dominated subset, preserving input order.

    Exact duplicate response vectors collapse to their first occurrence.
    """
    dominated = dominated_mask(_responses(points, len(senses)), senses, eps)
    survivors: list[ParetoPoint] = []
    seen: set[tuple[float, ...]] = set()
    for p, dom in zip(points, dominated):
        if not dom and p.responses not in seen:
            seen.add(p.responses)
            survivors.append(p)
    return survivors


def merge_fronts(fronts: Sequence[Front], eps=0.0) -> Front:
    """Concatenate fronts and re-filter for dominance, keeping method labels."""
    if not fronts:
        raise ValueError("nothing to merge")
    senses = fronts[0].senses
    for f in fronts[1:]:
        if f.senses != senses:
            raise ValueError(f"sense mismatch: {f.senses} vs {senses}")
    merged = [p for f in fronts for p in f.points]
    return Front(tuple(filter_nondominated(merged, senses, eps)), senses)


def front_to_csv_text(front: Front) -> str:
    """CSV rendering with the fixed ``method,param,vc,fz,t,ra,mrr`` schema.

    Every point is written: a routine's front holds its feasible points only.
    Requires three design variables and two responses (the case-study layout).
    A label that holds a comma, a quote or a line break is quoted, so
    :func:`read_front_csv` reads it back unchanged.
    """
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    # minimal quoting looks for the line terminator's characters only, not a bare \r
    quoted = csv.writer(text, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(FRONT_CSV_HEADER)
    for p in front.points:
        if len(p.x) != 3 or len(p.responses) != 2:
            raise ValueError("front CSV needs 3 design variables and 2 responses per point")
        row = [p.method, p.tag] + [f"{v:.10g}" for v in (*p.x, *p.responses)]
        (quoted if "\r" in p.method + p.tag else writer).writerow(row)
    return text.getvalue()


def read_front_csv(path: str | Path, senses: Sequence[Sense]) -> Front:
    """Read a front CSV as ``front_to_csv_text`` writes it.

    Raises ValueError naming the path and the row for a bad header, a wrong
    cell count, a value that is not a finite number, or unreadable CSV.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if tuple(rows[0] if rows else ()) != FRONT_CSV_HEADER:
        raise ValueError(f"{path}: expected header {','.join(FRONT_CSV_HEADER)}")
    points = []
    for row_no, row in enumerate(rows[1:], start=1):
        if not row:
            continue
        if len(row) != len(FRONT_CSV_HEADER):
            raise ValueError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(FRONT_CSV_HEADER)}")
        method, tag, *cells = row
        try:
            nums = [float(v) for v in cells]
        except ValueError:
            nums = None
        if nums is None or not all(map(math.isfinite, nums)):
            raise ValueError(
                f"{path}: row {row_no}: values must be finite numbers, got {','.join(cells)}")
        points.append(ParetoPoint(tuple(nums[:3]), tuple(nums[3:]), method, tag))
    return Front(tuple(points), tuple(senses))
