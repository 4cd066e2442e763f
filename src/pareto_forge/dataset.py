"""Face-milling experiment records: loading, validation, and the built-in case study."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

SCHEMA = ("vc", "fz", "t", "ra", "mrr")

_VARIABLE_FIELDS = ("vc", "fz", "t")


class DatasetError(ValueError):
    """Raised for unreadable or malformed experiment data."""


@dataclass(frozen=True)
class ExperimentRecord:
    """One machining run: design point (vc, fz, t) and measured responses (ra, mrr).

    vc is cutting speed in m/min, fz feed rate in mm/tooth, t depth of cut in mm,
    ra surface roughness in um, mrr material removal rate in mm^3/min.
    """

    vc: float
    fz: float
    t: float
    ra: float
    mrr: float

    def __post_init__(self) -> None:
        for name in SCHEMA:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.ra <= 0:
            raise ValueError(f"ra must be positive, got {self.ra!r}")
        if self.mrr <= 0:
            raise ValueError(f"mrr must be positive, got {self.mrr!r}")

    @property
    def point(self) -> tuple[float, float, float]:
        """Design point (vc, fz, t)."""
        return (self.vc, self.fz, self.t)


@dataclass(frozen=True)
class Bounds:
    """Box limits on the three design variables, ordered (vc, fz, t)."""

    lower: tuple[float, float, float]
    upper: tuple[float, float, float]

    def __post_init__(self) -> None:
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        if len(lower) != 3 or len(upper) != 3:
            raise ValueError("bounds must have exactly three components (vc, fz, t)")
        for name, lo, hi in zip(_VARIABLE_FIELDS, lower, upper):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} bounds must be finite")
            if not lo < hi:
                raise ValueError(f"{name} lower bound {lo} must be below upper bound {hi}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def span(self) -> tuple[float, float, float]:
        return tuple(hi - lo for lo, hi in zip(self.lower, self.upper))

    @property
    def center(self) -> tuple[float, float, float]:
        return tuple(0.5 * (lo + hi) for lo, hi in zip(self.lower, self.upper))

    def contains(self, point: Sequence[float], tol: float = 0.0) -> bool:
        return all(
            lo - tol * (hi - lo) <= v <= hi + tol * (hi - lo)
            for v, lo, hi in zip(point, self.lower, self.upper)
        )


#: Machining limits of the case study: 78-314 m/min, 0.04-0.16 mm/tooth, 0.2-0.6 mm.
CASE_STUDY_BOUNDS = Bounds((78.0, 0.04, 0.2), (314.0, 0.16, 0.6))

# 27-run face-milling dataset (AISI 1040 steel, coated carbide inserts).
# Run 9's mrr of 5760 breaks the arithmetic pattern of its neighbours but is kept
# verbatim: the published fit diagnostics were computed against it.
_CASE_STUDY_ROWS = (
    (78.0, 0.04, 0.2, 2.23, 730.0),
    (78.0, 0.04, 0.4, 2.29, 1460.0),
    (78.0, 0.04, 0.6, 2.32, 2190.0),
    (78.0, 0.08, 0.2, 2.37, 1460.0),
    (78.0, 0.08, 0.4, 2.40, 2920.0),
    (78.0, 0.08, 0.6, 2.42, 4380.0),
    (78.0, 0.16, 0.2, 2.58, 2920.0),
    (78.0, 0.16, 0.4, 2.60, 5840.0),
    (78.0, 0.16, 0.6, 2.62, 5760.0),
    (157.0, 0.04, 0.2, 1.50, 1460.0),
    (157.0, 0.04, 0.4, 1.54, 2920.0),
    (157.0, 0.04, 0.6, 1.55, 4380.0),
    (157.0, 0.08, 0.2, 1.59, 2920.0),
    (157.0, 0.08, 0.4, 1.60, 5840.0),
    (157.0, 0.08, 0.6, 1.61, 8760.0),
    (157.0, 0.16, 0.2, 1.62, 5840.0),
    (157.0, 0.16, 0.4, 1.64, 11680.0),
    (157.0, 0.16, 0.6, 1.65, 17520.0),
    (314.0, 0.04, 0.2, 0.50, 2920.0),
    (314.0, 0.04, 0.4, 0.48, 5840.0),
    (314.0, 0.04, 0.6, 0.51, 8760.0),
    (314.0, 0.08, 0.2, 0.55, 5840.0),
    (314.0, 0.08, 0.4, 0.60, 11680.0),
    (314.0, 0.08, 0.6, 0.62, 17520.0),
    (314.0, 0.16, 0.2, 0.65, 11680.0),
    (314.0, 0.16, 0.4, 0.76, 23360.0),
    (314.0, 0.16, 0.6, 0.82, 35040.0),
)


def builtin_case_study() -> list[ExperimentRecord]:
    """Return the 27 embedded case-study runs, in experiment order."""
    return [ExperimentRecord(*row) for row in _CASE_STUDY_ROWS]


def load_experiments(path: str | Path) -> list[ExperimentRecord]:
    """Load experiment records from a CSV file with a ``vc,fz,t,ra,mrr`` header.

    Comma separated, ``.`` decimal point, UTF-8. Raises DatasetError naming the
    offending row and column on malformed input.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from None
    except csv.Error as exc:
        # a field over the csv module's 128 KiB limit
        raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DatasetError(f"{path}: empty file, expected header {','.join(SCHEMA)}")
    header = tuple(h.strip().lower() for h in rows[0])
    if header != SCHEMA:
        missing = [c for c in SCHEMA if c not in header]
        extra = [c for c in header if c not in SCHEMA]
        detail = []
        if missing:
            detail.append(f"missing columns: {', '.join(missing)}")
        if extra:
            detail.append(f"extra columns: {', '.join(extra)}")
        if not detail:
            detail.append(f"column order must be {','.join(SCHEMA)}")
        raise DatasetError(f"{path}: bad header ({'; '.join(detail)})")
    records = []
    for row_no, row in enumerate(rows[1:], start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(SCHEMA):
            raise DatasetError(f"{path}: row {row_no} has {len(row)} cells, expected {len(SCHEMA)}")
        values = {}
        for name, cell in zip(SCHEMA, row):
            try:
                values[name] = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path}: row {row_no}, column {name}: not a number: {cell.strip()!r}"
                ) from None
        try:
            records.append(ExperimentRecord(**values))
        except ValueError as exc:
            raise DatasetError(f"{path}: row {row_no}: {exc}") from None
    if not records:
        raise DatasetError(f"{path}: empty dataset")
    return records


def save_experiments(path: str | Path, records: Iterable[ExperimentRecord]) -> None:
    """Write records as CSV. Floats use shortest round-trip text, so reloading is lossless."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEMA)
        for rec in records:
            writer.writerow([repr(float(getattr(rec, name))) for name in SCHEMA])


@dataclass(frozen=True)
class BoundsViolation:
    """One out-of-bounds field of one record."""

    index: int
    message: str


def validate_records(records: Sequence[ExperimentRecord],
                     bounds: Bounds) -> tuple[BoundsViolation, ...]:
    """Every field of ``records`` outside the variable box, in record order; an empty
    tuple when all are within. Violations are report content, not errors."""
    violations: list[BoundsViolation] = []
    for i, rec in enumerate(records):
        for name, lo, hi in zip(_VARIABLE_FIELDS, bounds.lower, bounds.upper):
            value = getattr(rec, name)
            if value < lo:
                violations.append(BoundsViolation(i, f"{name} below lower bound ({value} < {lo})"))
            elif value > hi:
                violations.append(BoundsViolation(i, f"{name} above upper bound ({value} > {hi})"))
    return tuple(violations)
