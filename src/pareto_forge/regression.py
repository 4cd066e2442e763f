"""Ordinary least squares fitting of the response models and fit diagnostics.

The models are linear in their coefficients, so the fit is plain OLS on the
monomial basis, solved through a numerically stable orthogonal factorization
with internal column scaling (raw-unit columns span 1 to ~1e5). Diagnostics are
the absolute percentage deviation (APD) per run, its mean (MAPD), and the
extreme predicted values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ExperimentRecord
from .polymodel import PolyBasis, PolynomialModel, basis_eval, evaluate

_RESPONSE_META = {"ra": ("Ra", "um"), "mrr": ("MRR", "mm^3/min")}


class RegressionError(ValueError):
    """Raised when a fit cannot be computed (too few records, rank deficiency,
    coefficients past the float range)."""


@dataclass(frozen=True)
class FitDiagnostics:
    model: PolynomialModel
    predicted: tuple[float, ...]
    apd_per_row: tuple[float, ...]
    mapd: float
    max_predicted: float
    min_predicted: float


def apd(actual: float, predicted: float) -> float:
    """Absolute percentage deviation |actual - predicted| / |actual|, as a fraction."""
    if actual == 0:
        raise ValueError("APD undefined for a zero actual value")
    return abs(actual - predicted) / abs(actual)


def mapd(apds: Sequence[float]) -> float:
    """Arithmetic mean of APD values."""
    if len(apds) == 0:
        raise ValueError("MAPD of an empty list")
    return math.fsum(apds) / len(apds)


def _design_matrix(records: Sequence[ExperimentRecord], basis: PolyBasis) -> np.ndarray:
    pts = np.array([r.point for r in records], dtype=float)
    return basis_eval(basis, pts)


def _diagnose(model: PolynomialModel, records, response: str) -> FitDiagnostics:
    actual = np.array([getattr(r, response) for r in records], dtype=float)
    pts = np.array([r.point for r in records], dtype=float)
    predicted = np.asarray(evaluate(model, pts), dtype=float)
    apds = tuple(apd(a, p) for a, p in zip(actual, predicted))
    return FitDiagnostics(
        model=model,
        predicted=tuple(float(p) for p in predicted),
        apd_per_row=apds,
        mapd=mapd(apds),
        max_predicted=float(predicted.max()),
        min_predicted=float(predicted.min()),
    )


def fit_model(records: Sequence[ExperimentRecord], basis: PolyBasis,
              response: str) -> PolynomialModel:
    """Least-squares fit of ``response`` over ``basis``.

    Coefficients minimize the sum of squared residuals; exposed coefficients are
    in raw units (the column scaling is undone after the solve).
    """
    if response not in _RESPONSE_META:
        raise ValueError(f"response must be 'ra' or 'mrr', got {response!r}")
    n, k = len(records), basis.n_terms
    if n < k:
        raise RegressionError(f"fewer records than coefficients: {n} < {k}")
    A = _design_matrix(records, basis)
    y = np.array([getattr(r, response) for r in records], dtype=float)
    col_scale = np.abs(A).max(axis=0)
    if np.any(col_scale == 0.0):
        raise RegressionError("design matrix is rank deficient (zero column)")
    coeffs_scaled, _, rank, _ = np.linalg.lstsq(A / col_scale, y, rcond=None)
    if rank < k:
        raise RegressionError(f"design matrix is rank deficient (rank {rank} < {k} terms)")
    # a coefficient past the float range becomes inf, reported below
    with np.errstate(over="ignore"):
        coeffs = coeffs_scaled / col_scale
    if not np.all(np.isfinite(coeffs)):
        raise RegressionError(f"{response} coefficients overflow the float range")
    name, units = _RESPONSE_META[response]
    return PolynomialModel(basis, tuple(coeffs), name, units)


def fit_ols(records: Sequence[ExperimentRecord], basis: PolyBasis, response: str) -> FitDiagnostics:
    """:func:`fit_model` with full diagnostics over the fitted records."""
    return _diagnose(fit_model(records, basis, response), records, response)


@dataclass(frozen=True)
class ModelComparison:
    """Side-by-side APD comparison of two (Ra, MRR) model pairs over a dataset."""

    label_a: str
    label_b: str
    #: each run's measured (ra, mrr)
    actual: tuple[tuple[float, float], ...]
    #: each pair's (Ra, MRR) diagnostics over the runs
    a: tuple[FitDiagnostics, FitDiagnostics]
    b: tuple[FitDiagnostics, FitDiagnostics]

    @property
    def winners(self) -> tuple[str, str]:
        """Per response, the label of the pair with the lower MAPD; equal MAPDs tie."""
        winners = []
        for da, db in zip(self.a, self.b):
            if da.mapd < db.mapd:
                winners.append(self.label_a)
            elif db.mapd < da.mapd:
                winners.append(self.label_b)
            else:
                winners.append("tie")
        return tuple(winners)


def compare_models(
    records: Sequence[ExperimentRecord],
    pair_a: tuple[PolynomialModel, PolynomialModel],
    pair_b: tuple[PolynomialModel, PolynomialModel],
    label_a: str = "a",
    label_b: str = "b",
) -> ModelComparison:
    """Per-run predictions and APDs of both pairs, with their MAPDs and extremes."""
    return ModelComparison(
        label_a=label_a,
        label_b=label_b,
        actual=tuple((rec.ra, rec.mrr) for rec in records),
        a=tuple(_diagnose(m, records, resp) for m, resp in zip(pair_a, _RESPONSE_META)),
        b=tuple(_diagnose(m, records, resp) for m, resp in zip(pair_b, _RESPONSE_META)),
    )


def comparison_csv_text(cmp: ModelComparison) -> str:
    """CSV mirroring the published comparison table layout: actuals, both pairs, both APDs."""
    a, b = cmp.label_a, cmp.label_b
    header = [
        "ra_actual", "mrr_actual",
        f"ra_{a}", f"mrr_{a}", f"ra_{b}", f"mrr_{b}",
        f"apd_ra_{a}", f"apd_mrr_{a}", f"apd_ra_{b}", f"apd_mrr_{b}",
    ]
    diags = cmp.a + cmp.b
    lines = [",".join(header)]
    for i, actual in enumerate(cmp.actual):
        cells = (*actual, *(d.predicted[i] for d in diags), *(d.apd_per_row[i] for d in diags))
        lines.append(",".join(f"{v:.10g}" for v in cells))
    return "\n".join(lines) + "\n"
