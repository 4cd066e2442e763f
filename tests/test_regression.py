import numpy as np
import pytest

from pareto_forge import (
    ExperimentRecord,
    PolyBasis,
    RegressionError,
    apd,
    compare_models,
    fit_ols,
    mapd,
    model_diagnostics,
    published_pair,
)
from pareto_forge.polymodel import basis_eval
from pareto_forge.regression import comparison_csv_text

QUAD = PolyBasis.FULL_QUADRATIC_TRIPLE


def test_apd_first_run(records):
    assert abs(apd(2.23, 2.274947) - 0.0202) <= 1e-4
    assert abs(apd(730, 485.692) - 0.3347) <= 1e-4


def test_apd_exact_prediction():
    for x in (0.5, 2.23, -4.0, 35040.0):
        assert apd(x, x) == 0.0


def test_apd_zero_actual():
    with pytest.raises(ValueError, match="zero"):
        apd(0.0, 1.0)


def test_mapd_simple():
    assert mapd([0.1, 0.3]) == pytest.approx(0.2)


def test_mapd_empty():
    with pytest.raises(ValueError, match="empty"):
        mapd([])


def test_refit_matches_published_predictions(records):
    diag = fit_ols(records, QUAD, "ra")
    assert abs(diag.predicted[0] - 2.274947) <= 1e-3
    assert abs(diag.mapd - 0.0235) <= 0.002
    diag_mrr = fit_ols(records, QUAD, "mrr")
    assert abs(diag_mrr.predicted[0] - 485.692) <= 1.0
    assert abs(diag_mrr.mapd - 0.0518) <= 0.005


def test_fit_diagnostics_extremes(records):
    diag = fit_ols(records, QUAD, "ra")
    assert abs(diag.max_predicted - 2.556) <= 0.01
    assert diag.max_predicted >= diag.min_predicted
    assert not diag.condition_warning


def test_generate_then_refit_recovers_coefficients(records):
    truth_ra, truth_mrr = published_pair("eq23")
    pts = np.array([r.point for r in records])
    ra_vals = basis_eval(QUAD, pts) @ np.asarray(truth_ra.coefficients)
    mrr_vals = basis_eval(QUAD, pts) @ np.asarray(truth_mrr.coefficients)
    synthetic = [
        ExperimentRecord(*pt, ra=float(ra_vals[i]), mrr=float(mrr_vals[i]))
        for i, pt in enumerate(pts)
    ]
    for response, truth in (("ra", truth_ra), ("mrr", truth_mrr)):
        fitted = fit_ols(synthetic, QUAD, response).model
        got = np.asarray(fitted.coefficients)
        want = np.asarray(truth.coefficients)
        assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(np.abs(want), 1e-6))


def test_too_few_records(records):
    with pytest.raises(RegressionError, match="fewer records than coefficients"):
        fit_ols(records[:5], QUAD, "ra")


def test_rank_deficient_design(records):
    clones = [records[0]] * 12
    with pytest.raises(RegressionError, match="rank deficient"):
        fit_ols(clones, QUAD, "ra")


def test_unknown_response(records):
    with pytest.raises(ValueError, match="response"):
        fit_ols(records, QUAD, "temperature")


def test_residual_orthogonality(records):
    # the OLS normal equations force the design columns orthogonal to residuals
    for response in ("ra", "mrr"):
        diag = fit_ols(records, QUAD, response)
        A = basis_eval(QUAD, np.array([r.point for r in records]))
        y = np.array([getattr(r, response) for r in records])
        resid = y - np.asarray(diag.predicted)
        scale = np.abs(y).max()
        assert np.abs(A.T @ resid).max() <= 1e-6 * scale


def test_prediction_permutation_invariance(records):
    base = fit_ols(records, QUAD, "ra")
    rng = np.random.default_rng(3)
    perm = rng.permutation(len(records))
    shuffled = [records[i] for i in perm]
    refit = fit_ols(shuffled, QUAD, "ra")
    pred_back = {shuffled[i].point: refit.predicted[i] for i in range(len(records))}
    for rec, pred in zip(records, base.predicted):
        assert pred == pytest.approx(pred_back[rec.point], rel=1e-8)


def test_refit_beats_published_linear_models(records):
    refit = (fit_ols(records, QUAD, "ra").model, fit_ols(records, QUAD, "mrr").model)
    cmp = compare_models(records, refit, published_pair("eq21"), "refit", "eq21")
    assert cmp.winners == ("refit", "refit")
    assert abs(cmp.a[0].mapd - 0.0235) <= 0.002
    assert abs(cmp.a[1].mapd - 0.0518) <= 0.005
    assert abs(cmp.b[0].mapd - 0.0707) <= 0.002
    assert abs(cmp.b[1].mapd - 0.2047) <= 0.005
    assert cmp.a[0].mapd <= cmp.b[0].mapd and cmp.a[1].mapd <= cmp.b[1].mapd


def test_identical_pairs_tie(records):
    pair = published_pair("eq23")
    cmp = compare_models(records, pair, pair)
    assert cmp.winners == ("tie", "tie")
    for da, db in zip(cmp.a, cmp.b):
        assert da.predicted == db.predicted
        assert da.apd_per_row == db.apd_per_row


def test_comparison_csv_layout(records):
    refit = (fit_ols(records, QUAD, "ra").model, fit_ols(records, QUAD, "mrr").model)
    cmp = compare_models(records, refit, published_pair("eq21"), "refit", "eq21")
    lines = comparison_csv_text(cmp).strip().splitlines()
    assert lines[0] == ("ra_actual,mrr_actual,ra_refit,mrr_refit,ra_eq21,mrr_eq21,"
                        "apd_ra_refit,apd_mrr_refit,apd_ra_eq21,apd_mrr_eq21")
    assert len(lines) == 1 + len(records)


def test_model_diagnostics_fixed_pair(records):
    ra21, _ = published_pair("eq21")
    diag = model_diagnostics(records, ra21, "ra")
    assert abs(diag.mapd - 0.0707) <= 0.002
    assert diag.condition_estimate is None
