"""Metamorphic tests: transform the records, and the fit and the routines' points
must move exactly as the transform says, on the case study and on a 5x5x5
factorial over its box."""

import numpy as np
import pytest

from pareto_forge import (
    CASE_STUDY_BOUNDS,
    DEFAULT_P_VALUES,
    ConstraintSet,
    ExperimentRecord,
    MooProblem,
    Objective,
    PolyBasis,
    Sense,
    SolverConfig,
    builtin_case_study,
    epsilon_sweep,
    evaluate,
    fit_ols,
    global_criterion_sweep,
    individual_optima,
    published_pair,
    weighted_sum_sweep,
)

QUAD = PolyBasis.FULL_QUADRATIC_TRIPLE
MRR_SCALE = 7.0


def _fit_pair(records):
    return tuple(fit_ols(records, QUAD, response).model for response in ("ra", "mrr"))


def _factorial_records(levels=5, noise=0.02, seed=0):
    """A levels^3 factorial over the case-study box, in the layout of the
    benchmark's synthetic CSV: responses are the case-study refit models times
    independent seeded multiplicative noise."""
    ra, mrr = _fit_pair(builtin_case_study())
    bounds = CASE_STUDY_BOUNDS
    axes = [np.linspace(lo, hi, levels) for lo, hi in zip(bounds.lower, bounds.upper)]
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    rng = np.random.default_rng(seed)
    ra_vals = evaluate(ra, x) * (1.0 + noise * rng.standard_normal(len(x)))
    mrr_vals = evaluate(mrr, x) * (1.0 + noise * rng.standard_normal(len(x)))
    return [ExperimentRecord(*map(float, xi), ra=float(r), mrr=float(m))
            for xi, r, m in zip(x, ra_vals, mrr_vals)]


@pytest.fixture(scope="module", params=["case_study", "factorial"])
def dataset(request):
    if request.param == "case_study":
        return builtin_case_study()
    return _factorial_records()


def _problem(models):
    ra, mrr = models
    return MooProblem((Objective(ra, Sense.MINIMIZE), Objective(mrr, Sense.MAXIMIZE)),
                      ConstraintSet(CASE_STUDY_BOUNDS))


def test_permuting_records_leaves_the_fit_unchanged(dataset):
    base = _fit_pair(dataset)
    perm = np.random.default_rng(1).permutation(len(dataset))
    shuffled = _fit_pair([dataset[i] for i in perm])
    for got, want in zip(shuffled, base):
        np.testing.assert_allclose(got.coefficients, want.coefficients, rtol=1e-9, atol=0)


def test_noise_free_fit_recovers_the_planted_pair(dataset):
    planted = published_pair("eq23")
    points = np.array([r.point for r in dataset])
    ra, mrr = (evaluate(model, points) for model in planted)
    records = [ExperimentRecord(*map(float, p), ra=float(r), mrr=float(m))
               for p, r, m in zip(points, ra, mrr)]
    for got, want in zip(_fit_pair(records), planted):
        np.testing.assert_allclose(got.coefficients, want.coefficients, rtol=1e-9, atol=0)


@pytest.fixture(scope="module")
def scaled_pair(dataset):
    """(models, problem, utopia) of the records, then of the records with every MRR
    times MRR_SCALE."""
    scaled = [ExperimentRecord(r.vc, r.fz, r.t, r.ra, MRR_SCALE * r.mrr) for r in dataset]
    config = SolverConfig()
    out = []
    for records in (dataset, scaled):
        models = _fit_pair(records)
        problem = _problem(models)
        out.append((models, problem, individual_optima(problem, config)))
    return out


def test_scaling_mrr_scales_its_coefficients(scaled_pair):
    (base, _, _), (scaled, _, _) = scaled_pair
    np.testing.assert_allclose(scaled[1].coefficients,
                               MRR_SCALE * np.asarray(base[1].coefficients), rtol=1e-9, atol=0)


@pytest.mark.parametrize("sweep", [
    lambda problem, config, utopia: weighted_sum_sweep(problem, 11, config, utopia),
    lambda problem, config, utopia: global_criterion_sweep(problem, DEFAULT_P_VALUES, config,
                                                           utopia),
    lambda problem, config, utopia: epsilon_sweep(problem, "mrr", 11, config, utopia),
], ids=["weighted_sum", "global_criterion", "epsilon_mrr_primary"])
def test_scaling_mrr_leaves_the_normalised_points(scaled_pair, sweep):
    config = SolverConfig()
    (_, base, base_utopia), (_, scaled, scaled_utopia) = scaled_pair
    x_base = np.array([r.x for r in sweep(base, config, base_utopia).results])
    x_scaled = np.array([r.x for r in sweep(scaled, config, scaled_utopia).results])
    span = np.asarray(CASE_STUDY_BOUNDS.span)
    assert np.max(np.abs(x_scaled - x_base) / span) <= 1e-8
