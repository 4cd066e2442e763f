"""Metamorphic tests: transform the records, and the fit and the routines' points
must move exactly as the transform says, on the case study and on a 5x5x5
factorial over its box. Solving a sweep's points as one batch, not one
multistart each, must move nothing at all."""

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
    SmoothFunction,
    SolverConfig,
    builtin_case_study,
    epsilon_sweep,
    evaluate,
    fit_ols,
    global_criterion_sweep,
    individual_optima,
    multistart_minimize,
    published_pair,
    weighted_sum_sweep,
)
from pareto_forge import scalarize
from pareto_forge.scalarize import (
    ACTIVE_TOL,
    EpsilonResult,
    GlobalCriterionResult,
    WeightedSumResult,
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


@pytest.fixture(scope="module")
def problem(dataset):
    return _problem(_fit_pair(dataset))


@pytest.mark.parametrize("seed", range(6))
def test_individual_optima_equal_one_multistart_each(problem, seed):
    config = SolverConfig(seed=seed)
    utopia = individual_optima(problem, config)
    best, worst = ([multistart_minimize(o.function(negate), problem.constraints, config)
                    for o in problem.objectives] for negate in (False, True))
    assert utopia.ideal.tolist() == [o.objective for o in best]
    assert utopia.nadir.tolist() == [-o.objective for o in worst]
    assert utopia.ideal_x.tolist() == [list(o.x) for o in best]
    assert utopia.nadir_x.tolist() == [list(o.x) for o in worst]
    assert utopia.counters.function_evals == sum(o.counters.function_evals for o in best + worst)
    assert utopia.counters.iterations == sum(o.counters.iterations for o in best + worst)


def _one_point_criterion(problem, utopia, p):
    """The deviation criterion's callback for one p alone, as a per-point solve had it."""

    def vg(rows, x):
        f, jac, hess = problem.stack.value_jacobian_hessian(x)
        value, weights, second = scalarize._deviation(f, utopia.ideal, p)
        w_jac = np.sum(second[..., :, :, None] * jac[..., None, :, :], axis=-2)
        curvature = np.sum(jac[..., :, :, None] * w_jac[..., :, None, :], axis=-3)
        return (value, scalarize._weighted(weights, jac),
                scalarize._weighted(weights, hess) + curvature)

    return SmoothFunction(vg, model_cost=2)


def _one_point_weighted_sum(problem, utopia, weights):
    """The weighted sum's callback for one weight pair alone."""
    w, ideal, width = np.array(weights), utopia.ideal, utopia.nadir - utopia.ideal

    def vg(rows, x):
        f, jac, hess = problem.stack.value_jacobian_hessian(x)
        scaled = np.broadcast_to(w / width, f.shape)
        return (np.sum(w * (f - ideal) / width, axis=-1), scalarize._weighted(scaled, jac),
                scalarize._weighted(scaled, hess))

    return SmoothFunction(vg, model_cost=2)


def _criterion_points(problem, utopia, config):
    for p in DEFAULT_P_VALUES:
        o = multistart_minimize(_one_point_criterion(problem, utopia, p), problem.constraints,
                                config)
        yield GlobalCriterionResult(tag=f"p={p}", x=o.x, responses=problem.responses_at(o.x),
                                    outcome=o, p=p, criterion=o.objective)


def _weighted_sum_points(problem, utopia, config):
    for k in range(11):
        weights = (k / 10, 1.0 - k / 10)
        o = multistart_minimize(_one_point_weighted_sum(problem, utopia, weights),
                                problem.constraints, config)
        yield WeightedSumResult(tag=f"w={weights[0]:g}", x=o.x,
                                responses=problem.responses_at(o.x), outcome=o, weights=weights,
                                weak_pareto_only=k in (0, 10))


def _epsilon_points(problem, utopia, config):
    ra, mrr = problem.objectives
    for eps in np.linspace(utopia.ideal[0], utopia.nadir[0], 11).tolist():
        held = problem.constrained_by([ra.function(bound=eps, scale=max(1.0, abs(eps)))])
        o = multistart_minimize(mrr.function(), held, config)
        responses = problem.responses_at(o.x)
        active = ((responses[0] - eps) / max(1.0, abs(eps)) >= -ACTIVE_TOL,)
        yield EpsilonResult(tag=f"eps={eps:.6g}", x=o.x, responses=responses, outcome=o,
                            feasible=o.constraint_violation <= config.feas_tol,
                            epsilons=(eps,), active=active)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("sweep, one_by_one", [
    (lambda problem, config, utopia: global_criterion_sweep(problem, DEFAULT_P_VALUES, config,
                                                            utopia), _criterion_points),
    (lambda problem, config, utopia: weighted_sum_sweep(problem, 11, config, utopia),
     _weighted_sum_points),
    (lambda problem, config, utopia: epsilon_sweep(problem, "mrr", 11, config, utopia),
     _epsilon_points),
], ids=["global_criterion", "weighted_sum", "epsilon_mrr_primary"])
def test_sweep_equals_one_multistart_per_point(problem, seed, sweep, one_by_one):
    config = SolverConfig(seed=seed)
    utopia = individual_optima(problem, config)
    assert sweep(problem, config, utopia).results == tuple(one_by_one(problem, utopia, config))
