"""Metamorphic tests: transform the records or the problem, and the fit and the
routines' points must move exactly as the transform says, on the case study and
on a 5x5x5 factorial over its box. Solving a sweep's points as one batch, not one
multistart each, must move nothing at all."""

import dataclasses

import numpy as np
import pytest

from conftest import packed
from pareto_forge import (
    CASE_STUDY_BOUNDS,
    DEFAULT_P_VALUES,
    ExperimentRecord,
    Front,
    GaConfig,
    ModelStack,
    MooProblem,
    Objective,
    PolyBasis,
    RunCounters,
    Sense,
    SmoothFunction,
    SolverConfig,
    builtin_case_study,
    epsilon_sweep,
    evaluate,
    fit_model,
    fit_ols,
    global_criterion_sweep,
    grouped_multistart,
    individual_optima,
    lexicographic,
    published_pair,
    run_ga,
    value_jacobian_hessian,
    weighted_sum_sweep,
)
from pareto_forge import scalarize
from pareto_forge.scalarize import (
    ACTIVE_TOL,
    LEX_SLACK_REL,
    EpsilonResult,
    GlobalCriterionResult,
    WeightedSumResult,
)

QUAD = PolyBasis.FULL_QUADRATIC_TRIPLE
MRR_SCALE = 7.0


def _multistart(objective, bounds, config, constraint=None):
    """One seeded multistart alone: the one-group case of the batched solve."""
    return grouped_multistart(objective, bounds, 1, config, constraint)[0]


def _own_model(objective, sign=1.0, bound=0.0):
    """The objective's minimization form times ``sign``, minus ``bound``, evaluated
    from a stack of its model alone; with a bound it is the constraint f <= bound
    in the routines' scale. The oracle of the routines' callbacks, which read the
    problem's shared stack."""
    stack = ModelStack((objective.model,), (sign * objective.sign,))

    def vg(rows, x):
        f, jac, hess = value_jacobian_hessian(stack, x)
        return f[..., 0] - bound, jac[..., 0, :], hess[..., 0, :, :]

    return SmoothFunction(packed(vg), scale=max(1.0, abs(bound)))


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
                      CASE_STUDY_BOUNDS)


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
    best, worst = ([_multistart(_own_model(o, sign), problem.bounds, config)
                    for o in problem.objectives] for sign in (1.0, -1.0))
    assert utopia.ideal.tolist() == [o.objective for o in best]
    assert utopia.nadir.tolist() == [-o.objective for o in worst]
    assert utopia.ideal_x.tolist() == [list(o.x) for o in best]
    assert utopia.nadir_x.tolist() == [list(o.x) for o in worst]
    assert utopia.counters.function_evals == sum(o.counters.function_evals for o in best + worst)
    assert utopia.counters.iterations == sum(o.counters.iterations for o in best + worst)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("order", [("mrr", "ra"), ("ra", "mrr")])
def test_lexicographic_is_an_individual_optimum_then_an_epsilon_point(problem, seed, order):
    # stage 1 is the first objective's one-group multistart; stage 2 optimizes the
    # second objective with the first bounded by its optimum plus the slack
    config = SolverConfig(seed=seed)
    first, second = (problem.index_of(o) for o in order)
    optimum = _multistart(_own_model(problem.objectives[first]), problem.bounds, config)
    bound = optimum.objective + LEX_SLACK_REL * abs(optimum.objective)
    (held,) = scalarize._epsilon_points(problem, second, [(bound,)], config)
    lex = lexicographic(problem, order, config)
    assert [s.outcome for s in lex.results] == [optimum, held.outcome]
    assert (lex.results[1].x, lex.results[1].responses) == (held.x, held.responses)
    assert lex.counters == RunCounters(
        optimum.counters.iterations + held.outcome.counters.iterations,
        optimum.counters.function_evals + held.outcome.counters.function_evals)
    utopia = individual_optima(problem, config)
    single = lexicographic(problem, order[:1], config, utopia)
    assert [s.outcome for s in single.results] == [optimum] == [utopia.outcomes[2 * first]]
    assert single.counters == optimum.counters and not single.terminated_early


def _one_point_criterion(problem, utopia, p):
    """The deviation criterion's callback for one p alone, as a per-point solve had it."""

    def vg(rows, x):
        f, jac, hess = value_jacobian_hessian(problem.stack, x)
        value, weights, second = scalarize._deviation(f, utopia.ideal, p)
        w_jac = np.sum(second[..., :, :, None] * jac[..., None, :, :], axis=-2)
        curvature = np.sum(jac[..., :, :, None] * w_jac[..., :, None, :], axis=-3)
        return (value, scalarize._weighted(weights, jac),
                scalarize._weighted(weights, hess) + curvature)

    return SmoothFunction(packed(vg), model_cost=2)


def _one_point_weighted_sum(problem, utopia, weights):
    """The weighted sum's callback for one weight pair alone."""
    w, ideal, width = np.array(weights), utopia.ideal, utopia.nadir - utopia.ideal

    def vg(rows, x):
        f, jac, hess = value_jacobian_hessian(problem.stack, x)
        scaled = np.broadcast_to(w / width, f.shape)
        return (np.sum(w * (f - ideal) / width, axis=-1), scalarize._weighted(scaled, jac),
                scalarize._weighted(scaled, hess))

    return SmoothFunction(packed(vg), model_cost=2)


def _criterion_points(problem, utopia, config):
    for p in DEFAULT_P_VALUES:
        o = _multistart(_one_point_criterion(problem, utopia, p), problem.bounds, config)
        yield GlobalCriterionResult(tag=f"p={p}", x=o.x, responses=problem.responses_at(o.x),
                                    outcome=o, p=p, criterion=o.objective)


def _weighted_sum_points(problem, utopia, config):
    for k in range(11):
        weights = (k / 10, 1.0 - k / 10)
        o = _multistart(_one_point_weighted_sum(problem, utopia, weights), problem.bounds,
                        config)
        yield WeightedSumResult(tag=f"w={weights[0]:g}", x=o.x,
                                responses=problem.responses_at(o.x), outcome=o, weights=weights,
                                weak_pareto_only=k in (0, 10))


def _epsilon_points(problem, utopia, config):
    ra, mrr = problem.objectives
    for eps in np.linspace(utopia.ideal[0], utopia.nadir[0], 11).tolist():
        o = _multistart(_own_model(mrr), problem.bounds, config, _own_model(ra, bound=eps))
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


def _mirrored(result):
    """``result`` with the responses of every point and every solved point reversed,
    as a problem with its objectives in reverse order reports them."""
    points = tuple(dataclasses.replace(p, responses=p.responses[::-1])
                   for p in result.front.points)
    return dataclasses.replace(
        result, front=Front(points, result.front.senses[::-1]),
        results=tuple(dataclasses.replace(r, responses=r.responses[::-1])
                      for r in result.results))


@pytest.fixture(scope="module")
def swapped(problem):
    return MooProblem(problem.objectives[::-1], problem.bounds)


@pytest.fixture(scope="module", params=[0, 3])
def utopias(request, problem, swapped):
    """(config, utopia of the problem, utopia of the swapped problem) for one seed."""
    config = SolverConfig(seed=request.param)
    return config, individual_optima(problem, config), individual_optima(swapped, config)


def test_swapping_the_objectives_reverses_the_utopia(utopias):
    _, base, swap = utopias
    for name in ("ideal", "nadir", "ideal_x", "nadir_x"):
        assert getattr(swap, name).tolist() == getattr(base, name)[::-1].tolist(), name
    assert swap.counters == base.counters


@pytest.mark.parametrize("routine", [
    lambda problem, config, utopia: epsilon_sweep(problem, "mrr", 11, config, utopia),
    lambda problem, config, utopia: epsilon_sweep(problem, "ra", 11, config, utopia),
    lambda problem, config, utopia: global_criterion_sweep(problem, DEFAULT_P_VALUES, config,
                                                           utopia),
    lambda problem, config, utopia: lexicographic(problem, ["mrr", "ra"], config, utopia),
    lambda problem, config, utopia: lexicographic(problem, ["ra", "mrr"], config, utopia),
], ids=["epsilon_mrr_primary", "epsilon_ra_primary", "global_criterion", "lexicographic_mrr_ra",
        "lexicographic_ra_mrr"])
def test_swapping_the_objectives_mirrors_the_routine(problem, swapped, utopias, routine):
    config, base, swap = utopias
    assert routine(swapped, config, swap) == _mirrored(routine(problem, config, base))


def test_swapping_the_objectives_reverses_the_weighted_sum_front(problem, swapped, utopias):
    # point k of the swapped sweep weighs (ra, mrr) by (1 - k/10, k/10), and point
    # 10 - k of the sweep by (1 - (10 - k)/10, (10 - k)/10) reversed: the same
    # weights but for rounding, so each solve takes the same steps to the same
    # point and only the weighted sum it reports may differ in the last place
    config, base, swap = utopias
    want = _mirrored(weighted_sum_sweep(problem, 11, config, base))
    got = weighted_sum_sweep(swapped, 11, config, swap)
    assert got.counters == want.counters
    assert ([(p.x, p.responses) for p in got.front.points]
            == [(p.x, p.responses) for p in want.front.points[::-1]])
    for g, w in zip(got.results, want.results[::-1]):
        assert (g.x, g.responses, g.weak_pareto_only) == (w.x, w.responses, w.weak_pareto_only)
        assert dataclasses.replace(g.outcome, objective=w.outcome.objective) == w.outcome
        assert g.outcome.objective == pytest.approx(w.outcome.objective, rel=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_swapping_the_objectives_mirrors_the_ga(problem, seed):
    # under each pair of senses: an objective is crowded in the order of its
    # natural value, whichever place it takes
    config = GaConfig(seed=seed)
    for senses in [(a, b) for a in Sense for b in Sense]:
        objectives = tuple(dataclasses.replace(o, sense=s)
                           for o, s in zip(problem.objectives, senses))
        sensed = MooProblem(objectives, problem.bounds)
        swapped = MooProblem(objectives[::-1], problem.bounds)
        assert run_ga(swapped, config) == _mirrored(run_ga(sensed, config)), senses


def test_fit_model_is_fit_ols_without_diagnostics(dataset):
    for response in ("ra", "mrr"):
        fitted = fit_model(dataset, QUAD, response)
        diagnosed = fit_ols(dataset, QUAD, response).model
        assert fitted == diagnosed
        assert (np.array(fitted.coefficients).tobytes()
                == np.array(diagnosed.coefficients).tobytes())
