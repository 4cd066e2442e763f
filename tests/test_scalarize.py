from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_forge import (
    CASE_STUDY_BOUNDS,
    DEFAULT_P_VALUES,
    Bounds,
    InfeasibleEpsilonError,
    MooProblem,
    Objective,
    PolynomialModel,
    RoutineResult,
    Sense,
    SmoothFunction,
    SolverConfig,
    StageInfeasibleError,
    epsilon_constraint,
    epsilon_sweep,
    evaluate,
    front_svg,
    global_criterion_sweep,
    grouped_multistart,
    individual_optima,
    lexicographic,
    minimize_starts,
    published_model,
    run_ga,
    stratified_starts,
    value_jacobian_hessian,
    weighted_sum,
    weighted_sum_sweep,
)
from pareto_forge import cli, nlsolver, scalarize
from pareto_forge.evolve import GaConfig
from pareto_forge.polymodel import unpack
from pareto_forge.pareto import front_to_csv_text
from pareto_forge.scalarize import UtopiaSolveError

FAST = SolverConfig(n_starts=4, seed=0)


def negated(model):
    return PolynomialModel(
        model.basis, tuple(-c for c in model.coefficients), f"neg_{model.response}", model.units
    )


@pytest.fixture(scope="module")
def neg_problem(refit_models):
    ra, mrr = refit_models
    return MooProblem(
        (Objective(ra, Sense.MINIMIZE), Objective(negated(mrr), Sense.MINIMIZE)),
        CASE_STUDY_BOUNDS,
    )


def deviation(values, stars, p):
    """The deviation criterion's value alone."""
    return scalarize._deviation(np.asarray(values, dtype=float), np.asarray(stars, dtype=float),
                                p)[0]


def test_deviation_norm_single_objective_at_optimum():
    assert deviation([0.5055], [0.5055], 4) == 0.0
    # both objectives at their optima: the ideal point itself
    assert deviation([0.5055, -35241.0], [0.5055, -35241.0], 4) == 0.0


def test_deviation_norm_p1_is_sum():
    val = deviation([1.5, -2.0], [1.0, -4.0], 1)
    assert val == pytest.approx(0.5 + 0.5)


def test_deviation_norm_broadcasts():
    vals = np.array([[1.0, -4.0], [1.5, -2.0]])
    out = deviation(vals, [1.0, -4.0], 2)
    assert out.shape == (2,)
    assert out[0] == 0.0


def test_deviation_norm_rejects_zero_utopia(problem, utopia):
    zero = replace(utopia, ideal=np.array([0.0, utopia.ideal[1]]))
    with pytest.raises(ValueError, match="optimum of 'Ra' is zero"):
        global_criterion_sweep(problem, (2,), FAST, zero)


def test_root_does_not_change_ordering():
    # the criterion with and without the outer 1/p root ranks candidates identically
    rng = np.random.default_rng(21)
    stars = np.array([0.5055, -35240.0])
    for p in (2, 6, 20):
        cands = np.column_stack(
            [rng.uniform(0.5, 2.6, 50), rng.uniform(-35240.0, -485.0, 50)]
        )
        rooted = deviation(cands, stars, p)
        d = np.abs(cands - stars) / np.abs(stars)
        unrooted = (d ** p).sum(axis=1)
        assert np.array_equal(np.argsort(rooted, kind="stable"),
                              np.argsort(unrooted, kind="stable"))


def test_problem_needs_two_objectives(refit_models):
    ra, mrr = refit_models
    for models in ((ra,), (ra, mrr, ra)):
        objectives = tuple(Objective(m, Sense.MINIMIZE) for m in models)
        with pytest.raises(ValueError, match=f"exactly two objectives, got {len(models)}"):
            MooProblem(objectives, CASE_STUDY_BOUNDS)


def test_index_of(problem):
    assert problem.index_of("ra") == 0
    assert problem.index_of("MRR") == 1
    assert problem.index_of(1) == 1
    with pytest.raises(ValueError, match="no objective named"):
        problem.index_of("feed")
    with pytest.raises(ValueError, match="out of range"):
        problem.index_of(5)


def test_minimized_sign(problem):
    x = np.array(CASE_STUDY_BOUNDS.center)
    ra_obj, mrr_obj = problem.objectives
    f, _, _ = value_jacobian_hessian(problem.stack, x)
    assert f[1] == -float(evaluate(mrr_obj.model, x))
    assert f[0] == float(evaluate(ra_obj.model, x))
    f, _, _ = unpack(problem.function(1).value_and_grad(0, x))
    assert f == -float(evaluate(mrr_obj.model, x))
    f, _, _ = unpack(problem.function(0).value_and_grad(0, x))
    assert f == float(evaluate(ra_obj.model, x))


def test_every_callback_reads_its_column_of_a_mixed_basis_stack(monkeypatch):
    # eq21's Ra has the 7-term basis and eq23's MRR the 11-term one: the problem's
    # stack sums both over the union of the two, and every callback reads its rows
    problem = MooProblem((Objective(published_model("ra_eq21"), Sense.MINIMIZE),
                          Objective(published_model("mrr_eq24"), Sense.MAXIMIZE)),
                         CASE_STUDY_BOUNDS)
    x = _interior_points(30, 5)
    whole = value_jacobian_hessian(problem.stack, x)
    rows = np.arange(len(x))
    for k in range(2):
        for got, want in zip(unpack(problem.function(k).value_and_grad(rows, x)), whole):
            assert got.tobytes() == want[:, k].tobytes()
    pick = np.random.default_rng(1).integers(0, 2, len(x))
    for got, want in zip(value_jacobian_hessian(problem.stack, x, pick), whole):
        assert got[:, 0].tobytes() == want[rows, pick].tobytes()
    # the individual optima: group g reads objective g // 2, negated for odd g
    optima = _solver_objective(monkeypatch, lambda: individual_optima(problem, FAST))
    groups = np.random.default_rng(2).integers(0, 4, len(x))
    sign = np.where(groups % 2, -1.0, 1.0)
    for got, want in zip(unpack(optima.value_and_grad(groups * FAST.n_starts, x)), whole):
        col = want[rows, groups // 2]
        assert got.tobytes() == (sign.reshape((-1,) + (1,) * (col.ndim - 1)) * col).tobytes()


def test_individual_optima_match_case_study(utopia):
    # minimization form: MRR's entries are -MRR
    assert abs(utopia.ideal[0] - 0.5055) <= 0.005
    assert abs(utopia.nadir[0] - 2.557) <= 0.01
    assert abs(-utopia.ideal[1] - 35241.0) <= 352.41
    assert np.all(utopia.ideal < utopia.nadir)
    assert utopia.ideal_x.shape == utopia.nadir_x.shape == (2, 3)
    assert utopia.counters.function_evals > 0


def test_swapped_objectives_reverse_the_pair(refit_models, utopia, solver_config):
    ra, mrr = refit_models
    swapped = MooProblem((Objective(mrr, Sense.MAXIMIZE), Objective(ra, Sense.MINIMIZE)),
                         CASE_STUDY_BOUNDS)
    rev = individual_optima(swapped, solver_config)
    assert np.array_equal(rev.ideal, utopia.ideal[::-1])
    assert np.array_equal(rev.nadir, utopia.nadir[::-1])
    assert np.array_equal(rev.ideal_x, utopia.ideal_x[::-1])
    assert np.array_equal(rev.nadir_x, utopia.nadir_x[::-1])


def test_weighted_sum_rejects_degenerate_pair(problem, utopia, monkeypatch):
    flat = replace(utopia, nadir=np.array([utopia.ideal[0], utopia.nadir[1]]))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the pair was checked")

    monkeypatch.setattr(scalarize, "grouped_multistart", no_solve)
    with pytest.raises(ValueError, match="degenerate"):
        weighted_sum(problem, (0.5, 0.5), FAST, flat)
    with pytest.raises(ValueError, match="degenerate"):
        weighted_sum_sweep(problem, 3, FAST, flat)


def test_global_criterion_rejects_bad_p(problem, utopia):
    with pytest.raises(ValueError, match="positive integer"):
        global_criterion_sweep(problem, (0,), FAST, utopia)
    with pytest.raises(ValueError, match="positive integer"):
        global_criterion_sweep(problem, (2.5,), FAST, utopia)


def test_global_criterion_p2(problem, utopia):
    res = global_criterion_sweep(problem, (2,), FAST, utopia).results[0]
    assert abs(res.responses[0] - 0.7111) <= 0.01
    assert abs(res.responses[1] - 25448.0) <= 0.015 * 25448.0
    assert res.criterion == pytest.approx(res.outcome.objective)
    assert res.criterion > 0.0  # the two optima are not attainable jointly


def test_global_criterion_sweep_single_p(problem, utopia):
    sweep = global_criterion_sweep(problem, (2,), FAST, utopia)
    assert len(sweep.front.points) == 1
    assert sweep.front.points[0].tag == "p=2"


def test_global_criterion_sweep_stays_on_edge(problem, utopia):
    sweep = global_criterion_sweep(problem, (2, 8, 20), FAST, utopia)
    for p in sweep.front.points:
        assert abs(p.x[0] - 314.0) <= 0.5
        assert abs(p.x[2] - 0.6) <= 1e-3
        assert 22914 * 0.98 <= p.responses[1] <= 25448 * 1.02


def test_weighted_sum_validation(problem, utopia):
    with pytest.raises(ValueError, match="negative weight"):
        weighted_sum(problem, (-0.1, 1.1), FAST, utopia)
    with pytest.raises(ValueError, match="sum to 1"):
        weighted_sum(problem, (0.5, 0.4), FAST, utopia)
    with pytest.raises(ValueError, match="weights for"):
        weighted_sum(problem, (1.0,), FAST, utopia)
    # a NaN fails no "< 0" test and makes a "> tol" test false: it must not reach the solver
    for weights in ((np.nan, 0.5), (0.5, np.nan), (np.nan, np.nan)):
        with pytest.raises(ValueError, match="NaN"):
            weighted_sum(problem, weights, FAST, utopia)


def test_weighted_sum_zero_weight_flagged(problem, utopia):
    res = weighted_sum(problem, (0.0, 1.0), FAST, utopia)
    assert res.weak_pareto_only
    assert abs(res.responses[1] - 35241.0) <= 352.41
    res = weighted_sum(problem, (0.9, 0.1), FAST, utopia)
    assert not res.weak_pareto_only


def test_weighted_sum_sweep_endpoints_hit_individual_optima(problem, utopia):
    sweep = weighted_sum_sweep(problem, 2, FAST, utopia)
    assert len(sweep.results) == 2
    pure_mrr, pure_ra = sweep.results
    assert abs(pure_ra.responses[0] - utopia.ideal[0]) <= 0.005
    assert abs(pure_mrr.responses[1] + utopia.ideal[1]) <= 0.01 * 35241


def test_weighted_sum_sweep_validation(problem, utopia):
    with pytest.raises(ValueError, match="at least 2"):
        weighted_sum_sweep(problem, 1, FAST, utopia)


def test_epsilon_constraint_inactive_bound(problem):
    # at 0.80 the MRR optimum's Ra, 0.79623, lies 0.0047 below the bound, scaled:
    # inside 1e-2 of it but beyond ACTIVE_TOL, so the bound reads inactive
    for eps in (0.9159, 0.80):
        res = epsilon_constraint(problem, "mrr", (eps,), FAST)
        assert abs(res.responses[1] - 35241.0) <= 352.41
        assert res.active == (False,)


def test_epsilon_constraint_active_bound(problem):
    res = epsilon_constraint(problem, "mrr", (0.7107,), FAST)
    assert abs(res.responses[1] - 25409.0) <= 254.09
    assert abs(res.responses[0] - 0.7107) <= 0.005
    assert res.active == (True,)


def test_epsilon_constraint_infeasible(problem):
    with pytest.raises(InfeasibleEpsilonError, match="unattainable"):
        epsilon_constraint(problem, "mrr", (0.1,), FAST)
    with pytest.raises(ValueError, match="2 bounds for 1 non-primary objective"):
        epsilon_constraint(problem, "mrr", (0.9, 0.9), FAST)
    for bound in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="epsilon bound must be finite"):
            epsilon_constraint(problem, "mrr", (bound,), FAST)


def test_epsilon_sweep_monotone(problem, utopia):
    sweep = epsilon_sweep(problem, "mrr", 5, FAST, utopia)
    feasible = [r for r in sweep.results if r.feasible]
    mrr_vals = [r.responses[1] for r in feasible]
    assert all(b >= a - 1e-9 for a, b in zip(mrr_vals, mrr_vals[1:]))
    assert len(sweep.front.points) == 5


def test_an_infeasible_epsilon_point_is_a_result_and_not_a_front_point(problem):
    # an Ra ideal 0.2 below the true one puts the first bound where no point of the
    # box is: no Pareto point, so it stays in the results (and outcome_*.json) only,
    # and the front, its CSV, its SVG and the merge hold the five feasible points
    own = individual_optima(problem, FAST)
    low = replace(own, ideal=own.ideal - np.array([0.2, 0.0]))
    sweep = epsilon_sweep(problem, "mrr", 6, FAST, low)
    assert [(r.tag, r.feasible) for r in sweep.results[:2]] == [
        ("eps=0.305473", False), ("eps=0.755863", True)]
    feasible = [r.tag for r in sweep.results[1:] if r.feasible]
    assert len(feasible) == 5
    assert [p.tag for p in sweep.front.points] == feasible
    rows = front_to_csv_text(sweep.front).splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == feasible
    assert front_svg(sweep.front).count("<circle") == 5 + 1  # and one legend swatch
    # the last four are one response vector, the MRR optimum, which the merge keeps once
    assert [p.tag for p in cli._merge([sweep.front]).points] == feasible[:2]


@pytest.mark.parametrize("seed", range(6))
def test_first_epsilon_point_is_converged(problem, utopia, seed):
    # eps = Ra* leaves one feasible corner; the restoration point and the loop
    # restarted from it end there with the same objective, and the converged one wins
    sweep = epsilon_sweep(problem, "mrr", 2, SolverConfig(seed=seed), utopia)
    first = sweep.results[0].outcome
    assert first.converged, first.kkt_residual
    assert np.allclose(first.x, [314.0, 0.04, 0.2])


def test_stalled_epsilon_rows_leave_the_multiplier_loop(problem, utopia, monkeypatch):
    # eps = Ra* holds the first point's rows at a corner where no multiplier moves
    # them; they leave the first loop for restoration instead of running it out
    calls, inner = [], nlsolver._inner_solve

    def spy(fun, s0, gtol, maxiter):
        s, steps = inner(fun, s0, gtol, maxiter)
        calls.append(steps)
        return s, steps

    loops, auglag = [], nlsolver._auglag

    def spy_loop(*args):
        out = auglag(*args)
        loops.append(out[2].copy())  # a better restart overwrites a row in place
        return out

    monkeypatch.setattr(nlsolver, "_inner_solve", spy)
    monkeypatch.setattr(nlsolver, "_auglag", spy_loop)
    sweep = epsilon_sweep(problem, "mrr", 11, SolverConfig(seed=0), utopia)
    assert len(calls) <= 12  # 53 when the stuck rows ran all 50 outer iterations
    assert sweep.results[0].outcome.converged
    # at outer iteration 1 the first two points' 16 rows take no step while their
    # violation can still fall inside the box: none of them is cut there, and
    # every row but the first point's converges in the first loop
    assert len(calls[1]) == len(calls[2]) == 16 and not calls[1].any()
    first_loop = loops[0]
    n = SolverConfig().n_starts
    assert not first_loop[:n].any() and first_loop[n:].all()


def test_restored_rows_restart_stationary_at_the_ra_optimum(problem, utopia, monkeypatch):
    # eps = Ra* leaves the vertex (314, 0.04, 0.2) feasible: the rows stall
    # infeasible, restoration reaches the vertex, and the restart, begun at the
    # multiplier estimate, is stationary there before its first step
    gtols, steps, inner = [], [], nlsolver._inner_solve

    def spy(fun, s0, gtol, maxiter):
        s, k = inner(fun, s0, gtol, maxiter)
        gtols.append(gtol)
        steps.append(k)
        return s, k

    monkeypatch.setattr(nlsolver, "_inner_solve", spy)
    point = epsilon_constraint(problem, "mrr", [utopia.ideal[0]], SolverConfig())
    restoration = gtols.index(1e-12)
    assert len(gtols) == restoration + 2
    assert len(steps[-1]) == SolverConfig().n_starts and not steps[-1].any()
    assert point.x == (314.0, 0.04, 0.2)
    assert point.outcome.converged and point.outcome.constraint_violation == 0.0


def test_epsilon_sweep_validation(problem, utopia):
    with pytest.raises(ValueError, match="at least 2"):
        epsilon_sweep(problem, "mrr", 1, FAST, utopia)


def test_lexicographic_case_study_order(problem):
    res = lexicographic(problem, ("mrr", "ra"), FAST)
    assert res.order == ("MRR", "Ra")
    assert len(res.results) == 2
    assert res.terminated_early
    a, b = res.results
    assert np.allclose(a.x, b.x, atol=1e-3)
    assert abs(res.results[-1].responses[0] - 0.7962) <= 0.005


def test_lexicographic_reverse_order_stage_monotonicity(problem):
    res = lexicographic(problem, ("ra", "mrr"), FAST)
    ra_star = res.results[0].optimum
    slack = 1e-6 * abs(ra_star) + 1e-6 * max(1.0, abs(ra_star))
    for stage in res.results[1:]:
        assert stage.responses[0] <= ra_star + slack


def test_lexicographic_single_objective_equals_plain_minimize(problem):
    res = lexicographic(problem, ("ra",), FAST)
    assert len(res.results) == 1
    direct = grouped_multistart(problem.function(0), problem.bounds, 1, FAST)[0]
    assert res.results[-1].x == direct.x


def test_lexicographic_order_validation(problem):
    with pytest.raises(ValueError, match="duplicate"):
        lexicographic(problem, ("ra", "ra"), FAST)
    with pytest.raises(ValueError, match="at least one"):
        lexicographic(problem, (), FAST)


def test_lexicographic_stage_infeasible(problem):
    # stage 1 is an individual optimum: one Newton step leaves it unconverged, and
    # it fails first on Ra's optimum, the first group solved
    with pytest.raises(UtopiaSolveError, match="'Ra'"):
        lexicographic(problem, ("mrr", "ra"), SolverConfig(max_inner=1))
    # an Ra optimum held from a wider box lies below every Ra of this box; a record
    # of the wider box is rejected whole, so the optimum is put in one of this box
    wide = individual_optima(MooProblem(problem.objectives, WIDE_BOX), FAST)
    own = individual_optima(problem, FAST)
    held = replace(own, outcomes=(wide.outcomes[0],) + own.outcomes[1:])
    with pytest.raises(StageInfeasibleError, match="'MRR' infeasible with 'Ra' held"):
        lexicographic(problem, ("ra", "mrr"), FAST, held)


#: the case-study box widened on every side
WIDE_BOX = Bounds((60, 0.03, 0.15), (340, 0.18, 0.7))


@pytest.fixture(scope="module")
def foreign_utopias(problem):
    """The individual optima of the problem over a wider box, and with its objectives
    swapped."""
    return [individual_optima(other, FAST) for other in (
        MooProblem(problem.objectives, WIDE_BOX),
        MooProblem(problem.objectives[::-1], problem.bounds))]


@pytest.mark.parametrize("routine", [
    lambda problem, utopia: global_criterion_sweep(problem, (2,), FAST, utopia),
    lambda problem, utopia: weighted_sum_sweep(problem, 3, FAST, utopia),
    lambda problem, utopia: weighted_sum(problem, (0.5, 0.5), FAST, utopia),
    lambda problem, utopia: epsilon_sweep(problem, "mrr", 3, FAST, utopia),
    lambda problem, utopia: lexicographic(problem, ("ra",), FAST, utopia),
    lambda problem, utopia: lexicographic(problem, ("mrr", "ra"), FAST, utopia),
], ids=["global_criterion", "weighted_sum_sweep", "weighted_sum", "epsilon", "lex_single",
        "lex_two_stages"])
def test_utopia_of_another_problem_is_rejected(problem, foreign_utopias, routine):
    # the wider box's optima lie outside this one: lexicographic would return its
    # corner as its one stage, and the sweeps would normalise by the wrong pair
    for utopia in foreign_utopias:
        with pytest.raises(ValueError, match="utopia was solved for another problem"):
            routine(problem, utopia)


def test_anti_optima_match_grid_extremes(utopia, grid):
    assert abs(utopia.nadir[0] - float(grid.ra.max())) <= 1e-3
    assert abs(-utopia.nadir[1] - float(grid.mrr.min())) <= 1e-3 * abs(float(grid.mrr.min()))


def test_weighted_sum_point_not_dominated_by_grid(problem, utopia, grid):
    # strictly positive weights must land on the Pareto set: no grid point may
    # beat the result in both objectives beyond 1e-3 of each response scale
    tol_ra = 1e-3 * max(1.0, float(np.abs(grid.ra).max()))
    tol_mrr = 1e-3 * max(1.0, float(np.abs(grid.mrr).max()))
    for w in (0.3, 0.5, 0.7, 0.9):
        res = weighted_sum(problem, (w, 1.0 - w), FAST, utopia)
        ra0, mrr0 = res.responses
        better = (grid.ra < ra0 - tol_ra) & (grid.mrr > mrr0 + tol_mrr)
        assert not bool(better.any()), f"w={w}: grid dominates {res.responses}"


def test_epsilon_solution_matches_constrained_grid_optimum(problem, grid):
    res = epsilon_constraint(problem, "mrr", (0.7107,), FAST)
    grid_best = float(np.where(grid.ra <= 0.7107, grid.mrr, -np.inf).max())
    assert res.responses[1] >= grid_best - 1e-3 * abs(grid_best)


def test_lexicographic_second_stage_matches_constrained_grid(problem, grid):
    res = lexicographic(problem, ("ra", "mrr"), FAST)
    assert len(res.results) == 2
    ra_star = res.results[0].optimum
    mask = grid.ra <= ra_star + 1e-6 * abs(ra_star)
    grid_best = float(np.where(mask, grid.mrr, -np.inf).max())
    assert abs(res.results[1].responses[1] - grid_best) <= 1e-3 * abs(grid_best)


def test_sense_conversion_leaves_argmin_unchanged(problem, neg_problem):
    # expressing max MRR as min(-MRR) must give bitwise-identical design points
    cfg = FAST
    pos_utopia = individual_optima(problem, cfg)
    neg_utopia = individual_optima(neg_problem, cfg)
    for name in ("ideal", "nadir", "ideal_x", "nadir_x"):
        a, b = getattr(pos_utopia, name), getattr(neg_utopia, name)
        assert a.tobytes() == b.tobytes(), name

    a = global_criterion_sweep(problem, (2,), cfg, pos_utopia).results[0]
    b = global_criterion_sweep(neg_problem, (2,), cfg, neg_utopia).results[0]
    assert a.x == b.x

    wa = weighted_sum(problem, (0.9, 0.1), cfg, pos_utopia)
    wb = weighted_sum(neg_problem, (0.9, 0.1), cfg, neg_utopia)
    assert wa.x == wb.x

    ea = epsilon_constraint(problem, "mrr", (0.7107,), cfg)
    eb = epsilon_constraint(neg_problem, "neg_MRR", (0.7107,), cfg)
    assert ea.x == eb.x

    la = lexicographic(problem, ("mrr", "ra"), cfg)
    lb = lexicographic(neg_problem, ("neg_MRR", "ra"), cfg)
    assert la.results[-1].x == lb.results[-1].x


def test_function_evals_count_model_point_evaluations(problem, monkeypatch):
    # one model evaluation is one response model at one point
    from pareto_forge import polymodel

    made = {"n": 0}
    products = []  # (every model of the stack, points) of each model product
    product = polymodel.jets

    def counting(stack, x, model=None):
        # every model of the stack at each point, or the one each point reads
        made["n"] += (stack.size if model is None else 1) * (np.size(x) // 3)
        products.append((model is None, np.size(x) // 3))
        return product(stack, x, model)

    # each epsilon point's Lagrangian callback: its rows new to both functions, and
    # its products
    callbacks, lagrangian = [], nlsolver._ScaledProblem.lagrangian

    def spy(prob, rows, s, lam, rho):
        if not prob.constrained:
            return lagrangian(prob, rows, s, lam, rho)
        new = int((prob._points[:, rows] != s).any(axis=-1).all(axis=0).sum())
        before = len(products)
        out = lagrangian(prob, rows, s, lam, rho)
        callbacks.append((new, products[before:]))
        return out

    monkeypatch.setattr(scalarize, "jets", counting)
    monkeypatch.setattr(nlsolver._ScaledProblem, "lagrangian", spy)
    cfg = SolverConfig(n_starts=2, seed=1)
    utopia = individual_optima(problem, cfg)
    assert utopia.counters.function_evals == made["n"] > 0
    runs = [
        lambda: global_criterion_sweep(problem, (4,), cfg, utopia).results[0].outcome.counters,
        lambda: weighted_sum(problem, (0.4, 0.6), cfg, utopia).outcome.counters,
        lambda: epsilon_constraint(problem, "mrr", (0.7107,), cfg).outcome.counters,
        # eps = Ra*: restoration reads the bound alone, and the restart's multiplier
        # estimate the objective alone, each counted at its own cache miss
        lambda: epsilon_constraint(problem, "mrr", (utopia.ideal[0],), cfg).outcome.counters,
        # stage 1 is the utopia's own solve, counted above: stage 2 evaluates anew
        lambda: lexicographic(problem, ("ra", "mrr"), cfg, utopia).results[1].outcome.counters,
        # a sweep is one batched solve: its rows count as the points' own solves did
        lambda: global_criterion_sweep(problem, (1, 2, 20), cfg, utopia).counters,
        lambda: weighted_sum_sweep(problem, 3, cfg, utopia).counters,
        lambda: epsilon_sweep(problem, "mrr", 3, cfg, utopia).counters,
    ]
    for run in runs:
        made["n"] = 0
        assert run().function_evals == made["n"] > 0
    # the restored rows of eps = Ra* read one model at a time
    made["n"], products[:] = 0, []
    restored = epsilon_constraint(problem, "mrr", (utopia.ideal[0],), cfg).outcome.counters
    assert restored.function_evals == made["n"]
    assert any(not every for every, _ in products) and any(every for every, _ in products)
    # every epsilon callback reads the rows new to both functions in one product of
    # both models, and a callback with no such row makes none
    assert any(new for new, _ in callbacks)
    assert all(made == ([(True, new)] if new else []) for new, made in callbacks)


def _deviation_at_one_p(values, stars, p):
    """The deviation criterion at one scalar p with np.power throughout: the
    reference for the one-pass form, which must give every p these bits."""
    diff = values - stars
    d = np.abs(diff) / np.abs(stars)
    m = d.max(axis=-1, keepdims=True)
    value = m[..., 0] * np.power(np.power(d / np.where(m > 0, m, 1.0), p).sum(axis=-1), 1.0 / p)
    safe = np.where(value > 0, value, 1.0)[..., None]
    u = d / safe
    a = np.where(diff < 0, -1.0, 1.0) / np.abs(stars)
    grad = np.power(u, p - 1) * a
    second = np.zeros(d.shape + d.shape[-1:])
    if p > 1:
        diag = np.eye(d.shape[-1]) * (np.power(u, p - 2) * a * a)[..., None, :]
        second = (p - 1) / safe[..., None] * (diag - grad[..., :, None] * grad[..., None, :])
        second = np.where((value > 0)[..., None, None], second, 0.0)
    return value, grad, second


# p = 3 raises u to p - 1 = 2 and p = 4 to p - 2 = 2, where numpy squares
DEVIATION_P = sorted(set(DEFAULT_P_VALUES) | {3})
# an objective's relative offset from its optimum: exactly at it (the kink, and
# the utopia when both are), or above or below it
_OFFSETS = st.one_of(st.just(0.0), st.floats(-1.0, 10.0, allow_subnormal=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(DEVIATION_P), _OFFSETS, _OFFSETS),
                min_size=1, max_size=40))
def test_deviation_of_mixed_p_equals_one_call_per_p(utopia, rows):
    stars = utopia.ideal
    p = np.array([row[0] for row in rows], dtype=float)
    values = stars + np.array([row[1:] for row in rows]) * np.abs(stars)
    batch = scalarize._deviation(values, stars, p)
    for q in set(p.tolist()):
        on = p == q
        want = _deviation_at_one_p(values[on], stars, int(q))
        for got, scalar, ref in zip(batch, scalarize._deviation(values[on], stars, int(q)), want):
            assert got[on].tobytes() == ref.tobytes()
            assert scalar.tobytes() == ref.tobytes()


def test_power_has_numpys_scalar_exponent_results():
    tiny = np.nextafter(0.0, 1.0)
    x = np.concatenate([[0.0, 1.0, tiny, 1e150], np.random.default_rng(2).random(500) * 3])
    exponents = (0, 0.5, 1, 2, 3, 1 / 3, 0.05, 19, 20)
    per_element = np.random.default_rng(3).choice(exponents, size=len(x))
    with np.errstate(over="ignore"):
        mixed = scalarize._power(x, per_element)
        for e in exponents:
            want = np.power(x, e)
            assert scalarize._power(x, np.full(len(x), e)).tobytes() == want.tobytes()
            assert mixed[per_element == e].tobytes() == want[per_element == e].tobytes()


@pytest.mark.parametrize("seed", range(20, 44))
def test_p1_optimum_at_the_utopia_corner_is_converged(problem, seed):
    # at p = 1 the optimum is the MRR utopia corner, where |f - f*| has its kink;
    # the one-sided derivative must leave the true optimum reported as converged
    cfg = SolverConfig(seed=seed)
    res = global_criterion_sweep(problem, (1,), cfg, individual_optima(problem, cfg)).results[0]
    assert res.outcome.converged, res.outcome.kkt_residual


def test_every_routine_returns_a_routine_result(problem, utopia):
    sweeps = {
        "global_criterion": global_criterion_sweep(problem, (2, 4), FAST, utopia),
        "weighted_sum": weighted_sum_sweep(problem, 2, FAST, utopia),
        "epsilon_constraint": epsilon_sweep(problem, "mrr", 2, FAST, utopia),
    }
    for method, res in sweeps.items():
        assert isinstance(res, RoutineResult)
        assert [(p.method, p.tag, p.x, p.responses) for p in res.front.points] == [
            (method, r.tag, r.x, r.responses) for r in res.results if r.feasible]
        assert res.counters.function_evals == sum(
            r.outcome.counters.function_evals for r in res.results)
    assert [r.tag for r in sweeps["global_criterion"].results] == ["p=2", "p=4"]
    assert [r.tag for r in sweeps["weighted_sum"].results] == ["w=0", "w=1"]

    lex = lexicographic(problem, ("mrr", "ra"), FAST)
    assert isinstance(lex, RoutineResult)
    (point,) = lex.front.points
    assert (point.method, point.tag) == ("lexicographic", "order=MRR>Ra")
    assert (point.x, point.responses) == (lex.results[-1].x, lex.results[-1].responses)
    assert [s.tag for s in lex.results] == [s.objective for s in lex.results] == ["MRR", "Ra"]
    assert lex.counters.iterations == sum(s.outcome.counters.iterations for s in lex.results)

    ga = run_ga(problem, GaConfig(pop_size=8, generations=2))
    assert isinstance(ga, RoutineResult) and ga.results == () and ga.front.points


# (compare seed, p) points of the deviation-criterion sweep that stopped at KKT
# residual 1.0-3.7e-8, above kkt_tol, at the floor of a quasi-Newton line search
HIGH_P_FLOOR_POINTS = [(20, 18), (21, 20), (25, 6), (25, 20), (28, 20), (29, 20), (35, 20),
                       (36, 8), (38, 6), (38, 20), (39, 16), (40, 8), (42, 8), (42, 12),
                       (42, 20)]


@pytest.mark.parametrize("seed, p", HIGH_P_FLOOR_POINTS)
def test_high_p_criterion_points_converge(problem, seed, p):
    cfg = SolverConfig(seed=seed)
    res = global_criterion_sweep(problem, (p,), cfg, individual_optima(problem, cfg)).results[0]
    assert res.outcome.converged and res.outcome.kkt_residual <= 1e-8, res.outcome.kkt_residual


class _Captured(Exception):
    pass


def _solver_objective(monkeypatch, run):
    """The objective callback that ``run`` hands to the multistart solver."""
    seen = []

    def capture(objective, bounds, n_groups, config=None, constraint=None):
        seen.append(objective)
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(scalarize, "grouped_multistart", capture)
        with pytest.raises(_Captured):
            run()
    return seen[0]


def _interior_points(n, seed):
    lb = np.array(CASE_STUDY_BOUNDS.lower)
    span = np.array(CASE_STUDY_BOUNDS.span)
    return lb + (0.05 + 0.9 * np.random.default_rng(seed).random((n, 3))) * span


def _assert_hessian_matches_gradient_differences(fn):
    step = 1e-5 * np.array(CASE_STUDY_BOUNDS.span)
    pts = _interior_points(20, 3)
    # every point as row 0: a captured callback holds one point's per-row parameters
    rows = np.zeros(len(pts), dtype=int)
    value, grad, hess = unpack(fn.value_and_grad(rows, pts))
    assert value.shape == (20,) and grad.shape == (20, 3) and hess.shape == (20, 3, 3)
    assert np.allclose(hess, np.swapaxes(hess, -1, -2), rtol=1e-12, atol=0.0)
    for v in range(3):
        e = np.zeros(3)
        e[v] = step[v]
        fd = (unpack(fn.value_and_grad(rows, pts + e))[1]
              - unpack(fn.value_and_grad(rows, pts - e))[1]) / (2 * step[v])
        scale = np.maximum(1.0, np.abs(hess).max(axis=(-2, -1)))[:, None]
        assert np.all(np.abs(fd - hess[..., v]) <= 1e-5 * scale)
    # one point: the batch's row, without the leading axis
    one = unpack(fn.value_and_grad(0, pts[7]))
    assert np.array_equal(one[0], value[7]) and np.array_equal(one[2], hess[7])


@pytest.mark.parametrize("p", [1, 2, 4, 20])
def test_deviation_criterion_hessian_matches_gradient_differences(problem, utopia, p,
                                                                   monkeypatch):
    fn = _solver_objective(monkeypatch, lambda: global_criterion_sweep(problem, (p,), FAST, utopia))
    _assert_hessian_matches_gradient_differences(fn)


def test_weighted_sum_hessian_matches_gradient_differences(problem, utopia, monkeypatch):
    fn = _solver_objective(monkeypatch, lambda: weighted_sum(problem, (0.3, 0.7), FAST, utopia))
    _assert_hessian_matches_gradient_differences(fn)


def test_objective_and_bound_hessians_match_gradient_differences(problem, monkeypatch):
    optima = _solver_objective(monkeypatch, lambda: individual_optima(problem, FAST))
    # group 3 is MRR's anti-optimum: its rows start at 3 * n_starts
    anti = SmoothFunction(lambda rows, x: optima.value_and_grad(rows + 3 * FAST.n_starts, x))
    for fn in (problem.function(1), anti, problem.function(1, bound=-20000.0)):
        _assert_hessian_matches_gradient_differences(fn)


def _batched_cases(problem, utopia, monkeypatch, cfg):
    ws = _solver_objective(monkeypatch, lambda: weighted_sum(problem, (0.3, 0.7), cfg, utopia))
    p20 = _solver_objective(monkeypatch,
                            lambda: global_criterion_sweep(problem, (20,), cfg, utopia))
    # maximise MRR with Ra held at 0.7107: the bound is active at the optimum
    held = problem.function(0, bound=0.7107, name="Ra<= 0.7107")
    return {"weighted sum": (ws, None), "p=20": (p20, None), "epsilon": (problem.function(1), held)}


@pytest.mark.parametrize("where", [0.0, 0.1, 0.5])
def test_epsilon_starts_solve_as_they_do_alone(problem, utopia, monkeypatch, where):
    # MRR primary, Ra held at Ra* (a one-point feasible set that sends rows to
    # restoration), a tenth of the way to the anti-optimum (where some rows end an
    # inner solve off their cached point) or at mid-range. The solver's
    # whole-array shortcuts act only while a batch's rows move in lock step, so
    # one that dropped or mixed rows would change some start's outcome, or the
    # outcomes of the reversed batch.
    gtols, inner = [], nlsolver._inner_solve

    def spy(fun, s0, gtol, maxiter):
        gtols.append(gtol)
        return inner(fun, s0, gtol, maxiter)

    monkeypatch.setattr(nlsolver, "_inner_solve", spy)
    eps = utopia.ideal[0] + where * (utopia.nadir[0] - utopia.ideal[0])
    held = problem.function(0, bound=eps, name="Ra<= eps")
    cfg = SolverConfig(n_starts=6, seed=3)
    starts = stratified_starts(CASE_STUDY_BOUNDS, cfg.n_starts, cfg.seed)
    mrr = problem.function(1)
    batched = minimize_starts(mrr, problem.bounds, starts, cfg, held)
    assert (1e-12 in gtols) == (where == 0.0)
    assert batched == [minimize_starts(mrr, problem.bounds, [start], cfg, held)[0]
                       for start in starts]
    assert minimize_starts(mrr, problem.bounds, starts[::-1], cfg, held) == batched[::-1]


@pytest.mark.parametrize("case", ["weighted sum", "p=20", "epsilon"])
def test_batched_starts_equal_single_start_solves(problem, utopia, monkeypatch, case):
    cfg = SolverConfig(seed=5)
    fn, constraint = _batched_cases(problem, utopia, monkeypatch, cfg)[case]
    starts = stratified_starts(CASE_STUDY_BOUNDS, cfg.n_starts, cfg.seed)
    batched = minimize_starts(fn, problem.bounds, starts, cfg, constraint)
    assert len(batched) == len(starts)
    for start, outcome in zip(starts, batched):
        single = minimize_starts(fn, problem.bounds, [start], cfg, constraint)[0]
        assert (outcome.x, outcome.objective, outcome.converged, outcome.kkt_residual,
                outcome.constraint_violation, outcome.counters) == (
            single.x, single.objective, single.converged, single.kkt_residual,
            single.constraint_violation, single.counters)
    best = grouped_multistart(fn, problem.bounds, 1, cfg, constraint)[0]
    assert best.counters.function_evals == sum(o.counters.function_evals for o in batched)
    if case == "epsilon":
        assert best.constraint_violation <= cfg.feas_tol
        assert problem.responses_at(best.x)[0] == pytest.approx(0.7107, abs=1e-5)
