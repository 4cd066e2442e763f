"""Acceptance suite for the builtin case study with refit models.

Each test checks one criterion at its stated tolerance and prints a PASS/FAIL
line (run ``pytest -s tests/test_acceptance.py`` to see them inline). The grid
oracle is the shared 201^3 evaluation from conftest, computed once per session.
"""

import numpy as np
import pytest

from pareto_forge import (
    CASE_STUDY_BOUNDS,
    GaConfig,
    PolyBasis,
    Sense,
    dominates,
    filter_nondominated,
    fit_ols,
    gradient,
    model_diagnostics,
    published_pair,
    run_ga,
)
from pareto_forge.pareto import ParetoPoint
from pareto_forge.polymodel import basis_eval, evaluate
from pareto_forge.scalarize import (
    DEFAULT_P_VALUES,
    epsilon_sweep,
    global_criterion_sweep,
    lexicographic,
    weighted_sum_sweep,
)

QUAD = PolyBasis.FULL_QUADRATIC_TRIPLE

# Published predictions of the refit 11-term pair at the 27 design points.
TABLE_RA_REFIT = (
    2.274947, 2.317309, 2.347448, 2.383297, 2.415438, 2.435357, 2.544441,
    2.556142, 2.55562, 1.453706, 1.485454, 1.504979, 1.546638, 1.579975,
    1.601089, 1.676945, 1.713461, 1.737754, 0.505473, 0.516126, 0.514557,
    0.567763, 0.603476, 0.626966, 0.636788, 0.72262, 0.79623,
)
TABLE_MRR_REFIT = (
    485.692, 1534.32, 2249.61, 1461.15, 2855.25, 3916.01, 3078.74, 5163.77,
    6915.46, 1461.6, 3181.96, 4568.98, 3119.06, 6072.16, 8691.92, 6100.63,
    11519.2, 16604.5, 2781.75, 5837.06, 8559.03, 5794.55, 11845.9, 17564.0,
    11486.8, 23530.3, 35240.5,
)

RA_STAR, MRR_STAR = 0.5055, 35241.0
WS_TABLE = ((0.5055, 2781.8), (0.5149, 8559.0), (0.7962, 35241.0))
EPS_TABLE_TAIL = (0.7107, 0.9159, 1.1211, 1.3263, 1.5315, 1.7366, 1.9418,
                  2.1470, 2.3522, 2.5574)
GA_SEEDS = (1, 2, 3)


def _report(criterion, description, failures):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {criterion} {status}: {description}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def gc_sweep(problem, solver_config, utopia):
    return global_criterion_sweep(problem, DEFAULT_P_VALUES, solver_config, utopia)


@pytest.fixture(scope="module")
def ws_sweep(problem, solver_config, utopia):
    return weighted_sum_sweep(problem, 11, solver_config, utopia)


@pytest.fixture(scope="module")
def eps_sweep_result(problem, solver_config, utopia):
    return epsilon_sweep(problem, "mrr", 11, solver_config, utopia)


@pytest.fixture(scope="module")
def lex_result(problem, solver_config):
    return lexicographic(problem, ("mrr", "ra"), solver_config)


@pytest.fixture(scope="module")
def ga_results(problem):
    return {seed: run_ga(problem, GaConfig(seed=seed)) for seed in GA_SEEDS}


def test_criterion_1_regression_reproduction(records):
    failures = []
    ra_diag = fit_ols(records, QUAD, "ra")
    mrr_diag = fit_ols(records, QUAD, "mrr")
    for i, (want, got) in enumerate(zip(TABLE_RA_REFIT, ra_diag.predicted)):
        if abs(got - want) > 0.01:
            failures.append(f"Ra prediction row {i + 1}: {got:.6f} vs {want}")
    for i, (want, got) in enumerate(zip(TABLE_MRR_REFIT, mrr_diag.predicted)):
        if abs(got - want) > max(0.01 * abs(want), 10.0):
            failures.append(f"MRR prediction row {i + 1}: {got:.2f} vs {want}")
    if abs(ra_diag.mapd - 0.0235) > 0.002:
        failures.append(f"refit Ra MAPD {ra_diag.mapd:.4f} vs 0.0235 +- 0.002")
    if abs(mrr_diag.mapd - 0.0518) > 0.005:
        failures.append(f"refit MRR MAPD {mrr_diag.mapd:.4f} vs 0.0518 +- 0.005")
    ra21, mrr22 = published_pair("eq21")
    base_ra = model_diagnostics(records, ra21, "ra").mapd
    base_mrr = model_diagnostics(records, mrr22, "mrr").mapd
    if abs(base_ra - 0.0707) > 0.002:
        failures.append(f"baseline Ra MAPD {base_ra:.4f} vs 0.0707 +- 0.002")
    if abs(base_mrr - 0.2047) > 0.005:
        failures.append(f"baseline MRR MAPD {base_mrr:.4f} vs 0.2047 +- 0.005")
    _report(1, "refit predictions and MAPD match the published comparison", failures)


def test_criterion_2_utopia_reproduction(utopia, grid):
    failures = []
    ra_best = utopia.ideal[0]
    mrr_best = -utopia.ideal[1]
    if abs(ra_best - RA_STAR) > 0.005:
        failures.append(f"Ra optimum {ra_best:.4f} vs {RA_STAR} +- 0.005")
    if abs(mrr_best - MRR_STAR) > 0.01 * MRR_STAR:
        failures.append(f"MRR optimum {mrr_best:.1f} vs {MRR_STAR} +- 1%")
    grid_ra = float(grid.ra.min())
    grid_mrr = float(grid.mrr.max())
    if abs(ra_best - grid_ra) > 1e-3 * max(1.0, abs(grid_ra)):
        failures.append(f"Ra optimum {ra_best:.6f} vs grid {grid_ra:.6f}")
    if abs(mrr_best - grid_mrr) > 1e-3 * max(1.0, abs(grid_mrr)):
        failures.append(f"MRR optimum {mrr_best:.2f} vs grid {grid_mrr:.2f}")
    _report(2, "individual optima match the published values and the grid extremes", failures)


def _deviation_criterion(devs, p):
    m = devs.max(axis=1)
    safe = np.where(m > 0, m, 1.0)
    inner = (devs[:, 0] / safe) ** p + (devs[:, 1] / safe) ** p
    return np.where(m > 0, safe * inner ** (1.0 / p), 0.0)


@pytest.fixture(scope="module")
def deviation_grid_subset(grid, utopia):
    # The criterion rises with each relative deviation, so its grid minimum sits
    # on the non-dominated subset of (dev_Ra, dev_MRR); reduce once, reuse per p.
    ra_star = utopia.ideal[0]
    mrr_star = -utopia.ideal[1]
    d1 = (np.abs(grid.ra - ra_star) / abs(ra_star)).ravel()
    d2 = (np.abs(grid.mrr - mrr_star) / abs(mrr_star)).ravel()
    order = np.lexsort((d2, d1))
    d1s, d2s = d1[order], d2[order]
    keep = np.empty(d2s.size, dtype=bool)
    keep[0] = True
    keep[1:] = d2s[1:] < np.minimum.accumulate(d2s)[:-1]
    return np.column_stack([d1s[keep], d2s[keep]])


def test_criterion_3_global_criterion(gc_sweep, deviation_grid_subset):
    failures = []
    by_p = {r.p: r for r in gc_sweep.results}
    r2 = by_p[2]
    if abs(r2.responses[0] - 0.7111) > 0.01:
        failures.append(f"p=2 Ra {r2.responses[0]:.4f} vs 0.7111 +- 0.01")
    if abs(r2.responses[1] - 25448.0) > 0.015 * 25448.0:
        failures.append(f"p=2 MRR {r2.responses[1]:.1f} vs 25448 +- 1.5%")
    for p in (12, 14, 16, 18, 20):
        r = by_p[p]
        if abs(r.responses[0] - 0.6855) > 0.01:
            failures.append(f"p={p} Ra {r.responses[0]:.4f} vs 0.6855 +- 0.01")
        if abs(r.responses[1] - 22914.0) > 0.02 * 22914.0:
            failures.append(f"p={p} MRR {r.responses[1]:.1f} vs 22914 +- 2%")
    for r in gc_sweep.results:  # p=1 exempt from the table, not from the oracle
        grid_min = float(_deviation_criterion(deviation_grid_subset, r.p).min())
        if r.criterion > grid_min + 1e-3 * max(1.0, abs(grid_min)):
            failures.append(f"p={r.p} criterion {r.criterion:.6f} above grid {grid_min:.6f}")
    _report(3, "deviation-criterion sweep matches the published rows and the grid oracle",
            failures)


def test_criterion_4_lexicographic(lex_result):
    failures = []
    if len(lex_result.results) != 2 or not lex_result.terminated_early:
        failures.append(f"expected 2 stages with early termination, got {len(lex_result.results)}")
    x = lex_result.results[-1].x
    for value, target, tol, name in ((x[0], 314.0, 0.5, "vc"), (x[1], 0.16, 1e-3, "fz"),
                                     (x[2], 0.6, 1e-3, "t")):
        if abs(value - target) > tol:
            failures.append(f"{name} {value} vs {target} +- {tol}")
    if abs(lex_result.results[-1].responses[0] - 0.7962) > 0.005:
        failures.append(f"Ra {lex_result.results[-1].responses[0]:.4f} vs 0.7962 +- 0.005")
    if abs(lex_result.results[-1].responses[1] - MRR_STAR) > 0.01 * MRR_STAR:
        failures.append(f"MRR {lex_result.results[-1].responses[1]:.1f} vs 35241 +- 1%")
    _report(4, "lexicographic (MRR, Ra) stops after two identical stages at the corner",
            failures)


def test_criterion_5_weighted_sum(ws_sweep):
    failures = []
    hits = []
    for r in ws_sweep.results:
        matches = [
            i for i, (ra_t, mrr_t) in enumerate(WS_TABLE)
            if abs(r.responses[0] - ra_t) <= 0.005
            and abs(r.responses[1] - mrr_t) <= 0.01 * mrr_t
        ]
        if len(matches) != 1:
            failures.append(f"w={r.weights[0]:g} point {r.responses} matches {matches}")
        else:
            hits.append(matches[0])
    if set(hits) != {0, 1, 2}:
        failures.append(f"sweep did not produce exactly the three table points: {sorted(set(hits))}")
    _report(5, "11-step weight sweep collapses to the three published response points",
            failures)


def test_criterion_6_epsilon_constraint(eps_sweep_result):
    failures = []
    results = eps_sweep_result.results
    if len(results) != 11:
        failures.append(f"expected 11 sweep points, got {len(results)}")
    for want, r in zip(EPS_TABLE_TAIL, results[1:]):
        if abs(r.epsilons[0] - want) > 0.005:
            failures.append(f"epsilon {r.epsilons[0]:.4f} vs {want} +- 0.005")
    for r in results[2:]:
        if not r.feasible or abs(r.responses[1] - MRR_STAR) > 0.01 * MRR_STAR:
            failures.append(f"eps={r.epsilons[0]:.4f} MRR {r.responses[1]:.1f} vs 35241 +- 1%")
    tight = results[1]
    if abs(tight.responses[1] - 25409.0) > 0.01 * 25409.0:
        failures.append(f"eps=0.7107 MRR {tight.responses[1]:.1f} vs 25409 +- 1%")
    if not tight.active[0] or abs(tight.responses[0] - tight.epsilons[0]) > 1e-5:
        failures.append("eps=0.7107 Ra bound not active")
    feasible_mrr = [r.responses[1] for r in results if r.feasible]
    if any(b < a - 1e-9 for a, b in zip(feasible_mrr, feasible_mrr[1:])):
        failures.append("MRR not non-decreasing along the epsilon grid")
    _report(6, "epsilon sweep reproduces the published grid, bounds and monotonicity",
            failures)


def test_criterion_7_genetic_algorithm(problem, utopia, ga_results):
    failures = []
    ra_best = utopia.ideal[0]
    mrr_best = -utopia.ideal[1]
    for seed, res in ga_results.items():
        pts = res.front.points
        resp = np.array([p.responses for p in pts])
        for i, p in enumerate(pts):
            if not CASE_STUDY_BOUNDS.contains(p.x, tol=1e-12):
                failures.append(f"seed {seed}: point {i} out of bounds")
            for j, q in enumerate(pts):
                if i != j and dominates(q.responses, p.responses, res.front.senses):
                    failures.append(f"seed {seed}: point {i} dominated within the front")
        if abs(resp[:, 0].min() - ra_best) > 0.02 * ra_best:
            failures.append(f"seed {seed}: Ra extreme {resp[:, 0].min():.4f} vs {ra_best:.4f} +- 2%")
        if abs(resp[:, 1].max() - mrr_best) > 0.02 * mrr_best:
            failures.append(f"seed {seed}: MRR extreme {resp[:, 1].max():.1f} vs {mrr_best:.1f} +- 2%")
    rerun = run_ga(problem, GaConfig(seed=GA_SEEDS[0]))
    if rerun.front.points != ga_results[GA_SEEDS[0]].front.points:
        failures.append("identical seeds produced different fronts")
    _report(7, "GA fronts are in-bounds, mutually non-dominated, near-utopia and reproducible",
            failures)


def test_criterion_8_efficiency_report(utopia, gc_sweep, ws_sweep, eps_sweep_result,
                                       lex_result, ga_results):
    failures = []
    ga_counters = ga_results[GA_SEEDS[0]].counters
    rows = {
        "individual_optima": utopia.counters,
        "global_criterion": gc_sweep.counters,
        "lexicographic": lex_result.counters,
        "weighted_sum": ws_sweep.counters,
        "epsilon_constraint": eps_sweep_result.counters,
        "ga": ga_counters,
    }
    for name, c in rows.items():
        if c.iterations <= 0 or c.function_evals <= 0:
            failures.append(f"{name} has non-positive counters: {c}")
    for name in ("global_criterion", "lexicographic", "weighted_sum", "epsilon_constraint"):
        if ga_counters.function_evals <= rows[name].function_evals:
            failures.append(
                f"GA function evals {ga_counters.function_evals} not above "
                f"{name} ({rows[name].function_evals})"
            )
    _report(8, "all five routines count work and the GA dominates on function evaluations",
            failures)


def test_criterion_9_property_suites(records, refit_models, problem, utopia):
    failures = []
    rng = np.random.default_rng(99)
    senses = (Sense.MINIMIZE, Sense.MAXIMIZE)
    for _ in range(1000):
        a, b, c = rng.integers(0, 4, size=(3, 2)).astype(float)
        if dominates(a, a, senses):
            failures.append(f"dominates not irreflexive at {a}")
            break
        if dominates(a, b, senses) and dominates(b, a, senses):
            failures.append(f"dominates not antisymmetric at {a}, {b}")
            break
        if dominates(a, b, senses) and dominates(b, c, senses) and not dominates(a, c, senses):
            failures.append(f"dominates not transitive at {a}, {b}, {c}")
            break

    lb = np.array(CASE_STUDY_BOUNDS.lower)
    span = np.array(CASE_STUDY_BOUNDS.span)
    step = 1e-5 * span
    points = lb + rng.random((100, 3)) * span
    for model in refit_models:
        for x in points:
            an = gradient(model, x)
            fd = np.empty(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = step[i]
                fd[i] = (float(evaluate(model, x + e)) - float(evaluate(model, x - e))) / (2 * step[i])
            if np.any(np.abs(fd - an) > 1e-5 * np.maximum(1.0, np.abs(an))):
                failures.append(f"gradient mismatch for {model.response} at {x}")

    for response in ("ra", "mrr"):
        diag = fit_ols(records, QUAD, response)
        A = basis_eval(QUAD, np.array([r.point for r in records]))
        y = np.array([getattr(r, response) for r in records])
        resid = y - np.asarray(diag.predicted)
        if np.abs(A.T @ resid).max() > 1e-6 * np.abs(y).max():
            failures.append(f"OLS residuals not orthogonal for {response}")

    for trial in range(20):
        raw = rng.integers(0, 5, size=(12, 2)).astype(float)
        pts = [ParetoPoint((1.0, 1.0, 1.0), tuple(v), "m", str(i)) for i, v in enumerate(raw)]
        once = filter_nondominated(pts, senses)
        twice = filter_nondominated(once, senses)
        if [p.responses for p in once] != [p.responses for p in twice]:
            failures.append(f"filter not idempotent on trial {trial}")
        perm = [pts[i] for i in rng.permutation(len(pts))]
        if {p.responses for p in filter_nondominated(perm, senses)} != {p.responses for p in once}:
            failures.append(f"filter membership changed under permutation on trial {trial}")

    if not np.all(utopia.ideal < utopia.nadir):
        failures.append(f"ideal {utopia.ideal} not below nadir {utopia.nadir}")
    for i in range(len(problem.objectives)):
        for name, z, at in (("ideal", utopia.ideal, utopia.ideal_x),
                            ("nadir", utopia.nadir, utopia.nadir_x)):
            if problem.stack.value_jacobian_hessian(at[i])[0][i] != z[i]:
                failures.append(f"{name}[{i}] not reproduced at its point")
    _report(9, "dominance axioms, gradients, OLS orthogonality, filter and normalization "
               "properties hold", failures)
