import numpy as np
import pytest

from pareto_forge import nlsolver
from pareto_forge import (
    CASE_STUDY_BOUNDS,
    ConstraintSet,
    NonFiniteEvaluationError,
    SmoothFunction,
    SolverConfig,
    minimize,
    multistart_minimize,
    stratified_starts,
)

BOX = ConstraintSet(CASE_STUDY_BOUNDS)
LB = np.array(CASE_STUDY_BOUNDS.lower)
SPAN = np.array(CASE_STUDY_BOUNDS.span)


def quadratic_objective(center):
    center = np.asarray(center, dtype=float)

    def vg(rows, x):
        d = (x - center) / SPAN
        return np.sum(d * d, axis=-1), 2.0 * d / SPAN, np.diag(2.0 / SPAN ** 2)

    return SmoothFunction(vg, name="quadratic")


# Double well in the cutting-speed variable only: f'(u) = (u-.35)(u-.55)(u-.9)
# on u = (vc-78)/236, with a local minimum at u=0.35, the global one at u=0.9,
# and the saddle at 0.55, so a solve started from the box center (u=0.5) rolls
# into the worse basin.
def _well(u):
    return u ** 4 / 4 - 0.6 * u ** 3 + 0.50125 * u ** 2 - 0.17325 * u


def _well_grad(u):
    return (u - 0.35) * (u - 0.55) * (u - 0.9)


def _well_curvature(u):
    return (u - 0.55) * (u - 0.9) + (u - 0.35) * (u - 0.9) + (u - 0.35) * (u - 0.55)


def bimodal_objective():
    def vg(rows, x):
        u = (x[..., 0] - 78.0) / 236.0
        grad = np.zeros(x.shape)
        grad[..., 0] = _well_grad(u) / 236.0
        hess = np.zeros(x.shape + (3,))
        hess[..., 0, 0] = _well_curvature(u) / 236.0 ** 2
        return _well(u), grad, hess

    return SmoothFunction(vg, name="double well")


def test_convex_quadratic_reaches_center():
    target = np.array([200.0, 0.07, 0.35])
    out = minimize(quadratic_objective(target), BOX, CASE_STUDY_BOUNDS.center)
    assert out.converged
    assert np.all(np.abs((np.array(out.x) - target) / SPAN) <= 1e-6)
    assert out.kkt_residual <= 1e-8
    assert out.constraint_violation == 0.0


def test_single_start_falls_into_local_basin():
    out = minimize(bimodal_objective(), BOX, CASE_STUDY_BOUNDS.center)
    u = (out.x[0] - 78.0) / 236.0
    assert abs(u - 0.35) < 0.01


def test_multistart_beats_single_start_for_every_seed():
    grid = np.linspace(0.0, 1.0, 201)
    grid_min = _well(grid).min()
    single = minimize(bimodal_objective(), BOX, CASE_STUDY_BOUNDS.center)
    for seed in range(5):
        multi = multistart_minimize(bimodal_objective(), BOX, SolverConfig(seed=seed))
        assert multi.objective <= single.objective - 1e-4
        assert multi.objective <= grid_min + 1e-3
        u = (multi.x[0] - 78.0) / 236.0
        assert abs(u - 0.9) < 0.01


def test_refit_roughness_minimized_from_interior_start(refit_models):
    ra_model, _ = refit_models

    def vg(rows, x):
        f, jac, hess = ra_model.stack.value_jacobian_hessian(x)
        return f[..., 0], jac[..., 0, :], hess[..., 0, :, :]

    out = minimize(SmoothFunction(vg, name="Ra"), BOX, [200.0, 0.1, 0.4])
    assert out.converged
    assert abs(out.objective - 0.5055) <= 0.005
    assert np.allclose(out.x, [314.0, 0.04, 0.2], atol=1e-4)


def test_multistart_with_one_start_equals_center_minimize():
    cfg = SolverConfig(n_starts=1, seed=11)
    multi = multistart_minimize(bimodal_objective(), BOX, cfg)
    single = minimize(bimodal_objective(), BOX, CASE_STUDY_BOUNDS.center, cfg)
    assert multi.x == single.x
    assert multi.objective == single.objective


def test_multistart_is_deterministic():
    cfg = SolverConfig(seed=7)
    a = multistart_minimize(bimodal_objective(), BOX, cfg)
    b = multistart_minimize(bimodal_objective(), BOX, cfg)
    assert a.x == b.x
    assert a.objective == b.objective
    assert a.counters == b.counters


def test_stratified_starts_layout():
    starts = stratified_starts(CASE_STUDY_BOUNDS, 8, seed=3)
    assert starts.shape == (8, 3)
    assert np.allclose(starts[0], CASE_STUDY_BOUNDS.center)
    for s in starts:
        assert CASE_STUDY_BOUNDS.contains(s)
    again = stratified_starts(CASE_STUDY_BOUNDS, 8, seed=3)
    assert np.array_equal(starts, again)
    # one start per stratum along each variable
    unit = (starts[1:] - LB) / SPAN
    for j in range(3):
        assert sorted(np.floor(unit[:, j] * 7).astype(int)) == list(range(7))


def test_nonfinite_objective_reports_point():
    bad = SmoothFunction(lambda rows, x: (float("nan"), np.zeros(3), np.zeros((3, 3))), name="broken")
    with pytest.raises(NonFiniteEvaluationError, match="broken") as err:
        minimize(bad, BOX, CASE_STUDY_BOUNDS.center)
    assert np.allclose(err.value.point, CASE_STUDY_BOUNDS.center)


def test_start_outside_bounds_rejected():
    with pytest.raises(ValueError, match="outside bounds"):
        minimize(quadratic_objective(LB), BOX, [77.0, 0.1, 0.4])


def test_first_bad_start_among_many_is_named():
    starts = LB + np.random.default_rng(4).random((40, 3)) * SPAN
    starts[17, 1] = 0.17
    starts[29, 2] = 0.1
    with pytest.raises(ValueError) as err:
        nlsolver.minimize_starts(quadratic_objective(LB), BOX, starts)
    assert str(err.value) == f"start {starts[17].tolist()} outside bounds"


def test_start_at_the_tolerance_edge_is_accepted():
    lo, hi = CASE_STUDY_BOUNDS.lower, CASE_STUDY_BOUNDS.upper
    # the edges of Bounds.contains(start, tol=1e-9), in its own arithmetic
    low_edge = [a - 1e-9 * (b - a) for a, b in zip(lo, hi)]
    high_edge = [b + 1e-9 * (b - a) for a, b in zip(lo, hi)]
    assert CASE_STUDY_BOUNDS.contains(low_edge, tol=1e-9)
    assert CASE_STUDY_BOUNDS.contains(high_edge, tol=1e-9)
    outcomes = nlsolver.minimize_starts(quadratic_objective(LB), BOX, [low_edge, high_edge])
    assert len(outcomes) == 2
    beyond = [np.nextafter(low_edge[0], -np.inf)] + low_edge[1:]
    assert not CASE_STUDY_BOUNDS.contains(beyond, tol=1e-9)
    with pytest.raises(ValueError, match="outside bounds"):
        nlsolver.minimize_starts(quadratic_objective(LB), BOX, [high_edge, beyond])


def test_descent_on_box_only_solves():
    rng = np.random.default_rng(9)
    for _ in range(10):
        target = LB + rng.random(3) * SPAN
        start = LB + rng.random(3) * SPAN
        objective = quadratic_objective(target)
        out = minimize(objective, BOX, start)
        assert out.objective <= objective.value_and_grad(0, start)[0] + 1e-12


@pytest.mark.parametrize("violation", [0.0, 1.0])
def test_multistart_ties_go_to_the_lowest_start_index(violation):
    # a flat objective leaves every start where it began with the same objective
    # and, here, the same violation: the first start (the box center) must win
    flat = SmoothFunction(lambda rows, x: (1.0, np.zeros(3), np.zeros((3, 3))), name="flat")
    wall = SmoothFunction(lambda rows, x: (violation, np.zeros(3), np.zeros((3, 3))), name="constant")
    constraints = ConstraintSet(CASE_STUDY_BOUNDS, inequalities=(wall,))
    cfg = SolverConfig(n_starts=5, seed=4)
    best = multistart_minimize(flat, constraints, cfg)
    assert best.x == minimize(flat, constraints, CASE_STUDY_BOUNDS.center, cfg).x


def test_multistart_tie_goes_to_a_converged_start():
    # the same value everywhere, but a slope claimed at the box center only: the
    # first start (the center) cannot move and ends unconverged, the others are
    # converged where they begin, all with the same objective
    center = np.asarray(CASE_STUDY_BOUNDS.center)

    def vg(rows, x):
        sloped = np.all(x == center, axis=-1)[..., None]
        return 1.0, np.where(sloped, 1.0, 0.0) * np.ones(3), np.zeros((3, 3))

    flat = SmoothFunction(vg, name="flat, sloped at the center")
    cfg = SolverConfig(n_starts=5, seed=4)
    assert not minimize(flat, BOX, center, cfg).converged
    best = multistart_minimize(flat, BOX, cfg)
    assert best.converged
    assert best.x != tuple(center)


def test_counters_accumulate():
    cfg = SolverConfig(n_starts=4, seed=1)
    single = minimize(bimodal_objective(), BOX, CASE_STUDY_BOUNDS.center, cfg)
    assert single.counters.function_evals >= single.counters.iterations > 0
    multi = multistart_minimize(bimodal_objective(), BOX, cfg)
    assert multi.counters.function_evals > single.counters.function_evals


def test_inequality_constrained_solve_is_feasible_and_active():
    objective = quadratic_objective(LB)
    wall = SmoothFunction(
        lambda rows, x: (150.0 - x[..., 0], np.array([-1.0, 0.0, 0.0]), np.zeros((3, 3))), scale=150.0,
        name="vc >= 150"
    )
    constraints = ConstraintSet(CASE_STUDY_BOUNDS, inequalities=(wall,))
    out = multistart_minimize(objective, constraints, SolverConfig(seed=2))
    assert out.converged
    assert out.constraint_violation <= 1e-6
    assert out.kkt_residual <= 1e-8
    assert abs(out.x[0] - 150.0) <= 1e-3
    assert out.x[1] == pytest.approx(LB[1]) and out.x[2] == pytest.approx(LB[2])


def test_two_inequalities_both_active():
    # pulled to the lower corner, held at vc >= 150 and t >= 0.4
    walls = (
        SmoothFunction(lambda rows, x: (150.0 - x[..., 0], np.array([-1.0, 0.0, 0.0]), np.zeros((3, 3))),
                       scale=150.0, name="vc >= 150"),
        SmoothFunction(lambda rows, x: (0.4 - x[..., 2], np.array([0.0, 0.0, -1.0]), np.zeros((3, 3))),
                       name="t >= 0.4"),
    )
    constraints = ConstraintSet(CASE_STUDY_BOUNDS, inequalities=walls)
    out = multistart_minimize(quadratic_objective(LB), constraints, SolverConfig(seed=5))
    assert out.converged
    assert out.constraint_violation <= 1e-6
    assert np.allclose(out.x, [150.0, LB[1], 0.4], atol=1e-6)


def test_box_only_solve_is_one_inner_solve(monkeypatch):
    calls = []
    inner = nlsolver._inner_solve

    def counting(fun, s0, gtol, maxiter):
        calls.append(gtol)
        return inner(fun, s0, gtol, maxiter)

    monkeypatch.setattr(nlsolver, "_inner_solve", counting)
    cfg = SolverConfig(max_inner=1)
    out = minimize(bimodal_objective(), BOX, CASE_STUDY_BOUNDS.center, cfg)
    # unconverged, yet not restarted up to max_outer times
    assert not out.converged
    assert calls == [0.1 * cfg.kkt_tol]
    assert out.counters.iterations == 1


def test_returned_point_respects_bounds_exactly():
    out = multistart_minimize(quadratic_objective([1000.0, 1.0, 1.0]), BOX, SolverConfig(seed=4))
    assert out.x == (314.0, 0.16, 0.6)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_starts=0)
    with pytest.raises(ValueError):
        SolverConfig(kkt_tol=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["kkt_tol", "feas_tol"])
def test_solver_config_rejects_nonfinite_floats(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SolverConfig(**{name: value})
