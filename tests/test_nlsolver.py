from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pareto_forge import nlsolver
from pareto_forge import (
    CASE_STUDY_BOUNDS,
    ConstraintSet,
    ModelStack,
    NonFiniteEvaluationError,
    SmoothFunction,
    SolverConfig,
    grouped_multistart,
    minimize_starts,
    stratified_starts,
    value_jacobian_hessian,
)

BOX = ConstraintSet(CASE_STUDY_BOUNDS)
LB = np.array(CASE_STUDY_BOUNDS.lower)
SPAN = np.array(CASE_STUDY_BOUNDS.span)


def one_start(objective, constraints, start, config=None):
    return minimize_starts(objective, constraints, [start], config)[0]


def one_multistart(objective, constraints, config=None):
    return grouped_multistart(objective, constraints, 1, config)[0]


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
    out = one_start(quadratic_objective(target), BOX, CASE_STUDY_BOUNDS.center)
    assert out.converged
    assert np.all(np.abs((np.array(out.x) - target) / SPAN) <= 1e-6)
    assert out.kkt_residual <= 1e-8
    assert out.constraint_violation == 0.0


def test_single_start_falls_into_local_basin():
    out = one_start(bimodal_objective(), BOX, CASE_STUDY_BOUNDS.center)
    u = (out.x[0] - 78.0) / 236.0
    assert abs(u - 0.35) < 0.01


def test_multistart_beats_single_start_for_every_seed():
    grid = np.linspace(0.0, 1.0, 201)
    grid_min = _well(grid).min()
    single = one_start(bimodal_objective(), BOX, CASE_STUDY_BOUNDS.center)
    for seed in range(5):
        multi = one_multistart(bimodal_objective(), BOX, SolverConfig(seed=seed))
        assert multi.objective <= single.objective - 1e-4
        assert multi.objective <= grid_min + 1e-3
        u = (multi.x[0] - 78.0) / 236.0
        assert abs(u - 0.9) < 0.01


def test_refit_roughness_minimized_from_interior_start(refit_models):
    ra_model, _ = refit_models
    stack = ModelStack((ra_model,))

    def vg(rows, x):
        f, jac, hess = value_jacobian_hessian(stack, x)
        return f[..., 0], jac[..., 0, :], hess[..., 0, :, :]

    out = one_start(SmoothFunction(vg, name="Ra"), BOX, [200.0, 0.1, 0.4])
    assert out.converged
    assert abs(out.objective - 0.5055) <= 0.005
    assert np.allclose(out.x, [314.0, 0.04, 0.2], atol=1e-4)


def test_multistart_with_one_start_equals_center_minimize():
    cfg = SolverConfig(n_starts=1, seed=11)
    multi = one_multistart(bimodal_objective(), BOX, cfg)
    single = one_start(bimodal_objective(), BOX, CASE_STUDY_BOUNDS.center, cfg)
    assert multi.x == single.x
    assert multi.objective == single.objective


def test_multistart_is_deterministic():
    cfg = SolverConfig(seed=7)
    a = one_multistart(bimodal_objective(), BOX, cfg)
    b = one_multistart(bimodal_objective(), BOX, cfg)
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
        one_start(bad, BOX, CASE_STUDY_BOUNDS.center)
    assert np.allclose(err.value.point, CASE_STUDY_BOUNDS.center)
    # the objective is checked before the constraints
    also_bad = ConstraintSet(CASE_STUDY_BOUNDS, (replace(bad, name="also broken"),))
    with pytest.raises(NonFiniteEvaluationError, match="'broken'"):
        one_start(bad, also_bad, CASE_STUDY_BOUNDS.center)


@pytest.mark.parametrize("where", ["value", "hessian"])
def test_nonfinite_constraint_at_a_trial_point_names_its_row(where):
    # finite at every start; NaN in the value, or inf in the Hessian alone, at the
    # second row's first point after its start, while the other rows are finite
    points = {}

    def vg(rows, x):
        value, hess = 150.0 - x[..., 0], np.zeros(x.shape + (3,))
        for j in np.flatnonzero(rows == 1):
            start = points.setdefault("start", x[j].copy())
            if "bad" not in points and np.any(x[j] != start):
                points["bad"] = x[j].copy()
                if where == "value":
                    value[j] = np.nan
                else:
                    hess[j, 1, 2] = np.inf
        return value, np.array([-1.0, 0.0, 0.0]), hess

    wall = SmoothFunction(vg, scale=150.0, name="vc >= 150")
    starts = stratified_starts(CASE_STUDY_BOUNDS, 3, 2)
    with pytest.raises(NonFiniteEvaluationError, match="'vc >= 150'") as err:
        minimize_starts(quadratic_objective(LB), ConstraintSet(CASE_STUDY_BOUNDS, (wall,)), starts)
    assert np.array_equal(err.value.point, points["bad"])


def _quality(objective, violation, converged, feas_tol):
    """The reference order of a group's starts, best first, for ``min``."""
    if violation <= feas_tol:
        return (0, objective, not converged)
    return (1, violation, objective, not converged)


_TOL = 1e-6
_OBJECTIVES = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 2.5]),
                        st.floats(-10.0, 10.0, allow_nan=False))
_VIOLATIONS = st.one_of(st.sampled_from([0.0, _TOL, float(np.nextafter(_TOL, 1.0)), 3e-3]),
                        st.floats(0.0, 1.0))


@st.composite
def _groups(draw):
    """(n, objectives, violations, converged flags) of 1-4 groups of n starts."""
    n = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 4)) * n
    return (n, draw(st.lists(_OBJECTIVES, min_size=rows, max_size=rows)),
            draw(st.lists(_VIOLATIONS, min_size=rows, max_size=rows)),
            draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))


# equal objectives, one of them -0.0, a violation at feas_tol, feasible and
# infeasible starts and both flags in one group: row 0 wins
@given(_groups())
@example((4, [0.0, -0.0, 0.0, 1.0], [_TOL, 0.0, 0.0, 2.0], [True, False, True, True]))
def test_best_rows_is_min_by_quality(groups):
    n, f, viol, conv = groups
    expected = [min(range(g, g + n), key=lambda k: _quality(f[k], viol[k], conv[k], _TOL))
                for g in range(0, len(f), n)]
    best = nlsolver._best_rows(np.array(f), np.array(conv), np.array(viol), n, _TOL)
    assert best.tolist() == expected


def test_start_outside_bounds_rejected():
    with pytest.raises(ValueError, match="outside bounds"):
        one_start(quadratic_objective(LB), BOX, [77.0, 0.1, 0.4])


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
        out = one_start(objective, BOX, start)
        assert out.objective <= objective.value_and_grad(0, start)[0] + 1e-12


@pytest.mark.parametrize("violation", [0.0, 1.0])
def test_multistart_ties_go_to_the_lowest_start_index(violation):
    # a flat objective leaves every start where it began with the same objective
    # and, here, the same violation: the first start (the box center) must win
    flat = SmoothFunction(lambda rows, x: (1.0, np.zeros(3), np.zeros((3, 3))), name="flat")
    wall = SmoothFunction(lambda rows, x: (violation, np.zeros(3), np.zeros((3, 3))), name="constant")
    constraints = ConstraintSet(CASE_STUDY_BOUNDS, inequalities=(wall,))
    cfg = SolverConfig(n_starts=5, seed=4)
    best = one_multistart(flat, constraints, cfg)
    assert best.x == one_start(flat, constraints, CASE_STUDY_BOUNDS.center, cfg).x


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
    assert not one_start(flat, BOX, center, cfg).converged
    best = one_multistart(flat, BOX, cfg)
    assert best.converged
    assert best.x != tuple(center)


def test_counters_accumulate():
    cfg = SolverConfig(n_starts=4, seed=1)
    single = one_start(bimodal_objective(), BOX, CASE_STUDY_BOUNDS.center, cfg)
    assert single.counters.function_evals >= single.counters.iterations > 0
    multi = one_multistart(bimodal_objective(), BOX, cfg)
    assert multi.counters.function_evals > single.counters.function_evals


def test_inequality_constrained_solve_is_feasible_and_active():
    objective = quadratic_objective(LB)
    wall = SmoothFunction(
        lambda rows, x: (150.0 - x[..., 0], np.array([-1.0, 0.0, 0.0]), np.zeros((3, 3))), scale=150.0,
        name="vc >= 150"
    )
    constraints = ConstraintSet(CASE_STUDY_BOUNDS, inequalities=(wall,))
    out = one_multistart(objective, constraints, SolverConfig(seed=2))
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
    out = one_multistart(quadratic_objective(LB), constraints, SolverConfig(seed=5))
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
    out = one_start(bimodal_objective(), BOX, CASE_STUDY_BOUNDS.center, cfg)
    # unconverged, yet not restarted up to max_outer times
    assert not out.converged
    assert calls == [0.1 * cfg.kkt_tol]
    assert out.counters.iterations == 1


# On the scaled (u, v) = (x0, x1): c = offset + u + v - 3uv rises into the box from
# the vertex (0, 0), a local minimum of its violation at c = offset, and is negative
# towards (1, 1); u + v pulls the multiplier loop from inside onto that vertex,
# while the violation alone descends from there to the feasible side.
def trap_constraint(offsets):
    """The trap as a constraint set, with the offset of row r at ``offsets[r]``."""
    def trap(rows, x):
        u, v = (x[..., 0] - LB[0]) / SPAN[0], (x[..., 1] - LB[1]) / SPAN[1]
        grad, hess = np.zeros(x.shape), np.zeros(x.shape + (3,))
        grad[..., 0], grad[..., 1] = (1.0 - 3.0 * v) / SPAN[0], (1.0 - 3.0 * u) / SPAN[1]
        hess[..., 0, 1] = hess[..., 1, 0] = -3.0 / (SPAN[0] * SPAN[1])
        return offsets[rows] + u + v - 3.0 * u * v, grad, hess

    return ConstraintSet(CASE_STUDY_BOUNDS, (SmoothFunction(trap, name="trap"),))


def toward_vertex():
    def vg(rows, x):
        s = (x - LB) / SPAN
        return s[..., 0] + s[..., 1], np.array([1.0, 1.0, 0.0]) / SPAN, np.zeros((3, 3))

    return SmoothFunction(vg, name="u + v")


def test_row_at_a_locally_infeasible_vertex_leaves_for_restoration(monkeypatch):
    gtols, inner = [], nlsolver._inner_solve

    def spy(fun, s0, gtol, maxiter):
        gtols.append(gtol)
        return inner(fun, s0, gtol, maxiter)

    monkeypatch.setattr(nlsolver, "_inner_solve", spy)
    start = LB + np.array([0.4, 0.4, 0.5]) * SPAN
    out = one_start(toward_vertex(), trap_constraint(np.array([0.1])), start)
    # restoration (gtol 1e-12) follows at most two outer iterations of the first loop
    assert gtols.index(1e-12) <= 2
    assert out.converged and out.constraint_violation <= 1e-6
    # the constrained optimum: u = v on (3u - 1)^2 = 1.3
    assert np.allclose((np.array(out.x) - LB)[:2] / SPAN[:2], (1.0 + 1.3 ** 0.5) / 3.0,
                       atol=1e-5)


def test_restoration_evaluates_its_own_rows():
    # group 0's bound holds on the whole box, so only group 1's rows, not the
    # batch's first, go to restoration: each group must solve as it does alone
    cfg = SolverConfig()
    offsets = (-10.0, 0.1)
    both = grouped_multistart(toward_vertex(), trap_constraint(np.repeat(offsets, cfg.n_starts)),
                              2, cfg)
    for offset, outcome in zip(offsets, both):
        alone = one_multistart(toward_vertex(), trap_constraint(np.full(cfg.n_starts, offset)),
                               cfg)
        assert outcome == alone
    assert both[1].converged and both[1].constraint_violation <= cfg.feas_tol


def test_returned_point_respects_bounds_exactly():
    out = one_multistart(quadratic_objective([1000.0, 1.0, 1.0]), BOX, SolverConfig(seed=4))
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
