from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import packed
from pareto_forge import nlsolver
from pareto_forge import (
    CASE_STUDY_BOUNDS,
    ModelStack,
    NonFiniteEvaluationError,
    SmoothFunction,
    SolverConfig,
    grouped_multistart,
    minimize_starts,
    stratified_starts,
    value_jacobian_hessian,
)
from pareto_forge.polymodel import unpack

BOX = CASE_STUDY_BOUNDS
LB = np.array(CASE_STUDY_BOUNDS.lower)
SPAN = np.array(CASE_STUDY_BOUNDS.span)


def one_start(objective, bounds, start, config=None, constraint=None):
    return minimize_starts(objective, bounds, [start], config, constraint)[0]


def one_multistart(objective, bounds, config=None, constraint=None):
    return grouped_multistart(objective, bounds, 1, config, constraint)[0]


def quadratic_objective(center):
    center = np.asarray(center, dtype=float)

    def vg(rows, x):
        d = (x - center) / SPAN
        return np.sum(d * d, axis=-1), 2.0 * d / SPAN, np.diag(2.0 / SPAN ** 2)

    return SmoothFunction(packed(vg), name="quadratic")


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

    return SmoothFunction(packed(vg), name="double well")


def jointly(objective, constraint, reads=None):
    """The joint read of ``objective`` and ``constraint``, which appends the rows of
    each read to ``reads``."""
    def both(rows, x):
        if reads is not None:
            reads.append(np.asarray(rows).tolist())
        return np.stack(np.broadcast_arrays(objective.value_and_grad(rows, x),
                                            constraint.value_and_grad(rows, x)), axis=-2)

    return both


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

    out = one_start(SmoothFunction(packed(vg), name="Ra"), BOX, [200.0, 0.1, 0.4])
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
    bad = SmoothFunction(packed(lambda rows, x: (float("nan"), np.zeros(3), np.zeros((3, 3)))),
                         name="broken")
    with pytest.raises(NonFiniteEvaluationError, match="broken") as err:
        one_start(bad, BOX, CASE_STUDY_BOUNDS.center)
    assert np.allclose(err.value.point, CASE_STUDY_BOUNDS.center)
    # the objective is checked before the constraint, also where both are read at once
    also = replace(bad, name="also broken")
    with pytest.raises(NonFiniteEvaluationError, match="'broken'"):
        one_start(bad, BOX, CASE_STUDY_BOUNDS.center, constraint=also)
    with pytest.raises(NonFiniteEvaluationError, match="'broken'"):
        grouped_multistart(bad, BOX, 1, SolverConfig(n_starts=1), also, _joint=jointly(bad, also))


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
                    hess[j, 1, 2] = hess[j, 2, 1] = np.inf
        return value, np.array([-1.0, 0.0, 0.0]), hess

    wall = SmoothFunction(packed(vg), scale=150.0, name="vc >= 150")
    starts = stratified_starts(CASE_STUDY_BOUNDS, 3, 2)
    with pytest.raises(NonFiniteEvaluationError, match="'vc >= 150'") as err:
        minimize_starts(quadratic_objective(LB), BOX, starts, constraint=wall)
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
    flat = SmoothFunction(packed(lambda rows, x: (1.0, np.zeros(3), np.zeros((3, 3)))), name="flat")
    wall = SmoothFunction(packed(lambda rows, x: (violation, np.zeros(3), np.zeros((3, 3)))),
                          name="constant")
    cfg = SolverConfig(n_starts=5, seed=4)
    best = one_multistart(flat, BOX, cfg, wall)
    assert best.x == one_start(flat, BOX, CASE_STUDY_BOUNDS.center, cfg, wall).x


def test_multistart_tie_goes_to_a_converged_start():
    # the same value everywhere, but a slope claimed at the box center only: the
    # first start (the center) cannot move and ends unconverged, the others are
    # converged where they begin, all with the same objective
    center = np.asarray(CASE_STUDY_BOUNDS.center)

    def vg(rows, x):
        sloped = np.all(x == center, axis=-1)[..., None]
        return 1.0, np.where(sloped, 1.0, 0.0) * np.ones(3), np.zeros((3, 3))

    flat = SmoothFunction(packed(vg), name="flat, sloped at the center")
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
        packed(lambda rows, x: (150.0 - x[..., 0], np.array([-1.0, 0.0, 0.0]), np.zeros((3, 3)))),
        scale=150.0, name="vc >= 150"
    )
    out = one_multistart(objective, BOX, SolverConfig(seed=2), wall)
    assert out.converged
    assert out.constraint_violation <= 1e-6
    assert out.kkt_residual <= 1e-8
    assert abs(out.x[0] - 150.0) <= 1e-3
    assert out.x[1] == pytest.approx(LB[1]) and out.x[2] == pytest.approx(LB[2])


def test_lagrangian_value_is_the_piecewise_penalty():
    # the augmented Lagrangian of f subject to c <= 0 is f + psi(c), where psi is
    # lam c + rho c^2 / 2 while lam + rho c >= 0 and -lam^2 / (2 rho) beyond it
    # (Rockafellar's form): continuous where the constraint leaves the penalty
    wall = SmoothFunction(
        packed(lambda rows, x: (150.0 - x[..., 0], np.array([-1.0, 0.0, 0.0]), np.zeros((3, 3)))),
        scale=150.0, name="vc >= 150")
    prob = nlsolver._ScaledProblem(quadratic_objective(LB), BOX, wall, 4)
    rows = np.arange(4)
    # vc at 101.6, 148.8, 196 and 290.4: two rows in the penalty and two beyond it
    s = np.array([[0.1, 0.5, 0.5], [0.3, 0.2, 0.7], [0.5, 0.5, 0.5], [0.9, 0.1, 0.4]])
    lam, rho = np.array([2.0, 0.5, 3.0, 1.0]), np.array([10.0, 100.0, 10.0, 1000.0])
    value, grad, _ = unpack(prob.lagrangian(rows, s, lam, rho))
    f, g, _ = unpack(prob.evaluate(0, rows, s))
    c, gc, _ = unpack(prob.evaluate(1, rows, s))
    inside = lam + rho * c >= 0
    assert inside.tolist() == [True, True, False, False]
    psi = np.where(inside, lam * c + rho * c * c / 2.0, -lam * lam / (2.0 * rho))
    assert np.allclose(value, f + psi, rtol=1e-12, atol=0.0)
    assert np.allclose(grad, g + np.where(inside, lam + rho * c, 0.0)[:, None] * gc,
                       rtol=1e-12, atol=0.0)


def test_hessian_carries_the_bound_curvature_in_its_eps_band():
    # where lam + rho c lies in (-rho _ACTIVE_EPS, 0] the penalty is off, yet its
    # curvature rho grad c grad c^T enters the Hessian; beyond the band it does
    # not, and on both the value and gradient stay the piecewise penalty's
    wall = SmoothFunction(
        packed(lambda rows, x: (150.0 - x[..., 0], np.array([-1.0, 0.0, 0.0]), np.zeros((3, 3)))),
        scale=150.0, name="vc >= 150")
    prob = nlsolver._ScaledProblem(quadratic_objective(LB), BOX, wall, 5)
    rows = np.arange(5)
    # vc at 151, 152.1, 160, 200 and 148: two rows in the band, two beyond it and
    # one in the penalty
    s = np.column_stack((np.array([151.0, 152.1, 160.0, 200.0, 148.0]) - LB[0], np.full(5, 0.1),
                         np.full(5, 0.2))) / SPAN
    lam, rho = np.array([0.0, 0.5, 0.0, 2.0, 1.0]), np.array([10.0, 100.0, 10.0, 1000.0, 10.0])
    value, grad, hess = unpack(prob.lagrangian(rows, s, lam, rho))
    f, g, h = unpack(prob.evaluate(0, rows, s))
    c, gc, _ = unpack(prob.evaluate(1, rows, s))
    shifted = lam + rho * c
    band = shifted > -rho * nlsolver._ACTIVE_EPS
    assert (shifted <= 0).tolist() == [True, True, True, True, False]
    assert band.tolist() == [True, True, False, False, True]
    inside = shifted >= 0
    psi = np.where(inside, lam * c + rho * c * c / 2.0, -lam * lam / (2.0 * rho))
    assert np.allclose(value, f + psi, rtol=1e-12, atol=0.0)
    assert np.allclose(grad, g + np.where(inside, shifted, 0.0)[:, None] * gc,
                       rtol=1e-12, atol=0.0)
    curvature = np.where(band, rho, 0.0)[:, None, None] * gc[:, :, None] * gc[:, None, :]
    assert np.array_equal(hess, h + curvature)


def linear_problem(a, b, offset=0.0):
    """Objective a . s and constraint b . s + offset, per row, on the unit-cube
    coordinates s of the case-study box: their scaled gradients are a and b."""
    a, b = np.atleast_2d(np.asarray(a, dtype=float)), np.atleast_2d(np.asarray(b, dtype=float))

    def linear(coef, shift):
        def vg(rows, x):
            return ((x - LB) / SPAN * coef[rows]).sum(axis=-1) + shift, coef[rows] / SPAN, \
                np.zeros((3, 3))
        return vg

    return nlsolver._ScaledProblem(SmoothFunction(packed(linear(a, 0.0))), BOX,
                                   SmoothFunction(packed(linear(b, offset))), len(a))


def estimate(a, b, s):
    """The multiplier estimate of each row, and its projected residual."""
    prob, s = linear_problem(a, b), np.atleast_2d(np.asarray(s, dtype=float))
    rows = np.arange(len(s))
    lam = nlsolver._multiplier_estimate(prob, rows, s)
    return lam, nlsolver._projected_residual(s, np.asarray(a) + lam[:, None] * np.asarray(b))


def test_multiplier_estimate_makes_a_stationary_vertex_kkt():
    # at the vertex s = 0, grad f pulls u inside; every lam >= 1/2 holds it there
    lam, residual = estimate([[-1.0, 1.0, 1.0]], [[2.0, 1.0, 0.0]], [[0.0, 0.0, 0.0]])
    assert lam.tolist() == [0.5] and residual.tolist() == [0.0]
    # off the vertex on the u edge only lam = 1/2 is stationary, and least squares
    # (lam = 1/5) is not
    lam, residual = estimate([[-1.0, 1.0, 1.0]], [[2.0, 1.0, 0.0]], [[0.5, 0.0, 0.0]])
    assert lam.tolist() == [0.5] and residual.tolist() == [0.0]


def test_multiplier_estimate_is_zero_where_the_objective_alone_is_stationary():
    # lam = 0 and lam = 1 are both stationary at this vertex: the tie goes to 0
    lam, residual = estimate([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]],
                             [[-1.0, 2.0, 0.0], [1.0, -1.0, 3.0]],
                             [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
    assert lam.tolist() == [0.0, 0.0] and residual.tolist() == [0.0, 0.0]


def test_multiplier_estimate_is_finite_where_grad_c_has_zeros():
    # components 0 / 0 and 0.2 / 0 have no break point, nor has a zero grad c
    # least squares: no division warns, and the estimate stays finite
    lam, residual = estimate([[-1.0, 0.2, 0.0], [-1.0, 0.2, 0.0]],
                             [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                             [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
    assert lam.tolist() == [1.0, 0.0] and np.allclose(residual, [0.2, 0.5])


def test_multiplier_estimate_is_never_negative():
    # lam = -1 would be stationary here: a multiplier of c <= 0 is not negative
    lam, _ = estimate([[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], [[0.5, 0.5, 0.5]])
    assert lam.tolist() == [0.0]
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(200, 3)), rng.normal(size=(200, 3))
    # points on vertices, edges, faces and inside
    s = rng.choice([0.0, 0.3, 1.0], size=(200, 3))
    lam, residual = estimate(a, b, s)
    assert (lam >= 0).all()
    assert (residual <= nlsolver._projected_residual(s, a)).all()


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
    """The trap as a constraint, with the offset of row r at ``offsets[r]``."""
    def trap(rows, x):
        u, v = (x[..., 0] - LB[0]) / SPAN[0], (x[..., 1] - LB[1]) / SPAN[1]
        grad, hess = np.zeros(x.shape), np.zeros(x.shape + (3,))
        grad[..., 0], grad[..., 1] = (1.0 - 3.0 * v) / SPAN[0], (1.0 - 3.0 * u) / SPAN[1]
        hess[..., 0, 1] = hess[..., 1, 0] = -3.0 / (SPAN[0] * SPAN[1])
        return offsets[rows] + u + v - 3.0 * u * v, grad, hess

    return SmoothFunction(packed(trap), name="trap")


def toward_vertex():
    def vg(rows, x):
        s = (x - LB) / SPAN
        return s[..., 0] + s[..., 1], np.array([1.0, 1.0, 0.0]) / SPAN, np.zeros((3, 3))

    return SmoothFunction(packed(vg), name="u + v")


def test_row_at_a_locally_infeasible_vertex_leaves_for_restoration(monkeypatch):
    gtols, inner = [], nlsolver._inner_solve

    def spy(fun, s0, gtol, maxiter):
        gtols.append(gtol)
        return inner(fun, s0, gtol, maxiter)

    monkeypatch.setattr(nlsolver, "_inner_solve", spy)
    start = LB + np.array([0.4, 0.4, 0.5]) * SPAN
    out = one_start(toward_vertex(), BOX, start, constraint=trap_constraint(np.array([0.1])))
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
    trap = trap_constraint(np.repeat(offsets, cfg.n_starts))
    both = grouped_multistart(toward_vertex(), BOX, 2, cfg, trap)
    for offset, outcome in zip(offsets, both):
        alone = one_multistart(toward_vertex(), BOX, cfg,
                               trap_constraint(np.full(cfg.n_starts, offset)))
        assert outcome == alone
    assert both[1].converged and both[1].constraint_violation <= cfg.feas_tol
    # read jointly where a row is new to both functions, and alone where restoration
    # read the bound, every row counts its own misses and ends the same
    joint = []
    assert grouped_multistart(toward_vertex(), BOX, 2, cfg, trap,
                              _joint=jointly(toward_vertex(), trap, joint)) == both
    assert joint


def test_a_row_new_to_one_function_reads_that_function_alone():
    # rows 0 and 1 had their bound read alone, as restoration reads it: their
    # objective is read alone, and only rows 2 and 3 are read jointly
    objective, wall = quadratic_objective(LB), trap_constraint(np.zeros(4))
    reads = {"objective": [], "constraint": [], "joint": []}

    def recorded(name, fn):
        def vg(rows, x):
            reads[name].append(rows.tolist())
            return fn.value_and_grad(rows, x)
        return replace(fn, value_and_grad=vg)

    prob = nlsolver._ScaledProblem(recorded("objective", objective), BOX,
                                   recorded("constraint", wall), 4,
                                   jointly(objective, wall, reads["joint"]))
    rows, s = np.arange(4), np.random.default_rng(2).random((4, 3))
    prob.evaluate(1, rows[:2], s[:2])
    f, c = prob.evaluate_both(rows, s)
    assert reads == {"objective": [[0, 1]], "constraint": [[0, 1]], "joint": [[2, 3]]}
    assert prob.function_evals.tolist() == [2, 2, 2, 2]
    alone = nlsolver._ScaledProblem(objective, BOX, wall, 4)
    assert f.tobytes() == alone.evaluate(0, rows, s).tobytes()
    assert c.tobytes() == alone.evaluate(1, rows, s).tobytes()
    # every point read, nothing is read again
    prob.evaluate_both(rows, s)
    assert len(reads["joint"]) == 1 and prob.function_evals.tolist() == [2, 2, 2, 2]


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
