"""The jet layout, pinned bit for bit against the full-matrix formulas it replaced.

Every solver callback returns one (r, 10) jet a row: the value, the gradient and
the Hessian's lower triangle H[w, v], w >= v. The oracles below are the
(value, gradient, 3x3 Hessian) forms of the same arithmetic, kept as written
before the packing; each packed result must equal its oracle's value, gradient
and lower triangle exactly. The criterion's chain-rule Hessian is not exactly
symmetric, so the bytes of a solve rest on ``np.linalg.eigh`` reading the lower
triangle alone, which the guard test checks on the installed numpy.
"""

import numpy as np
import pytest

from conftest import pack
from pareto_forge import CASE_STUDY_BOUNDS, SolverConfig, nlsolver, scalarize
from pareto_forge.polymodel import (
    _PAIRS,
    HESS_COL,
    HESS_INDEX,
    HESS_ROW,
    jets,
    value_jacobian_hessian,
)

FAST = SolverConfig(n_starts=4, seed=0)
LB = np.array(CASE_STUDY_BOUNDS.lower)
UB = np.array(CASE_STUDY_BOUNDS.upper)
SPAN = UB - LB


def _bits(got, want):
    """``got`` jets equal ``want``'s (value, gradient, Hessian) and lower triangle."""
    return pack(*want).tobytes() == np.asarray(got).tobytes()


# -- oracles: the full-matrix formulas -------------------------------------------


def oracle_bound(stack, index, bound):
    def vg(rows, x):
        f, jac, hess = value_jacobian_hessian(stack, x, index)
        at = bound[rows] if np.ndim(bound) else bound
        return f[..., 0] - at, jac[..., 0, :], hess[..., 0, :, :]
    return vg


def oracle_optima(stack, n_starts):
    groups = np.repeat(np.arange(4), n_starts)
    model, sign = groups // 2, np.where(groups % 2, -1.0, 1.0)

    def vg(rows, x):
        f, jac, hess = value_jacobian_hessian(stack, x, model[rows])
        s = sign[rows]
        return (s * f[..., 0], s[..., None] * jac[..., 0, :],
                s[..., None, None] * hess[..., 0, :, :])
    return vg


def oracle_criterion(stack, stars, p):
    def vg(rows, x):
        f, jac, hess = value_jacobian_hessian(stack, x)
        value, weights, second = scalarize._deviation(f, stars, p[rows])
        w_jac = np.sum(second[..., :, :, None] * jac[..., None, :, :], axis=-2)
        curvature = np.sum(jac[..., :, :, None] * w_jac[..., :, None, :], axis=-3)
        return (value, scalarize._weighted(weights, jac),
                scalarize._weighted(weights, hess) + curvature)
    return vg


def oracle_weighted_sum(stack, w, ideal, width):
    def vg(rows, x):
        f, jac, hess = value_jacobian_hessian(stack, x)
        at = w[rows]
        scaled = np.broadcast_to(at / width, f.shape)
        return (np.sum(at * (f - ideal) / width, axis=-1), scalarize._weighted(scaled, jac),
                scalarize._weighted(scaled, hess))
    return vg


def oracle_scaled(vg, scale, rows, s):
    """A function's value, gradient and Hessian on the unit cube, over its scale."""
    x = np.minimum(np.maximum(LB + s * SPAN, LB), UB)
    v, g, h = vg(rows, x)
    span2 = SPAN[:, None] * SPAN
    return v / scale, g * SPAN / scale[:, None], h * span2 / scale[:, None, None]


def oracle_lagrangian(objective, constraint, f_scale, lam, rho):
    f, g, h = objective
    c, gc, hc = constraint
    f, g, h = f / f_scale, g / f_scale[:, None], h / f_scale[:, None, None]
    shifted = lam + rho * c
    mult = np.maximum(0.0, shifted)
    f = f + (mult * mult - lam * lam) / (2.0 * rho)
    g = g + mult[:, None] * gc
    band = np.where(shifted > -rho * nlsolver._ACTIVE_EPS, rho, 0.0)
    penalty = band[:, None, None] * gc[:, :, None] * gc[:, None, :]
    return f, g, h + mult[:, None, None] * hc + penalty


def oracle_squared_violation(constraint):
    c, gc, hc = constraint
    pos = np.maximum(0.0, c)
    outer = np.where(c > 0, 2.0, 0.0)[:, None, None] * gc[:, :, None] * gc[:, None, :]
    return pos * pos, 2.0 * pos[:, None] * gc, outer + 2.0 * pos[:, None, None] * hc


def oracle_newton_direction(s, grad, hess, residual):
    eps = np.minimum(nlsolver._ACTIVE_EPS, residual)[:, None]
    active = ((s <= eps) & (grad > 0)) | ((s >= 1.0 - eps) & (grad < 0))
    free = ~active
    coupled = (free[:, :, None] & free[:, None, :]) | np.eye(3, dtype=bool)
    lam, vec = np.linalg.eigh(np.where(coupled, hess, 0.0))
    mag = np.abs(lam)
    floor = nlsolver._CURVATURE_FLOOR * np.maximum(1.0, mag.max(axis=-1, keepdims=True))
    coef = (vec * grad[:, :, None]).sum(axis=1) / np.maximum(mag, floor)
    d = -(vec * coef[:, None, :]).sum(axis=-1)
    longest = np.where(free, np.abs(d), 0.0).max(axis=-1, keepdims=True)
    return np.where(free, d / np.maximum(1.0, longest), d.clip(-1.0, 1.0))


# -- the callbacks under test --------------------------------------------------


class _Captured(Exception):
    pass


def _solver_functions(monkeypatch, run):
    """(objective, constraint, joint read) that ``run`` hands to the multistart solver."""
    seen = []

    def capture(objective, bounds, n_groups, config=None, constraint=None, _joint=None):
        seen.append((objective, constraint, _joint))
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(scalarize, "grouped_multistart", capture)
        with pytest.raises(_Captured):
            run()
    return seen[0]


def _points(n, seed):
    """Points over the whole box, its faces and vertices included."""
    rng = np.random.default_rng(seed)
    unit = np.where(rng.random((n, 3)) < 0.1, rng.integers(0, 2, (n, 3)), rng.random((n, 3)))
    return LB + unit * SPAN


#: points of each sweep; each has FAST.n_starts rows
POINTS = 150
P_VALUES = tuple(k % 20 + 1 for k in range(POINTS))
WEIGHTS = [(k / (POINTS - 1), 1.0 - k / (POINTS - 1)) for k in range(POINTS)]


@pytest.fixture()
def callbacks(problem, utopia, monkeypatch):
    """name: (solver callback, its oracle, number of rows), for every routine."""
    stack, n = problem.stack, FAST.n_starts
    rows = POINTS * n
    objective, held, joint = _solver_functions(
        monkeypatch, lambda: scalarize.epsilon_sweep(problem, "mrr", POINTS, FAST, utopia))
    optima, _, _ = _solver_functions(
        monkeypatch, lambda: scalarize.individual_optima(problem, FAST))
    criterion, _, _ = _solver_functions(
        monkeypatch, lambda: scalarize.global_criterion_sweep(problem, P_VALUES, FAST, utopia))
    weighted, _, _ = _solver_functions(
        monkeypatch, lambda: scalarize._weighted_sums(problem, WEIGHTS, FAST, utopia))
    grid = np.repeat(np.linspace(utopia.ideal[0], utopia.nadir[0], POINTS), n)
    eps = np.random.default_rng(0).uniform(0.3, 2.5, rows)
    return {
        "epsilon objective": (objective, oracle_bound(stack, 1, 0.0), rows),
        "epsilon bound": (held, oracle_bound(stack, 0, grid), rows),
        "joint epsilon read": (joint, None, rows),
        "bound of random epsilons": (problem.function(0, bound=eps), oracle_bound(stack, 0, eps),
                                     rows),
        "individual optima": (optima, oracle_optima(stack, n), 4 * n),
        "criterion": (criterion, oracle_criterion(stack, utopia.ideal,
                                                  np.repeat(np.asarray(P_VALUES, float), n)),
                      rows),
        "weighted sum": (weighted, oracle_weighted_sum(stack, np.repeat(WEIGHTS, n, axis=0),
                                                       utopia.ideal, utopia.nadir - utopia.ideal),
                         rows),
    }


def test_the_layout_is_the_lower_triangle_of_the_pairs():
    assert [(w, v) for w, v in zip(HESS_ROW, HESS_COL)] == [(w, v) for v, w in _PAIRS]
    assert (HESS_ROW >= HESS_COL).all()
    assert np.array_equal(HESS_INDEX, HESS_INDEX.T)
    assert HESS_INDEX[HESS_ROW, HESS_COL].tolist() == list(range(6))


def test_model_jets_are_the_stack_rows_unpacked(problem):
    x = _points(50, 1)
    out = jets(problem.stack, x)
    assert out.shape == (50, 2, 10)
    f, jac, hess = value_jacobian_hessian(problem.stack, x)
    assert _bits(out, (f, jac, hess))
    for k in range(2):
        assert jets(problem.stack, x, k).tobytes() == out[:, k:k + 1].tobytes()


@pytest.mark.parametrize("name", ["epsilon objective", "epsilon bound", "bound of random epsilons",
                                  "individual optima", "criterion", "weighted sum"])
def test_every_callback_equals_its_full_matrix_oracle(callbacks, name):
    fn, oracle, n_rows = callbacks[name]
    x = _points(2000, 2)
    rows = np.random.default_rng(3).integers(0, n_rows, len(x))
    want = oracle(rows, x)
    assert _bits(fn.value_and_grad(rows, x), want)
    # one point: the batch's row, without the leading axis
    assert _bits(fn.value_and_grad(rows[5], x[5]), oracle(rows[5], x[5]))
    if name == "criterion":
        hess = want[2]
        # the chain rule's Hessian is not symmetric in the last bit at many points
        assert (hess != np.swapaxes(hess, -1, -2)).any(axis=(-2, -1)).sum() > 100


def test_the_joint_epsilon_read_equals_the_objective_and_the_bound(callbacks):
    objective, _, n_rows = callbacks["epsilon objective"]
    held = callbacks["epsilon bound"][0]
    joint = callbacks["joint epsilon read"][0]
    x = _points(500, 4)
    rows = np.random.default_rng(5).integers(0, n_rows, len(x))
    pair = joint(rows, x)
    assert pair.shape == (500, 2, 10)
    assert pair[:, 0].tobytes() == objective.value_and_grad(rows, x).tobytes()
    assert pair[:, 1].tobytes() == held.value_and_grad(rows, x).tobytes()


@pytest.mark.parametrize("objective_name, bound_name", [
    # the bound read jointly with the objective
    ("epsilon objective", "epsilon bound"),
    # Hessians that are not symmetric in the sum, and a bound read alone
    ("criterion", "bound of random epsilons"),
])
def test_lagrangian_and_squared_violation_equal_the_full_matrix_oracle(callbacks, objective_name,
                                                                        bound_name):
    objective, oracle_f, n_rows = callbacks[objective_name]
    bound, oracle_c, _ = callbacks[bound_name]
    prob = nlsolver._ScaledProblem(objective, CASE_STUDY_BOUNDS, bound, n_rows)
    rng = np.random.default_rng(6)
    prob.f_scale = np.maximum(1.0, 10.0 * rng.random(n_rows))
    # each row once, in random order
    rows = rng.permutation(n_rows)
    n = len(rows)
    s = np.where(rng.random((n, 3)) < 0.1, rng.integers(0, 2, (n, 3)), rng.random((n, 3)))
    lam = np.where(rng.random(n) < 0.3, 0.0, 5.0 * rng.random(n))
    rho = 10.0 ** rng.integers(1, 8, n)
    f = oracle_scaled(oracle_f, np.ones(n), rows, s)
    c = oracle_scaled(oracle_c, prob.scales[1][rows], rows, s)
    shifted = lam + rho * c[0]
    # every side of the penalty's kink and of its eps band is met
    assert (shifted > 0).any() and (shifted <= -rho * nlsolver._ACTIVE_EPS).any()
    assert ((shifted <= 0) & (shifted > -rho * nlsolver._ACTIVE_EPS)).any()
    assert _bits(prob.lagrangian(rows, s, lam, rho),
                 oracle_lagrangian(f, c, prob.f_scale[rows], lam, rho))
    violation = oracle_squared_violation(c)
    assert (violation[0] > 0).any() and (violation[0] == 0).any()
    assert _bits(prob.squared_violation(rows, s), violation)


def test_newton_direction_on_the_packed_hessian_equals_the_full_matrix_one(callbacks):
    rng = np.random.default_rng(7)
    n = 3000
    s = np.where(rng.random((n, 3)) < 0.3, rng.integers(0, 2, (n, 3)), rng.random((n, 3)))
    grad = rng.normal(size=(n, 3))
    residual = 10.0 ** rng.uniform(-6, 0, n)
    # random matrices, not symmetric, and the criterion's chain-rule Hessians
    hess = rng.normal(size=(n, 3, 3))
    criterion, oracle, n_rows = callbacks["criterion"]
    x = _points(n, 8)
    hess[: n // 2] = oracle(rng.integers(0, n_rows, n), x)[2][: n // 2]
    want = oracle_newton_direction(s, grad, hess, residual)
    got = nlsolver._newton_direction(s, grad, pack(0.0, grad, hess)[:, 4:], residual)
    assert got.tobytes() == want.tobytes()


def test_eigh_reads_only_the_lower_triangle():
    # the guard under every solve's bytes: the packing keeps the lower triangle
    # of a Hessian that is not exactly symmetric, and eigh must see nothing else
    a = np.random.default_rng(9).normal(size=(2000, 3, 3))
    mirrored = np.tril(a) + np.swapaxes(np.tril(a, -1), -1, -2)
    assert (a != np.swapaxes(a, -1, -2)).any(axis=(-2, -1)).all()
    for got, want in zip(np.linalg.eigh(a), np.linalg.eigh(mirrored)):
        assert got.tobytes() == want.tobytes()
