"""Local minimization under box bounds and smooth inequality constraints.

The engine beneath every scalarization routine: an augmented-Lagrangian outer
loop (Conn, Gould & Toint, SIAM J. Numer. Anal. 28:545, 1991) handles nonlinear
inequalities, with a projected Newton inner solve on the box (Bertsekas, SIAM J.
Control Optim. 20:221, 1982) that uses exact Hessians. Variables are rescaled to
the unit cube internally, so all tolerances below are quoted on the scaled
problem. Deterministic seeded multistart mitigates local optima of nonconvex
scalarizations. Every start is one row of the same arrays, and a row's arithmetic
never depends on the other rows, so a sweep solves all its points' starts in one
call (:func:`grouped_multistart`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .dataset import Bounds

_RHO_INIT = 10.0
_RHO_GROWTH = 10.0
_RHO_MAX = 1e16
_RHO_RESTORED = 1e6

#: Cap on the eps of the eps-active set: a variable within eps = min(cap,
#: projected residual) of a bound, with its gradient pointing out of the box, is
#: decoupled from the Newton system and left to the projection.
_ACTIVE_EPS = 1e-2
#: Eigenvalues of the reduced Hessian are replaced by their magnitude, floored
#: at this fraction of the largest one (and of 1).
_CURVATURE_FLOOR = 1e-10
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
#: A predicted decrease below 100 ulps of the value is lost in rounding; such a
#: step is taken if it does not raise the value beyond that and lowers the
#: projected residual.
_ROUNDING = 100.0 * np.finfo(float).eps
#: every variable is coupled to itself in the Newton system
_EYE3 = np.eye(3, dtype=bool)


class NonFiniteEvaluationError(RuntimeError):
    """An objective or constraint produced a non-finite value, gradient or Hessian."""

    def __init__(self, point: np.ndarray, name: str = ""):
        self.point = np.asarray(point, dtype=float).copy()
        label = f" in {name!r}" if name else ""
        super().__init__(f"non-finite evaluation{label} at point {self.point.tolist()}")


@dataclass(frozen=True)
class SmoothFunction:
    """A scalar function with its exact derivatives, evaluated through ``value_and_grad``.

    ``value_and_grad(rows, x)`` takes row indices (n,) of the batch and their points
    x (n, 3), and returns the values (n,), the gradients (n, 3) and the Hessians
    (n, 3, 3); results that broadcast to those shapes are accepted. A parameter
    per row, such as a sweep point's bound, is read as ``param[rows]``.
    ``model_cost`` is how many response-model evaluations one point represents;
    it drives the run counters. The solver divides the value and its derivatives
    by ``scale`` (one value, or one per row), the unit of a constraint's
    feasibility (violation = positive part / scale); objectives keep the default
    1, so their values are reported unscaled.
    """

    value_and_grad: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    model_cost: int = 1
    scale: float | np.ndarray = 1.0
    name: str = ""


@dataclass(frozen=True)
class ConstraintSet:
    """Box bounds plus smooth inequalities (satisfied when <= 0)."""

    bounds: Bounds
    inequalities: tuple[SmoothFunction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inequalities", tuple(self.inequalities))


@dataclass
class RunCounters:
    """Totals for one solve or one routine: Newton steps and model evaluations."""

    iterations: int = 0
    function_evals: int = 0

    def add(self, other: "RunCounters") -> None:
        self.iterations += other.iterations
        self.function_evals += other.function_evals


def reject_nonfinite(config) -> None:
    """ValueError naming the first field of the dataclass ``config`` that holds a
    NaN or an infinite float; a comparison with NaN is false, so range checks
    alone let it through."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class SolverConfig:
    n_starts: int = 8
    seed: int = 0
    kkt_tol: float = 1e-8
    feas_tol: float = 1e-6
    max_outer: int = 50
    max_inner: int = 200

    def __post_init__(self) -> None:
        reject_nonfinite(self)
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.kkt_tol <= 0 or self.feas_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("max_outer and max_inner must be at least 1")


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one (multi)start solve, in raw variable units."""

    x: tuple[float, float, float]
    objective: float
    converged: bool
    kkt_residual: float
    constraint_violation: float
    counters: RunCounters

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))


def stratified_starts(bounds: Bounds, n_starts: int, seed: int) -> np.ndarray:
    """Deterministic start points: the box center, then a stratified uniform sample."""
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    lb = np.asarray(bounds.lower)
    span = np.asarray(bounds.span)
    points = np.empty((n_starts, 3))
    points[0] = lb + 0.5 * span
    m = n_starts - 1
    if m:
        rng = np.random.default_rng(seed)
        unit = np.empty((m, 3))
        for j in range(3):
            strata = rng.permutation(m)
            unit[:, j] = (strata + rng.random(m)) / m
        points[1:] = lb + unit * span
    return points


def _best_rows(f: np.ndarray, conv: np.ndarray, viol: np.ndarray, n: int,
               feas_tol: float) -> np.ndarray:
    """Index of the best row of each run of ``n`` rows: feasible rows by objective,
    then infeasible ones by violation and objective; a converged row wins a tie,
    then the first row (lexsort is stable)."""
    infeasible = viol > feas_tol
    # the sort keys, the last one first
    return np.lexsort((np.where(infeasible, ~conv, False), np.where(infeasible, f, ~conv),
                       np.where(infeasible, viol, f), infeasible, np.arange(len(f)) // n))[::n]


def _unit(s: np.ndarray) -> np.ndarray:
    """``s`` projected onto the unit cube."""
    return np.minimum(np.maximum(s, 0.0), 1.0)


def _projected_residual(s: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Largest projected-gradient component of each row."""
    return np.abs(s - _unit(s - grad)).max(axis=-1)


def _newton_direction(s: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                      residual: np.ndarray) -> np.ndarray:
    """Projected-Newton direction of each row, at most 1 in every component.

    Variables within eps = min(_ACTIVE_EPS, residual) of a bound, with the
    gradient pointing out of the box, are active: they are decoupled from the
    rest and take a diagonal Newton step. The free block's eigenvalues are
    replaced by their floored magnitude, so the direction descends on a
    nonconvex function too.
    """
    eps = np.minimum(_ACTIVE_EPS, residual)[:, None]
    active = ((s <= eps) & (grad > 0)) | ((s >= 1.0 - eps) & (grad < 0))
    free = ~active
    coupled = (free[:, :, None] & free[:, None, :]) | _EYE3
    lam, vec = np.linalg.eigh(np.where(coupled, hess, 0.0))
    mag = np.abs(lam)
    floor = _CURVATURE_FLOOR * np.maximum(1.0, mag.max(axis=-1, keepdims=True))
    # V |L|^-1 V^T g as explicit products and sums, not BLAS: a row's result does
    # not depend on how many rows are computed with it
    coef = (vec * grad[:, :, None]).sum(axis=1) / np.maximum(mag, floor)
    d = -(vec * coef[:, None, :]).sum(axis=-1)
    # the free block keeps its direction; an active variable is clipped on its own
    longest = np.where(free, np.abs(d), 0.0).max(axis=-1, keepdims=True)
    return np.where(free, d / np.maximum(1.0, longest), d.clip(-1.0, 1.0))


def _inner_solve(fun, s0: np.ndarray, gtol: float, maxiter: int):
    """Projected Newton on the unit cube for every row of ``s0``.

    ``fun(rows, s)`` returns the value (r,), gradient (r, 3) and Hessian (r, 3, 3)
    of the rows ``rows`` of the batch at their points ``s``; one call serves
    every row still running. A row stops when its projected residual is at most
    ``gtol``, after ``maxiter`` steps, or when the Armijo search along the
    projection arc finds no acceptable step. Returns the final points and each
    row's number of steps.
    """
    n = len(s0)
    s = s0.copy()
    f, g, h = fun(np.arange(n), s)
    steps = np.zeros(n, dtype=int)
    live = np.arange(n)
    while True:
        base, g0 = s[live], g[live]
        residual = _projected_residual(base, g0)
        keep = (residual > gtol) & (steps[live] < maxiter)
        if not keep.all():
            live, residual, base, g0 = live[keep], residual[keep], base[keep], g0[keep]
        if not live.size:
            return s, steps
        d = _newton_direction(base, g0, h[live], residual)
        f0 = f[live]
        noise = _ROUNDING * np.maximum(1.0, np.abs(f0))
        alpha = 1.0
        search = np.arange(live.size)
        moved = np.zeros(live.size, dtype=bool)
        for _ in range(_MAX_BACKTRACKS):
            b = base[search]
            trial = _unit(b + alpha * d[search])
            # a row whose step no longer moves the point has stalled
            moving = (trial != b).any(axis=-1)
            if not moving.all():
                search, trial, b = search[moving], trial[moving], b[moving]
                if not search.size:
                    break
            slope = (g0[search] * (trial - b)).sum(axis=-1)
            # a clipped step can point uphill: only a descending one is evaluated
            down = slope < 0
            k, t, sl = (search, trial, slope) if down.all() else (
                search[down], trial[down], slope[down])
            if k.size:
                ft, gt, ht = fun(live[k], t)
                rise = ft - f0[k]
                good = rise <= _ARMIJO * sl
                # a step that misses Armijo within rounding noise is taken when
                # it lowers the projected residual
                tie = ~good & (-sl <= noise[k]) & (rise <= noise[k])
                if tie.any():
                    good[tie] = _projected_residual(t[tie], gt[tie]) < residual[k[tie]]
                if not good.all():
                    k, t, ft, gt, ht = k[good], t[good], ft[good], gt[good], ht[good]
                done = live[k]
                s[done], f[done], g[done], h[done] = t, ft, gt, ht
                steps[done] += 1
                moved[k] = True
                if k.size == search.size:
                    break
                accepted = np.zeros(search.size, dtype=bool)
                accepted[down] = good
                search = search[~accepted]
            alpha *= 0.5
        live = live[moved]


class _ScaledProblem:
    """Unit-cube view of the raw problem for a batch of rows.

    Function 0 is the objective and function i > 0 is inequality i - 1. Each
    function caches, per row, its last point and scaled results there; a row is
    evaluated again only at a different point, so the same point again costs
    nothing and is not counted (an inner solve starts where the last one ended).
    Every model evaluation adds its cost to the counters of its row.
    """

    def __init__(self, objective: SmoothFunction, constraints: ConstraintSet, n_rows: int):
        self.functions = (objective,) + constraints.inequalities
        self.n_con = len(constraints.inequalities)
        self.lb = np.asarray(constraints.bounds.lower)
        self.ub = np.asarray(constraints.bounds.upper)
        self.span = self.ub - self.lb
        self.span2 = self.span[:, None] * self.span
        self.f_scale = np.ones(n_rows)
        self.scales = [np.broadcast_to(np.asarray(fn.scale, dtype=float), (n_rows,))
                       for fn in self.functions]
        self.iterations = np.zeros(n_rows, dtype=int)
        self.function_evals = np.zeros(n_rows, dtype=int)
        n_fn = len(self.functions)
        self._points = np.full((n_fn, n_rows, 3), np.nan)
        self._values = np.zeros((n_fn, n_rows))
        self._grads = np.zeros((n_fn, n_rows, 3))
        self._hessians = np.zeros((n_fn, n_rows, 3, 3))

    def to_raw(self, s: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(self.lb + s * self.span, self.lb), self.ub)

    def to_unit(self, x: np.ndarray) -> np.ndarray:
        return np.clip((np.asarray(x, dtype=float) - self.lb) / self.span, 0.0, 1.0)

    def evaluate(self, i: int, rows: np.ndarray, s: np.ndarray):
        """Value (r,), unit-cube gradient (r, 3) and Hessian (r, 3, 3) of function
        ``i`` at the rows' points, each divided by the function's scale. Only rows
        whose point differs from the cache reach the callback. The whole-array
        shortcuts (no row fresh, every row fresh, one finiteness test per result
        before the per-row one that names the bad point) keep rows independent."""
        fresh = (self._points[i, rows] != s).any(axis=-1)
        if not fresh.any():
            return self._values[i, rows], self._grads[i, rows], self._hessians[i, rows]
        every = fresh.all()
        at, s_at = (rows, s) if every else (rows[fresh], s[fresh])
        fn, x = self.functions[i], self.to_raw(s_at)
        v, g, h = fn.value_and_grad(at, x)
        self.function_evals[at] += fn.model_cost
        if not (np.isfinite(v).all() and np.isfinite(g).all() and np.isfinite(h).all()):
            finite = (np.isfinite(v) & np.isfinite(g).all(axis=-1)
                      & np.isfinite(h).all(axis=(-2, -1)))
            raise NonFiniteEvaluationError(x[np.argmin(finite)], fn.name)
        scale = self.scales[i][at]
        v, g, h = v / scale, g * self.span / scale[:, None], h * self.span2 / scale[:, None, None]
        self._points[i, at], self._values[i, at] = s_at, v
        self._grads[i, at], self._hessians[i, at] = g, h
        if every:
            return v, g, h
        return self._values[i, rows], self._grads[i, rows], self._hessians[i, rows]

    def lagrangian(self, rows: np.ndarray, s: np.ndarray, lam: np.ndarray, rho: np.ndarray):
        """Augmented Lagrangian of the rows: the objective over its row's scale plus
        sum_i (mult_i^2 - lam_i^2) / (2 rho), mult_i = max(0, lam_i + rho c_i)."""
        f, g, h = self.evaluate(0, rows, s)
        scale = self.f_scale[rows]
        f, g, h = f / scale, g / scale[:, None], h / scale[:, None, None]
        for i in range(self.n_con):
            c, gc, hc = self.evaluate(1 + i, rows, s)
            mult = np.maximum(0.0, lam[:, i] + rho * c)
            f = f + (mult * mult - lam[:, i] * lam[:, i]) / (2.0 * rho)
            g = g + mult[:, None] * gc
            penalty = np.where(mult > 0, rho, 0.0)[:, None, None] * gc[:, :, None] * gc[:, None, :]
            h = h + mult[:, None, None] * hc + penalty
        return f, g, h

    def squared_violation(self, rows: np.ndarray, s: np.ndarray):
        """Sum of the squared positive parts of the constraints, for restoration."""
        total, g, h = np.zeros(len(s)), np.zeros((len(s), 3)), np.zeros((len(s), 3, 3))
        for i in range(self.n_con):
            c, gc, hc = self.evaluate(1 + i, rows, s)
            pos = np.maximum(0.0, c)
            total = total + pos * pos
            g = g + 2.0 * pos[:, None] * gc
            outer = np.where(c > 0, 2.0, 0.0)[:, None, None] * gc[:, :, None] * gc[:, None, :]
            h = h + outer + 2.0 * pos[:, None, None] * hc
        return total, g, h


def _auglag(prob: _ScaledProblem, rows: np.ndarray, s0: np.ndarray, rho0: float,
            max_outer: int, config: SolverConfig):
    """Multiplier loop of every row from ``s0``; a row leaves it when converged, or
    when stalled at a local minimum of its own infeasibility.

    Returns arrays over the rows: (s, f, converged, residual, violation).
    """
    n_con = prob.n_con
    n = len(rows)
    s = s0.copy()
    lam = np.zeros((n, n_con))
    rho = np.full(n, rho0)
    v_prev = np.full(n, np.inf)
    f = np.full(n, np.nan)
    residual = np.full(n, np.inf)
    violation = np.full(n, np.inf)
    converged = np.zeros(n, dtype=bool)
    live = np.arange(n)
    for outer in range(max_outer):
        gtol = max(0.1 * config.kkt_tol, 1e-4 * 0.1 ** outer if n_con else 0.0)
        batch, lam_b, rho_b = rows[live], lam[live], rho[live]
        s_b, steps = _inner_solve(
            lambda k, sv: prob.lagrangian(batch[k], sv, lam_b[k], rho_b[k]),
            s[live], gtol, config.max_inner)
        prob.iterations[batch] += steps

        f_b, g_obj, _ = prob.evaluate(0, batch, s_b)
        con_vals = np.empty((live.size, n_con))
        grad_lagr = g_obj / prob.f_scale[batch][:, None]
        grad_viol = np.zeros_like(s_b)
        for i in range(n_con):
            c, gc, _ = prob.evaluate(1 + i, batch, s_b)
            con_vals[:, i] = c
            grad_lagr = grad_lagr + np.maximum(0.0, lam_b[:, i] + rho_b * c)[:, None] * gc
            grad_viol = grad_viol + np.maximum(0.0, c)[:, None] * gc
        viol_b = np.maximum(0.0, con_vals.max(axis=-1, initial=0.0))
        # shifted measure: feasibility plus complementarity, so an active
        # constraint approached from the feasible side still drives lambda home
        shifted = np.max(np.abs(np.maximum(con_vals, -lam_b / rho_b[:, None])), axis=-1,
                         initial=0.0)
        lam[live] = np.maximum(0.0, lam_b + rho_b[:, None] * con_vals)
        res_b = _projected_residual(s_b, grad_lagr)
        s[live], f[live], residual[live], violation[live] = s_b, f_b, res_b, viol_b
        done = (shifted <= config.feas_tol) & (res_b <= config.kkt_tol)
        converged[live[done]] = True
        grow = shifted > 0.25 * v_prev[live]
        rho[live] = np.where(grow, np.minimum(rho_b * _RHO_GROWTH, _RHO_MAX), rho_b)
        v_prev[live] = shifted
        # an infeasible row that took no step where its violation is box-stationary
        # sits at a local minimum of its own infeasibility: no multiplier or penalty
        # moves it, so it leaves for restoration
        stalled = ((steps == 0) & (viol_b > config.feas_tol)
                   & (_projected_residual(s_b, grad_viol) == 0.0))
        live = live[~(done | stalled)]
        if not live.size:
            break
    return s, f, converged, residual, violation


# a model value that overflows is reported as a NonFiniteEvaluationError, not a warning
@np.errstate(over="ignore")
def _solve_rows(objective: SmoothFunction, constraints: ConstraintSet, starts,
                config: SolverConfig):
    """The solve of :func:`minimize_starts` as arrays over the starts: (x, objective,
    converged, residual, violation, iterations, function evaluations)."""
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    # the test of Bounds.contains(start, tol=1e-9), over every start at once
    lo, hi = np.asarray(constraints.bounds.lower), np.asarray(constraints.bounds.upper)
    tol = 1e-9 * (hi - lo)
    outside = ~np.all((lo - tol <= starts) & (starts <= hi + tol), axis=1)
    if outside.any():
        raise ValueError(f"start {starts[np.argmax(outside)].tolist()} outside bounds")
    n = len(starts)
    every = np.arange(n)
    prob = _ScaledProblem(objective, constraints, n)
    s = prob.to_unit(starts)
    f_start, _, _ = prob.evaluate(0, every, s)
    prob.f_scale = np.maximum(1.0, np.abs(f_start))
    n_con = prob.n_con

    # with no inequalities there is no multiplier to update: one inner solve
    first = _auglag(prob, every, s, _RHO_INIT, config.max_outer if n_con else 1, config)
    s_f, f_f, conv, res, viol = first
    # The multiplier loop can stall in a locally-infeasible basin when the
    # feasible set is tiny (an epsilon bound at the exact optimum, say): such rows
    # drive the squared violation to zero on the box from their start, and a
    # feasible restoration restarts the loop there.
    stuck = every[viol > config.feas_tol]
    if stuck.size:
        # the functions index the batch's rows, not positions among the stuck ones
        s_r, steps = _inner_solve(lambda k, sv: prob.squared_violation(stuck[k], sv), s[stuck],
                                  1e-12, config.max_inner)
        prob.iterations[stuck] += steps
        v_r = np.zeros(stuck.size)
        for i in range(n_con):
            v_r = np.maximum(v_r, prob.evaluate(1 + i, stuck, s_r)[0])
        restored = v_r <= config.feas_tol
        if restored.any():
            rows = stuck[restored]
            again = _auglag(prob, rows, s_r[restored], _RHO_RESTORED, config.max_outer, config)
            # a restart exists only when the first loop ended infeasible: it takes
            # the row's place when better, as a feasible restart always is
            pairs = [np.stack((first[i][rows], again[i]), axis=1).ravel() for i in (1, 2, 4)]
            better = _best_rows(*pairs, 2, config.feas_tol) % 2 == 1
            for final, restart in zip(first, again):
                final[rows[better]] = restart[better]
    return prob.to_raw(s_f), f_f, conv, res, viol, prob.iterations, prob.function_evals


def minimize_starts(
    objective: SmoothFunction,
    constraints: ConstraintSet,
    starts: Sequence[Sequence[float]] | np.ndarray,
    config: SolverConfig | None = None,
) -> list[SolveOutcome]:
    """Minimize from every start point at once; one outcome per start, in order.
    See the module docstring for the algorithm.

    Each returned point satisfies the box exactly. With ``converged`` True, the
    projected-gradient residual of the Lagrangian is at most ``kkt_tol`` and the
    scaled inequality violation at most ``feas_tol``. Each start is one row of the
    same arrays, so outcome k, counters included, does not depend on the other
    starts. The functions' ``rows`` index ``starts``, and so does a per-row
    ``scale``.
    """
    return _outcomes(*_solve_rows(objective, constraints, starts, config or SolverConfig()))


def _outcomes(x, f, conv, res, viol, iterations, evals) -> list[SolveOutcome]:
    """One outcome per row of the solver's arrays."""
    return [SolveOutcome(tuple(xk), float(fk), bool(ck), float(rk), float(vk),
                         RunCounters(int(ik), int(ek)))
            for xk, fk, ck, rk, vk, ik, ek in zip(x, f, conv, res, viol, iterations, evals)]


def grouped_multistart(
    objective: SmoothFunction,
    constraints: ConstraintSet,
    n_groups: int,
    config: SolverConfig | None = None,
) -> list[SolveOutcome]:
    """Best feasible outcome of each of ``n_groups`` seeded multistarts, one batch.

    Row r is start r % n_starts of group r // n_starts, so a per-row parameter is
    its group's value repeated n_starts times. Counters are summed over a group's
    starts. Ties go to a converged start, then to the lowest start index.
    """
    config = config or SolverConfig()
    n = config.n_starts
    starts = np.tile(stratified_starts(constraints.bounds, n, config.seed), (n_groups, 1))
    x, f, conv, res, viol, iterations, evals = _solve_rows(objective, constraints, starts,
                                                           config)
    best = _best_rows(f, conv, viol, n, config.feas_tol)
    return _outcomes(x[best], f[best], conv[best] & (viol[best] <= config.feas_tol), res[best],
                     viol[best], iterations.reshape(-1, n).sum(axis=1),
                     evals.reshape(-1, n).sum(axis=1))
