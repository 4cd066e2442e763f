"""Local minimization under box bounds and smooth inequality constraints.

The engine beneath every scalarization routine: an augmented-Lagrangian outer
loop handles nonlinear inequalities, with a projected quasi-Newton (L-BFGS-B)
inner solve on the box. Variables are rescaled to the unit cube internally, so
all tolerances below are quoted on the scaled problem. Deterministic seeded
multistart mitigates local optima of nonconvex scalarizations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .dataset import Bounds

_RHO_INIT = 10.0
_RHO_GROWTH = 10.0
_RHO_MAX = 1e16
_RHO_RESTORED = 1e6


class NonFiniteEvaluationError(RuntimeError):
    """An objective or constraint produced a non-finite value or gradient."""

    def __init__(self, point: np.ndarray, name: str = ""):
        self.point = np.asarray(point, dtype=float).copy()
        label = f" in {name!r}" if name else ""
        super().__init__(f"non-finite evaluation{label} at point {self.point.tolist()}")


@dataclass(frozen=True)
class SmoothFunction:
    """A scalar function with gradient, both evaluated through ``value_and_grad``.

    ``model_cost`` is how many response-model evaluations one call represents;
    it drives the run counters. The solver divides the value and gradient by
    ``scale``, the unit of a constraint's feasibility (violation = positive part /
    scale); objectives keep the default 1, so their values are reported unscaled.
    """

    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    model_cost: int = 1
    scale: float = 1.0
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
    """Totals for one solve or one routine: inner iterations and model evaluations."""

    iterations: int = 0
    function_evals: int = 0

    def add(self, other: "RunCounters") -> None:
        self.iterations += other.iterations
        self.function_evals += other.function_evals


@dataclass(frozen=True)
class SolverConfig:
    n_starts: int = 8
    seed: int = 0
    kkt_tol: float = 1e-8
    feas_tol: float = 1e-6
    max_outer: int = 50
    max_inner: int = 200

    def __post_init__(self) -> None:
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


def _quality(objective: float, violation: float, converged: bool, feas_tol: float) -> tuple:
    """Candidate order key, best first: feasible candidates by objective, then
    infeasible ones by violation and objective; a converged candidate wins a tie."""
    if violation <= feas_tol:
        return (0, objective, not converged)
    return (1, violation, objective, not converged)


def _projected_residual(s: np.ndarray, grad: np.ndarray) -> float:
    return float(np.max(np.abs(s - np.clip(s - grad, 0.0, 1.0))))


def _inner_solve(fun, s0: np.ndarray, gtol: float, maxiter: int):
    return _scipy_minimize(
        fun,
        s0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, 1.0)] * s0.size,
        options={"maxiter": maxiter, "ftol": 1e-16, "gtol": gtol, "maxcor": 10},
    )


class _ScaledProblem:
    """Unit-cube view of the raw problem; every evaluation updates the counters."""

    def __init__(self, ineqs: Sequence[SmoothFunction], bounds: Bounds, counters: RunCounters):
        self.ineqs = list(ineqs)
        self.lb = np.asarray(bounds.lower)
        self.ub = np.asarray(bounds.upper)
        self.span = self.ub - self.lb
        self.counters = counters

    def to_raw(self, s: np.ndarray) -> np.ndarray:
        return np.clip(self.lb + s * self.span, self.lb, self.ub)

    def to_unit(self, x: np.ndarray) -> np.ndarray:
        return np.clip((np.asarray(x, dtype=float) - self.lb) / self.span, 0.0, 1.0)

    def evaluate(self, fn: SmoothFunction, s: np.ndarray) -> tuple[float, np.ndarray]:
        """Value and unit-cube gradient of ``fn``, both divided by its scale."""
        x = self.to_raw(s)
        v, g = fn.value_and_grad(x)
        self.counters.function_evals += fn.model_cost
        g = np.asarray(g, dtype=float)
        if not np.isfinite(v) or not np.all(np.isfinite(g)):
            raise NonFiniteEvaluationError(x, fn.name)
        return float(v) / fn.scale, g * self.span / fn.scale


def minimize(
    objective: SmoothFunction,
    constraints: ConstraintSet,
    start: Sequence[float],
    config: SolverConfig | None = None,
) -> SolveOutcome:
    """Minimize from one start point; see the module docstring for the algorithm.

    The returned point satisfies the box exactly. With ``converged`` True, the
    projected-gradient residual of the Lagrangian is at most ``kkt_tol`` and the
    scaled inequality violation at most ``feas_tol``.
    """
    config = config or SolverConfig()
    counters = RunCounters()
    prob = _ScaledProblem(constraints.inequalities, constraints.bounds, counters)
    start = np.asarray(start, dtype=float)
    if not constraints.bounds.contains(start, tol=1e-9):
        raise ValueError(f"start {start.tolist()} outside bounds")
    s = prob.to_unit(start)

    f_start, _ = prob.evaluate(objective, s)
    f_scale = max(1.0, abs(f_start))
    n_con = len(prob.ineqs)

    def auglag(s_init: np.ndarray, rho0: float, max_outer: int):
        """Multiplier loop from ``s_init``; returns (s, f, converged, residual, violation)."""
        lam = np.zeros(n_con)
        rho = rho0
        s_cur = s_init
        v_prev = np.inf
        f_cur, residual, violation = np.nan, np.inf, np.inf

        def fused(sv):
            f, g = prob.evaluate(objective, sv)
            f /= f_scale
            g = g / f_scale
            for i, con in enumerate(prob.ineqs):
                ci, gi = prob.evaluate(con, sv)
                mult = max(0.0, lam[i] + rho * ci)
                f += (mult * mult - lam[i] * lam[i]) / (2.0 * rho)
                g = g + mult * gi
            return f, g

        for outer in range(max_outer):
            gtol = max(0.1 * config.kkt_tol, 1e-4 * 0.1 ** outer if n_con else 0.0)
            res = _inner_solve(fused, s_cur, gtol=gtol, maxiter=config.max_inner)
            counters.iterations += res.nit
            s_cur = np.asarray(res.x)

            f_cur, g_obj = prob.evaluate(objective, s_cur)
            con_vals = np.empty(n_con)
            grad_lagr = g_obj / f_scale
            for i, con in enumerate(prob.ineqs):
                ci, gi = prob.evaluate(con, s_cur)
                con_vals[i] = ci
                lam_i = max(0.0, lam[i] + rho * ci)
                grad_lagr = grad_lagr + lam_i * gi
            violation = float(max(0.0, con_vals.max(initial=0.0)))
            # shifted measure: feasibility plus complementarity, so an active
            # constraint approached from the feasible side still drives lambda home
            shifted = float(np.max(np.abs(np.maximum(con_vals, -lam / rho)), initial=0.0))
            lam = np.maximum(0.0, lam + rho * con_vals)
            residual = _projected_residual(s_cur, grad_lagr)
            if shifted <= config.feas_tol and residual <= config.kkt_tol:
                return s_cur, f_cur, True, residual, violation
            if shifted > 0.25 * v_prev:
                rho = min(rho * _RHO_GROWTH, _RHO_MAX)
            v_prev = shifted
        return s_cur, f_cur, False, residual, violation

    def restore(s_init: np.ndarray):
        """Phase-1 fallback: drive the squared constraint violation to zero on the box."""

        def fused(sv):
            total = 0.0
            grad = np.zeros_like(sv)
            for con in prob.ineqs:
                ci, gi = prob.evaluate(con, sv)
                pos = max(0.0, ci)
                total += pos * pos
                grad = grad + 2.0 * pos * gi
            return total, grad

        res = _inner_solve(fused, s_init, gtol=1e-12, maxiter=config.max_inner)
        counters.iterations += res.nit
        s_cur = np.asarray(res.x)
        violation = max(0.0, max(prob.evaluate(con, s_cur)[0] for con in prob.ineqs))
        return s_cur, violation

    # with no inequalities there is no multiplier to update: one inner solve
    candidates = [auglag(s, _RHO_INIT, config.max_outer if n_con else 1)]
    if candidates[0][4] > config.feas_tol:
        # The multiplier loop can stall in a locally-infeasible basin when the
        # feasible set is tiny (an epsilon bound at the exact optimum, say).
        s_r, v_r = restore(s)
        if v_r <= config.feas_tol:
            candidates.append(auglag(s_r, _RHO_RESTORED, config.max_outer))

    # a restart exists only when the first loop ended infeasible: a feasible restart wins
    s, f_final, converged, residual, violation = min(
        candidates, key=lambda c: _quality(c[1], c[4], c[2], config.feas_tol))
    return SolveOutcome(
        x=tuple(prob.to_raw(s)),
        objective=f_final,
        converged=converged,
        kkt_residual=residual,
        constraint_violation=violation,
        counters=counters,
    )


def multistart_minimize(
    objective: SmoothFunction,
    constraints: ConstraintSet,
    config: SolverConfig | None = None,
) -> SolveOutcome:
    """Best feasible outcome over seeded deterministic starts.

    Counters are summed over all starts. Ties go to a converged start, then to the
    lowest start index, so results do not depend on evaluation scheduling.
    """
    config = config or SolverConfig()
    starts = stratified_starts(constraints.bounds, config.n_starts, config.seed)
    outcomes = [minimize(objective, constraints, start, config) for start in starts]
    total = RunCounters()
    for outcome in outcomes:
        total.add(outcome.counters)
    # min keeps the first of equal keys: the lowest start index
    best = min(outcomes, key=lambda o: _quality(o.objective, o.constraint_violation,
                                                o.converged, config.feas_tol))
    feasible = best.constraint_violation <= config.feas_tol
    return replace(best, counters=total, converged=best.converged and feasible)
