"""Classical multi-objective routines over the constrained response models.

Four scalarizations are provided: the relative-deviation criterion (a p-norm of
deviations from the ideal point), the lexicographic sequence, the weighted sum
of objectives normalized by the ideal/nadir pair, and the epsilon-constraint
method swept from the ideal to the nadir. ``individual_optima`` computes that
pair once (the optimum and anti-optimum of each objective) for the four
routines that read it. Each routine returns a RoutineResult: its front, its
solved points (MethodResult) and its counters. Each sweep, and each one-point
routine as its one-point case, is one batched solve of points x starts rows;
the lexicographic sequence is an individual optimum and one epsilon point.

Maximized objectives are converted to minimization by negation internally, and
the ideal/nadir pair is held in that form; every reported response is in
natural, un-negated units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .nlsolver import (
    ConstraintSet,
    RunCounters,
    SmoothFunction,
    SolveOutcome,
    SolverConfig,
    grouped_multistart,
)
from .pareto import Front, ParetoPoint, Sense
from .polymodel import ModelStack, PolynomialModel, stack_values, value_jacobian_hessian

#: p grid used by the deviation-criterion sweep in the case study.
DEFAULT_P_VALUES = (1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20)

#: Relative slack on the first lexicographic stage's optimum, the second's bound.
LEX_SLACK_REL = 1e-6

#: ``terminated_early``: the second lexicographic stage returned the first one's
#: point within this distance on box-scaled variables. No stage is ever skipped;
#: the flag stays because the benchmark's correctness check reads it.
LEX_EQUALITY_TOL = 1e-4

#: Scaled constraint values above -ACTIVE_TOL count as active.
ACTIVE_TOL = 1e-5

_WEIGHT_SUM_TOL = 1e-12


class InfeasibleEpsilonError(RuntimeError):
    """The epsilon bounds admit no feasible point."""


class StageInfeasibleError(RuntimeError):
    """The second lexicographic stage is infeasible with the first objective held."""


class UtopiaSolveError(RuntimeError):
    """An individual-optimum solve failed; the failing objective is named."""


@dataclass(frozen=True)
class Objective:
    model: PolynomialModel
    sense: Sense

    @property
    def name(self) -> str:
        return self.model.response

    @property
    def sign(self) -> float:
        """+1 for minimized objectives, -1 for maximized ones."""
        return self.sense.sign


@dataclass(frozen=True)
class MooProblem:
    objectives: tuple[Objective, ...]
    constraints: ConstraintSet
    #: every objective's model in minimization form, evaluated together
    stack: ModelStack = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "objectives", tuple(self.objectives))
        if len(self.objectives) != 2:
            raise ValueError(f"a problem has exactly two objectives, got {len(self.objectives)}")
        stack = ModelStack([o.model for o in self.objectives], [o.sign for o in self.objectives])
        object.__setattr__(self, "stack", stack)

    @property
    def senses(self) -> tuple[Sense, ...]:
        return tuple(o.sense for o in self.objectives)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.objectives)

    def function(self, index: int, bound: float | np.ndarray = 0.0,
                 name: str = "") -> SmoothFunction:
        """Solver callback for objective ``index``'s minimization form minus ``bound``.

        One model evaluation a point: its rows of ``stack`` alone. With ``bound``
        (one value or one per row) it is the inequality constraint ``f - bound <= 0``,
        scaled by max(1, |bound|).
        """
        stack = self.stack

        def vg(rows, x):
            f, jac, hess = value_jacobian_hessian(stack, x, index)
            at = bound[rows] if np.ndim(bound) else bound
            return f[..., 0] - at, jac[..., 0, :], hess[..., 0, :, :]

        return SmoothFunction(vg, model_cost=1, scale=np.maximum(1.0, np.abs(bound)),
                              name=name or self.names[index])

    def constrained_by(self, extra: Sequence[SmoothFunction]) -> ConstraintSet:
        """The problem's constraints plus the inequalities ``extra``."""
        return replace(self.constraints, inequalities=self.constraints.inequalities + tuple(extra))

    def natural_values(self, x) -> np.ndarray:
        """Every objective's value (..., m) at ``x``, a point or a batch, in natural
        units: the stack holds minimization forms, and the signs undo them."""
        return stack_values(self.stack, x) * np.array([o.sign for o in self.objectives])

    def responses_at(self, x) -> tuple[float, ...]:
        return tuple(float(v) for v in self.natural_values(x))

    def index_of(self, objective: int | str) -> int:
        if isinstance(objective, int):
            if not 0 <= objective < len(self.objectives):
                raise ValueError(f"objective index {objective} out of range")
            return objective
        lowered = [n.lower() for n in self.names]
        try:
            return lowered.index(objective.lower())
        except ValueError:
            raise ValueError(f"no objective named {objective!r}; have {self.names}") from None


@dataclass(frozen=True)
class UtopiaRecord:
    """The ideal point and the nadir stand-in, both in minimization form.

    ``ideal[i]`` is objective i's optimum over the feasible region, z* in
    Miettinen, *Nonlinear Multiobjective Optimization* (1999), Part I, section 2.4, and
    ``ideal_x[i]`` a point attaining it. ``nadir[i]`` is the anti-optimum, the
    worst feasible value, attained at ``nadir_x[i]``. The true nadir is the worst
    value over the Pareto set alone; the anti-optimum bounds it and stands in for
    it. The natural-unit value of objective i is ``objective.sign * ideal[i]``,
    and ``outcomes[2i]`` and ``outcomes[2i + 1]`` are its two solves. ``problem``
    is the problem they were solved for; the routines reject a record of another.
    """

    ideal: np.ndarray
    nadir: np.ndarray
    ideal_x: np.ndarray
    nadir_x: np.ndarray
    counters: RunCounters
    outcomes: tuple[SolveOutcome, ...]
    problem: MooProblem


def individual_optima(problem: MooProblem, config: SolverConfig | None = None) -> UtopiaRecord:
    """Multistart optimum and anti-optimum of every objective: the ideal/nadir pair,
    one batch in which each row evaluates only its own objective's model."""
    config = config or SolverConfig()
    # group 2i is objective i's optimum, group 2i + 1 its anti-optimum: the
    # minimization form times -1, an exact negation of each value and derivative
    groups = np.repeat(np.arange(2 * len(problem.objectives)), config.n_starts)
    model, sign = groups // 2, np.where(groups % 2, -1.0, 1.0)
    stack = problem.stack

    def vg(rows, x):
        f, jac, hess = value_jacobian_hessian(stack, x, model[rows])
        s = sign[rows]
        return (s * f[..., 0], s[..., None] * jac[..., 0, :],
                s[..., None, None] * hess[..., 0, :, :])

    outcomes = grouped_multistart(SmoothFunction(vg, model_cost=1, name="individual optima"),
                                  problem.constraints, 2 * len(problem.objectives), config)
    counters = RunCounters()
    for g, outcome in enumerate(outcomes):
        counters.add(outcome.counters)
        if not outcome.converged:
            kind = "anti-optimum" if g % 2 else "optimum"
            raise UtopiaSolveError(
                f"solver failed on the {kind} of objective {problem.objectives[g // 2].name!r} "
                f"(violation {outcome.constraint_violation:.3g}, "
                f"kkt {outcome.kkt_residual:.3g})"
            )
    best, worst = outcomes[0::2], outcomes[1::2]
    return UtopiaRecord(
        ideal=np.array([o.objective for o in best]),
        nadir=np.array([-o.objective for o in worst]),
        ideal_x=np.array([o.x for o in best]),
        nadir_x=np.array([o.x for o in worst]),
        counters=counters,
        outcomes=tuple(outcomes),
        problem=problem,
    )


def _utopia_for(problem: MooProblem, config: SolverConfig,
                utopia: UtopiaRecord | None) -> UtopiaRecord:
    """``utopia`` if it was solved for ``problem``, the individual optima of ``problem``
    if it is None; a record of another problem (another box, say) is a ValueError."""
    if utopia is None:
        return individual_optima(problem, config)
    if utopia.problem != problem:
        raise ValueError("utopia was solved for another problem")
    return utopia


def _power(x: np.ndarray, e):
    """x ** e with numpy's results for a scalar exponent also when ``e`` is one per
    row: a scalar 2 squares and a scalar 1/2 takes the square root, where an array
    exponent's pow can differ from both in the last bit."""
    out = np.power(x, e)
    if np.ndim(e):
        np.multiply(x, x, out=out, where=e == 2)
        np.sqrt(x, out=out, where=e == 0.5)
    return out


def _deviation(values: np.ndarray, stars: np.ndarray, p):
    """The deviation criterion F, dF/df and d2F/df2 (..., m, m), over the last axis
    of the objective values f; ``p`` is one exponent or an array of one per point.

    With u_i = d_i / F and a_i = dd_i/df_i, d2F/df2 = (p - 1) / F (diag(u^(p-2) a^2)
    - (dF/df)(dF/df)^T); it is 0 at p = 1 and where F is 0. Every point goes in
    one pass, whatever its p: :func:`_power` gives each the bits of a scalar p.
    """
    # each objective value's exponent: p, or each point's p over the last axis
    q = p if not np.ndim(p) else np.asarray(p, dtype=float)[..., None]
    diff = values - stars
    d = np.abs(diff) / np.abs(stars)
    m = d.max(axis=-1, keepdims=True)
    value = m[..., 0] * _power(_power(d / np.where(m > 0, m, 1.0), q).sum(axis=-1), 1.0 / p)
    # dF/dd_i = (d_i / F)^(p-1), with d_i <= F guaranteed for p >= 1; 0 where F is 0
    safe = np.where(value > 0, value, 1.0)[..., None]
    u = d / safe
    # feasible values satisfy f_i >= f_i*, so at the kink f_i = f_i* the one-sided
    # derivative (+1) applies; sign(0) = 0 would drop objective i's gradient there
    a = np.where(diff < 0, -1.0, 1.0) / np.abs(stars)
    grad = _power(u, q - 1) * a
    second = np.zeros(d.shape + d.shape[-1:])
    if np.any(p > 1):
        # at p = 1 the exponent p - 2 would be -1, which divides by a zero u
        diag = np.eye(d.shape[-1]) * (_power(u, np.where(q > 1, q - 2, 0)) * a * a)[..., None, :]
        second = ((q - 1) / safe)[..., None] * (diag - grad[..., :, None] * grad[..., None, :])
        second = np.where(((value > 0) & (p > 1))[..., None, None], second, 0.0)
    return value, grad, second


@dataclass(frozen=True)
class MethodResult:
    """One solved point of a routine: its tag, point, natural responses and solver outcome."""

    tag: str
    x: tuple[float, ...]
    responses: tuple[float, ...]
    outcome: SolveOutcome
    feasible: bool = True


@dataclass(frozen=True)
class GlobalCriterionResult(MethodResult):
    p: int = 2
    criterion: float = math.nan


@dataclass(frozen=True)
class WeightedSumResult(MethodResult):
    weights: tuple[float, ...] = ()
    weak_pareto_only: bool = False


@dataclass(frozen=True)
class EpsilonResult(MethodResult):
    epsilons: tuple[float, ...] = ()
    active: tuple[bool, ...] = ()


@dataclass(frozen=True)
class LexStage(MethodResult):
    """One lexicographic stage, tagged by the objective it optimized."""

    objective: str = ""
    optimum: float = math.nan


@dataclass(frozen=True)
class RoutineResult:
    """Every routine's answer: its labeled front, its solved points and its total counters."""

    front: Front
    results: tuple[MethodResult, ...]
    counters: RunCounters


@dataclass(frozen=True)
class LexicographicResult(RoutineResult):
    """The stages are the results; the front is the final stage's point."""

    order: tuple[str, ...] = ()
    terminated_early: bool = False


def _sweep(problem: MooProblem, results: list[MethodResult], method: str) -> RoutineResult:
    """Every per-point result, and the front of the feasible ones under their own tags.

    An infeasible point (an epsilon bound that no point meets) is no Pareto
    point: it stays in the results only. Dominated points are kept.
    """
    counters = RunCounters()
    for r in results:
        counters.add(r.outcome.counters)
    points = [ParetoPoint(r.x, r.responses, method, r.tag) for r in results if r.feasible]
    return RoutineResult(Front(tuple(points), problem.senses), tuple(results), counters)


def _weighted(weights: np.ndarray, arrays: np.ndarray) -> np.ndarray:
    """sum_i weights[..., i] * arrays[..., i, ...]: ``weights`` has the shape of the
    values f (..., m). Explicit products and sums, so each point's result does not
    depend on the batch around it."""
    extra = arrays.ndim - weights.ndim
    return np.sum(weights.reshape(weights.shape + (1,) * extra) * arrays, axis=weights.ndim - 1)


def _criterion_fn(problem: MooProblem, utopia: UtopiaRecord, p: np.ndarray) -> SmoothFunction:
    stars = utopia.ideal
    if np.any(stars == 0.0):
        zero = problem.objectives[int(np.argmin(np.abs(stars)))].name
        raise ValueError(f"deviation criterion undefined: optimum of {zero!r} is zero")

    stack = problem.stack

    def vg(rows, x):
        f, jac, hess = value_jacobian_hessian(stack, x)
        value, weights, second = _deviation(f, stars, p[rows])
        # chain rule: sum_i (dF/df_i) H_i + J^T (d2F/df2) J
        w_jac = np.sum(second[..., :, :, None] * jac[..., None, :, :], axis=-2)
        curvature = np.sum(jac[..., :, :, None] * w_jac[..., :, None, :], axis=-3)
        return value, _weighted(weights, jac), _weighted(weights, hess) + curvature

    return SmoothFunction(vg, model_cost=stack.size, name="deviation criterion")


def global_criterion_sweep(
    problem: MooProblem,
    p_values: Sequence[int] = DEFAULT_P_VALUES,
    config: SolverConfig | None = None,
    utopia: UtopiaRecord | None = None,
) -> RoutineResult:
    """One criterion point per p, in one batch; dominated points stay on the front."""
    for p in p_values:
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"p must be a positive integer, got {p!r}")
    config = config or SolverConfig()
    utopia = _utopia_for(problem, config, utopia)
    # floats: an integer p past int64 would make an object array
    fn = _criterion_fn(problem, utopia, np.repeat(np.asarray(p_values, dtype=float),
                                                  config.n_starts))
    outcomes = grouped_multistart(fn, problem.constraints, len(p_values), config)
    results = [GlobalCriterionResult(tag=f"p={p}", x=o.x, responses=problem.responses_at(o.x),
                                     outcome=o, p=p, criterion=o.objective)
               for p, o in zip(p_values, outcomes)]
    return _sweep(problem, results, "global_criterion")


def _weighted_sums(problem: MooProblem, points: list[tuple[float, ...]],
                   config: SolverConfig | None, utopia: UtopiaRecord | None) -> RoutineResult:
    """One weighted-sum point per weight tuple of ``points``, in one batch."""
    config = config or SolverConfig()
    utopia = _utopia_for(problem, config, utopia)
    ideal, width = utopia.ideal, utopia.nadir - utopia.ideal
    if not np.all(width > 0):
        flat = problem.objectives[int(np.argmin(width))].name
        raise ValueError(f"degenerate range: nadir of {flat!r} does not lie above its ideal")
    w = np.repeat(np.array(points), config.n_starts, axis=0)
    stack = problem.stack

    def vg(rows, x):
        f, jac, hess = value_jacobian_hessian(stack, x)
        at = w[rows]
        scaled = np.broadcast_to(at / width, f.shape)
        return np.sum(at * (f - ideal) / width, axis=-1), _weighted(scaled, jac), \
            _weighted(scaled, hess)

    fn = SmoothFunction(vg, model_cost=stack.size, name="weighted sum")
    outcomes = grouped_multistart(fn, problem.constraints, len(points), config)
    results = [WeightedSumResult(tag=f"w={weights[0]:g}", x=o.x,
                                 responses=problem.responses_at(o.x), outcome=o, weights=weights,
                                 weak_pareto_only=any(w == 0.0 for w in weights))
               for weights, o in zip(points, outcomes)]
    return _sweep(problem, results, "weighted_sum")


def weighted_sum(
    problem: MooProblem,
    weights: Sequence[float],
    config: SolverConfig | None = None,
    utopia: UtopiaRecord | None = None,
) -> WeightedSumResult:
    """Minimize the weighted sum of (f_i - ideal_i) / (nadir_i - ideal_i).

    Weights must be non-negative and sum to one. A zero weight is allowed for
    sweep endpoints, but the result is then only weakly Pareto optimal. An
    objective whose nadir does not lie above its ideal cannot be normalized.
    This is the one-point case of :func:`weighted_sum_sweep`.
    """
    weights = tuple(float(w) for w in weights)
    if len(weights) != len(problem.objectives):
        raise ValueError(f"{len(weights)} weights for {len(problem.objectives)} objectives")
    # both written so that a NaN, which fails every comparison, is rejected too
    if not all(w >= 0 for w in weights):
        raise ValueError(f"negative weight or NaN in {weights}")
    if not abs(math.fsum(weights) - 1.0) <= _WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1, got {math.fsum(weights)!r}")
    return _weighted_sums(problem, [weights], config, utopia).results[0]


def weighted_sum_sweep(
    problem: MooProblem,
    steps: int = 11,
    config: SolverConfig | None = None,
    utopia: UtopiaRecord | None = None,
) -> RoutineResult:
    """Sweep the first objective's weight over {0, 1/(steps-1), ..., 1}."""
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    # k / (steps - 1) bit for bit, and a size error at once for a steps past memory
    weights = (np.arange(steps) / (steps - 1)).tolist()
    return _weighted_sums(problem, [(w, 1.0 - w) for w in weights], config, utopia)


def _epsilon_points(problem: MooProblem, primary_idx: int, points: Sequence[Sequence[float]],
                    config: SolverConfig) -> list[EpsilonResult]:
    """One epsilon-constraint point per one-tuple in ``points``, the bound on the
    non-primary objective, in one batch."""
    other = 1 - primary_idx
    bounded = problem.objectives[other]
    for epsilons in points:
        if len(epsilons) != 1:
            raise ValueError(f"{len(epsilons)} bounds for 1 non-primary objective")
        if not math.isfinite(float(epsilons[0])):
            raise ValueError(f"epsilon bound must be finite, got {epsilons[0]!r}")
    bounds = np.repeat(np.array(points, dtype=float).reshape(len(points)), config.n_starts)
    extra = problem.function(other, bound=bounds, name=f"{bounded.name}<= eps")
    outcomes = grouped_multistart(problem.function(primary_idx),
                                  problem.constrained_by([extra]), len(points), config)
    results = []
    for (eps,), outcome in zip(points, outcomes):
        responses = problem.responses_at(outcome.x)
        active = (bounded.sign * responses[other] - eps) / max(1.0, abs(eps)) >= -ACTIVE_TOL
        results.append(EpsilonResult(
            tag=f"eps={eps:.6g}", x=outcome.x, responses=responses, outcome=outcome,
            feasible=outcome.constraint_violation <= config.feas_tol,
            epsilons=(float(eps),), active=(active,)))
    return results


def epsilon_constraint(
    problem: MooProblem,
    primary: int | str,
    epsilons: Sequence[float],
    config: SolverConfig | None = None,
) -> EpsilonResult:
    """Optimize the primary objective with the other one bounded above.

    ``epsilons`` holds the one bound, on the minimization form of the
    non-primary objective (for a minimized objective that is simply its natural
    upper bound). Raises InfeasibleEpsilonError when the bound admits no
    feasible point. This is the one-point case of :func:`epsilon_sweep`.
    """
    config = config or SolverConfig()
    result = _epsilon_points(problem, problem.index_of(primary), [tuple(epsilons)], config)[0]
    if not result.feasible:
        raise InfeasibleEpsilonError(
            f"bounds {result.epsilons} on the non-primary objectives are unattainable "
            f"(best violation {result.outcome.constraint_violation:.3g} scaled)"
        )
    return result


def epsilon_sweep(
    problem: MooProblem,
    primary: int | str,
    n_points: int = 11,
    config: SolverConfig | None = None,
    utopia: UtopiaRecord | None = None,
) -> RoutineResult:
    """Uniform epsilon grid between the bounded objective's optimum and anti-optimum,
    in one batch.

    Infeasible grid points are not fatal: they stay in the results, marked
    infeasible, and are left off the front.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
    config = config or SolverConfig()
    utopia = _utopia_for(problem, config, utopia)
    primary_idx = problem.index_of(primary)
    j = 1 - primary_idx
    grid = np.linspace(utopia.ideal[j], utopia.nadir[j], n_points)
    results = _epsilon_points(problem, primary_idx, [(float(eps),) for eps in grid], config)
    return _sweep(problem, results, "epsilon_constraint")


def lexicographic(
    problem: MooProblem,
    order: Sequence[int | str],
    config: SolverConfig | None = None,
    utopia: UtopiaRecord | None = None,
) -> LexicographicResult:
    """Optimize the objectives in preference order: the first one's individual optimum,
    read from ``utopia``, then the epsilon-constraint point of the second with the
    first bounded by its optimum plus ``LEX_SLACK_REL`` of its magnitude.

    The counters, and so ``efficiency.csv``'s lexicographic row, count stage 1 although
    the individual optima solved it. ``terminated_early``: see ``LEX_EQUALITY_TOL``.
    """
    indices = [problem.index_of(o) for o in order]
    if not indices:
        raise ValueError("order must name at least one objective")
    if len(set(indices)) != len(indices):
        raise ValueError(f"order contains duplicate objectives: {list(order)}")
    config = config or SolverConfig()
    utopia = _utopia_for(problem, config, utopia)
    outcomes = [utopia.outcomes[2 * indices[0]]]
    if len(indices) == 2:
        f_star = outcomes[0].objective
        held = _epsilon_points(problem, indices[1], [(f_star + LEX_SLACK_REL * abs(f_star),)],
                               config)[0]
        if not held.feasible:
            raise StageInfeasibleError(
                f"stage optimizing {problem.names[indices[1]]!r} infeasible with "
                f"{problem.names[indices[0]]!r} held at its optimum "
                f"(violation {held.outcome.constraint_violation:.3g} scaled)"
            )
        outcomes.append(held.outcome)
    stages = []
    counters = RunCounters()
    for idx, outcome in zip(indices, outcomes):
        obj = problem.objectives[idx]
        counters.add(outcome.counters)
        stages.append(LexStage(tag=obj.name, x=outcome.x, responses=problem.responses_at(outcome.x),
                               outcome=outcome, objective=obj.name,
                               optimum=obj.sign * outcome.objective))
    step = np.subtract(outcomes[-1].x, outcomes[0].x) / problem.constraints.bounds.span
    terminated = len(outcomes) == 2 and float(np.max(np.abs(step))) <= LEX_EQUALITY_TOL
    final = stages[-1]
    order = tuple(problem.names[i] for i in indices)
    point = ParetoPoint(final.x, final.responses, "lexicographic", "order=" + ">".join(order))
    return LexicographicResult(Front((point,), problem.senses), tuple(stages), counters,
                               order=order, terminated_early=terminated)
