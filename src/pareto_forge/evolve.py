"""Seeded elitist genetic algorithm producing a Pareto set directly.

Non-dominated sorting with crowding-distance selection, binary tournament on
(rank, crowding), simulated-binary crossover and polynomial mutation on
box-scaled variables. Fronts are bitwise reproducible for a fixed seed; the
generator is numpy's documented PCG64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .nlsolver import RunCounters
from .pareto import Front, ParetoPoint, Sense, dominated_mask, filter_nondominated
from .scalarize import MooProblem, RoutineResult


@dataclass(frozen=True)
class GaConfig:
    pop_size: int = 60
    generations: int = 100
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_prob: float = 1.0 / 3.0
    mutation_eta: float = 20.0
    elite_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pop_size < 4 or self.pop_size % 2:
            raise ValueError(f"population size must be even and >= 4, got {self.pop_size}")
        if self.generations < 0 or self.seed < 0:
            raise ValueError("generations and seed must be non-negative")
        for name in ("crossover_prob", "mutation_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not 0.0 <= self.elite_fraction <= 0.5:
            raise ValueError(f"elite_fraction must be in [0, 0.5], got {self.elite_fraction}")
        if self.crossover_eta <= 0 or self.mutation_eta <= 0:
            raise ValueError("distribution indices must be positive")


def nondominated_sort(points, senses: Sequence[Sense]) -> np.ndarray:
    """Rank per point: 0 for the mutually non-dominated set, k after peeling ranks < k."""
    values = np.asarray(points, dtype=float)
    if values.ndim != 2:
        raise ValueError("points must be a 2-D array of response vectors")
    ranks = np.full(len(values), -1, dtype=int)
    remaining = np.arange(len(values))
    rank = 0
    while remaining.size:
        dominated = dominated_mask(values[remaining], senses)
        ranks[remaining[~dominated]] = rank
        remaining = remaining[dominated]
        rank += 1
    return ranks


def crowding_distance(front, senses: Sequence[Sense]) -> np.ndarray:
    """Diversity measure over one front: infinite at the boundary points of each
    objective, the normalized cuboid side-sum for interior points."""
    values = np.asarray(front, dtype=float)
    if values.ndim != 2 or len(values) == 0:
        raise ValueError("front must be a non-empty 2-D array of response vectors")
    n, n_obj = values.shape
    dist = np.zeros(n)
    for j in range(n_obj):
        order = np.argsort(values[:, j], kind="stable")
        lo, hi = values[order[0], j], values[order[-1], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        if hi == lo:
            continue
        gaps = (values[order[2:], j] - values[order[:-2], j]) / (hi - lo)
        dist[order[1:-1]] += gaps
    return dist


def _crowding_by_rank(values: np.ndarray, ranks: np.ndarray, senses) -> np.ndarray:
    crowd = np.zeros(len(values))
    for r in np.unique(ranks):
        mask = ranks == r
        crowd[mask] = crowding_distance(values[mask], senses)
    return crowd


def _selection_order(ranks: np.ndarray, crowd: np.ndarray) -> np.ndarray:
    """Indices sorted best-first by (rank asc, crowding desc, index asc)."""
    return np.lexsort((np.arange(len(ranks)), -crowd, ranks))


def _sbx_pair(p1, p2, eta: float, rng) -> tuple[np.ndarray, np.ndarray]:
    c1, c2 = p1.copy(), p2.copy()
    for j in range(len(p1)):
        if rng.random() > 0.5:
            continue
        u = rng.random()
        if u <= 0.5:
            beta = (2.0 * u) ** (1.0 / (eta + 1.0))
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))
        c1[j] = 0.5 * ((1.0 + beta) * p1[j] + (1.0 - beta) * p2[j])
        c2[j] = 0.5 * ((1.0 - beta) * p1[j] + (1.0 + beta) * p2[j])
    return c1, c2


def _mutate(child, prob: float, eta: float, rng) -> None:
    for j in range(len(child)):
        if rng.random() >= prob:
            continue
        u = rng.random()
        if u < 0.5:
            delta = (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0
        else:
            delta = 1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0))
        child[j] += delta


@dataclass(frozen=True)
class GaResult(RoutineResult):
    """The final rank-0 set; no point is a separate solve, so ``results`` is empty."""


def run_ga(problem: MooProblem, config: GaConfig | None = None) -> GaResult:
    """Evolve a population within the box and return the final rank-0 set.

    Only box constraints are supported on this path. Counters report
    generations as iterations and model evaluations as function counts, so the
    evaluation total is exactly pop_size * (generations + 1) * n_objectives.
    """
    config = config or GaConfig()
    if problem.constraints.inequalities:
        raise ValueError("the evolutionary path supports box constraints only")
    bounds = problem.constraints.bounds
    lb, span = np.asarray(bounds.lower), np.asarray(bounds.span)
    senses = problem.senses
    n, n_obj = config.pop_size, len(problem.objectives)
    rng = np.random.default_rng(config.seed)
    counters = RunCounters()

    def evaluate_pop(unit_pop: np.ndarray) -> np.ndarray:
        x = lb + unit_pop * span
        responses = np.column_stack([o.model.evaluate(x) for o in problem.objectives])
        counters.function_evals += responses.size
        return responses

    pop = rng.random((n, 3))
    resp = evaluate_pop(pop)
    ranks = nondominated_sort(resp, senses)
    crowd = _crowding_by_rank(resp, ranks, senses)

    elite_count = min(n, int(round(config.elite_fraction * 2 * n)))
    for _ in range(config.generations):
        idx_a, idx_b = rng.permutation(n), rng.permutation(n)
        key = _selection_order(ranks, crowd)
        position = np.empty(n, dtype=int)
        position[key] = np.arange(n)
        parents = np.where(position[idx_a] <= position[idx_b], idx_a, idx_b)
        children = np.empty_like(pop)
        for k in range(0, n, 2):
            p1, p2 = pop[parents[k]], pop[parents[k + 1]]
            if rng.random() <= config.crossover_prob:
                c1, c2 = _sbx_pair(p1, p2, config.crossover_eta, rng)
            else:
                c1, c2 = p1.copy(), p2.copy()
            _mutate(c1, config.mutation_prob, config.mutation_eta, rng)
            _mutate(c2, config.mutation_prob, config.mutation_eta, rng)
            children[k], children[k + 1] = c1, c2
        np.clip(children, 0.0, 1.0, out=children)
        child_resp = evaluate_pop(children)

        combined = np.vstack([pop, children])
        combined_resp = np.vstack([resp, child_resp])
        comb_ranks = nondominated_sort(combined_resp, senses)
        comb_crowd = _crowding_by_rank(combined_resp, comb_ranks, senses)
        order = _selection_order(comb_ranks, comb_crowd)
        # the elites, then the best of the children not among them
        rest = order[elite_count:]
        chosen = np.concatenate([order[:elite_count], rest[rest >= n]])[:n]
        pop, resp = combined[chosen], combined_resp[chosen]
        ranks = nondominated_sort(resp, senses)
        crowd = _crowding_by_rank(resp, ranks, senses)
        counters.iterations += 1

    final_mask = ranks == 0
    tag = f"seed={config.seed}"
    points = [
        ParetoPoint(tuple(lb + pop[i] * span), tuple(resp[i]), "genetic_algorithm", tag)
        for i in np.flatnonzero(final_mask)
    ]
    front = Front(tuple(filter_nondominated(points, senses)), senses)
    return GaResult(front=front, results=(), counters=counters)
