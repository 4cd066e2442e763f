"""Seeded elitist genetic algorithm producing a Pareto set directly.

Non-dominated sorting with crowding-distance selection, binary tournament on
(rank, crowding), simulated-binary crossover and polynomial mutation on
box-scaled variables. A generation is a fixed sequence of array operations:
its uniforms are drawn as whole arrays, a fixed number in a fixed order, and
for two objectives its ranks come from one sort. The survivors are the best n
of parents and children, and keep the ranks they had among both. Fronts are
bitwise reproducible for a fixed seed on one host; the generator is numpy's
documented PCG64. numpy's array power may round the last bit differently on
CPUs with other SIMD support, so bytes can differ between hosts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .nlsolver import RunCounters, reject_nonfinite
from .pareto import Front, ParetoPoint, Sense, _min_form_columns, dominated_mask, filter_nondominated
from .scalarize import MooProblem, RoutineResult


@dataclass(frozen=True)
class GaConfig:
    pop_size: int = 60
    generations: int = 100
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_prob: float = 1.0 / 3.0
    mutation_eta: float = 20.0
    seed: int = 0

    def __post_init__(self) -> None:
        reject_nonfinite(self)
        if self.pop_size < 4 or self.pop_size % 2:
            raise ValueError(f"population size must be even and >= 4, got {self.pop_size}")
        if self.generations < 0 or self.seed < 0:
            raise ValueError("generations and seed must be non-negative")
        for name in ("crossover_prob", "mutation_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.crossover_eta <= 0 or self.mutation_eta <= 0:
            raise ValueError("distribution indices must be positive")


def _ranks(values: np.ndarray, senses: Sequence[Sense]) -> np.ndarray:
    """Rank per row: 0 for rows that no row dominates, k for rows that no row
    dominates once the rows of ranks < k are removed; a row with a NaN, which
    dominates none and none dominates, has rank 0. Two objectives take one sort
    (Jensen, IEEE TEC 7:503, 2003): in (f1, f2) order of the minimization forms no
    row is dominated by a later one, and each row joins the first front whose last
    row does not dominate it; those last rows, keyed (f2, f1), stay sorted (an
    equal key is an equal point, which does not dominate). More objectives peel
    with :func:`dominated_mask`."""
    if len(senses) != 2:
        ranks = np.zeros(len(values), dtype=int)
        rows = np.arange(len(values))
        while rows.size:
            dominated = dominated_mask(values[rows], senses)
            ranks[rows] += dominated
            rows = rows[dominated]
        return ranks
    f1, f2 = _min_form_columns(values, senses)
    ranks = np.zeros(len(f1), dtype=int)
    rows = np.flatnonzero(~(np.isnan(f1) | np.isnan(f2)))
    rows = rows[np.lexsort((f2[rows], f1[rows]))]
    last: list[tuple[float, float]] = []
    fronts = []
    for key in zip(f2[rows].tolist(), f1[rows].tolist()):
        k = bisect_left(last, key)
        if k < len(last):
            last[k] = key
        else:
            last.append(key)
        fronts.append(k)
    ranks[rows] = fronts
    return ranks


def _crowding_by_rank(values: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Crowding distance of each rank's points, all ranks at once: infinite at
    each objective's boundary points of the rank, the normalized cuboid side-sum
    for its interior points.

    Per objective, one sort by (rank, value, index) lays each rank out as the
    run its own stable sort would give, so every sum is taken in the same order.
    """
    dist = np.zeros(len(values))
    for j in range(values.shape[1]):
        order = np.lexsort((values[:, j], ranks))
        r, v = ranks[order], values[order, j]
        first = np.concatenate(([True], r[1:] != r[:-1]))
        last = np.concatenate((r[1:] != r[:-1], [True]))
        run = np.cumsum(first) - 1
        lo, hi = v[first][run], v[last][run]
        inner = np.flatnonzero(~(first | last) & (hi != lo))
        dist[order[inner]] += (v[inner + 1] - v[inner - 1]) / (hi[inner] - lo[inner])
        dist[order[first | last]] = np.inf
    return dist


def _selection_order(ranks: np.ndarray, crowd: np.ndarray) -> np.ndarray:
    """Indices sorted best-first by (rank asc, crowding desc, index asc)."""
    return np.lexsort((np.arange(len(ranks)), -crowd, ranks))


def _sbx(p1, p2, coin, swap, u, prob: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover (Deb & Agrawal 1995) of the parent rows ``p1`` and
    ``p2``: a pair crosses where its ``coin`` < ``prob``, and then each gene where
    its ``swap`` < 0.5, with the spread factor drawn from ``u``. Draws are in
    [0, 1), so ``prob`` 0 never crosses."""
    e = 1.0 / (eta + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** e, (1.0 / (2.0 * (1.0 - u))) ** e)
    cross = (coin[:, None] < prob) & (swap < 0.5)
    c1 = np.where(cross, 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2), p1)
    c2 = np.where(cross, 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2), p2)
    return c1, c2


def _mutate(children, coin, u, prob: float, eta: float) -> np.ndarray:
    """Polynomial mutation (Deb & Goyal 1996) of each gene whose ``coin`` < ``prob``,
    with the perturbation drawn from ``u``."""
    e = 1.0 / (eta + 1.0)
    delta = np.where(u < 0.5, (2.0 * u) ** e - 1.0, 1.0 - (2.0 * (1.0 - u)) ** e)
    return np.where(coin < prob, children + delta, children)


def run_ga(problem: MooProblem, config: GaConfig | None = None) -> RoutineResult:
    """Evolve a population within the box and return the final rank-0 set; no point
    is a separate solve, so ``results`` is empty.

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
    n = config.pop_size
    rng = np.random.default_rng(config.seed)
    counters = RunCounters()

    def evaluate_pop(unit_pop: np.ndarray) -> np.ndarray:
        responses = problem.natural_values(lb + unit_pop * span)
        counters.function_evals += responses.size
        return responses

    pop = rng.random((n, 3))
    resp = evaluate_pop(pop)
    ranks = _ranks(resp, senses)
    crowd = _crowding_by_rank(resp, ranks)

    for _ in range(config.generations):
        idx_a, idx_b = rng.permutation(n), rng.permutation(n)
        key = _selection_order(ranks, crowd)
        position = np.empty(n, dtype=int)
        position[key] = np.arange(n)
        parents = np.where(position[idx_a] <= position[idx_b], idx_a, idx_b)
        # one generation's draws, a fixed number in a fixed order
        half = n // 2
        cross_coin = rng.random(half)
        swap, u_sbx = rng.random((half, 3)), rng.random((half, 3))
        mut_coin, u_mut = rng.random((n, 3)), rng.random((n, 3))
        c1, c2 = _sbx(pop[parents[0::2]], pop[parents[1::2]], cross_coin, swap, u_sbx,
                      config.crossover_prob, config.crossover_eta)
        # pair k's children are rows 2k and 2k + 1
        children = np.stack([c1, c2], axis=1).reshape(n, 3)
        children = _mutate(children, mut_coin, u_mut, config.mutation_prob, config.mutation_eta)
        np.clip(children, 0.0, 1.0, out=children)
        child_resp = evaluate_pop(children)

        combined = np.vstack([pop, children])
        combined_resp = np.vstack([resp, child_resp])
        comb_ranks = _ranks(combined_resp, senses)
        comb_crowd = _crowding_by_rank(combined_resp, comb_ranks)
        # every row that dominates a survivor survives, so a survivor's rank is kept
        chosen = _selection_order(comb_ranks, comb_crowd)[:n]
        pop, resp, ranks = combined[chosen], combined_resp[chosen], comb_ranks[chosen]
        crowd = _crowding_by_rank(resp, ranks)
        counters.iterations += 1

    tag = f"seed={config.seed}"
    points = [
        ParetoPoint(tuple(lb + pop[i] * span), tuple(resp[i]), "genetic_algorithm", tag)
        for i in np.flatnonzero(ranks == 0)
    ]
    front = Front(tuple(filter_nondominated(points, senses)), senses)
    return RoutineResult(front=front, results=(), counters=counters)
