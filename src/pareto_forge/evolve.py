"""Seeded elitist genetic algorithm producing a Pareto set directly.

Non-dominated sorting with crowding-distance selection, binary tournament on
(rank, crowding), simulated-binary crossover and polynomial mutation on
box-scaled variables. A generation is a fixed sequence of array operations:
its uniforms are drawn as whole arrays, a fixed number in a fixed order, and
its ranks over the two objectives come from one sort. Both children of every pair
come from one expression, and the crowding of every rank from one sort per
objective; each element still takes the floating-point operations of the
textbook form, one gene or one front at a time, in the same order, so the bytes
are that form's. The survivors are the best n of parents and children, and
keep the ranks they had among both. Only the fronts that can survive are
ranked: NSGA-II drops every front that does not fit the next population
unread (Deb, Pratap, Agarwal & Meyarivan, IEEE TEC 6:182, 2002), so when front 0
of the 2n parents and children holds n rows or more, the rest share rank 1
unranked. Front 0 and its crowding are the same either way, and every
unranked row sorts after it, so the survivors, their ranks and the bytes are
those of the full ranking. Fronts are
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
from .pareto import Front, ParetoPoint, Sense, _min_form_columns, filter_nondominated
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


def _ranks(values: np.ndarray, senses: Sequence[Sense], keep: int | None = None) -> np.ndarray:
    """Rank per row of the two objectives: 0 for rows that no row dominates, k for
    rows that no row dominates once the rows of ranks < k are removed; a row with
    a NaN, which dominates none and none dominates, has rank 0.

    The caller keeps ``keep`` rows (all by default) and drops the rest unread,
    as NSGA-II drops every front that does not fit the next population (Deb,
    Pratap, Agarwal & Meyarivan, IEEE TEC 6:182, 2002). When front 0 holds at
    least ``keep`` rows, every other row gets rank 1 unranked; otherwise every
    rank is exact. In (f1, f2) order of the minimization forms no row is
    dominated by a later one, so front 0 is the rows whose f2 is strictly below
    every f2 before their first exact copy, a running minimum (its empty prefix
    is NaN, which compares false: +inf would drop a (-inf, +inf) first row).
    The other rows are ranked by one sweep (Jensen, IEEE TEC 7:503, 2003): each
    row joins the first front whose last row does not dominate it; those last
    rows, keyed (f2, f1), stay sorted (an equal key is an equal point, which
    does not dominate)."""
    f1, f2 = _min_form_columns(values, senses)
    n = len(f1)
    ranks = np.zeros(n, dtype=int)
    rows = np.flatnonzero(~(np.isnan(f1) | np.isnan(f2)))
    rows = rows[np.lexsort((f2[rows], f1[rows]))]
    a, b = f1[rows], f2[rows]
    # first[k]: the position of row k's first exact copy; best[k]: the least f2
    # of the first k rows, so front 0 is every row not at or above best[first]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    first = np.maximum.accumulate(np.where(new, np.arange(len(rows)), 0))
    best = np.concatenate(([np.nan], np.fmin.accumulate(b)))
    rest = rows[b >= best[first]]
    if n - len(rest) >= (n if keep is None else keep):
        ranks[rest] = 1
        return ranks
    last: list[tuple[float, float]] = []
    fronts = []
    for key in zip(f2[rest].tolist(), f1[rest].tolist()):
        k = bisect_left(last, key)
        if k < len(last):
            last[k] = key
        else:
            last.append(key)
        fronts.append(k)
    ranks[rest] = np.array(fronts, dtype=int) + 1
    return ranks


def _crowding_by_rank(values: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Crowding distance of each rank's points, all ranks at once: infinite at
    each objective's boundary points of the rank, the normalized cuboid side-sum
    for its interior points. An objective whose span over a rank is zero or not
    finite adds nothing to the rank's interior points.

    Per objective, one sort by (rank, value, index) lays each rank out as the
    run its own stable sort would give, so every sum is taken in the same order.
    The runs sit at the same positions in every objective's sort, so their ends
    are found once; each objective then divides every interior gap by its run's
    span in one masked pass and adds the quotients, and +inf at the ends, to the
    distances. Adding 0.0 to the others leaves their bits as they were.
    """
    n = len(values)
    counts = np.bincount(ranks)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    last = first + np.repeat(counts - 1, counts)
    pos = np.arange(n)
    interior = (pos != first) & (pos != last)
    at_ends = np.where(interior, 0.0, np.inf)
    gap = np.zeros(n)
    dist = np.zeros(n)
    # inf - inf, and a difference past the float range, are masked out below
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(values.shape[1]):
            order = np.lexsort((values[:, j], ranks))
            v = values[order, j]
            span = v[last] - v[first]
            np.subtract(v[2:], v[:-2], out=gap[1:-1])
            part = at_ends.copy()
            np.divide(gap, span, out=part, where=interior & (span > 0) & (span < np.inf))
            dist[order] += part
    return dist


def _selection_order(ranks: np.ndarray, crowd: np.ndarray) -> np.ndarray:
    """Indices sorted best-first by (rank asc, crowding desc, index asc); lexsort
    is stable, so equal keys keep index order."""
    return np.lexsort((-crowd, ranks))


def _sbx(parents, coin, swap, u, prob: float, eta: float) -> np.ndarray:
    """Simulated binary crossover (Deb & Agrawal 1995): rows 2k and 2k + 1 of
    ``parents`` are pair k, and rows 2k and 2k + 1 of the result its children. A
    pair crosses where its ``coin`` < ``prob``, and then each gene where its
    ``swap`` < 0.5, with the spread factor drawn from ``u``. Draws are in [0, 1),
    so ``prob`` 0 never crosses.

    Both children come from one expression over the pair and its mirror: the
    second child's 0.5 ((1 + beta) p2 + (1 - beta) p1) is the textbook
    0.5 ((1 - beta) p1 + (1 + beta) p2) bit for bit, since addition commutes.
    Each gene raises only the base of its own branch to the power.
    """
    e = 1.0 / (eta + 1.0)
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** e
    cross = (coin[:, None] < prob) & (swap < 0.5)
    beta, cross = beta[:, None], cross[:, None]
    pairs = parents.reshape(len(coin), 2, -1)
    mirror = pairs[:, ::-1]
    children = np.where(cross, 0.5 * ((1.0 + beta) * pairs + (1.0 - beta) * mirror), pairs)
    return children.reshape(parents.shape)


def _mutate(children, coin, u, prob: float, eta: float) -> np.ndarray:
    """Polynomial mutation (Deb & Goyal 1996) of each gene whose ``coin`` < ``prob``,
    with the perturbation drawn from ``u``; each gene raises only the base of its
    own branch to the power."""
    e = 1.0 / (eta + 1.0)
    low = u < 0.5
    r = np.where(low, 2.0 * u, 2.0 * (1.0 - u)) ** e
    delta = np.where(low, r - 1.0, 1.0 - r)
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
        # pair k's parents, and then its children, are rows 2k and 2k + 1
        children = _sbx(pop[parents], cross_coin, swap, u_sbx,
                        config.crossover_prob, config.crossover_eta)
        children = _mutate(children, mut_coin, u_mut, config.mutation_prob, config.mutation_eta)
        np.clip(children, 0.0, 1.0, out=children)
        child_resp = evaluate_pop(children)

        combined = np.vstack([pop, children])
        combined_resp = np.vstack([resp, child_resp])
        comb_ranks = _ranks(combined_resp, senses, n)
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
