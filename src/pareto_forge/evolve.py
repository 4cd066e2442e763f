"""Seeded elitist genetic algorithm producing a Pareto set directly: NSGA-II
(Deb, Pratap, Agarwal & Meyarivan, IEEE TEC 6:182, 2002).

The initial population is the 2^3 corners of the box, then uniform draws
(Friedrich & Wagner, "Seeding the initial population of multi-objective
evolutionary algorithms", Applied Soft Computing 33:223, 2015): the corners
overwrite the first min(n, 8) rows of the draw, so the random stream and the
evaluation count stay those of an all-uniform start. A generation makes a
binary tournament, simulated-binary crossover and polynomial mutation on
box-scaled variables. Their draws, two permutations (each arange(n) shuffled
in place) and one row of uniforms a generation, do not depend on the
population, so they are drawn for a block of max(1, 1024 // n) generations at
a time, in the stream's order, and turned into tournament winners, crossover
factors 1 + beta and 1 - beta and mutation steps in one array pass over the
block. A gene that does not cross has beta = 1 and one that does not mutate a
step of 0, which leave its bits as they are; a generation then gathers its
tournament winners and their mates, forms every child with one expression and
clips. The n parents and n children are ranked over the two objectives and
crowded once, and the best n in (rank, crowding, index) order survive in that
order, keeping the ranks and crowding they had among both: NSGA-II assigns
them while forming the next population (§III-C). So the population is always
stored best-first, and the tournament's crowded comparison of two rows is a
comparison of their positions.

The responses stay in the minimization form that the problem's model stack
evaluates, and only the final front is converted to natural units, by the
signs, as ``MooProblem.natural_values`` does, so its bits are that call's.
Only the fronts that can survive are read. One stable sort of the 2n rows,
each read in place as the complex value f1 + i f2, which numpy orders by real
and then imaginary part, finds front 0; when front 0 holds n rows or more, as
it does in most generations, NSGA-II drops every other front unread: the
survivors come straight from that sort. For a minimized first and a
maximized second objective, front 0 in (f1, index) order is both objectives'
crowding order, so both are crowded in one pass over it without a sort of
their own, and one sort of the complex keys -crowding + i index picks the
survivors. Otherwise every front is ranked by one sweep, crowded in natural
units by one sort per objective and sorted.

Both children of every pair come from one expression, the factors of a
block from one power per operator, and the crowding of every front from one
pass per objective; each element still takes the
floating-point operations of the textbook form, one gene or one front at a
time, in the same order, so the bytes are that form's. Fronts are bitwise
reproducible for a fixed seed on one host; the generator is numpy's
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
from .polymodel import stack_values
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


def _sorted_front_zero(values: np.ndarray):
    """The rows of ``values``, minimization forms (n, 2) in C order, that hold
    no NaN, in (f1, f2, index) order, and whether each lies in front 0, the rows
    that no row dominates.

    The order is one stable sort of the complex keys f1 + i f2, each row read
    in place as one complex value: numpy sorts complex values by real part,
    then imaginary part, which is ``np.lexsort((f2, f1))``'s order, and puts
    every key with a NaN part last, where the NaN rows are dropped. -0.0 and
    0.0 compare equal in both, and exact copies are equal neighbours.

    In this order no row is dominated by a later one, so front 0 is the rows
    whose f2 is strictly below every f2 before their first exact copy, a running
    minimum (its empty prefix is NaN, which compares false: +inf would drop a
    (-inf, +inf) first row, and a strict test against the minimum would drop the
    copies of the first row)."""
    key = values.view(complex).ravel()
    rows = np.argsort(key, kind="stable")
    key = key[rows]
    nan = np.isnan(key)
    if nan.any():
        rows, key = rows[~nan], key[~nan]
    # first[k]: the position of row k's first exact copy; best[k]: the least f2
    # of the first k rows, so front 0 is every row not at or above best[first]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    first = np.maximum.accumulate(np.where(new, np.arange(len(rows)), 0))
    b = key.imag
    best = np.concatenate(([np.nan], np.fmin.accumulate(b)))
    return rows, ~(b >= best[first])


def _ranks_past_front_zero(f1, f2, rows, front) -> np.ndarray:
    """Rank per row, given ``_sorted_front_zero``'s ``rows`` and ``front``: 0 in
    front 0 and for the rows with a NaN, and the other rows ranked by one sweep
    (Jensen, IEEE TEC 7:503, 2003): each row joins the first front whose last
    row does not dominate it; those last rows, keyed (f2, f1), stay sorted (an
    equal key is an equal point, which does not dominate)."""
    ranks = np.zeros(len(f1), dtype=int)
    rest = rows[~front]
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


def _ranks(values: np.ndarray, senses: Sequence[Sense]) -> np.ndarray:
    """Rank per row of the two objectives: 0 for rows that no row dominates, k for
    rows that no row dominates once the rows of ranks < k are removed; a row with
    a NaN, which dominates none and none dominates, has rank 0."""
    rows = np.ascontiguousarray(_min_form_columns(values, senses).T)
    return _ranks_past_front_zero(*rows.T, *_sorted_front_zero(rows))


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


def _survivors(values: np.ndarray, senses: Sequence[Sense], keep: int):
    """The first ``keep`` rows of ``_selection_order`` over the ranks and crowding
    of every row, best-first, and their ranks. ``values`` holds each row's
    minimization forms (n, 2) in C order; crowding is taken in natural units.

    NSGA-II drops every front that does not fit the next population unread
    (Deb, Pratap, Agarwal & Meyarivan, IEEE TEC 6:182, 2002), so when front 0
    holds at least ``keep`` rows and every value is finite, the survivors are
    read from the sort that finds front 0. Within front 0 f2 falls as f1 rises
    and only exact copies tie, so for a minimized first and a maximized second
    objective, the command line's pair, both natural values rise along its rows
    in (f1, index) order: that order is each objective's crowding order, copies
    in index order. Both objectives are crowded in one pass, each in the
    minimization form: a maximized objective's natural gap and span are its
    negated ones, so each quotient has the natural one's bits, but for the sign
    of a zero, which adding it to the first objective's quotient (never -0.0)
    drops. The distances so keep the bits of ``_crowding_by_rank``'s, and one
    sort of the complex keys -crowding + i index picks the survivors. Any other
    input, or pair of senses, is ranked in full and crowded in natural units.
    """
    rows, front = _sorted_front_zero(values)
    at = rows[front]
    if (tuple(senses) != (Sense.MINIMIZE, Sense.MAXIMIZE) or not 0 < keep <= len(at)
            or not np.isfinite(values).all()):
        ranks = _ranks_past_front_zero(*values.T, rows, front)
        crowd = _crowding_by_rank(values * [s.sign for s in senses], ranks)
        chosen = _selection_order(ranks, crowd)[:keep]
        return chosen, ranks[chosen]
    vf = values.take(at, axis=0)
    # quotients are >= 0; a zero span, or one past the float range, gives 0 / 0,
    # g / inf or inf / inf; fmax makes NaN 0, adding nothing, as _crowding_by_rank does
    with np.errstate(over="ignore", invalid="ignore"):
        part = np.fmax((vf[2:] - vf[:-2]) / (vf[-1] - vf[0]), 0.0)
    key = np.full(len(at), -np.inf, dtype=complex)
    key.real[1:-1] = -(part[:, 0] + part[:, 1])
    key.imag = at  # distinct keys, so any sort gives this order
    chosen = at[np.argsort(key)[:keep]]
    return chosen, np.zeros(keep, dtype=int)


#: a block holds the draws of max(1, _BLOCK_ROWS // pop_size) generations, so its
#: operands stay at a few hundred kB however long the run
_BLOCK_ROWS = 1024


def _variation(rng: np.random.Generator, config: GaConfig, picks: np.ndarray,
               draws: np.ndarray):
    """The tournament winners, crossover factors and mutation steps of the next
    ``count = len(draws)`` generations, each of whose draws is two
    ``rng.permutation(n)`` calls and one row of uniforms, in that order. The
    population does not change what is drawn, so a block of generations is drawn
    first and transformed in one array pass. ``picks`` (count, 2, n) holds
    ``arange(n)`` in every row, and each row is shuffled in place, which draws
    ``rng.permutation(n)``: that is ``arange(n)`` shuffled. ``draws``
    (count, 19 n / 2) takes the uniforms.

    A row holds each pair's crossover coin, then its genes' swaps and spread
    uniforms (simulated binary crossover, Deb & Agrawal 1995), then each child
    gene's mutation coin and uniform (polynomial mutation, Deb & Goyal 1996).
    A pair crosses where its coin < ``crossover_prob``, and then each gene where
    its swap < 0.5; a gene mutates where its coin < ``mutation_prob``. Draws are
    in [0, 1), so a probability of 0 never acts.

    Returns ``winners`` and ``mates`` (count, n): the better of each
    tournament's two rows, which in a best-first population is the earlier,
    and the winner it is paired with; ``up`` and ``down`` (count, n, 3):
    1 + beta and 1 - beta of each child's genes, with beta 1 on every gene that
    does not cross; and ``step`` (count, n, 3): the mutation step, 0 on every
    gene that does not mutate. Unit coordinates are in [0, 1] and never -0.0,
    so 0.5 (2 p + 0 q) + 0 is p bit for bit: the neutral factors leave a gene
    as the textbook's masked branches do, and every other gene takes their
    operations in their order. Each gene raises only the base of its own branch
    to the power.
    """
    count, n = picks.shape[0], config.pop_size
    half = n // 2
    for pair, row in zip(picks, draws):
        rng.shuffle(pair[0])
        rng.shuffle(pair[1])
        rng.random(out=row)  # 7 half for crossover, then 6 n for mutation
    winners = np.minimum(picks[:, 0], picks[:, 1])
    # pair k is winners 2k and 2k + 1, each the other's mate
    mates = winners.reshape(count, half, 2)[:, :, ::-1].reshape(count, n)
    sbx, mutation = np.split(draws, [7 * half], axis=1)
    pair_coin = sbx[:, :half, None]
    swap = sbx[:, half:4 * half].reshape(count, half, 3)
    u = sbx[:, 4 * half:].reshape(count, half, 3)
    e = 1.0 / (config.crossover_eta + 1.0)
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** e
    beta = np.where((pair_coin < config.crossover_prob) & (swap < 0.5), beta, 1.0)
    beta = beta.repeat(2, axis=1)  # both children of a pair take its factors
    gene_coin, v = (part.reshape(count, n, 3) for part in np.split(mutation, 2, axis=1))
    e = 1.0 / (config.mutation_eta + 1.0)
    low = v < 0.5
    r = np.where(low, 2.0 * v, 2.0 * (1.0 - v)) ** e
    step = np.where(gene_coin < config.mutation_prob, np.where(low, r - 1.0, 1.0 - r), 0.0)
    return winners, mates, 1.0 + beta, 1.0 - beta, step


def _offspring(pop: np.ndarray, winners, mates, up, down, step) -> np.ndarray:
    """One generation's children, before clipping: child i of winner i and its
    mate. A child is 0.5 ((1 + beta) p + (1 - beta) q) of its winner p and mate
    q; for the second child of a pair that is the textbook
    0.5 ((1 - beta) p1 + (1 + beta) p2) bit for bit, since addition commutes."""
    children = up * pop.take(winners, axis=0)
    children += down * pop.take(mates, axis=0)
    children *= 0.5
    children += step
    return children


def run_ga(problem: MooProblem, config: GaConfig | None = None) -> RoutineResult:
    """Evolve a population within the box and return the final rank-0 set; no point
    is a separate solve, so ``results`` is empty.

    Counters report generations as iterations and model evaluations as function
    counts, so the evaluation total is exactly pop_size * (generations + 1) *
    n_objectives.
    """
    config = config or GaConfig()
    bounds = problem.bounds
    lb, span = np.asarray(bounds.lower), np.asarray(bounds.span)
    senses, stack = problem.senses, problem.stack
    n = config.pop_size
    rng = np.random.default_rng(config.seed)
    counters = RunCounters()

    def evaluate_pop(unit_pop: np.ndarray) -> np.ndarray:
        responses = stack_values(stack, lb + unit_pop * span)
        counters.function_evals += responses.size
        return responses

    # the parents are rows :n and the children rows n: of one buffer; responses
    # stay in minimization form until the final front
    combined, combined_resp = np.empty((2 * n, 3)), np.empty((2 * n, len(senses)))
    pop, resp = combined[:n], combined_resp[:n]
    pop[:] = rng.random((n, 3))
    pop[:8] = list(np.ndindex(2, 2, 2))[:n]  # the unit cube's corners, then uniform rows
    resp[:] = evaluate_pop(pop)
    best_first, ranks = _survivors(resp, senses, n)
    pop[:], resp[:] = pop[best_first], resp[best_first]

    block, done = max(1, _BLOCK_ROWS // n), 0
    picks, draws = np.empty((block, 2, n), dtype=np.intp), np.empty((block, 19 * (n // 2)))
    while done < config.generations:
        count = min(block, config.generations - done)
        picks[:] = np.arange(n)
        for variation in zip(*_variation(rng, config, picks[:count], draws[:count])):
            # the clip: np.clip's Python wrapper costs more than these two ufuncs
            children = np.maximum(_offspring(pop, *variation), 0.0)
            np.minimum(children, 1.0, out=combined[n:])
            combined_resp[n:] = evaluate_pop(combined[n:])
            # every row that dominates a survivor survives, so a survivor's rank
            # is kept; the survivors stay in this order, best-first
            chosen, ranks = _survivors(combined_resp, senses, n)
            pop[:], resp[:] = combined.take(chosen, axis=0), combined_resp.take(chosen, axis=0)
            counters.iterations += 1
        done += count

    # natural units are the minimization forms times the signs, as natural_values
    best, tag = ranks == 0, f"seed={config.seed}"
    points = [ParetoPoint(x, r, "genetic_algorithm", tag) for x, r in zip(
        (lb + pop[best] * span).tolist(), (resp[best] * [s.sign for s in senses]).tolist())]
    front = Front(tuple(filter_nondominated(points, senses)), senses)
    return RoutineResult(front=front, results=(), counters=counters)
