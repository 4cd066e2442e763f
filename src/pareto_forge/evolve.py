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
evaluates; only the final front is converted to natural units, by the signs,
as ``MooProblem.natural_values`` does, so its bits are that call's. A
non-finite response stops the run with a ``NonFiniteEvaluationError``. One
stable sort of the 2n rows, each read in place as the complex value f1 + i f2,
finds front 0. When it holds n rows or more, as in most generations, every
other front is dropped unread; otherwise one sweep ranks the rest. Every front
that is read is laid out in that sort's order and crowded in one pass over
both objectives, and one sort of the complex keys -crowding + i index picks
the survivors.

Both children of every pair come from one expression, the factors of a block
from one power per operator, and the crowding of every front from one pass
over the layout; each element still takes the floating-point operations of
the textbook form, one gene or one front at a time, in the same order, so the
bytes are that form's. Fronts are bitwise reproducible for a fixed seed on one
host; the generator is numpy's documented PCG64. numpy's array power may round
the last bit differently on CPUs with other SIMD support, so bytes can differ
between hosts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .nlsolver import NonFiniteEvaluationError, RunCounters, reject_nonfinite
from .pareto import Front, ParetoPoint, Sense, filter_nondominated
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
    """The rows of ``values``, minimization forms (n, 2) in C order and free of
    NaN, in (f1, f2, index) order, and whether each lies in front 0, the rows
    that no row dominates. The order is one stable sort of the complex keys
    f1 + i f2, each row read in place as one complex value: numpy sorts complex
    values by real part, then imaginary part, which is ``np.lexsort((f2, f1))``'s
    order. -0.0 and 0.0 compare equal in both, and exact copies are equal
    neighbours. In this order no row is dominated by a later one, so front 0 is
    the rows whose f2 is strictly below every f2 before their first exact copy,
    a running minimum (its empty prefix is NaN, which compares false: +inf would
    drop a (-inf, +inf) first row, and a strict test against the minimum would
    drop the copies of the first row)."""
    key = values.view(complex).ravel()
    rows = np.argsort(key, kind="stable")
    key = key[rows]
    # first[k]: the position of row k's first exact copy; best[k]: the least f2
    # of the first k rows, so front 0 is every row not at or above best[first]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    first = np.maximum.accumulate(np.where(new, np.arange(len(rows)), 0))
    b = key.imag
    best = np.concatenate(([np.nan], np.fmin.accumulate(b)))
    return rows, ~(b >= best[first])


def _ranks_past_front_zero(f1, f2, rows, front) -> np.ndarray:
    """The rank of each of ``_sorted_front_zero``'s ``rows``, in their order: 0 in
    front 0, and the other rows ranked by one sweep (Jensen, IEEE TEC 7:503,
    2003): each row joins the first front whose last row does not dominate it;
    those last rows, keyed (f2, f1), stay sorted (an equal key is an equal
    point, which does not dominate)."""
    ranks = np.zeros(len(rows), dtype=int)
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
    ranks[~front] = np.array(fronts, dtype=int) + 1
    return ranks


def _crowding(v: np.ndarray, counts, senses: Sequence[Sense]) -> np.ndarray:
    """Crowding distance of each row of ``v``, minimization forms (m, 2) laid out
    front by front, ``counts`` rows a front, each front in (f1, f2, index) order.

    A front's end rows are infinitely far; row k of a front from row a to row b
    adds max((v[k+1] - v[k-1]) / (v[b] - v[a]), 0) per objective, so a zero
    span, or one past the float range (0 / 0, g / inf, inf / inf), adds 0.
    NSGA-II crowds an objective in ascending natural value, ties in index order;
    negating an objective negates its gaps and span, which keeps each quotient
    but for the sign of a zero. Along a front f1 rises and f2 falls, and only
    exact copies tie. So a minimized first or a maximized second objective is
    crowded in layout order; for the others that order is the layout reversed
    but for each run of exact copies, kept in index order: the run's first and
    last row swap their contributions (the rows between add 0 either way).
    """
    part = np.full(v.shape, np.inf)
    # one front, from row v[:1] to row v[-1:] (none when m is 0), and no end inside
    first, last, ends = slice(1), slice(-1, None), slice(0)
    if len(counts) > 1:
        stop = np.cumsum(counts)
        first, last = np.repeat(stop - counts, counts)[1:-1], np.repeat(stop - 1, counts)[1:-1]
        ends = np.concatenate((stop[:-1] - 1, stop[:-1]))
    # a quotient across two fronts, which may divide by zero, is overwritten
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        part[1:-1] = np.fmax((v[2:] - v[:-2]) / (v[last] - v[first]), 0.0)
    part[ends] = np.inf
    falls = [senses[0] is Sense.MAXIMIZE, senses[1] is Sense.MINIMIZE]
    if any(falls):
        # edge[k]: a run of exact copies ends before row k
        edge = np.ones(len(v) + 1, dtype=bool)
        edge[1:-1] = (v[1:] != v[:-1]).any(axis=1)
        head, tail = np.flatnonzero(edge[:-1]), np.flatnonzero(edge[1:])
        mirror = np.arange(len(v))
        mirror[head], mirror[tail] = tail, head
        part[:, falls] = part[mirror][:, falls]
    return part[:, 0] + part[:, 1]


def _survivors(values: np.ndarray, senses: Sequence[Sense], keep: int):
    """The best ``keep`` rows of ``values``, minimization forms (n, 2) in C order
    and free of NaN, in (rank, crowding, index) order, and their ranks.

    NSGA-II drops every front that does not fit the next population unread
    (Deb et al. 2002, §III-C), so when front 0 holds ``keep`` rows or more it
    alone is laid out, in the order of the sort that finds it; otherwise the
    sweep ranks the other rows and a stable sort of the ranks lays every front
    out in that order. One sort of the complex keys -crowding + i index, then a
    stable sort of the ranks when more than one front is read, picks them.
    """
    rows, front = _sorted_front_zero(values)
    at = rows[front]
    ranks, counts = None, (len(at),)
    if keep > len(at):
        ranks = _ranks_past_front_zero(*values.T, rows, front)
        order = np.argsort(ranks, kind="stable")
        at, ranks = rows[order], ranks[order]
        counts = np.bincount(ranks)
    key = np.empty(len(at), dtype=complex)
    key.real = -_crowding(values.take(at, axis=0), counts, senses)
    key.imag = at  # distinct keys, so any sort gives this order
    order = np.argsort(key)
    if ranks is None:
        return at[order[:keep]], np.zeros(keep, dtype=int)
    order = order[np.argsort(ranks[order], kind="stable")[:keep]]
    return at[order], ranks[order]


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


# a model value that overflows is reported as a NonFiniteEvaluationError, not a warning
@np.errstate(over="ignore", invalid="ignore")
def run_ga(problem: MooProblem, config: GaConfig | None = None) -> RoutineResult:
    """Evolve a population within the box and return the final rank-0 set; no point
    is a separate solve, so ``results`` is empty. The first non-finite response
    raises :class:`NonFiniteEvaluationError` at its point, as the solver does.

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
        x = lb + unit_pop * span
        responses = stack_values(stack, x)
        if not np.isfinite(responses).all():
            finite = np.isfinite(responses).all(axis=1)
            raise NonFiniteEvaluationError(x[np.argmin(finite)], "genetic algorithm")
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
