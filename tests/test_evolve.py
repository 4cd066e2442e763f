import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_forge import (
    CASE_STUDY_BOUNDS,
    Front,
    GaConfig,
    MooProblem,
    Objective,
    ParetoPoint,
    Sense,
    dominated_mask,
    evaluate,
    filter_nondominated,
    run_ga,
)
from pareto_forge import evolve
from pareto_forge.evolve import (
    _crowding,
    _offspring,
    _sorted_front_zero,
    _survivors,
    _variation,
)

MIN_MIN = (Sense.MINIMIZE, Sense.MINIMIZE)
MIN_MAX = (Sense.MINIMIZE, Sense.MAXIMIZE)
MAX_MAX = (Sense.MAXIMIZE, Sense.MAXIMIZE)

# Final population reported by the source study's GA run (Ra, MRR pairs).
STUDY_GA_FRONT = [
    (0.796247, 35239.88),
    (0.516701, 8273.971),
    (0.516497, 4829.822),
    (0.796247, 35239.88),
    (0.562547, 11791.66),
    (0.75722, 30210.68),
    (0.508056, 2879.604),
    (0.631147, 16737.6),
    (0.724098, 26468.48),
    (0.660724, 20497.86),
    (0.593998, 14062.44),
    (0.511083, 3209.405),
    (0.636112, 17739.54),
    (0.703335, 24437.07),
    (0.58043, 12836.77),
    (0.770931, 31391.3),
    (0.778786, 32753.41),
    (0.678937, 21680.69),
]


def brute_force_ranks(points, senses):
    sign = [1.0 if s is Sense.MINIMIZE else -1.0 for s in senses]
    vals = [[v * s for v, s in zip(p, sign)] for p in points]

    def dominated_by(i, pool):
        for j in pool:
            if j == i:
                continue
            vi, vj = vals[i], vals[j]
            if all(a <= b for a, b in zip(vj, vi)) and any(a < b for a, b in zip(vj, vi)):
                return True
        return False

    ranks = [-1] * len(points)
    remaining = set(range(len(points)))
    rank = 0
    while remaining:
        current = {i for i in remaining if not dominated_by(i, remaining)}
        for i in current:
            ranks[i] = rank
        remaining -= current
        rank += 1
    return ranks


def min_form(values, senses):
    """The minimization forms of natural-unit rows, which ``_survivors`` takes."""
    return values * [s.sign for s in senses]


def ranks_of(values, senses):
    """Rank per natural-unit row, as ``_survivors`` gives them when it keeps
    every row."""
    values = np.asarray(values, dtype=float).reshape(-1, 2)
    chosen, ranks = _survivors(min_form(values, senses), senses, len(values))
    by_row = np.empty(len(values), dtype=int)
    by_row[chosen] = ranks
    return by_row


def test_sort_simple_chain():
    assert ranks_of([(1.0, 1.0), (2.0, 2.0)], MIN_MIN).tolist() == [0, 1]


def test_sort_mutually_nondominated():
    assert ranks_of([(1.0, 2.0), (2.0, 1.0)], MIN_MIN).tolist() == [0, 0]


def test_sort_against_brute_force_on_study_front():
    got = ranks_of(STUDY_GA_FRONT, MIN_MAX).tolist()
    assert got == brute_force_ranks(STUDY_GA_FRONT, MIN_MAX)


def test_sort_against_brute_force_random():
    rng = np.random.default_rng(17)
    pts = rng.integers(0, 8, size=(60, 2)).astype(float)
    got = ranks_of(pts, MIN_MIN).tolist()
    assert got == brute_force_ranks([tuple(p) for p in pts], MIN_MIN)


def rank_cases(count=40, seed=31):
    """Two-objective inputs rich in ties: integer grids, exact duplicates, +-inf,
    zeros of either sign, one row and no rows."""
    rng = np.random.default_rng(seed)
    cases = [np.array([[3.0, 4.0]]), np.array([[np.inf, -np.inf]]), np.empty((0, 2))]
    for k in range(count):
        values = rng.integers(0, 2 + k % 7, size=(1 + 3 * k, 2)).astype(float)
        if k % 4 == 1:
            values[rng.random(values.shape) < 0.15] = np.inf
            values[rng.random(values.shape) < 0.15] = -np.inf
        elif k % 4 == 2:
            values[(values == 0) & (rng.random(values.shape) < 0.5)] = -0.0
        elif k % 4 == 3:
            values = values[rng.integers(0, len(values), size=len(values))]
        cases.append(values)
    return cases


@pytest.mark.parametrize("senses", [MIN_MIN, MIN_MAX])
def test_ranks_equal_matrix_peel_and_brute_force(senses):
    # the brute force is the matrix peel of Deb et al., one pairwise test at a time
    for values in rank_cases():
        want = brute_force_ranks(values.tolist(), senses)
        assert ranks_of(values, senses).tolist() == want == mask_peel(values, senses).tolist()


KEY_ORDER_CASES = {
    "equal f1, other f2": [(1.0, 3.0), (1.0, 2.0), (0.0, 5.0), (1.0, 2.0), (1.0, -1.0)],
    "signed zeros": [(0.0, 1.0), (-0.0, 1.0), (0.0, -0.0), (-0.0, 0.0), (1.0, -0.0)],
    "infinities": [(np.inf, -np.inf), (-np.inf, np.inf), (-np.inf, -np.inf), (np.inf, np.inf),
                   (0.0, np.inf), (-np.inf, 0.0), (np.inf, -np.inf)],
    "infinite copies": [(np.inf, np.inf), (-np.inf, -np.inf), (np.inf, np.inf), (0.0, np.inf),
                        (-np.inf, -np.inf), (np.inf, 0.0), (np.inf, 0.0)],
    "exact copies": [(2.0, 2.0), (1.0, 3.0), (2.0, 2.0), (1.0, 3.0), (3.0, 1.0), (1.0, 3.0)],
}


@pytest.mark.parametrize("rows", [pytest.param(np.array(rows), id=name)
                                  for name, rows in KEY_ORDER_CASES.items()]
                         + [pytest.param(rows, id=f"ties-{k}")
                            for k, rows in enumerate(rank_cases(count=16))])
def test_complex_key_sorts_rows_as_lexsort(rows):
    # one stable sort of f1 + i f2 gives np.lexsort((f2, f1))'s order, and front
    # 0 is the rows of rank 0
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    sorted_rows, front = _sorted_front_zero(np.ascontiguousarray(rows))
    assert same_bits(sorted_rows, order)
    ranks = np.array(brute_force_ranks(rows.tolist(), MIN_MIN), dtype=int)
    assert same_bits(front, ranks[order] == 0)


@pytest.mark.parametrize("senses", [MIN_MIN, MIN_MAX])
def test_permuting_rows_permutes_ranks(senses):
    rng = np.random.default_rng(37)
    for values in rank_cases():
        perm = rng.permutation(len(values))
        assert np.array_equal(ranks_of(values[perm], senses), ranks_of(values, senses)[perm])


@pytest.mark.parametrize("senses", [MIN_MIN, MIN_MAX])
def test_swapping_the_objectives_leaves_ranks_unchanged(senses):
    for values in rank_cases():
        assert np.array_equal(ranks_of(values[:, ::-1], senses[::-1]), ranks_of(values, senses))


SENSE_PAIRS = [(a, b) for a in Sense for b in Sense]


@st.composite
def rows_and_keep(draw):
    """Rows rich in ties and exact copies, with +-inf elements and ones whose
    differences pass the float range, one of the four sense pairs and a keep
    count from 0 to the number of rows."""
    element = st.sampled_from([0.0, 1.0, 2.0, 3.0, 1e308, -1e308, np.inf, -np.inf])
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        copy = rows and draw(st.booleans())
        rows.append(draw(st.sampled_from(rows)) if copy else draw(st.tuples(element, element)))
    values = np.array(rows, dtype=float).reshape(-1, 2)
    return values, draw(st.sampled_from(SENSE_PAIRS)), draw(st.integers(0, len(values)))


@settings(max_examples=400, deadline=None)
@given(rows_and_keep())
def test_ranks_are_exact_below_the_cut(drawn):
    # the ranks are exact, and the survivors hold every row ranked below the
    # worst rank among them, each with its exact rank
    values, senses, keep = drawn
    full = np.array(brute_force_ranks(values.tolist(), senses), dtype=int)
    assert np.array_equal(ranks_of(values, senses), full)
    chosen, ranks = _survivors(min_form(values, senses), senses, keep)
    assert len(chosen) == len(set(chosen.tolist())) == keep
    assert np.array_equal(ranks, full[chosen])
    if keep:
        assert set(np.flatnonzero(full < ranks.max()).tolist()) <= set(chosen.tolist())


def reference_crowding(values):
    """Crowding distance one objective at a time, as a sort per front: an
    objective whose span is zero or not finite adds nothing."""
    n, n_obj = values.shape
    dist = np.zeros(n)
    for j in range(n_obj):
        order = np.argsort(values[:, j], kind="stable")
        lo, hi = values[order[0], j], values[order[-1], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            if not 0 < hi - lo < np.inf:
                continue
        dist[order[1:-1]] += (values[order[2:], j] - values[order[:-2], j]) / (hi - lo)
    return dist


def textbook_crowding(values, ranks):
    """Crowding distance of natural-unit rows, each rank by ``reference_crowding``."""
    crowd = np.zeros(len(values))
    for r in np.unique(ranks):
        crowd[ranks == r] = reference_crowding(values[ranks == r])
    return crowd


def survivors_by_full_ranking(values, senses, keep):
    """``_survivors`` as every row ranked by peeling, crowded by a sort per rank
    and objective and sorted, from natural-unit ``values``; no code of
    ``evolve`` takes part."""
    ranks = mask_peel(values, senses)
    # best-first by (rank, -crowding, index): lexsort is stable
    chosen = np.lexsort((-textbook_crowding(values, ranks), ranks))[:keep]
    return chosen, ranks[chosen]


@st.composite
def fronts_with_copies(draw):
    """Rows that are mostly one front, in the natural units of one of the four
    sense pairs: minimization forms on an integer anti-diagonal, some raised off
    it, exact copies, also of its end rows, zeros of either sign (which compare
    equal), and perhaps one element made +-inf or so large that a span passes
    the float range."""
    senses = draw(st.sampled_from(SENSE_PAIRS))
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        if rows and draw(st.integers(0, 3)) == 0:
            rows.append(draw(st.sampled_from(rows)))
        else:
            x = draw(st.integers(0, 6))
            rows.append((float(x), float(6 - x + draw(st.sampled_from([0, 0, 0, 1, 2])))))
    values = np.array(rows) * [s.sign for s in senses]
    flip_zero = draw(st.lists(st.booleans(), min_size=values.size, max_size=values.size))
    values = np.where((values == 0) & np.reshape(flip_zero, values.shape), -values, values)
    if draw(st.integers(0, 4)) == 0:
        values[draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 1))] = draw(
            st.sampled_from([np.inf, -np.inf, 1.7e308, -1.7e308]))
    return values, senses


@settings(max_examples=300, deadline=None)
@given(st.one_of(fronts_with_copies(), rows_and_keep().map(lambda drawn: drawn[:2])))
def test_survivors_equal_the_full_ranking_crowding_and_sort(drawn):
    values, senses = drawn
    for keep in range(1, len(values) + 1):
        chosen, ranks = _survivors(min_form(values, senses), senses, keep)
        want, want_ranks = survivors_by_full_ranking(values, senses, keep)
        assert same_bits(chosen, want) and same_bits(ranks, want_ranks), keep


def unread(*args):
    raise AssertionError("front 0 fills the survivors; no other rank is read")


def test_survivors_of_a_filling_front_zero_skip_the_full_ranking(monkeypatch):
    # one front with copies of its end rows and of an interior row, in a row order
    # that is not its f1 order, and rows past it: front 0 fills every keep, under
    # each pair of senses
    front = [(3.0, 3.0), (0.0, 6.0), (5.0, 1.0), (3.0, 3.0), (6.0, 0.0), (0.0, 6.0),
             (1.0, 4.0), (6.0, 0.0), (2.0, 3.5), (4.0, 2.0)]
    rows = np.array(front + [(4.0, 4.0), (6.0, 6.0)])
    wants = {senses: [survivors_by_full_ranking(min_form(rows, senses), senses, keep)
                      for keep in range(1, 11)] for senses in SENSE_PAIRS}
    monkeypatch.setattr(evolve, "_ranks_past_front_zero", unread)
    for senses in SENSE_PAIRS:
        for keep, (want, want_ranks) in zip(range(1, 11), wants[senses]):
            chosen, ranks = _survivors(rows, senses, keep)
            assert same_bits(chosen, want) and same_bits(ranks, want_ranks), (senses, keep)


def test_survivors_of_a_front_past_the_float_range_skip_the_full_ranking(monkeypatch):
    # minimization forms whose front 0 spans more than the float range in both
    # objectives: a span overflows to inf, and with it a gap, and each objective
    # adds nothing to an interior row, as in the full crowding, without a warning
    rows = np.array([(-1e308, 1e308), (-1.0, 2.0), (0.0, 0.0), (1e308, -1e308),
                     (-1.0, 2.0), (5.0, 6.0)])
    wants = {senses: [survivors_by_full_ranking(min_form(rows, senses), senses, keep)
                      for keep in range(1, 6)] for senses in SENSE_PAIRS}
    monkeypatch.setattr(evolve, "_ranks_past_front_zero", unread)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for senses in SENSE_PAIRS:
            for keep, (want, want_ranks) in zip(range(1, 6), wants[senses]):
                chosen, ranks = _survivors(rows, senses, keep)
                assert same_bits(chosen, want) and same_bits(ranks, want_ranks), (senses, keep)


def crowding_of(values, ranks, senses):
    """``_crowding`` of natural-unit rows of the given ranks, per row, laid out
    as ``_survivors`` lays them out: rank by rank, each in (f1, f2, index)
    order of the minimization forms."""
    v = min_form(values, senses)
    order = np.lexsort((v[:, 1], v[:, 0], ranks))
    dist = np.empty(len(values))
    dist[order] = _crowding(v[order], np.bincount(ranks), senses)
    return dist


def one_front_crowding(front, senses=MIN_MIN):
    """``_crowding`` of natural-unit rows that are one front, per row."""
    values = np.asarray(front, dtype=float)
    return crowding_of(values, np.zeros(len(values), dtype=int), senses)


def same_distances(a, b):
    """Bit for bit, but for the sign of a zero, which the selection sort does not
    see: -0.0 + 0.0 is 0.0, and adding 0.0 leaves every other value as it is."""
    return same_bits(a + 0.0, b + 0.0)


def test_crowding_two_points_infinite():
    dist = one_front_crowding([(1, 2), (2, 1)])
    assert np.isinf(dist).all()


def test_crowding_equally_spaced_middle():
    dist = one_front_crowding([(0, 4), (1, 5), (2, 6)], MIN_MAX)
    assert dist[1] == 2.0
    assert np.isinf(dist[0]) and np.isinf(dist[2])


def test_crowding_clustered_pair_smaller():
    front = [(0.0, 10.0), (4.0, 6.0), (9.0, 1.2), (10.0, 0.0)]
    dist = one_front_crowding(front)
    # (9 - 0) / 10 + (1.2 - 10) / (0 - 10), and (10 - 4) / 10 + (0 - 6) / (0 - 10)
    assert dist[1] == pytest.approx(1.78) and dist[2] == pytest.approx(1.2)


def test_crowding_constant_objective_ignored():
    # a front's copies span zero in both objectives; the kernel's zero span
    # adds nothing to an interior row whatever the other objective adds
    assert one_front_crowding([(2, 5), (2, 5), (2, 5)]).tolist() == [np.inf, 0.0, np.inf]
    dist = _crowding(np.array([(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]), (3,), MIN_MIN)
    assert dist.tolist() == [np.inf, 1.0, np.inf]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(pop_size=5),
        dict(pop_size=2),
        dict(crossover_prob=1.5),
        dict(mutation_prob=-0.1),
        dict(crossover_eta=0.0),
        dict(generations=-1),
        dict(mutation_eta=-1.0),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        GaConfig(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["crossover_prob", "crossover_eta", "mutation_prob", "mutation_eta"]
)
def test_config_rejects_nonfinite_floats(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GaConfig(**{name: value})


def _pow(base, e):
    # numpy's array power may take a SIMD path that rounds the last bit differently
    # from the scalar ``**``; the reference takes it on a one-element array
    return float(np.power(np.array([base]), e)[0])


def reference_sbx(p1, p2, coin, swap, u, prob, eta):
    """The crossover one gene at a time, in plain Python."""
    c1, c2 = p1.copy(), p2.copy()
    e = 1.0 / (eta + 1.0)
    for k in range(len(p1)):
        if coin[k] >= prob:
            continue
        for j in range(p1.shape[1]):
            if swap[k, j] >= 0.5:
                continue
            uk = u[k, j]
            beta = _pow(2.0 * uk, e) if uk <= 0.5 else _pow(1.0 / (2.0 * (1.0 - uk)), e)
            c1[k, j] = 0.5 * ((1.0 + beta) * p1[k, j] + (1.0 - beta) * p2[k, j])
            c2[k, j] = 0.5 * ((1.0 - beta) * p1[k, j] + (1.0 + beta) * p2[k, j])
    return c1, c2


def reference_mutate(children, coin, u, prob, eta):
    """The mutation one gene at a time, in plain Python."""
    out = children.copy()
    e = 1.0 / (eta + 1.0)
    for i, j in np.ndindex(children.shape):
        if coin[i, j] >= prob:
            continue
        ui = u[i, j]
        delta = _pow(2.0 * ui, e) - 1.0 if ui < 0.5 else 1.0 - _pow(2.0 * (1.0 - ui), e)
        out[i, j] += delta
    return out


def _sbx(parents, coin, swap, u, prob, eta):
    """Simulated binary crossover (Deb & Agrawal 1995) of one generation, with
    masked branches: rows 2k and 2k + 1 of ``parents`` are pair k, and rows 2k
    and 2k + 1 of the result its children. A pair crosses where its ``coin`` <
    ``prob``, and then each gene where its ``swap`` < 0.5, with the spread factor
    drawn from ``u``."""
    e = 1.0 / (eta + 1.0)
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** e
    cross = (coin[:, None] < prob) & (swap < 0.5)
    beta, cross = beta[:, None], cross[:, None]
    pairs = parents.reshape(len(coin), 2, -1)
    mirror = pairs[:, ::-1]
    children = np.where(cross, 0.5 * ((1.0 + beta) * pairs + (1.0 - beta) * mirror), pairs)
    return children.reshape(parents.shape)


def _mutate(children, coin, u, prob, eta):
    """Polynomial mutation (Deb & Goyal 1996) of one generation, with masked
    branches: each gene whose ``coin`` < ``prob`` moves by the perturbation
    drawn from ``u``."""
    e = 1.0 / (eta + 1.0)
    low = u < 0.5
    r = np.where(low, 2.0 * u, 2.0 * (1.0 - u)) ** e
    delta = np.where(low, r - 1.0, 1.0 - r)
    return np.where(coin < prob, children + delta, children)


def _uniforms(rng, shape):
    # random draws with the branch edges 0 and 0.5 and the largest draw below 1 mixed in
    u = rng.random(shape)
    u.flat[:3] = (0.0, 0.5, np.nextafter(1.0, 0.0))
    return u


def interleave(p1, p2):
    """Pair k's rows of ``p1`` and ``p2`` as rows 2k and 2k + 1, the layout of
    ``_sbx``'s parents and children."""
    return np.stack([p1, p2], axis=1).reshape(-1, p1.shape[1])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class ScriptedDraws:
    """Stands in for the generator that ``_variation`` draws from: hands out the
    given permutations and rows of uniforms, in the order they are asked for. A
    permutation is drawn by shuffling ``arange(n)``, as ``Generator.permutation``
    does."""

    def __init__(self, permutations, rows):
        self.permutations, self.rows = iter(permutations), iter(rows)

    def shuffle(self, row):
        assert same_bits(row, np.arange(len(row)))
        row[:] = next(self.permutations)

    def random(self, *, out):
        out[:] = next(self.rows)


def draw_row(cross_coin, swap, u_sbx, mut_coin, u_mut):
    """One generation's row of uniforms: the five per-generation draws of
    ``textbook_nsga2``, in their order."""
    return np.concatenate([a.ravel() for a in (cross_coin, swap, u_sbx, mut_coin, u_mut)])


def children_of_the_block(pop, config, permutations, rows):
    """Each generation's children of ``pop`` from ``_variation`` over the scripted
    draws and ``_offspring``, before clipping."""
    picks = np.tile(np.arange(config.pop_size), (len(rows), 2, 1))
    draws = np.empty((len(rows), len(rows[0])))
    block = _variation(ScriptedDraws(permutations, rows), config, picks, draws)
    return [_offspring(pop, *generation) for generation in zip(*block)]


def test_array_sbx_and_mutation_match_per_gene_reference():
    # three generations of one block, and the per-generation operators that
    # textbook_nsga2 takes as its oracle, gene by gene against plain Python
    rng = np.random.default_rng(11)
    half = 40
    config = GaConfig(pop_size=2 * half)
    pop = rng.random((2 * half, 3))
    permutations, rows, wants = [], [], []
    for _ in range(3):
        idx_a, idx_b = rng.permutation(2 * half), rng.permutation(2 * half)
        coin, swap, u = rng.random(half), _uniforms(rng, (half, 3)), _uniforms(rng, (half, 3))
        coin[:2] = (0.9, np.nextafter(0.9, 1.0))
        swap.flat[3] = 0.5
        m_coin, m_u = _uniforms(rng, (2 * half, 3)), _uniforms(rng, (2 * half, 3))
        m_coin.flat[3] = 1.0 / 3.0
        parents = pop[np.minimum(idx_a, idx_b)]
        p1, p2 = parents[0::2], parents[1::2]

        children = _sbx(parents, coin, swap, u, 0.9, 15.0)
        r1, r2 = reference_sbx(p1, p2, coin, swap, u, 0.9, 15.0)
        assert same_bits(children[0::2], r1) and same_bits(children[1::2], r2)
        assert not np.array_equal(children[0::2], p1)
        mutated = _mutate(children, m_coin, m_u, 1.0 / 3.0, 20.0)
        assert same_bits(mutated, reference_mutate(children, m_coin, m_u, 1.0 / 3.0, 20.0))
        assert not np.array_equal(mutated, children)

        permutations += [idx_a, idx_b]
        rows.append(draw_row(coin, swap, u, m_coin, m_u))
        wants.append(mutated)
    for got, want in zip(children_of_the_block(pop, config, permutations, rows), wants):
        assert same_bits(got, want)


def test_sbx_preserves_each_gene_pair_sum():
    rng = np.random.default_rng(5)
    p1, p2 = rng.random((60, 3)), rng.random((60, 3))
    coin, swap, u = rng.random(60), rng.random((60, 3)), _uniforms(rng, (60, 3))
    mutation = np.repeat(u, 2, axis=0)
    config = GaConfig(pop_size=120, crossover_prob=1.0, mutation_prob=0.0)
    # equal permutations make every parent its own tournament's winner
    permutations = [np.arange(120)] * 2
    rows = [draw_row(coin, swap, u, mutation, mutation)]
    [children] = children_of_the_block(interleave(p1, p2), config, permutations, rows)
    c1, c2 = children[0::2], children[1::2]
    assert not np.array_equal(c1, p1)
    np.testing.assert_allclose(c1 + c2, p1 + p2, rtol=0, atol=1e-14)


def test_no_crossover_and_no_mutation_copies_the_parents():
    rng = np.random.default_rng(6)
    pop = interleave(rng.random((60, 3)), rng.random((60, 3)))
    coin, swap, u = _uniforms(rng, 60), _uniforms(rng, (60, 3)), _uniforms(rng, (60, 3))
    config = GaConfig(pop_size=120, crossover_prob=0.0, mutation_prob=0.0)
    permutations = [rng.permutation(120), rng.permutation(120)]
    rows = [draw_row(coin, swap, u, np.repeat(swap, 2, axis=0), np.repeat(u, 2, axis=0))]
    [children] = children_of_the_block(pop, config, permutations, rows)
    assert same_bits(children, pop[np.minimum(*permutations)])


@pytest.mark.parametrize("pop_size", [4, 6, 60, 120])
def test_one_row_of_uniforms_is_the_five_draws_of_a_generation(pop_size):
    # PCG64 makes one double of each 64-bit output, so one call for a
    # generation's row reads the stream as its five draws do
    n, half = pop_size, pop_size // 2
    one, five = np.random.default_rng(pop_size), np.random.default_rng(pop_size)
    for _ in range(3):
        assert same_bits(one.permutation(n), five.permutation(n))
        row = np.empty(19 * half)
        one.random(out=row)
        draws = (five.random(half), five.random((half, 3)), five.random((half, 3)),
                 five.random((n, 3)), five.random((n, 3)))
        assert same_bits(row, draw_row(*draws))


def test_selection_order_breaks_ties_by_index():
    # rows 2 and 5 are copies inside front 0, as crowded as each other, and rows
    # 0 and 3 are rank 1's two ends
    values = np.array([(3.0, 5.0), (0.0, 4.0), (2.0, 2.0), (5.0, 3.0), (4.0, 0.0), (2.0, 2.0)])
    for senses in SENSE_PAIRS:
        chosen, ranks = _survivors(min_form(values, MIN_MIN), senses, 6)
        assert chosen.tolist() == [1, 4, 2, 5, 0, 3] and ranks.tolist() == [0, 0, 0, 0, 1, 1]


@pytest.mark.parametrize("senses", [MIN_MIN, MIN_MAX])
def test_survivors_keep_their_ranks(senses):
    # the best half in (rank, crowding) order holds every row that dominates one of
    # its rows, so ranking the survivors again gives the ranks they already have
    rng = np.random.default_rng(23)
    for values in filter(len, rank_cases(count=32, seed=23)):
        if len(values) % 2:
            values = np.vstack([values, values[rng.integers(len(values))]])
        chosen, ranks = _survivors(min_form(values, senses), senses, len(values) // 2)
        assert np.array_equal(ranks_of(values[chosen], senses), ranks)


def previous_crowding_by_rank(values, ranks):
    """The all-ranks crowding as it stood before its runs were laid out once per
    call: per objective, the run ends found from the sorted ranks, and each
    interior quotient added at its own index."""
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


def test_crowding_by_rank_matches_per_rank_crowding_bitwise():
    # every front crowded in one layout, as each front alone and as the sort per
    # rank and objective crowds it in natural units, under each pair of senses
    rng = np.random.default_rng(29)
    values = np.vstack([rng.integers(0, 6, size=(60, 2)).astype(float), rng.random((60, 2)),
                        np.full((3, 2), 0.25)])
    for senses in SENSE_PAIRS:
        ranks = mask_peel(values, senses)
        crowd = crowding_of(values, ranks, senses)
        for r in np.unique(ranks):
            mask = ranks == r
            assert same_distances(crowd[mask], one_front_crowding(values[mask], senses))
            assert same_distances(crowd[mask], reference_crowding(values[mask]))


@st.composite
def ranked_rows(draw):
    """Natural-unit rows under one of the four sense pairs: integer ties or
    floats, duplicate rows, perhaps a constant column, in a drawn row order."""
    senses = draw(st.sampled_from(SENSE_PAIRS))
    element = draw(st.sampled_from([st.integers(0, 3).map(float),
                                    st.floats(-1e3, 1e3, allow_nan=False)]))
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        duplicate = rows and draw(st.booleans())
        rows.append(draw(st.sampled_from(rows)) if duplicate
                    else draw(st.tuples(element, element)))
    values = np.array(rows, dtype=float)
    if draw(st.booleans()):
        values[:, draw(st.integers(0, 1))] = draw(element)
    return values, senses


@settings(max_examples=300, deadline=None)
@given(ranked_rows())
def test_crowding_by_rank_equals_per_rank_and_previous_crowding(drawn):
    values, senses = drawn
    ranks = mask_peel(values, senses)
    crowd = crowding_of(values, ranks, senses)
    assert same_distances(crowd, previous_crowding_by_rank(values, ranks))
    for r in np.unique(ranks):
        assert same_distances(crowd[ranks == r], reference_crowding(values[ranks == r]))


def test_crowding_of_an_infinite_span_adds_nothing_and_does_not_warn():
    # objective 2 spans [0, inf]: it adds nothing to the middle row, as a zero span
    # would; objective 1 gives it (2 - 0) / 2
    values = np.array([(0.0, np.inf), (1.0, 5.0), (2.0, 0.0)])
    # three fronts, minimization forms laid out: gaps and spans of inf inside
    # fronts 0 and 2, and a front of one row, whose span of 0 the quotient
    # across its two neighbours divides (2, inf) by
    fronts = np.array([(-np.inf, np.inf), (0.0, 2.0), (1.0, 1.0), (2.0, -np.inf),
                       (3.0, 3.0), (4.0, 6.0), (5.0, 5.0), (np.inf, 4.0)])
    assert mask_peel(fronts, MIN_MIN).tolist() == [0, 0, 0, 0, 1, 2, 2, 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert one_front_crowding(values).tolist() == [np.inf, 1.0, np.inf]
        crowd = _crowding(fronts, (4, 1, 3), MIN_MIN)
    assert crowd.tolist() == [np.inf, 0.0, 0.0, np.inf, np.inf, np.inf, 1.0, np.inf]


def test_ga_is_deterministic(problem):
    cfg = GaConfig(pop_size=12, generations=10, seed=5)
    a = run_ga(problem, cfg)
    b = run_ga(problem, cfg)
    assert a.front.points == b.front.points
    assert a.counters == b.counters


def test_ga_zero_generations_returns_initial_nondominated(problem):
    cfg = GaConfig(pop_size=4, generations=0, seed=9)
    res = run_ga(problem, cfg)
    assert res.counters.function_evals == 4 * 1 * 2
    assert res.counters.iterations == 0

    lb = np.array(CASE_STUDY_BOUNDS.lower)
    span = np.array(CASE_STUDY_BOUNDS.span)
    # the unit cube's corners overwrite the first rows of the uniform draw, so a
    # population of 4 is the corners (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)
    unit = np.array(list(itertools.product((0.0, 1.0), repeat=3))[:4])
    x = lb + unit * span
    resp = np.column_stack([evaluate(o.model, x) for o in problem.objectives])
    ranks = brute_force_ranks([tuple(r) for r in resp], MIN_MAX)
    expected = {tuple(resp[i]) for i in range(4) if ranks[i] == 0}
    assert {p.responses for p in res.front.points} == expected


def mask_peel(values, senses):
    """Ranks by peeling: the rows that some unranked row dominates go up a rank."""
    ranks = np.zeros(len(values), dtype=int)
    rows = np.arange(len(values))
    while rows.size:
        dominated = dominated_mask(values[rows], senses)
        ranks[rows] += dominated
        rows = rows[dominated]
    return ranks


@pytest.mark.parametrize("pop_size", [60, 120])
def test_ga_equals_the_dominance_matrix_path(problem, pop_size, monkeypatch):
    configs = [GaConfig(pop_size=pop_size, seed=seed) for seed in range(6)]

    def survivors_by_peeling(values, senses, keep):
        # run_ga ranks minimization forms; crowding is taken in natural units
        return survivors_by_full_ranking(min_form(values, senses), senses, keep)

    by_sort = [run_ga(problem, cfg) for cfg in configs]
    monkeypatch.setattr(evolve, "_survivors", survivors_by_peeling)
    by_matrix = [run_ga(problem, cfg) for cfg in configs]
    for a, b in zip(by_sort, by_matrix):
        assert a.front == b.front
        assert a.counters == b.counters


def textbook_nsga2(problem, config):
    """One NSGA-II run as published (Deb, Pratap, Agarwal & Meyarivan, IEEE TEC
    6:182, 2002), the reference for ``run_ga``, with no ranking, crowding or
    selection code of ``evolve``: each pair of the binary tournament is decided
    by the crowded-comparison operator, read as positions in the (rank,
    -crowding, index) order of the population, and P_{t+1} keeps the ranks and
    crowding its rows were given among the parents and children. Every front is
    ranked by peeling and crowded by a sort per rank and objective. P_0 is
    stored in crowded-comparison order, as every P_{t+1} is formed. Initial rows
    are the unit cube's corners, then uniform draws."""
    lb, span = np.asarray(CASE_STUDY_BOUNDS.lower), np.asarray(CASE_STUDY_BOUNDS.span)
    n, senses = config.pop_size, problem.senses
    rng = np.random.default_rng(config.seed)
    evals = 0

    def evaluate_rows(unit):
        nonlocal evals
        evals += unit.shape[0] * 2
        return problem.natural_values(lb + unit * span)

    pop = rng.random((n, 3))
    for i, corner in enumerate(itertools.product((0.0, 1.0), repeat=3)):
        if i < n:
            pop[i] = corner
    resp = evaluate_rows(pop)
    ranks = mask_peel(resp, senses)
    crowd = textbook_crowding(resp, ranks)
    order = np.lexsort((-crowd, ranks))
    pop, resp, ranks, crowd = pop[order], resp[order], ranks[order], crowd[order]
    for _ in range(config.generations):
        idx_a, idx_b = rng.permutation(n), rng.permutation(n)
        position = np.empty(n, dtype=int)
        position[np.lexsort((-crowd, ranks))] = np.arange(n)
        parents = [a if position[a] <= position[b] else b for a, b in zip(idx_a, idx_b)]
        half = n // 2
        cross_coin = rng.random(half)
        swap, u_sbx = rng.random((half, 3)), rng.random((half, 3))
        mut_coin, u_mut = rng.random((n, 3)), rng.random((n, 3))
        children = _sbx(pop[parents], cross_coin, swap, u_sbx,
                        config.crossover_prob, config.crossover_eta)
        children = _mutate(children, mut_coin, u_mut, config.mutation_prob, config.mutation_eta)
        children = np.clip(children, 0.0, 1.0)
        combined = np.vstack([pop, children])
        combined_resp = np.vstack([resp, evaluate_rows(children)])
        comb_ranks = mask_peel(combined_resp, senses)
        comb_crowd = textbook_crowding(combined_resp, comb_ranks)
        chosen = np.lexsort((-comb_crowd, comb_ranks))[:n]
        pop, resp = combined[chosen], combined_resp[chosen]
        ranks, crowd = comb_ranks[chosen], comb_crowd[chosen]
    points = [ParetoPoint(tuple(lb + pop[i] * span), tuple(resp[i]), "genetic_algorithm",
                          f"seed={config.seed}")
              for i in np.flatnonzero(ranks == 0)]
    return Front(tuple(filter_nondominated(points, senses)), senses), evals


def problem_with(refit_models, senses):
    """The case study's Ra and MRR models under ``senses``."""
    objectives = (Objective(m, s) for m, s in zip(refit_models, senses))
    return MooProblem(tuple(objectives), CASE_STUDY_BOUNDS)


# the command line minimizes Ra and maximizes MRR; minimizing both, or maximizing
# both, swaps the ends of runs of exact copies in one objective's crowding
@pytest.mark.parametrize("pop_size, senses", [
    *(pytest.param(pop_size, MIN_MAX, id=str(pop_size)) for pop_size in (4, 16, 60, 120)),
    *(pytest.param(pop_size, senses, id=f"{pop_size}-{name}")
      for pop_size in (16, 60) for name, senses in (("min-min", MIN_MIN), ("max-max", MAX_MAX))),
])
def test_ga_equals_textbook_nsga2(refit_models, pop_size, senses):
    problem = problem_with(refit_models, senses)
    configs = [GaConfig(pop_size=pop_size, seed=seed) for seed in range(6)]
    configs.append(GaConfig(pop_size=pop_size, crossover_prob=0.0, mutation_prob=0.0, seed=2))
    for cfg in configs:
        res = run_ga(problem, cfg)
        front, evals = textbook_nsga2(problem, cfg)
        assert res.front == front
        assert res.counters.iterations == cfg.generations
        assert res.counters.function_evals == evals == pop_size * (cfg.generations + 1) * 2


@pytest.mark.parametrize("senses", SENSE_PAIRS, ids=lambda senses: "-".join(s.value for s in senses))
def test_ga_front_responses_are_the_natural_values_of_its_points(refit_models, senses):
    # the GA ranks minimization forms and converts only its final front
    problem = problem_with(refit_models, senses)
    for seed in range(3):
        points = run_ga(problem, GaConfig(pop_size=16, generations=20, seed=seed)).front.points
        x = np.array([p.x for p in points])
        assert same_bits(np.array([p.responses for p in points]), problem.natural_values(x))


def block_of(pop_size):
    """The generations that ``run_ga`` draws and transforms at a time."""
    return max(1, 1024 // pop_size)


# pop 6 has an odd number of pairs; each run length ends a block early, on its
# last generation or just after it, or spans two blocks
@pytest.mark.parametrize("pop_size", [4, 6, 60])
@pytest.mark.parametrize("crossover_prob, mutation_prob", itertools.product(
    (0.0, 1.0, GaConfig.crossover_prob), (0.0, 1.0, GaConfig.mutation_prob)))
def test_ga_equals_textbook_nsga2_across_block_boundaries(
        problem, pop_size, crossover_prob, mutation_prob):
    block = block_of(pop_size)
    for generations in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        cfg = GaConfig(pop_size=pop_size, generations=generations, seed=generations,
                       crossover_prob=crossover_prob, mutation_prob=mutation_prob)
        res = run_ga(problem, cfg)
        front, evals = textbook_nsga2(problem, cfg)
        assert res.front == front, generations
        assert res.counters.iterations == generations
        assert res.counters.function_evals == evals


@pytest.mark.parametrize("pop_size, generations", [(4, 600), (60, 35), (120, 20), (1026, 3)])
def test_variation_is_drawn_a_bounded_block_at_a_time(problem, pop_size, generations,
                                                      monkeypatch):
    # however long or wide the run, no block holds more than 1024 rows of
    # draws, or one generation's when the population alone is wider; each
    # block's permutations are shuffled from arange(n)
    counts, variation = [], evolve._variation

    def variation_spy(rng, config, picks, draws):
        counts.append(len(draws))
        fresh = np.tile(np.arange(pop_size), (len(draws), 2, 1))
        assert same_bits(picks, fresh), "a block's permutations start from arange(n)"
        block = variation(rng, config, picks, draws)
        assert all(len(part) == len(draws) for part in block)
        return block

    monkeypatch.setattr(evolve, "_variation", variation_spy)
    run_ga(problem, GaConfig(pop_size=pop_size, generations=generations, seed=1))
    block = block_of(pop_size)
    assert len(counts) > 1 and sum(counts) == generations
    assert counts[:-1] == [block] * (len(counts) - 1) and 0 < counts[-1] <= block
    assert block * pop_size <= max(1024, pop_size)


def spy_on_survivors(monkeypatch):
    """Record each ``_survivors`` call's rows (minimization forms), keep count and
    survivors, and how many crowdings and rankings past front 0 it computed,
    from here on."""
    calls = []
    survivors = evolve._survivors
    crowding, ranking = evolve._crowding, evolve._ranks_past_front_zero

    def crowding_spy(*args):
        calls[-1]["crowdings"] += 1
        return crowding(*args)

    def ranking_spy(*args):
        calls[-1]["rankings"] += 1
        return ranking(*args)

    def survivors_spy(values, senses, keep):
        calls.append({"values": values.copy(), "keep": keep, "crowdings": 0, "rankings": 0})
        calls[-1]["chosen"], calls[-1]["ranks"] = survivors(values, senses, keep)
        return calls[-1]["chosen"], calls[-1]["ranks"]

    monkeypatch.setattr(evolve, "_crowding", crowding_spy)
    monkeypatch.setattr(evolve, "_ranks_past_front_zero", ranking_spy)
    monkeypatch.setattr(evolve, "_survivors", survivors_spy)
    return calls


@pytest.mark.parametrize("pop_size", [4, 60])
def test_each_population_is_best_first_and_crowded_once(problem, pop_size, monkeypatch):
    # one ranking per population formed, crowded at most once, whose survivors are
    # the best pop_size rows in crowded-comparison order; the rows of each
    # ranking's population are the survivors of the ranking before, in that order
    calls = spy_on_survivors(monkeypatch)
    res = run_ga(problem, GaConfig(pop_size=pop_size, seed=4))
    assert len(calls) == 101
    for call in calls:
        natural = min_form(call["values"], problem.senses)
        want, want_ranks = survivors_by_full_ranking(natural, problem.senses, pop_size)
        assert call["keep"] == pop_size and call["crowdings"] == 1 and call["rankings"] <= 1
        assert same_bits(call["chosen"], want) and same_bits(call["ranks"], want_ranks)
    for call, later in zip(calls, calls[1:]):
        assert same_bits(later["values"][:pop_size], call["values"][call["chosen"]])
    last = calls[-1]
    natural = min_form(last["values"], problem.senses)
    assert {p.responses for p in res.front.points} <= {tuple(natural[i]) for i in last["chosen"]}


@pytest.mark.parametrize("pop_size", [60, 120])
def test_front_zero_fills_most_generations(problem, pop_size, monkeypatch):
    # the fronts past front 0 are ranked only when front 0 cannot fill the next
    # population
    calls = spy_on_survivors(monkeypatch)
    for seed in range(6):
        calls.clear()
        run_ga(problem, GaConfig(pop_size=pop_size, seed=seed))
        assert len(calls) == 101
        assert sum(call["rankings"] for call in calls) <= 10


def test_ga_front_within_bounds(problem):
    res = run_ga(problem, GaConfig(pop_size=16, generations=15, seed=2))
    for p in res.front.points:
        assert CASE_STUDY_BOUNDS.contains(p.x)


def test_ga_counter_formula(problem):
    res = run_ga(problem, GaConfig(pop_size=8, generations=5, seed=0))
    assert res.counters.function_evals == 8 * (5 + 1) * 2
    assert res.counters.iterations == 5


def test_ga_elitism_never_worsens_extremes(problem):
    # a run of k generations is the prefix of a longer run with the same seed, so
    # the runs for k = 0..25 give the best front value of each generation
    signs = np.array([o.sign for o in problem.objectives])

    def extremes(k):
        front = run_ga(problem, GaConfig(pop_size=16, generations=k, seed=3)).front
        return (np.array([p.responses for p in front.points]) * signs).min(axis=0)

    history = np.array([extremes(k) for k in range(26)])
    assert np.all(np.diff(history, axis=0) <= 1e-12)


def test_ga_front_mutually_nondominated(problem):
    res = run_ga(problem, GaConfig(pop_size=20, generations=20, seed=4))
    resp = [p.responses for p in res.front.points]
    assert all(r == 0 for r in brute_force_ranks(resp, MIN_MAX))


def test_ga_seed_tag(problem):
    res = run_ga(problem, GaConfig(pop_size=4, generations=1, seed=42))
    assert all(p.tag == "seed=42" for p in res.front.points)
    assert all(p.method == "genetic_algorithm" for p in res.front.points)


def test_ga_reaches_the_ra_optimum(problem, utopia):
    # the box corners seeded into the initial population include the Ra optimum's
    ra_star = utopia.ideal[0]
    for seed in range(10):
        front = run_ga(problem, GaConfig(seed=seed)).front
        assert min(p.responses[0] for p in front.points) == pytest.approx(ra_star, abs=1e-6)
