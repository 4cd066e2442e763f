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
    _crowding_by_rank,
    _mutate,
    _ranks,
    _sbx,
    _selection_order,
    _survivors,
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


def test_sort_simple_chain():
    assert _ranks(np.array([(1.0, 1.0), (2.0, 2.0)]), MIN_MIN).tolist() == [0, 1]


def test_sort_mutually_nondominated():
    assert _ranks(np.array([(1.0, 2.0), (2.0, 1.0)]), MIN_MIN).tolist() == [0, 0]


def test_sort_against_brute_force_on_study_front():
    got = _ranks(np.array(STUDY_GA_FRONT, dtype=float), MIN_MAX).tolist()
    assert got == brute_force_ranks(STUDY_GA_FRONT, MIN_MAX)


def test_sort_against_brute_force_random():
    rng = np.random.default_rng(17)
    pts = rng.integers(0, 8, size=(60, 2)).astype(float)
    got = _ranks(pts, MIN_MIN).tolist()
    assert got == brute_force_ranks([tuple(p) for p in pts], MIN_MIN)


def test_ranks_need_two_objectives():
    with pytest.raises(ValueError, match="exactly two objectives, got 3"):
        _ranks(np.zeros((4, 3)), MIN_MAX + (Sense.MINIMIZE,))


def rank_cases(count=40, seed=31):
    """Two-objective inputs rich in ties: integer grids, exact duplicates, +-inf,
    NaN rows, one row and no rows."""
    rng = np.random.default_rng(seed)
    cases = [np.array([[3.0, 4.0]]), np.array([[np.nan, 1.0]]), np.empty((0, 2))]
    for k in range(count):
        values = rng.integers(0, 2 + k % 7, size=(1 + 3 * k, 2)).astype(float)
        if k % 4 == 1:
            values[rng.random(values.shape) < 0.15] = np.inf
            values[rng.random(values.shape) < 0.15] = -np.inf
        elif k % 4 == 2:
            values[rng.random(len(values)) < 0.2, rng.integers(0, 2)] = np.nan
        elif k % 4 == 3:
            values = values[rng.integers(0, len(values), size=len(values))]
        cases.append(values)
    return cases


@pytest.mark.parametrize("senses", [MIN_MIN, MIN_MAX])
def test_ranks_equal_matrix_peel_and_brute_force(senses):
    # the brute force is the matrix peel of Deb et al., one pairwise test at a time
    for values in rank_cases():
        assert _ranks(values, senses).tolist() == brute_force_ranks(values.tolist(), senses)


@pytest.mark.parametrize("senses", [MIN_MIN, MIN_MAX])
def test_permuting_rows_permutes_ranks(senses):
    rng = np.random.default_rng(37)
    for values in rank_cases():
        perm = rng.permutation(len(values))
        assert np.array_equal(_ranks(values[perm], senses), _ranks(values, senses)[perm])


@pytest.mark.parametrize("senses", [MIN_MIN, MIN_MAX])
def test_swapping_the_objectives_leaves_ranks_unchanged(senses):
    for values in rank_cases():
        assert np.array_equal(_ranks(values[:, ::-1], senses[::-1]), _ranks(values, senses))


SENSE_PAIRS = [(a, b) for a in Sense for b in Sense]


@st.composite
def rows_and_keep(draw):
    """Rows rich in ties and exact copies, with +-inf and NaN elements, one of the
    four sense pairs and a keep count from 0 to the number of rows."""
    element = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf, -np.inf, np.nan])
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
    assert np.array_equal(_ranks(values, senses), full)
    chosen, ranks = _survivors(values, senses, keep)
    assert len(chosen) == len(set(chosen.tolist())) == keep
    assert np.array_equal(ranks, full[chosen])
    if keep:
        assert set(np.flatnonzero(full < ranks.max()).tolist()) <= set(chosen.tolist())


def survivors_by_full_ranking(values, senses, keep):
    """``_survivors`` as every row ranked, crowded and sorted."""
    ranks = _ranks(values, senses)
    chosen = _selection_order(ranks, _crowding_by_rank(values, ranks))[:keep]
    return chosen, ranks[chosen]


@st.composite
def fronts_with_copies(draw):
    """Rows that are mostly one front, in the natural units of one of the four
    sense pairs: minimization forms on an integer anti-diagonal, some raised off
    it, exact copies, zeros of either sign (which compare equal), and perhaps
    one element made +-inf or NaN."""
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
            st.sampled_from([np.inf, -np.inf, np.nan]))
    return values, senses


@settings(max_examples=300, deadline=None)
@given(st.one_of(fronts_with_copies(), rows_and_keep().map(lambda drawn: drawn[:2])))
def test_survivors_equal_the_full_ranking_crowding_and_sort(drawn):
    values, senses = drawn
    for keep in range(1, len(values) + 1):
        chosen, ranks = _survivors(values, senses, keep)
        want, want_ranks = survivors_by_full_ranking(values, senses, keep)
        assert same_bits(chosen, want) and same_bits(ranks, want_ranks), keep


def test_survivors_of_a_filling_front_zero_skip_the_full_ranking(monkeypatch):
    # one front with copies of its end rows and of an interior row, in a row order
    # that is not its f1 order, and rows past it: front 0 fills every keep
    front = [(3.0, 3.0), (0.0, 6.0), (5.0, 1.0), (3.0, 3.0), (6.0, 0.0), (0.0, 6.0),
             (1.0, 4.0), (6.0, 0.0), (2.0, 3.5), (4.0, 2.0)]
    senses = MIN_MAX
    values = np.array(front + [(4.0, 4.0), (6.0, 6.0)]) * [s.sign for s in senses]
    wants = [survivors_by_full_ranking(values, senses, keep) for keep in range(1, 11)]

    def unread(*args):
        raise AssertionError("front 0 fills the survivors; no other rank is read")

    monkeypatch.setattr(evolve, "_ranks_past_front_zero", unread)
    monkeypatch.setattr(evolve, "_crowding_by_rank", unread)
    for keep, (want, want_ranks) in zip(range(1, 11), wants):
        chosen, ranks = _survivors(values, senses, keep)
        assert same_bits(chosen, want) and same_bits(ranks, want_ranks)


def one_front_crowding(front):
    """Crowding distance over one front: every row at rank 0."""
    values = np.asarray(front, dtype=float)
    return _crowding_by_rank(values, np.zeros(len(values), dtype=int))


def test_crowding_two_points_infinite():
    dist = one_front_crowding([(1, 2), (2, 1)])
    assert np.isinf(dist).all()


def test_crowding_equally_spaced_middle():
    dist = one_front_crowding([(0, 4), (1, 5), (2, 6)])
    assert dist[1] == pytest.approx(2.0)
    assert np.isinf(dist[0]) and np.isinf(dist[2])


def test_crowding_clustered_pair_smaller():
    front = [(0.0, 10.0), (4.0, 6.0), (9.0, 1.2), (10.0, 0.0)]
    dist = one_front_crowding(front)
    assert dist[2] < dist[1]


def test_crowding_constant_objective_ignored():
    dist = one_front_crowding([(1, 5), (2, 5), (3, 5)])
    assert dist[1] == pytest.approx(1.0)


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


def test_array_sbx_and_mutation_match_per_gene_reference():
    rng = np.random.default_rng(11)
    half = 40
    p1, p2 = rng.random((half, 3)), rng.random((half, 3))
    coin, swap, u = rng.random(half), _uniforms(rng, (half, 3)), _uniforms(rng, (half, 3))
    coin[:2] = (0.9, np.nextafter(0.9, 1.0))
    swap.flat[3] = 0.5
    children = _sbx(interleave(p1, p2), coin, swap, u, 0.9, 15.0)
    r1, r2 = reference_sbx(p1, p2, coin, swap, u, 0.9, 15.0)
    assert same_bits(children[0::2], r1) and same_bits(children[1::2], r2)
    assert not np.array_equal(children[0::2], p1)

    m_coin, m_u = _uniforms(rng, children.shape), _uniforms(rng, children.shape)
    m_coin.flat[3] = 1.0 / 3.0
    got = _mutate(children, m_coin, m_u, 1.0 / 3.0, 20.0)
    assert same_bits(got, reference_mutate(children, m_coin, m_u, 1.0 / 3.0, 20.0))
    assert not np.array_equal(got, children)


def test_sbx_preserves_each_gene_pair_sum():
    rng = np.random.default_rng(5)
    p1, p2 = rng.random((60, 3)), rng.random((60, 3))
    coin, swap, u = rng.random(60), rng.random((60, 3)), _uniforms(rng, (60, 3))
    children = _sbx(interleave(p1, p2), coin, swap, u, 1.0, 15.0)
    children = _mutate(children, np.repeat(u, 2, axis=0), np.repeat(u, 2, axis=0), 0.0, 20.0)
    c1, c2 = children[0::2], children[1::2]
    assert not np.array_equal(c1, p1)
    np.testing.assert_allclose(c1 + c2, p1 + p2, rtol=0, atol=1e-14)


def test_no_crossover_and_no_mutation_copies_the_parents():
    rng = np.random.default_rng(6)
    parents = interleave(rng.random((60, 3)), rng.random((60, 3)))
    coin, swap, u = _uniforms(rng, 60), _uniforms(rng, (60, 3)), _uniforms(rng, (60, 3))
    children = _sbx(parents, coin, swap, u, 0.0, 15.0)
    children = _mutate(children, np.repeat(swap, 2, axis=0), np.repeat(u, 2, axis=0), 0.0, 20.0)
    assert same_bits(children, parents)


def test_selection_order_breaks_ties_by_index():
    ranks = np.array([1, 0, 0, 1, 0, 0])
    crowd = np.array([2.0, np.inf, 1.0, 2.0, np.inf, 1.0])
    assert _selection_order(ranks, crowd).tolist() == [1, 4, 2, 5, 0, 3]


@pytest.mark.parametrize("senses", [MIN_MIN, MIN_MAX])
def test_survivors_keep_their_ranks(senses):
    # the best half in (rank, crowding) order holds every row that dominates one of
    # its rows, so ranking the survivors again gives the ranks they already have
    rng = np.random.default_rng(23)
    for values in filter(len, rank_cases(count=32, seed=23)):
        if len(values) % 2:
            values = np.vstack([values, values[rng.integers(len(values))]])
        ranks = _ranks(values, senses)
        chosen = _selection_order(ranks, _crowding_by_rank(values, ranks))[:len(values) // 2]
        assert np.array_equal(_ranks(values[chosen], senses), ranks[chosen])


def reference_crowding(values):
    """Crowding distance one objective at a time, as a sort per front."""
    n, n_obj = values.shape
    dist = np.zeros(n)
    for j in range(n_obj):
        order = np.argsort(values[:, j], kind="stable")
        lo, hi = values[order[0], j], values[order[-1], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        if hi == lo:
            continue
        dist[order[1:-1]] += (values[order[2:], j] - values[order[:-2], j]) / (hi - lo)
    return dist


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
    rng = np.random.default_rng(29)
    values = np.vstack([rng.integers(0, 6, size=(60, 2)).astype(float), rng.random((60, 2)),
                        np.full((3, 2), 0.25)])
    ranks = _ranks(values, MIN_MAX)
    crowd = _crowding_by_rank(values, ranks)
    for r in np.unique(ranks):
        mask = ranks == r
        assert same_bits(crowd[mask], one_front_crowding(values[mask]))
        assert same_bits(crowd[mask], reference_crowding(values[mask]))


@st.composite
def ranked_rows(draw):
    """Rows of 2 or 3 objectives and their rank labels: integer ties or floats,
    duplicate rows, perhaps a constant column, ranks of one row or more, labels
    with gaps (only 0 and 3), all in a drawn row order."""
    m = draw(st.integers(2, 3))
    element = draw(st.sampled_from([st.integers(0, 3).map(float),
                                    st.floats(-1e3, 1e3, allow_nan=False)]))
    rows, ranks = [], []
    for label in draw(st.sampled_from([(0,), (0, 1), (0, 3), (2, 0, 1)])):
        for _ in range(draw(st.integers(1, 9))):
            duplicate = rows and draw(st.booleans())
            rows.append(draw(st.sampled_from(rows)) if duplicate
                        else draw(st.tuples(*[element] * m)))
            ranks.append(label)
    values = np.array(rows, dtype=float)
    if draw(st.booleans()):
        values[:, draw(st.integers(0, m - 1))] = draw(element)
    perm = np.array(draw(st.permutations(range(len(rows)))))
    return values[perm], np.array(ranks)[perm]


@settings(max_examples=300, deadline=None)
@given(ranked_rows())
def test_crowding_by_rank_equals_per_rank_and_previous_crowding(drawn):
    values, ranks = drawn
    crowd = _crowding_by_rank(values, ranks)
    assert same_bits(crowd, previous_crowding_by_rank(values, ranks))
    for r in np.unique(ranks):
        assert same_bits(crowd[ranks == r], reference_crowding(values[ranks == r]))


def test_crowding_of_an_infinite_span_adds_nothing_and_does_not_warn():
    # objective 2 spans [0, inf]: it adds nothing to the middle row, as a zero span
    # would; objective 1 gives it (2 - 0) / 2
    values = np.array([(0.0, np.inf), (1.0, 5.0), (2.0, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _crowding_by_rank(values, _ranks(values, MIN_MIN)).tolist() == [np.inf, 1.0, np.inf]
        # inf - inf inside rank 0, and across the boundary from rank 0 to rank 1
        values = np.array([(0.0, -np.inf), (1.0, np.inf), (2.0, np.inf), (3.0, np.inf),
                           (0.0, 1.0), (1.0, np.inf), (2.0, np.inf)])
        crowd = _crowding_by_rank(values, np.array([0, 0, 0, 0, 1, 1, 1]))
    assert crowd.tolist() == [np.inf, 2 / 3, 2 / 3, np.inf, np.inf, 1.0, np.inf]


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
    crowding = evolve._crowding_by_rank

    def crowding_of_peeled_ranks(values, ranks):
        # the generations whose front 0 cannot fill the next population rank
        # every row, and the initial population's ranking keeps all of its rows
        assert np.array_equal(ranks, mask_peel(values, problem.senses))
        return crowding(values, ranks)

    def survivors_by_peeling(values, senses, keep):
        ranks = mask_peel(values, senses)
        chosen = _selection_order(ranks, crowding(values, ranks))[:keep]
        return chosen, ranks[chosen]

    monkeypatch.setattr(evolve, "_crowding_by_rank", crowding_of_peeled_ranks)
    by_sort = [run_ga(problem, cfg) for cfg in configs]
    monkeypatch.setattr(evolve, "_survivors", survivors_by_peeling)
    by_matrix = [run_ga(problem, cfg) for cfg in configs]
    for a, b in zip(by_sort, by_matrix):
        assert a.front == b.front
        assert a.counters == b.counters


def textbook_nsga2(problem, config):
    """One NSGA-II run as published (Deb, Pratap, Agarwal & Meyarivan, IEEE TEC
    6:182, 2002), the reference for ``run_ga``: each pair of the binary tournament
    is decided by the crowded-comparison operator, read as positions in
    ``_selection_order`` of the population's ranks and crowding, and P_{t+1}
    keeps the ranks and crowding its rows were given among the parents and
    children. Every front is ranked. P_0 is stored in crowded-comparison order,
    as every P_{t+1} is formed. Initial rows are the unit cube's corners, then
    uniform draws."""
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
    ranks = _ranks(resp, senses)
    crowd = _crowding_by_rank(resp, ranks)
    order = _selection_order(ranks, crowd)
    pop, resp, ranks, crowd = pop[order], resp[order], ranks[order], crowd[order]
    for _ in range(config.generations):
        idx_a, idx_b = rng.permutation(n), rng.permutation(n)
        position = np.empty(n, dtype=int)
        position[_selection_order(ranks, crowd)] = np.arange(n)
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
        comb_ranks = _ranks(combined_resp, senses)
        comb_crowd = _crowding_by_rank(combined_resp, comb_ranks)
        chosen = _selection_order(comb_ranks, comb_crowd)[:n]
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
# both, ranks, crowds and sorts in full in every generation
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


def spy_on_survivors(monkeypatch):
    """Record each ``_survivors`` call's rows, keep count and survivors, and how
    many crowdings it computed, from here on."""
    calls = []
    survivors, crowding = evolve._survivors, evolve._crowding_by_rank

    def crowding_spy(values, ranks):
        calls[-1]["crowdings"] += 1
        return crowding(values, ranks)

    def survivors_spy(values, senses, keep):
        calls.append({"values": values.copy(), "keep": keep, "crowdings": 0})
        calls[-1]["chosen"], calls[-1]["ranks"] = survivors(values, senses, keep)
        return calls[-1]["chosen"], calls[-1]["ranks"]

    monkeypatch.setattr(evolve, "_crowding_by_rank", crowding_spy)
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
        want, want_ranks = survivors_by_full_ranking(call["values"], problem.senses, pop_size)
        assert call["keep"] == pop_size and call["crowdings"] <= 1
        assert same_bits(call["chosen"], want) and same_bits(call["ranks"], want_ranks)
    for call, later in zip(calls, calls[1:]):
        assert same_bits(later["values"][:pop_size], call["values"][call["chosen"]])
    last = calls[-1]
    assert {p.responses for p in res.front.points} <= {tuple(last["values"][i])
                                                       for i in last["chosen"]}


@pytest.mark.parametrize("pop_size", [60, 120])
def test_front_zero_fills_most_generations(problem, pop_size, monkeypatch):
    # the full ranking and crowding run only when front 0 cannot fill the next
    # population
    calls = spy_on_survivors(monkeypatch)
    for seed in range(6):
        calls.clear()
        run_ga(problem, GaConfig(pop_size=pop_size, seed=seed))
        assert len(calls) == 101
        assert sum(call["crowdings"] for call in calls) <= 10


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
