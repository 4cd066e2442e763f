import math

import numpy as np
import pytest

from pareto_forge import (
    CASE_STUDY_BOUNDS,
    ConstraintSet,
    GaConfig,
    MooProblem,
    Objective,
    Sense,
    SmoothFunction,
    dominated_mask,
    evaluate,
    run_ga,
)
from pareto_forge import evolve
from pareto_forge.evolve import _crowding_by_rank, _mutate, _ranks, _sbx, _selection_order

MIN_MIN = (Sense.MINIMIZE, Sense.MINIMIZE)
MIN_MAX = (Sense.MINIMIZE, Sense.MAXIMIZE)
MIN_MAX_MIN = (Sense.MINIMIZE, Sense.MAXIMIZE, Sense.MINIMIZE)
MAX_MIN_MIN_MAX = (Sense.MAXIMIZE, Sense.MINIMIZE, Sense.MINIMIZE, Sense.MAXIMIZE)

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


def test_sort_of_three_objectives_against_brute_force():
    rng = np.random.default_rng(19)
    pts = rng.integers(0, 5, size=(70, 3)).astype(float)
    senses = (Sense.MINIMIZE, Sense.MAXIMIZE, Sense.MINIMIZE)
    assert _ranks(pts, senses).tolist() == brute_force_ranks(pts.tolist(), senses)


def rank_cases(m=2, count=40, seed=31):
    """m-objective inputs rich in ties: integer grids, exact duplicates, +-inf,
    NaN rows, one row and no rows."""
    rng = np.random.default_rng(seed)
    cases = [np.arange(3.0, 3.0 + m)[None], np.array([[np.nan] + [1.0] * (m - 1)]),
             np.empty((0, m))]
    for k in range(count):
        values = rng.integers(0, 2 + k % 7, size=(1 + 3 * k, m)).astype(float)
        if k % 4 == 1:
            values[rng.random(values.shape) < 0.15] = np.inf
            values[rng.random(values.shape) < 0.15] = -np.inf
        elif k % 4 == 2:
            values[rng.random(len(values)) < 0.2, rng.integers(0, m)] = np.nan
        elif k % 4 == 3:
            values = values[rng.integers(0, len(values), size=len(values))]
        cases.append(values)
    return cases


@pytest.mark.parametrize("senses", [MIN_MIN, MIN_MAX, MIN_MAX_MIN, MAX_MIN_MIN_MAX])
def test_ranks_equal_matrix_peel_and_brute_force(senses):
    # the brute force is the matrix peel of Deb et al., one pairwise test at a time
    for values in rank_cases(len(senses)):
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


def test_array_sbx_and_mutation_match_per_gene_reference():
    rng = np.random.default_rng(11)
    half = 40
    p1, p2 = rng.random((half, 3)), rng.random((half, 3))
    coin, swap, u = rng.random(half), _uniforms(rng, (half, 3)), _uniforms(rng, (half, 3))
    coin[:2] = (0.9, np.nextafter(0.9, 1.0))
    swap.flat[3] = 0.5
    c1, c2 = _sbx(p1, p2, coin, swap, u, 0.9, 15.0)
    r1, r2 = reference_sbx(p1, p2, coin, swap, u, 0.9, 15.0)
    assert np.array_equal(c1, r1) and np.array_equal(c2, r2)
    assert not np.array_equal(c1, p1)

    children = np.vstack([c1, c2])
    m_coin, m_u = _uniforms(rng, children.shape), _uniforms(rng, children.shape)
    m_coin.flat[3] = 1.0 / 3.0
    got = _mutate(children, m_coin, m_u, 1.0 / 3.0, 20.0)
    assert np.array_equal(got, reference_mutate(children, m_coin, m_u, 1.0 / 3.0, 20.0))
    assert not np.array_equal(got, children)


def test_sbx_preserves_each_gene_pair_sum():
    rng = np.random.default_rng(5)
    p1, p2 = rng.random((60, 3)), rng.random((60, 3))
    coin, swap, u = rng.random(60), rng.random((60, 3)), _uniforms(rng, (60, 3))
    c1, c2 = _sbx(p1, p2, coin, swap, u, 1.0, 15.0)
    c1, c2 = _mutate(c1, u, u, 0.0, 20.0), _mutate(c2, u, u, 0.0, 20.0)
    assert not np.array_equal(c1, p1)
    np.testing.assert_allclose(c1 + c2, p1 + p2, rtol=0, atol=1e-14)


def test_no_crossover_and_no_mutation_copies_the_parents():
    rng = np.random.default_rng(6)
    p1, p2 = rng.random((60, 3)), rng.random((60, 3))
    coin, swap, u = _uniforms(rng, 60), _uniforms(rng, (60, 3)), _uniforms(rng, (60, 3))
    c1, c2 = _sbx(p1, p2, coin, swap, u, 0.0, 15.0)
    c1, c2 = _mutate(c1, swap, u, 0.0, 20.0), _mutate(c2, swap, u, 0.0, 20.0)
    assert np.array_equal(c1, p1) and np.array_equal(c2, p2)


# the crowding of rows at +-inf is NaN (inf - inf); the ranks do not depend on it
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("senses", [MIN_MIN, MIN_MAX, MIN_MAX_MIN])
def test_survivors_keep_their_ranks(senses):
    # the best half in (rank, crowding) order holds every row that dominates one of
    # its rows, so ranking the survivors again gives the ranks they already have
    rng = np.random.default_rng(23)
    for values in filter(len, rank_cases(len(senses), count=32, seed=23)):
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


def test_crowding_by_rank_matches_per_rank_crowding_bitwise():
    rng = np.random.default_rng(29)
    values = np.vstack([rng.integers(0, 6, size=(60, 2)).astype(float), rng.random((60, 2)),
                        np.full((3, 2), 0.25)])
    ranks = _ranks(values, MIN_MAX)
    crowd = _crowding_by_rank(values, ranks)
    for r in np.unique(ranks):
        mask = ranks == r
        assert np.array_equal(crowd[mask], one_front_crowding(values[mask]))
        assert np.array_equal(crowd[mask], reference_crowding(values[mask]))


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
    unit = np.random.default_rng(9).random((4, 3))
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
    by_sort = [run_ga(problem, cfg) for cfg in configs]
    crowding = evolve._crowding_by_rank

    def crowding_of_peeled_ranks(values, ranks):
        # every ranking run_ga uses passes here, the survivors' kept ranks included
        assert np.array_equal(ranks, mask_peel(values, problem.senses))
        return crowding(values, ranks)

    monkeypatch.setattr(evolve, "_ranks", mask_peel)
    monkeypatch.setattr(evolve, "_crowding_by_rank", crowding_of_peeled_ranks)
    by_matrix = [run_ga(problem, cfg) for cfg in configs]
    for a, b in zip(by_sort, by_matrix):
        assert a.front == b.front
        assert a.counters == b.counters


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


def test_ga_rejects_nonbox_constraints(refit_models):
    ra, mrr = refit_models
    wall = SmoothFunction(lambda rows, x: (x[0] - 200.0, np.array([1.0, 0.0, 0.0])))
    problem = MooProblem(
        (Objective(ra, Sense.MINIMIZE), Objective(mrr, Sense.MAXIMIZE)),
        ConstraintSet(CASE_STUDY_BOUNDS, inequalities=(wall,)),
    )
    with pytest.raises(ValueError, match="box constraints only"):
        run_ga(problem, GaConfig(pop_size=4, generations=1))


def test_ga_seed_tag(problem):
    res = run_ga(problem, GaConfig(pop_size=4, generations=1, seed=42))
    assert all(p.tag == "seed=42" for p in res.front.points)
    assert all(p.method == "genetic_algorithm" for p in res.front.points)
