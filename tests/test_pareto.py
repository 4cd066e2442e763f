import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_forge import (
    Front,
    ParetoPoint,
    Sense,
    annotate_dominance,
    dominated_mask,
    dominates,
    filter_nondominated,
    merge_fronts,
    read_front_csv,
)
from pareto_forge import pareto
from pareto_forge.pareto import front_to_csv_text

MIN_MAX = (Sense.MINIMIZE, Sense.MAXIMIZE)
MIN_MIN = (Sense.MINIMIZE, Sense.MINIMIZE)


def pt(responses, method="m", tag="t", x=(100.0, 0.1, 0.3)):
    return ParetoPoint(x, tuple(responses), method, tag)


def test_dominates_basic():
    assert dominates((0.5, 10000), (0.6, 9000), MIN_MAX)
    assert not dominates((0.6, 9000), (0.5, 10000), MIN_MAX)


def test_equal_points_do_not_dominate():
    assert not dominates((0.5, 10000), (0.5, 10000), MIN_MAX)


def test_sweep_endpoints_mutually_nondominated():
    a, b = (0.5055, 2781.8), (0.7962, 35241.0)
    assert not dominates(a, b, MIN_MAX) and not dominates(b, a, MIN_MAX)


def test_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        dominates((1.0,), (1.0, 2.0), MIN_MAX)


def test_dominance_axioms_on_random_triples():
    rng = np.random.default_rng(12)
    senses = MIN_MAX
    for _ in range(1000):
        a, b, c = rng.integers(0, 4, size=(3, 2)).astype(float)
        assert not dominates(a, a, senses)
        if dominates(a, b, senses):
            assert not dominates(b, a, senses)
        if dominates(a, b, senses) and dominates(b, c, senses):
            assert dominates(a, c, senses)


def test_epsilon_band_suppresses_noise_domination():
    a, b = (0.79623000001, 35240.5349), (0.79622999999, 35240.5350)
    assert dominates(b, a, MIN_MAX)
    assert not dominates(b, a, MIN_MAX, eps=(1e-6, 1e-2))


def test_filter_empty():
    assert filter_nondominated([], MIN_MAX) == []


def test_filter_single_dominator():
    points = [pt((2, 2)), pt((1, 1)), pt((3, 5))]
    out = filter_nondominated(points, MIN_MIN)
    assert [p.responses for p in out] == [(1.0, 1.0)]


def test_filter_keeps_first_duplicate():
    points = [pt((1, 1), tag="first"), pt((1, 1), tag="second"), pt((0.5, 2), tag="other")]
    out = filter_nondominated(points, MIN_MIN)
    tags = [p.tag for p in out]
    assert "first" in tags and "second" not in tags and "other" in tags


def test_filter_preserves_order():
    points = [pt((3, 1), tag="a"), pt((1, 3), tag="b"), pt((2, 2), tag="c")]
    out = filter_nondominated(points, MIN_MIN)
    assert [p.tag for p in out] == ["a", "b", "c"]


responses_strategy = st.lists(
    st.tuples(st.integers(0, 5).map(float), st.integers(0, 5).map(float)),
    min_size=0,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(responses_strategy)
def test_filter_idempotent(resps):
    points = [pt(r, tag=str(i)) for i, r in enumerate(resps)]
    once = filter_nondominated(points, MIN_MAX)
    twice = filter_nondominated(once, MIN_MAX)
    assert [p.responses for p in once] == [p.responses for p in twice]


@settings(max_examples=80, deadline=None)
@given(resps=responses_strategy, seed=st.integers(0, 2 ** 16))
def test_filter_membership_permutation_invariant(resps, seed):
    points = [pt(r, tag=str(i)) for i, r in enumerate(resps)]
    rng = np.random.default_rng(seed)
    shuffled = [points[i] for i in rng.permutation(len(points))]
    a = {p.responses for p in filter_nondominated(points, MIN_MAX)}
    b = {p.responses for p in filter_nondominated(shuffled, MIN_MAX)}
    assert a == b


def test_filter_survivors_mutually_nondominated():
    rng = np.random.default_rng(8)
    points = [pt(tuple(v)) for v in rng.integers(0, 6, size=(40, 2)).astype(float)]
    out = filter_nondominated(points, MIN_MAX)
    for i, p in enumerate(out):
        for j, q in enumerate(out):
            if i != j:
                assert not dominates(p.responses, q.responses, MIN_MAX)


def test_annotate_keeps_everything():
    front = Front((pt((1, 5), tag="good"), pt((2, 4), tag="bad"), pt((0.5, 6), tag="best")), MIN_MAX)
    flagged = annotate_dominance(front)
    assert len(flagged.points) == 3
    assert [p.dominated for p in flagged.points] == [True, True, False]


def test_merge_single_front_filters():
    front = Front((pt((2, 2)), pt((1, 1))), MIN_MIN)
    merged = merge_fronts([front])
    assert {p.responses for p in merged.points} == {(1.0, 1.0)}


def test_merge_removes_cross_front_dominated():
    f1 = Front((pt((0.7962, 35241.0), method="lexicographic"),), MIN_MAX)
    f2 = Front((pt((0.9, 30000.0), method="weighted_sum"),), MIN_MAX)
    merged = merge_fronts([f1, f2])
    assert [p.method for p in merged.points] == ["lexicographic"]


def test_merge_preserves_labels():
    f1 = Front((pt((0.5, 2000.0), method="a"),), MIN_MAX)
    f2 = Front((pt((0.9, 35000.0), method="b"),), MIN_MAX)
    merged = merge_fronts([f1, f2])
    assert {p.method for p in merged.points} == {"a", "b"}


def test_merge_sense_mismatch():
    f1 = Front((pt((1, 1)),), MIN_MAX)
    f2 = Front((pt((1, 1)),), MIN_MIN)
    with pytest.raises(ValueError, match="sense mismatch"):
        merge_fronts([f1, f2])


def test_front_csv_roundtrip(tmp_path):
    front = Front(
        (
            ParetoPoint((314.0, 0.04, 0.2), (0.50547334, 2781.7523), "weighted_sum", "w=1"),
            ParetoPoint((314.0, 0.16, 0.6), (0.79623012, 35240.535), "weighted_sum", "w=0"),
        ),
        MIN_MAX,
    )
    path = tmp_path / "front.csv"
    path.write_text(front_to_csv_text(front), encoding="utf-8")
    text = path.read_text()
    assert text.splitlines()[0] == "method,param,vc,fz,t,ra,mrr"
    loaded = read_front_csv(path, MIN_MAX)
    for orig, back in zip(front.points, loaded.points):
        assert back.method == orig.method and back.tag == orig.tag
        assert np.allclose(back.x, orig.x, rtol=1e-9)
        assert np.allclose(back.responses, orig.responses, rtol=1e-9)


def test_front_csv_skips_infeasible(tmp_path):
    front = Front(
        (
            ParetoPoint((314.0, 0.04, 0.2), (0.5, 2781.0), "eps", "eps=0.4", feasible=False),
            ParetoPoint((314.0, 0.16, 0.6), (0.8, 35240.0), "eps", "eps=0.9"),
        ),
        MIN_MAX,
    )
    path = tmp_path / "front.csv"
    path.write_text(front_to_csv_text(front), encoding="utf-8")
    assert len(path.read_text().strip().splitlines()) == 2


@pytest.mark.parametrize("row,message", [
    ("eps,a,314,0.04,0.2,inf,2781", "row 2: values must be finite"),
    ("eps,a,314,0.04,0.2,0.5", "row 2 has 6 cells, expected 7"),
    ("eps,a,314,0.04,0.2,0.5,x", "row 2: values must be finite numbers"),
])
def test_read_front_csv_names_path_and_row(tmp_path, row, message):
    path = tmp_path / "front.csv"
    path.write_text(f"method,param,vc,fz,t,ra,mrr\neps,b,314,0.16,0.6,0.8,35240\n{row}\n")
    with pytest.raises(ValueError, match=f"{path}: {message}"):
        read_front_csv(path, MIN_MAX)


def test_front_senses_length_enforced():
    with pytest.raises(ValueError, match="responses"):
        Front((pt((1.0, 2.0, 3.0)),), MIN_MAX)


def _reference_filter(points, senses, eps):
    """The per-pair loop definition of filter_nondominated."""
    survivors, seen = [], set()
    for i, p in enumerate(points):
        if p.responses in seen:
            continue
        if any(dominates(q.responses, p.responses, senses, eps)
               for j, q in enumerate(points) if j != i):
            continue
        seen.add(p.responses)
        survivors.append(p)
    return survivors


@settings(max_examples=150, deadline=None)
@given(
    resps=st.lists(st.tuples(st.integers(0, 4).map(float), st.integers(0, 4).map(float)),
                   min_size=0, max_size=14),
    eps=st.sampled_from([0.0, 0.5, 1.0, (0.0, 1.5), (2.0, 0.0)]),
    senses=st.sampled_from([MIN_MAX, MIN_MIN]),
)
def test_dominance_kernel_matches_pairwise_reference(resps, eps, senses):
    points = [pt(r, tag=str(i)) for i, r in enumerate(resps)]
    values = np.array(resps, dtype=float).reshape(len(resps), 2)
    expected = [any(dominates(b, a, senses, eps) for j, b in enumerate(resps) if j != i)
                for i, a in enumerate(resps)]
    assert dominated_mask(values, senses, eps).tolist() == expected
    exact = [any(dominates(b, a, senses) for j, b in enumerate(resps) if j != i)
             for i, a in enumerate(resps)]
    flagged = annotate_dominance(Front(tuple(points), senses))
    assert [p.dominated for p in flagged.points] == exact
    assert ([p.tag for p in filter_nondominated(points, senses, eps)]
            == [p.tag for p in _reference_filter(points, senses, eps)])


def test_dominance_kernel_blocks_agree(monkeypatch):
    rng = np.random.default_rng(3)
    values = rng.integers(0, 20, size=(300, 2)).astype(float)
    whole = dominated_mask(values, MIN_MAX)
    v = values * [1.0, -1.0]  # [i, j]: row j dominates row i, as one matrix
    matrix = (v[None] <= v[:, None]).all(axis=2) & (v[None] < v[:, None]).any(axis=2)
    assert np.array_equal(matrix.any(axis=1), whole)
    monkeypatch.setattr(pareto, "DOMINANCE_BLOCK", 7)
    assert np.array_equal(dominated_mask(values, MIN_MAX), whole)


def test_dominance_kernel_shape_checked():
    with pytest.raises(ValueError, match="shape"):
        dominated_mask(np.zeros((3, 3)), MIN_MAX)
