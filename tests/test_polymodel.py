from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_forge import (
    CASE_STUDY_BOUNDS,
    ModelStack,
    PolyBasis,
    PolynomialModel,
    basis_eval,
    evaluate,
    published_model,
    published_pair,
    value_jacobian_hessian,
)
from pareto_forge.polymodel import stack_values

QUAD = PolyBasis.FULL_QUADRATIC_TRIPLE
LIN = PolyBasis.LINEAR_INTERACTION


def _jacobian_row(model, x):
    """The model's partial derivatives (..., 3), as the solver reads them."""
    return value_jacobian_hessian(ModelStack((model,)), x)[1][..., 0, :]


def test_basis_term_counts():
    assert LIN.n_terms == 7 and QUAD.n_terms == 11


def test_basis_eval_origin():
    out = basis_eval(QUAD, [0.0, 0.0, 0.0])
    assert out.tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]


def test_basis_eval_ones():
    assert basis_eval(QUAD, [1.0, 1.0, 1.0]).tolist() == [1.0] * 11


def test_basis_eval_linear_interaction():
    assert basis_eval(LIN, [2.0, 3.0, 4.0]).tolist() == [1, 2, 3, 4, 6, 8, 12]


def test_basis_eval_broadcasts():
    pts = np.array([[2.0, 3.0, 4.0], [0.0, 0.0, 0.0]])
    out = basis_eval(LIN, pts)
    assert out.shape == (2, 7)
    assert out[1].tolist() == [1, 0, 0, 0, 0, 0, 0]


def test_restricted_quadratic_basis_matches_linear():
    rng = np.random.default_rng(5)
    pts = rng.uniform([-10, -1, -1], [400, 1, 1], size=(50, 3))
    full = basis_eval(QUAD, pts)
    sub = full[:, [0, 1, 2, 3, 7, 8, 9]]
    assert np.array_equal(sub, basis_eval(LIN, pts))


def test_published_quadratic_ra_coefficients():
    m = published_model("ra_eq23")
    assert m.coefficients[0] == 3.082776
    assert m.coefficients[1] == -0.01425
    assert m.coefficients[4] == 1.85e-5
    assert m.response == "Ra"


def test_published_quadratic_mrr_coefficients():
    m = published_model("mrr_eq24")
    assert m.coefficients[10] == 1403.922


def test_published_linear_ra_coefficients():
    m = published_model("ra_eq21")
    assert len(m.coefficients) == 7
    assert m.coefficients[6] == 1.47321


def test_published_pair_lookup():
    ra, mrr = published_pair("eq21")
    assert (ra.response, mrr.response) == ("Ra", "MRR")
    with pytest.raises(ValueError, match="unknown model set"):
        published_pair("eq99")
    with pytest.raises(ValueError, match="unknown model key"):
        published_model("nope")


def test_evaluate_published_mrr_at_corner():
    m = published_model("mrr_eq24")
    assert abs(float(evaluate(m, [314, 0.16, 0.6])) - 35240.0) <= 2.0


def test_evaluate_published_ra_at_best_corner():
    # printed coefficients are rounded: this lands near 0.511, not the 0.5055 a
    # fresh refit gives, hence the wide tolerance
    m = published_model("ra_eq23")
    assert abs(float(evaluate(m, [314, 0.04, 0.2])) - 0.5055) <= 0.01


def test_zero_model_evaluates_to_zero():
    m = PolynomialModel(QUAD, (0.0,) * 11, "Ra")
    assert float(evaluate(m, [100.0, 0.1, 0.3])) == 0.0


def test_constant_model_gradient():
    m = PolynomialModel(QUAD, (7.0,) + (0.0,) * 10, "Ra")
    assert _jacobian_row(m, [100.0, 0.1, 0.3]).tolist() == [0.0, 0.0, 0.0]


def test_single_vc_coefficient_gradient():
    coeffs = [0.0] * 11
    coeffs[1] = 2.5
    m = PolynomialModel(QUAD, tuple(coeffs), "Ra")
    assert _jacobian_row(m, [100.0, 0.1, 0.3]).tolist() == [2.5, 0.0, 0.0]


def test_coefficient_count_enforced():
    with pytest.raises(ValueError, match="11 coefficients"):
        PolynomialModel(QUAD, (1.0,) * 7, "Ra")


def test_nonfinite_coefficient_rejected():
    with pytest.raises(ValueError, match="finite"):
        PolynomialModel(LIN, (np.nan,) + (0.0,) * 6, "Ra")


def _central_difference(model, x, step):
    fd = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = step[i]
        fd[i] = (float(evaluate(model, x + e)) - float(evaluate(model, x - e))) / (2 * step[i])
    return fd


def test_gradient_matches_finite_differences(refit_models):
    models = [published_model(k) for k in ("ra_eq21", "mrr_eq22", "ra_eq23", "mrr_eq24")]
    models += list(refit_models)
    lb = np.array(CASE_STUDY_BOUNDS.lower)
    span = np.array(CASE_STUDY_BOUNDS.span)
    step = 1e-5 * span
    rng = np.random.default_rng(42)
    pts = lb + rng.random((100, 3)) * span
    for model in models:
        for x in pts:
            an = _jacobian_row(model, x)
            fd = _central_difference(model, x, step)
            assert np.all(np.abs(fd - an) <= 1e-5 * np.maximum(1.0, np.abs(an)))


def test_refit_gradient_at_center_point(refit_models):
    ra_model, _ = refit_models
    x = np.array([157.0, 0.08, 0.4])
    step = 1e-5 * np.array(CASE_STUDY_BOUNDS.span)
    an = _jacobian_row(ra_model, x)
    fd = _central_difference(ra_model, x, step)
    assert np.all(np.abs(fd - an) <= 1e-5 * np.maximum(1.0, np.abs(an)))


coeff_strategy = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=11, max_size=11
)


@settings(max_examples=50, deadline=None)
@given(c1=coeff_strategy, c2=coeff_strategy,
       a=st.floats(-10, 10), b=st.floats(-10, 10),
       x=st.tuples(st.floats(0, 300), st.floats(0, 0.2), st.floats(0, 1)))
def test_evaluate_linear_in_coefficients(c1, c2, a, b, x):
    mixed = PolynomialModel(QUAD, tuple(a * u + b * v for u, v in zip(c1, c2)), "Ra")
    m1 = PolynomialModel(QUAD, tuple(c1), "Ra")
    m2 = PolynomialModel(QUAD, tuple(c2), "Ra")
    lhs = float(evaluate(mixed, x))
    rhs = a * float(evaluate(m1, x)) + b * float(evaluate(m2, x))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


@pytest.mark.parametrize("basis", list(PolyBasis))
def test_exponent_table_closed_under_differentiation(basis):
    table = set(basis.exponents)
    assert len(table) == basis.n_terms
    for e in basis.exponents:
        for v in range(3):
            if e[v]:
                assert tuple(ev - (w == v) for w, ev in enumerate(e)) in table, (e, v)


def _repeated_power(x: float, k: int) -> float:
    out = 1.0
    for _ in range(k):
        out *= x
    return out


@pytest.mark.parametrize("basis", list(PolyBasis))
def test_basis_eval_matches_exponent_table(basis):
    x = np.array([3.0, 5.0, 7.0])
    expected = [np.prod(x ** np.array(e)) for e in basis.exponents]
    assert basis_eval(basis, x).tolist() == expected
    # float points, where the products round: each monomial is (vc^a fz^b) t^c,
    # every power a repeated product, bit for bit
    rng = np.random.default_rng(43)
    for shape in [(3,), (17, 3), (4, 5, 3)]:
        pts = rng.uniform([-10, -1, -1], [400, 1, 1], size=shape)
        got = basis_eval(basis, pts)
        assert got.shape == shape[:-1] + (basis.n_terms,)
        for lead in np.ndindex(shape[:-1]):
            vc, fz, t = pts[lead].tolist()
            want = [(_repeated_power(vc, a) * _repeated_power(fz, b)) * _repeated_power(t, c)
                    for a, b, c in basis.exponents]
            assert got[lead].tobytes() == np.array(want).tobytes()


def _stack_pairs(refit_models):
    ra21, mrr22 = published_pair("eq21")
    ra23, mrr24 = published_pair("eq23")
    return [
        ModelStack(refit_models, (1.0, -1.0)),
        ModelStack((ra21, mrr22), (1.0, -1.0)),
        ModelStack((ra23, mrr24, ra21), (-1.0, 1.0, 1.0)),  # mixed bases: union table
    ]


def _box_points(n, seed):
    lb = np.array(CASE_STUDY_BOUNDS.lower)
    return lb + np.random.default_rng(seed).random((n, 3)) * np.array(CASE_STUDY_BOUNDS.span)


def test_value_and_jacobian_matches_central_differences(refit_models):
    step = 1e-5 * np.array(CASE_STUDY_BOUNDS.span)
    pts = _box_points(40, 9)
    for stack in _stack_pairs(refit_models):
        f, jac, _ = value_jacobian_hessian(stack, pts)
        assert f.shape == (40, stack.size) and jac.shape == (40, stack.size, 3)
        for v in range(3):
            e = np.zeros(3)
            e[v] = step[v]
            fd = (value_jacobian_hessian(stack, pts + e)[0]
                  - value_jacobian_hessian(stack, pts - e)[0]) / (2 * step[v])
            an = jac[..., v]
            assert np.all(np.abs(fd - an) <= 1e-5 * np.maximum(1.0, np.abs(an)))
        f0, jac0, _ = value_jacobian_hessian(stack, pts[0])
        assert f0.shape == (stack.size,) and jac0.shape == (stack.size, 3)


def test_value_and_jacobian_batch_equals_per_point(refit_models):
    pts = _box_points(25, 4)
    for stack in _stack_pairs(refit_models):
        f, jac, hess = value_jacobian_hessian(stack, pts)
        for i, x in enumerate(pts):
            fi, ji, hi = value_jacobian_hessian(stack, x)
            assert np.array_equal(f[i], fi) and np.array_equal(jac[i], ji)
            assert np.array_equal(hess[i], hi)


def test_one_model_rows_equal_their_column_of_the_stack(refit_models):
    # the value rows alone, one model for every point, or each point's own model:
    # the rows each point reads are the whole stack's, so the bits are its column's
    pts = _box_points(25, 8)
    at = np.arange(len(pts))
    for stack in _stack_pairs(refit_models):
        whole = value_jacobian_hessian(stack, pts)
        assert stack_values(stack, pts).tobytes() == whole[0].tobytes()
        assert stack_values(stack, pts[2]).tobytes() == whole[0][2].tobytes()
        pick = np.random.default_rng(2).integers(0, stack.size, len(pts))
        for model, rows in [(k, np.full(len(pts), k)) for k in range(stack.size)] + [(pick, pick)]:
            for got, want in zip(value_jacobian_hessian(stack, pts, model), whole):
                assert got.shape == want.shape[:1] + (1,) + want.shape[2:]
                assert got[:, 0].tobytes() == want[at, rows].tobytes()
        for k in range(stack.size):
            for got, want in zip(value_jacobian_hessian(stack, pts[4], k), whole):
                assert got.shape == (1,) + want.shape[2:]
                assert got[0].tobytes() == want[4, k].tobytes()


def test_hessian_rows_match_central_differences_of_the_jacobian(refit_models):
    step = 1e-5 * np.array(CASE_STUDY_BOUNDS.span)
    pts = _box_points(30, 11)
    for stack in _stack_pairs(refit_models):
        _, _, hess = value_jacobian_hessian(stack, pts)
        assert hess.shape == (30, stack.size, 3, 3)
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
        for v in range(3):
            e = np.zeros(3)
            e[v] = step[v]
            fd = (value_jacobian_hessian(stack, pts + e)[1]
                  - value_jacobian_hessian(stack, pts - e)[1]) / (2 * step[v])
            an = hess[..., v]
            assert np.all(np.abs(fd - an) <= 1e-5 * np.maximum(1.0, np.abs(an)))
        # one point: the same Hessians without the leading axis
        _, _, one = value_jacobian_hessian(stack, pts[3])
        assert one.shape == (stack.size, 3, 3) and np.array_equal(one, hess[3])


def test_stack_rows_equal_single_model_arithmetic(refit_models):
    ra, mrr = refit_models
    stack = ModelStack((ra, mrr), (1.0, -1.0))
    for x in _box_points(50, 6):
        f, jac, _ = value_jacobian_hessian(stack, x)
        assert f[0] == evaluate(ra, x) and f[1] == -evaluate(mrr, x)
        assert np.array_equal(jac[0], _jacobian_row(ra, x))
        assert np.array_equal(jac[1], -_jacobian_row(mrr, x))
    pts = _box_points(50, 7)
    assert np.array_equal(evaluate(ra, pts), [evaluate(ra, x) for x in pts])


def test_stack_needs_one_sign_per_model(refit_models):
    with pytest.raises(ValueError, match="one sign per model"):
        ModelStack(refit_models, (1.0,))


def _loop_matrix(models, signs):
    """The stack matrix placed one coefficient at a time, the oracle of the cached
    placement table: c, c a and c a b written out per term, derivative and pair,
    ten rows a model."""
    pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

    def lower(e, v):
        return e[v], tuple(ev - (w == v) for w, ev in enumerate(e))

    exponents = tuple(dict.fromkeys(e for m in models for e in m.basis.exponents))
    rows = np.zeros((len(models), 10, len(exponents)))
    for i, (model, sign) in enumerate(zip(models, signs)):
        for c, e in zip(model.coefficients, model.basis.exponents):
            rows[i, 0, exponents.index(e)] = sign * c
            for v in range(3):
                a, lowered = lower(e, v)
                if a:
                    rows[i, 1 + v, exponents.index(lowered)] = sign * c * a
            for r, (v, w) in enumerate(pairs):
                a, lowered = lower(e, v)
                b, twice = lower(lowered, w)
                if a * b:
                    rows[i, 4 + r, exponents.index(twice)] = sign * c * a * b
    return rows.reshape(-1, len(exponents))


#: coefficients that make every written product differ in its last bits, and a -0.0
_ODD_QUAD = (1.0 / 3, -0.0, 2.0 / 7, -1e-300, 5e307, -3.1, 0.1, -0.7, 1e-5, 13.0, -2.0 / 9)
_ODD_LIN = (-0.0, 1.0 / 3, -2.0 / 7, 0.3, -1e307, 7.0 / 11, -0.0)


@pytest.mark.parametrize("models, signs", [
    ([PolynomialModel(LIN, _ODD_LIN, "Ra")], [1.0]),
    ([PolynomialModel(LIN, _ODD_LIN, "Ra")], [-1.0]),
    ([PolynomialModel(QUAD, _ODD_QUAD, "Ra")], [1.0]),
    ([PolynomialModel(QUAD, _ODD_QUAD, "Ra")], [-1.0]),
    ([PolynomialModel(LIN, _ODD_LIN, "Ra"), PolynomialModel(QUAD, _ODD_QUAD, "MRR")],
     [1.0, -1.0]),
    ([PolynomialModel(QUAD, _ODD_QUAD, "Ra"), PolynomialModel(LIN, _ODD_LIN, "MRR"),
      PolynomialModel(QUAD, tuple(-c for c in _ODD_QUAD), "Ra")], [-1.0, 1.0, -1.0]),
    (list(published_pair("eq23")), [1.0, -1.0]),
    (list(published_pair("eq21")), [-1.0, 1.0]),
], ids=["lin+", "lin-", "quad+", "quad-", "mixed", "mixed3", "eq23", "eq21"])
def test_stack_layout_equals_the_written_out_placement(models, signs):
    stack = ModelStack(models, signs)
    want = _loop_matrix(models, signs)
    assert stack.matrix.tobytes() == want.tobytes()
    # the signs of zeros are bits too: a -0.0 coefficient times +1 stays -0.0
    assert np.array_equal(np.signbit(stack.matrix), np.signbit(want))


def test_stack_layout_of_the_refit_pair(refit_models):
    signs = [1.0, -1.0]
    stack = ModelStack(refit_models, signs)
    assert stack.matrix.tobytes() == _loop_matrix(refit_models, signs).tobytes()
    for model in refit_models:
        assert ModelStack([model]).matrix.tobytes() == _loop_matrix([model], [1.0]).tobytes()


def test_stack_layout_of_a_cubic_table():
    # the shipped bases have at most squares, so every second factor b is 1 there;
    # vc^3 (a = 3, b = 2) and vc^2 fz (a = 2, b = 1) exercise both factors
    exponents = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (3, 0, 0), (2, 1, 0))
    cubic = SimpleNamespace(basis=SimpleNamespace(exponents=exponents),
                            coefficients=(0.5, -0.0, 1.0 / 3, -2.0 / 7, 0.1, 5.0 / 9, -1.0 / 11))
    stack = ModelStack([cubic], [-1.0])
    want = _loop_matrix([cubic], [-1.0])
    assert stack.matrix.tobytes() == want.tobytes()
    # d2/dvc2 of c vc^3 is 6 c vc: the vc slot of the first second-partial row
    assert stack.matrix[4, 1] == -6 * (5.0 / 9)
