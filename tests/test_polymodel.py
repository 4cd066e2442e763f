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

QUAD = PolyBasis.FULL_QUADRATIC_TRIPLE
LIN = PolyBasis.LINEAR_INTERACTION


def _jacobian_row(model, x):
    """The model's partial derivatives (..., 3), as the solver reads them."""
    return value_jacobian_hessian(model.stack, x)[1][..., 0, :]


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


@pytest.mark.parametrize("basis", list(PolyBasis))
def test_basis_eval_matches_exponent_table(basis):
    x = np.array([3.0, 5.0, 7.0])
    expected = [np.prod(x ** np.array(e)) for e in basis.exponents]
    assert basis_eval(basis, x).tolist() == expected


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
