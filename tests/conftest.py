import numpy as np
import pytest

from pareto_forge import (
    CASE_STUDY_BOUNDS,
    MooProblem,
    Objective,
    PolyBasis,
    Sense,
    SolverConfig,
    builtin_case_study,
    fit_ols,
    individual_optima,
)
from pareto_forge.polymodel import HESS_COL, HESS_ROW


def pack(value, grad, hess):
    """The jets (..., 10) of values, gradients and 3x3 Hessians that broadcast
    together: the solver's layout, which keeps each Hessian's lower triangle."""
    value, grad, hess = (np.asarray(a, dtype=float) for a in (value, grad, hess))
    out = np.empty(np.broadcast_shapes(value.shape, grad.shape[:-1], hess.shape[:-2]) + (10,))
    out[..., 0], out[..., 1:4], out[..., 4:] = value, grad, hess[..., HESS_ROW, HESS_COL]
    return out


def packed(vg):
    """A callback that returns (value, gradient, Hessian), as one that returns their jets."""
    return lambda rows, x: pack(*vg(rows, x))


@pytest.fixture(scope="session")
def records():
    return builtin_case_study()


@pytest.fixture(scope="session")
def refit_models(records):
    ra = fit_ols(records, PolyBasis.FULL_QUADRATIC_TRIPLE, "ra").model
    mrr = fit_ols(records, PolyBasis.FULL_QUADRATIC_TRIPLE, "mrr").model
    return ra, mrr


@pytest.fixture(scope="session")
def problem(refit_models):
    ra, mrr = refit_models
    return MooProblem(
        (Objective(ra, Sense.MINIMIZE), Objective(mrr, Sense.MAXIMIZE)),
        CASE_STUDY_BOUNDS,
    )


@pytest.fixture(scope="session")
def solver_config():
    return SolverConfig()


@pytest.fixture(scope="session")
def utopia(problem, solver_config):
    return individual_optima(problem, solver_config)


class GridOracle:
    """Uniform 201^3 evaluation of both refit models over the case-study box.

    The polynomial is written out term by term here, an arithmetic path
    independent of the package's stacked basis evaluation.
    """

    def __init__(self, ra_model, mrr_model, bounds, n=201):
        self.n = n
        self.axes = tuple(
            np.linspace(lo, hi, n) for lo, hi in zip(bounds.lower, bounds.upper)
        )
        vc = self.axes[0][:, None, None]
        fz = self.axes[1][None, :, None]
        t = self.axes[2][None, None, :]

        def quad(c):
            return (
                c[0] + c[1] * vc + c[2] * fz + c[3] * t
                + c[4] * vc * vc + c[5] * fz * fz + c[6] * t * t
                + c[7] * vc * fz + c[8] * vc * t + c[9] * fz * t
                + c[10] * vc * fz * t
            )

        self.ra = quad(ra_model.coefficients)
        self.mrr = quad(mrr_model.coefficients)

    def point_at(self, flat_index):
        i, j, k = np.unravel_index(int(flat_index), self.ra.shape)
        return np.array([self.axes[0][i], self.axes[1][j], self.axes[2][k]])


@pytest.fixture(scope="session")
def grid(refit_models):
    ra, mrr = refit_models
    return GridOracle(ra, mrr, CASE_STUDY_BOUNDS)
