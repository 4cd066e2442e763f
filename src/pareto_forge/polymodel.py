"""Polynomial response-surface models over (vc, fz, t), described by exponent tables.

A basis is a table of exponent triples (a, b, c), one per monomial vc^a fz^b t^c,
in fixed term order; term order is part of the contract, since coefficients
printed in the source study are shipped as fixtures. Each table is closed under
differentiation, so every partial derivative of a model is a model over the same
table, and a model's Jacobian is a fixed linear map of the basis vector. The
values, exact gradients and exact Hessians of m models therefore come from one
basis vector and one (10m, k) matrix (:class:`ModelStack`), ten rows a model, and
a point can read one model's rows alone. :func:`evaluate` stacks its one model
and reads the value row, with the same arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np


class PolyBasis(Enum):
    """Fixed monomial bases, identified by their JSON string value."""

    LINEAR_INTERACTION = "linear_interaction"
    FULL_QUADRATIC_TRIPLE = "full_quadratic_triple"

    @property
    def exponents(self) -> tuple[tuple[int, int, int], ...]:
        """One (vc, fz, t) exponent triple per term, in term order."""
        return _EXPONENTS[self]

    @property
    def n_terms(self) -> int:
        return len(self.exponents)


_EXPONENTS = {
    PolyBasis.LINEAR_INTERACTION: (
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
    ),
    PolyBasis.FULL_QUADRATIC_TRIPLE: (
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2),
        (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1),
    ),
}


class _Table:
    """Where each monomial's vc, fz and t powers sit in the powers [1, x, x^2, ...]."""

    def __init__(self, exponents: tuple[tuple[int, int, int], ...]):
        exps = np.array(exponents).reshape(-1, 3)
        self.degree = max(1, int(exps.max(initial=0)))
        self.gather = exps * 3 + np.arange(3)


def _basis(table: _Table, x) -> np.ndarray:
    """Monomial values, shape (..., k).

    Powers are repeated products, and each monomial multiplies its vc, fz and t
    powers left to right, by three gathers and two in-place products: the values
    equal the written-out products bit for bit.
    """
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    powers = np.empty(lead + (table.degree + 1, 3))
    powers[..., 0, :] = 1.0
    powers[..., 1, :] = x
    for d in range(2, table.degree + 1):
        np.multiply(powers[..., d - 1, :], x, out=powers[..., d, :])
    flat = powers.reshape(lead + (-1,))
    vc, fz, t = table.gather.T
    out = flat.take(vc, axis=-1)
    out *= flat.take(fz, axis=-1)
    out *= flat.take(t, axis=-1)
    return out


def basis_eval(basis: PolyBasis, x) -> np.ndarray:
    """Monomial values at ``x`` in fixed term order.

    ``x`` is an array of shape (..., 3); the result has shape (..., n_terms), so
    whole grids of design points can be evaluated in one call.
    """
    return _basis(_Table(basis.exponents), x)


@dataclass(frozen=True)
class PolynomialModel:
    """A response model: coefficients over a fixed basis, plus response metadata."""

    basis: PolyBasis
    coefficients: tuple[float, ...]
    response: str
    units: str = ""

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) != self.basis.n_terms:
            raise ValueError(
                f"{self.basis.value} needs {self.basis.n_terms} coefficients, got {len(coeffs)}"
            )
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must all be finite")
        object.__setattr__(self, "coefficients", coeffs)


def evaluate(model: PolynomialModel, x):
    """Response value at ``x``: coefficients dotted with the basis monomials.

    Broadcasts like :func:`basis_eval`; a single 3-vector yields a scalar.
    """
    return np.take(_product(ModelStack((model,)), x, slice(0, 1)), 0, axis=-1)


#: (v, w) variable pairs of the six distinct second partials, in row order
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _lower(e: tuple[int, ...], v: int) -> tuple[float, tuple[int, ...]]:
    """d/dv of the monomial x^e: its factor e_v and exponents, a term of the table."""
    return e[v], tuple(ev - (w == v) for w, ev in enumerate(e))


@functools.cache
def _placement(exponents: tuple[tuple[int, int, int], ...],
               union: tuple[tuple[int, int, int], ...]) -> tuple[np.ndarray, ...]:
    """Where the coefficients of a model over ``exponents`` go in its (10, len(union))
    block of rows: (row, term, union slot, factor a, factor b) per nonzero entry.

    Row 0 takes c, row 1 + v the d/dv coefficient c a, and row 4 + r the second
    partial's c a b for the pair ``_PAIRS[r]``; unused factors are 1. Each (row,
    slot) appears at most once, since lowering an exponent is one to one.
    """
    entries = []
    for j, e in enumerate(exponents):
        entries.append((0, j, union.index(e), 1, 1))
        for v in range(3):
            a, lowered = _lower(e, v)
            if a:  # d/dv of c x^e is (c e_v) x^(e - unit v), a term of the table
                entries.append((1 + v, j, union.index(lowered), a, 1))
        for r, (v, w) in enumerate(_PAIRS):
            a, lowered = _lower(e, v)
            b, twice = _lower(lowered, w)
            if a * b:
                entries.append((4 + r, j, union.index(twice), a, b))
    row, term, slot, a, b = zip(*entries)
    arrays = (np.array(row), np.array(term), np.array(slot), np.array(a, dtype=float),
              np.array(b, dtype=float))
    for array in arrays:  # every stack over these tables shares them
        array.setflags(write=False)
    return arrays


class ModelStack:
    """m models over the union of their bases, evaluated together with exact
    Jacobians and Hessians.

    Each model is multiplied by its sign, exactly; -1 puts a maximized response in
    minimization form. ``matrix`` holds ten rows a model, model by model: its value
    row, its d/dvc, d/dfz and d/dt rows, then its six second-partial rows in
    ``_PAIRS`` order.
    """

    def __init__(self, models: Sequence[PolynomialModel], signs: Sequence[float] | None = None):
        signs = [1.0] * len(models) if signs is None else [float(s) for s in signs]
        if not models or len(signs) != len(models):
            raise ValueError(f"need one sign per model, got {len(signs)} for {len(models)}")
        exponents = tuple(dict.fromkeys(e for m in models for e in m.basis.exponents))
        self.table = _Table(exponents)
        self.size = len(models)
        k = len(exponents)
        rows = np.zeros((len(models), 10, k))
        for i, (model, sign) in enumerate(zip(models, signs)):
            row, term, slot, a, b = _placement(model.basis.exponents, exponents)
            # sign * c * a * b left to right, as the written-out products: multiplying
            # by a factor of 1 is exact, so each entry has the bits of its own product
            rows[i, row, slot] = sign * np.array(model.coefficients)[term] * a * b
        self.matrix = rows.reshape(-1, k)


def _product(stack: ModelStack, x, rows=slice(None)) -> np.ndarray:
    """``stack.matrix[rows]`` times the basis vector at ``x``, shape (..., n_rows);
    an index array of shape (..., n_rows) picks each point's own rows.

    An explicit multiply and row sum rather than BLAS: a row's sum then depends
    neither on the other rows nor on the number of points, so a value stacked over
    the model's own basis equals its :func:`evaluate` bit for bit.
    """
    phi = _basis(stack.table, x)
    return np.add.reduce(stack.matrix[rows] * phi[..., None, :], axis=-1)


#: where each entry of a symmetric 3x3 Hessian sits among its six distinct partials
_HESSIAN_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def stack_values(stack: ModelStack, x) -> np.ndarray:
    """Values f (..., m) of the models of ``stack`` at ``x``, without derivatives:
    the value rows of :func:`value_jacobian_hessian`, bit for bit."""
    return _product(stack, x, slice(0, None, 10))


def value_jacobian_hessian(stack: ModelStack, x, model=None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values f (..., m), Jacobian J (..., m, 3) and Hessians H (..., m, 3, 3) of the
    models of ``stack`` at ``x``: one basis evaluation and one matrix product per
    point serve all m models.

    With ``model``, one index for every point or one per point, each point
    evaluates that model's ten rows alone and m is 1; its results equal that
    model's column of the whole stack's, bit for bit.
    """
    if model is None:
        rows = slice(None)
    elif np.ndim(model):
        rows = 10 * np.asarray(model)[..., None] + np.arange(10)
    else:
        rows = slice(10 * model, 10 * model + 10)
    out = _product(stack, x, rows)
    out = out.reshape(out.shape[:-1] + (-1, 10))
    return out[..., 0], out[..., 1:4], out[..., 4:][..., _HESSIAN_INDEX]


# Fixed-coefficient models exactly as printed in the source study. The 7-term pair
# ("eq21"/"eq22") is the baseline taken over from the original milling experiment;
# the 11-term pair ("eq23"/"eq24") is the improved quadratic fit. Printed values are
# rounded, so the 11-term pair differs slightly from a fresh refit of the same data.
_PUBLISHED: Mapping[str, tuple[PolyBasis, tuple[float, ...], str, str]] = {
    "ra_eq21": (
        PolyBasis.LINEAR_INTERACTION,
        (2.65599, -0.00726733, 1.70439, -0.012765, -0.00273646, 0.000505119, 1.47321),
        "Ra",
        "um",
    ),
    "mrr_eq22": (
        PolyBasis.LINEAR_INTERACTION,
        (7927.21, -43.31, -84934.4, -19818.0, 464.12, 108.295, 212917.0),
        "MRR",
        "mm^3/min",
    ),
    "ra_eq23": (
        PolyBasis.FULL_QUADRATIC_TRIPLE,
        (3.082776, -0.01425, 4.330794, 0.465279, 1.85e-05, -5.78704, -0.15278,
         -0.00862, -0.00142, -2.73511, 0.018687),
        "Ra",
        "um",
    ),
    "mrr_eq24": (
        PolyBasis.FULL_QUADRATIC_TRIPLE,
        (-2345.09, 10.37705, 24983.71, 7079.912, -0.01672, -34722.2, -4166.67,
         -64.9643, -13.6425, -66322.5, 1403.922),
        "MRR",
        "mm^3/min",
    ),
}

_PUBLISHED_PAIRS = {
    "eq21": ("ra_eq21", "mrr_eq22"),
    "eq23": ("ra_eq23", "mrr_eq24"),
}


def published_model(key: str) -> PolynomialModel:
    """One of the fixed-coefficient models: ra_eq21, mrr_eq22, ra_eq23 or mrr_eq24."""
    try:
        basis, coeffs, response, units = _PUBLISHED[key]
    except KeyError:
        raise ValueError(f"unknown model key {key!r}; expected one of {sorted(_PUBLISHED)}") from None
    return PolynomialModel(basis, coeffs, response, units)


def published_pair(set_key: str) -> tuple[PolynomialModel, PolynomialModel]:
    """The (Ra, MRR) model pair for a published set: ``eq21`` or ``eq23``."""
    try:
        ra_key, mrr_key = _PUBLISHED_PAIRS[set_key]
    except KeyError:
        raise ValueError(f"unknown model set {set_key!r}; expected one of {sorted(_PUBLISHED_PAIRS)}") from None
    return published_model(ra_key), published_model(mrr_key)


def model_to_dict(model: PolynomialModel) -> dict:
    return {
        "basis": model.basis.value,
        "response": model.response,
        "units": model.units,
        "coefficients": list(model.coefficients),
    }
