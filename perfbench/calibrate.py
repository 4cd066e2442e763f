"""Fixed calibration loop that normalises iteration wall time to host speed.

On a shared host the speed of a piece of code drifts by tens of percent from
minute to minute, and code of different kinds drifts differently. The loop
therefore runs, in roughly equal parts, the three kinds of work the workloads
spend their time on: interpreted Python arithmetic, numpy broadcasting over a
few hundred points (as in dominance sorting), and small L-BFGS-B solves whose
objective is evaluated in Python (as in the multistart solver). It imports
nothing from ``pareto_forge``. Changing it (its work, its repetition counts)
changes every ``wall_rel`` and ``setup_s`` and is a benchmark change, not a
program change.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import minimize

PYTHON_REPS = 70_000
BROADCAST_REPS = 2
SOLVES = 4
#: The loop runs in rounds and reports the median round, so that one burst of
#: interference from another tenant does not decide the sample.
ROUNDS = 5

_POINTS = np.random.default_rng(0).random((240, 2))


def _python_part() -> float:
    acc = 0.0
    for k in range(PYTHON_REPS):
        acc += (k % 7) * 0.5 - acc * 1e-6
    return acc


def _broadcast_part() -> int:
    dominated = 0
    for _ in range(BROADCAST_REPS):
        le = (_POINTS[:, None, :] <= _POINTS[None, :, :]).all(axis=2)
        lt = (_POINTS[:, None, :] < _POINTS[None, :, :]).any(axis=2)
        dominated += int((le & lt).any(axis=0).sum())
    return dominated


def _value_and_grad(x):
    a, b = 1.0 - x[0], x[1] - x[0] * x[0]
    f = a * a + 100.0 * b * b + (x[2] - 0.5) ** 2
    g = np.array([-2.0 * a - 400.0 * x[0] * b, 200.0 * b, 2.0 * (x[2] - 0.5)])
    return f, g


def _solver_part() -> float:
    total = 0.0
    for s in range(SOLVES):
        res = minimize(_value_and_grad, np.array([-0.5, 0.8, 0.05 * s]), jac=True,
                       method="L-BFGS-B", bounds=[(-2.0, 2.0)] * 3)
        total += float(res.fun)
    return total


def calibrate() -> int:
    """Run the fixed loop once; returns its median round time in nanoseconds."""
    rounds = []
    checksum = 0.0
    for _ in range(ROUNDS):
        t0 = time.perf_counter_ns()
        checksum += _python_part() + _broadcast_part() + _solver_part()
        rounds.append(time.perf_counter_ns() - t0)
    if checksum != checksum:  # consume the results; NaN would mean the loop changed
        raise RuntimeError("calibration loop produced NaN")
    return sorted(rounds)[ROUNDS // 2]
