#!/usr/bin/env python3
"""Quantify run-to-run variability of the genetic algorithm front.

Runs the GA on the builtin case study across a range of seeds and prints, per
seed, the front size and its extreme points, followed by the spread of those
extremes against the multistart solver's individual optima. Large spreads
justify the envelope-style (rather than point-exact) GA acceptance checks.

Usage: python scripts/ga_seed_study.py [n_seeds]
"""

import sys

from pareto_forge import (
    CASE_STUDY_BOUNDS,
    GaConfig,
    MooProblem,
    Objective,
    PolyBasis,
    Sense,
    builtin_case_study,
    fit_ols,
    individual_optima,
    run_ga,
)


def main(n_seeds: int = 10) -> int:
    records = builtin_case_study()
    ra = fit_ols(records, PolyBasis.FULL_QUADRATIC_TRIPLE, "ra").model
    mrr = fit_ols(records, PolyBasis.FULL_QUADRATIC_TRIPLE, "mrr").model
    problem = MooProblem(
        (Objective(ra, Sense.MINIMIZE), Objective(mrr, Sense.MAXIMIZE)),
        CASE_STUDY_BOUNDS,
    )
    ideal = individual_optima(problem).ideal  # minimization form: MRR's entry is -MRR*
    ra_star, mrr_star = ideal[0], -ideal[1]
    print(f"solver optima: Ra {ra_star:.4f}, MRR {mrr_star:.1f}")
    print(f"{'seed':>4} {'front':>5} {'Ra min':>8} {'MRR max':>10} "
          f"{'Ra gap %':>9} {'MRR gap %':>10} {'evals':>6}")
    ra_mins, mrr_maxs = [], []
    for seed in range(n_seeds):
        res = run_ga(problem, GaConfig(seed=seed))
        ra_min = min(p.responses[0] for p in res.front.points)
        mrr_max = max(p.responses[1] for p in res.front.points)
        ra_mins.append(ra_min)
        mrr_maxs.append(mrr_max)
        print(f"{seed:>4} {len(res.front.points):>5} {ra_min:>8.4f} {mrr_max:>10.1f} "
              f"{100 * (ra_min - ra_star) / ra_star:>9.3f} "
              f"{100 * (mrr_star - mrr_max) / mrr_star:>10.3f} "
              f"{res.counters.function_evals:>6}")
    print(f"\nspread over {n_seeds} seeds: "
          f"Ra min in [{min(ra_mins):.4f}, {max(ra_mins):.4f}], "
          f"MRR max in [{min(mrr_maxs):.1f}, {max(mrr_maxs):.1f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 10))
