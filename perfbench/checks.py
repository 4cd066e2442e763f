"""Output checks, one function per workload, plus the counter harvest.

Each check reads one iteration's output directory and returns a list of
failure messages; an empty list means the outputs are correct. The
``case_study_compare`` check is the published tables at the tolerances of
acceptance criteria 2 to 7 of the test suite; the other two compare the
outputs with the dense-grid reference and with an independent filter.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from reference import GridReference

RA_STAR, MRR_STAR = 0.5055, 35241.0
WS_TABLE = ((0.5055, 2781.8), (0.5149, 8559.0), (0.7962, 35241.0))
EPS_TABLE_TAIL = (0.7107, 0.9159, 1.1211, 1.3263, 1.5315, 1.7366, 1.9418,
                  2.1470, 2.3522, 2.5574)
ROUTINES = ("individual_optima", "global_criterion", "weighted_sum", "epsilon_constraint",
            "lexicographic", "ga")

#: Absolute Ra slack on an epsilon bound: ten times the solver's default
#: scaled feasibility tolerance.
EPS_RA_TOL = 1e-5
#: Relative slack of a solver answer against the grid, as in the acceptance oracle.
GRID_RTOL = 1e-3


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_front_rows(path: Path) -> list[tuple[str, str, tuple, tuple, str]]:
    """(method, tag, x, responses, raw line) per data row of a front CSV."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line in lines[1:]:
        if not line:
            continue
        method, tag, *nums = next(csv.reader([line]))
        values = tuple(float(v) for v in nums)
        rows.append((method, tag, values[:3], values[3:], line))
    return rows


def _min_form(responses) -> np.ndarray:
    """Ra is minimised and MRR maximised; both as minimisation columns."""
    return np.asarray(responses, dtype=float).reshape(-1, 2) * np.array([1.0, -1.0])


def _dominance(responses, eps=(0.0, 0.0)) -> np.ndarray:
    """dom[j, i]: point j dominates point i, with a per-objective equality band."""
    v = _min_form(responses)
    e = np.asarray(eps, dtype=float)
    le = (v[:, None, :] <= v[None, :, :] + e).all(axis=2)
    lt = (v[:, None, :] < v[None, :, :] - e).any(axis=2)
    dom = le & lt
    np.fill_diagonal(dom, False)
    return dom


def _in_box(x, bounds, tol=1e-12) -> bool:
    return all(lo - tol * (hi - lo) <= v <= hi + tol * (hi - lo)
               for v, lo, hi in zip(x, bounds.lower, bounds.upper))


def check_ga_outcome(path: Path, bounds, failures: list) -> np.ndarray:
    """GA points in bounds and mutually non-dominated; returns their responses."""
    points = load_json(path)["points"]
    resp = np.array([p["responses"] for p in points], dtype=float).reshape(-1, 2)
    if not points:
        failures.append(f"{path.parent.name}: empty GA front")
    for i, p in enumerate(points):
        if not _in_box(p["x"], bounds):
            failures.append(f"{path.parent.name}: GA point {i} out of bounds")
    if _dominance(resp).any():
        failures.append(f"{path.parent.name}: GA front has a dominated point")
    return resp


# -- case_study_compare -----------------------------------------------------

def _deviation_criterion(devs: np.ndarray, p: int) -> np.ndarray:
    m = devs.max(axis=1)
    safe = np.where(m > 0, m, 1.0)
    inner = (devs[:, 0] / safe) ** p + (devs[:, 1] / safe) ** p
    return np.where(m > 0, safe * inner ** (1.0 / p), 0.0)


def utopia_of(out: Path) -> tuple[float, float]:
    """(Ra*, MRR*) as the compare run reported them."""
    opt = load_json(out / "outcome_global_criterion.json")["individual_optima"]["objectives"]
    return opt["Ra"]["best"], opt["MRR"]["best"]


def check_compare(out: Path, ref: GridReference, bounds) -> list[str]:
    f: list[str] = []
    ra_best, mrr_best = utopia_of(out)
    # criterion 2: individual optima
    if abs(ra_best - RA_STAR) > 0.005:
        f.append(f"Ra optimum {ra_best:.4f} vs {RA_STAR} +- 0.005")
    if abs(mrr_best - MRR_STAR) > 0.01 * MRR_STAR:
        f.append(f"MRR optimum {mrr_best:.1f} vs {MRR_STAR} +- 1%")
    if abs(ra_best - ref.ra_min) > GRID_RTOL * max(1.0, abs(ref.ra_min)):
        f.append(f"Ra optimum {ra_best:.6f} vs grid {ref.ra_min:.6f}")
    if abs(mrr_best - ref.mrr_max) > GRID_RTOL * max(1.0, abs(ref.mrr_max)):
        f.append(f"MRR optimum {mrr_best:.2f} vs grid {ref.mrr_max:.2f}")

    # criterion 3: deviation criterion
    gc = load_json(out / "outcome_global_criterion.json")["points"]
    by_p = {int(pt["tag"].split("=")[1]): pt for pt in gc}
    r2 = by_p[2]["responses"]
    if abs(r2[0] - 0.7111) > 0.01:
        f.append(f"p=2 Ra {r2[0]:.4f} vs 0.7111 +- 0.01")
    if abs(r2[1] - 25448.0) > 0.015 * 25448.0:
        f.append(f"p=2 MRR {r2[1]:.1f} vs 25448 +- 1.5%")
    for p in (12, 14, 16, 18, 20):
        r = by_p[p]["responses"]
        if abs(r[0] - 0.6855) > 0.01:
            f.append(f"p={p} Ra {r[0]:.4f} vs 0.6855 +- 0.01")
        if abs(r[1] - 22914.0) > 0.02 * 22914.0:
            f.append(f"p={p} MRR {r[1]:.1f} vs 22914 +- 2%")
    devs = ref.deviations[(ra_best, mrr_best)]
    for p, pt in by_p.items():
        grid_min = float(_deviation_criterion(devs, p).min())
        if pt["criterion"] > grid_min + GRID_RTOL * max(1.0, abs(grid_min)):
            f.append(f"p={p} criterion {pt['criterion']:.6f} above grid {grid_min:.6f}")

    # criterion 4: lexicographic
    lex = load_json(out / "outcome_lexicographic.json")
    stages = lex["stages"]
    if len(stages) != 2 or not lex["terminated_early"]:
        f.append(f"lexicographic: expected 2 stages with early termination, got {len(stages)}")
    x, resp = stages[-1]["outcome"]["x"], stages[-1]["responses"]
    for value, target, tol, name in ((x[0], 314.0, 0.5, "vc"), (x[1], 0.16, 1e-3, "fz"),
                                     (x[2], 0.6, 1e-3, "t")):
        if abs(value - target) > tol:
            f.append(f"lexicographic {name} {value} vs {target} +- {tol}")
    if abs(resp[0] - 0.7962) > 0.005:
        f.append(f"lexicographic Ra {resp[0]:.4f} vs 0.7962 +- 0.005")
    if abs(resp[1] - MRR_STAR) > 0.01 * MRR_STAR:
        f.append(f"lexicographic MRR {resp[1]:.1f} vs 35241 +- 1%")

    # criterion 5: weighted sum collapses to three table points
    hits = []
    for pt in load_json(out / "outcome_weighted_sum.json")["points"]:
        r = pt["responses"]
        matches = [i for i, (ra_t, mrr_t) in enumerate(WS_TABLE)
                   if abs(r[0] - ra_t) <= 0.005 and abs(r[1] - mrr_t) <= 0.01 * mrr_t]
        if len(matches) != 1:
            f.append(f"weighted sum {pt['tag']} point {r} matches {matches}")
        else:
            hits.append(matches[0])
    if set(hits) != {0, 1, 2}:
        f.append(f"weighted sum did not give the three table points: {sorted(set(hits))}")

    # criterion 6: epsilon constraint
    eps = load_json(out / "outcome_epsilon_constraint.json")["points"]
    if len(eps) != 11:
        f.append(f"expected 11 epsilon points, got {len(eps)}")
    for want, pt in zip(EPS_TABLE_TAIL, eps[1:]):
        if abs(pt["epsilons"][0] - want) > 0.005:
            f.append(f"epsilon {pt['epsilons'][0]:.4f} vs {want} +- 0.005")
    for pt in eps[2:]:
        if not pt["feasible"] or abs(pt["responses"][1] - MRR_STAR) > 0.01 * MRR_STAR:
            f.append(f"{pt['tag']} MRR {pt['responses'][1]:.1f} vs 35241 +- 1%")
    tight = eps[1]
    if abs(tight["responses"][1] - 25409.0) > 0.01 * 25409.0:
        f.append(f"{tight['tag']} MRR {tight['responses'][1]:.1f} vs 25409 +- 1%")
    if not tight["active"][0] or abs(tight["responses"][0] - tight["epsilons"][0]) > 1e-5:
        f.append(f"{tight['tag']} Ra bound not active")
    _check_monotone([pt["responses"][1] for pt in eps if pt["feasible"]], f)

    # criterion 7: GA front
    resp = check_ga_outcome(out / "outcome_ga.json", bounds, f)
    if resp.size:
        if abs(resp[:, 0].min() - ra_best) > 0.02 * ra_best:
            f.append(f"GA Ra extreme {resp[:, 0].min():.4f} vs {ra_best:.4f} +- 2%")
        if abs(resp[:, 1].max() - mrr_best) > 0.02 * mrr_best:
            f.append(f"GA MRR extreme {resp[:, 1].max():.1f} vs {mrr_best:.1f} +- 2%")
    return f


def _check_monotone(mrr_along_grid, failures: list) -> None:
    """MRR never falls along the epsilon grid, with the acceptance suite's 1e-9 slack."""
    for a, b in zip(mrr_along_grid, mrr_along_grid[1:]):
        if b < a - 1e-9:
            failures.append("MRR falls along the epsilon grid")
            return


# -- ga_seed_merge ----------------------------------------------------------

def expected_merge(rows) -> list[str]:
    """Lines the merged front must hold: the feasible union filtered for dominance
    with the cross-method merge band (1e-9 of each response's scale), input
    order kept and exact duplicates collapsed to their first survivor."""
    resp = np.array([r[3] for r in rows], dtype=float).reshape(-1, 2)
    scale = np.maximum(1.0, np.abs(resp).max(axis=0)) if len(rows) else np.ones(2)
    dominated = _dominance(resp, 1e-9 * scale).any(axis=0)
    seen, lines = set(), []
    for row, dom in zip(rows, dominated):
        if row[3] in seen or dom:
            continue
        seen.add(row[3])
        lines.append(row[4])
    return lines


def check_ga_merge(out: Path, ref: GridReference, bounds) -> list[str]:
    f: list[str] = []
    union = []
    for run in ("ga0", "ga1"):
        check_ga_outcome(out / run / "outcome_ga.json", bounds, f)
        union += read_front_rows(out / run / "front_ga.csv")
    merged = [r[4] for r in read_front_rows(out / "merged" / "front_all.csv")]
    if merged != expected_merge(union):
        f.append("merged front differs from the filtered union of the two GA fronts")
    return f


# -- eps_synthetic ----------------------------------------------------------

def check_eps(out: Path, ref: GridReference, bounds) -> list[str]:
    f: list[str] = []
    points = load_json(out / "eps" / "outcome_epsilon_constraint.json")["points"]
    for pt in points:
        eps, (ra, mrr) = pt["epsilons"][0], pt["responses"]
        if not pt["feasible"]:
            if eps >= ref.ra_min:
                f.append(f"{pt['tag']} infeasible although the grid has a point with Ra <= eps")
            continue
        if ra > eps + EPS_RA_TOL * max(1.0, abs(eps)):
            f.append(f"{pt['tag']} Ra {ra:.6f} above its bound")
        best = ref.best_mrr_under(eps)
        if mrr < best - GRID_RTOL * max(1.0, abs(best)):
            f.append(f"{pt['tag']} MRR {mrr:.2f} below the grid's {best:.2f}")
    _check_monotone([pt["responses"][1] for pt in points if pt["feasible"]], f)
    lex = load_json(out / "lex" / "outcome_lexicographic.json")["stages"][-1]
    if not _in_box(lex["outcome"]["x"], bounds):
        f.append("lexicographic point out of bounds")
    if lex["responses"][1] < ref.mrr_max - GRID_RTOL * max(1.0, abs(ref.mrr_max)):
        f.append(f"lexicographic MRR {lex['responses'][1]:.2f} below the grid's "
                 f"{ref.mrr_max:.2f}")
    return f


CHECKS = {
    "case_study_compare": check_compare,
    "ga_seed_merge": check_ga_merge,
    "eps_synthetic": check_eps,
}

#: Front CSVs whose union is the iteration's answer, for the hypervolume.
FINAL_FRONTS = {
    "case_study_compare": ("front_all.csv",),
    "ga_seed_merge": ("merged/front_all.csv",),
    "eps_synthetic": ("eps/front_epsilon_constraint.csv", "lex/front_lexicographic.csv"),
}


# -- counters ---------------------------------------------------------------

def _zero_counters() -> dict:
    return {r: {"iterations": 0, "function_evals": 0, "outcomes": 0, "unconverged": 0}
            for r in ROUTINES}


def _harvest_run(run_dir: Path) -> dict:
    """Counters of one command's output directory."""
    totals = _zero_counters()
    utopia = None
    for path in sorted(run_dir.glob("outcome_*.json")):
        payload = load_json(path)
        row = totals[payload["method"]]
        row["iterations"] += payload["counters"]["iterations"]
        row["function_evals"] += payload["counters"]["function_evals"]
        outcomes = [p for p in payload.get("points", ()) if "converged" in p]
        outcomes += [s["outcome"] for s in payload.get("stages", ())]
        row["outcomes"] += len(outcomes)
        row["unconverged"] += sum(not o["converged"] for o in outcomes)
        # the routines of one command share one individual-optima solve
        utopia = utopia or payload.get("individual_optima", {}).get("counters")
    if utopia:
        totals["individual_optima"]["iterations"] = utopia["iterations"]
        totals["individual_optima"]["function_evals"] = utopia["function_evals"]
    efficiency = run_dir / "efficiency.csv"
    if efficiency.exists():
        with open(efficiency, newline="", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                row = totals[rec["routine"]]
                if (int(rec["total_iterations"]), int(rec["total_function_evals"])) != (
                        row["iterations"], row["function_evals"]):
                    raise ValueError(f"efficiency.csv disagrees with the outcome files on "
                                     f"{rec['routine']}")
    return totals


def harvest(out: Path) -> dict:
    """Per routine: iterations, function evaluations, solver outcomes and how many
    of them did not converge, summed over every command of the iteration.

    Where ``efficiency.csv`` exists its totals must match the outcome files.
    """
    totals = _zero_counters()
    for run_dir in sorted({p.parent for p in out.rglob("outcome_*.json")}):
        for routine, row in _harvest_run(run_dir).items():
            for key, value in row.items():
                totals[routine][key] += value
    return totals
