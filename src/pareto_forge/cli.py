"""Command-line surface: fit models, validate data, run routines, emit reports.

Subcommands: ``fit``, ``validate``, ``optimize``, ``front``, ``compare``.
Exit status is 0 on success, 2 for configuration or file errors, and 3 for
numerical failures (rank deficiency, infeasibility, solver breakdown).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import scalarize
from .dataset import (
    CASE_STUDY_BOUNDS,
    Bounds,
    DatasetError,
    builtin_case_study,
    load_experiments,
    validate_records,
)
from .evolve import GaConfig, run_ga
from .nlsolver import (
    NonFiniteEvaluationError,
    RunCounters,
    SolveOutcome,
    SolverConfig,
)
from .pareto import Front, Sense, front_to_csv_text, merge_fronts, read_front_csv
from .polymodel import PolyBasis, PolynomialModel, model_to_dict, published_pair
from .regression import (
    RegressionError,
    comparison_csv_text,
    compare_models,
    fit_model,
)
from .scalarize import (
    DEFAULT_P_VALUES,
    LexStage,
    MethodResult,
    MooProblem,
    Objective,
    RoutineResult,
    StageInfeasibleError,
    UtopiaSolveError,
)
from .svgplot import front_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

SCALARIZATION_METHODS = ("global_criterion", "lexicographic", "weighted_sum", "epsilon_constraint")
ALL_METHODS = SCALARIZATION_METHODS + ("ga",)
#: objective names, in the order the problem holds them
OBJECTIVES = ("ra", "mrr")
#: where the response models come from: a fit to the data or a published pair
MODEL_SOURCES = ("refit", "eq23", "eq21")

_NUMERIC_ERRORS = (
    RegressionError,
    StageInfeasibleError,
    UtopiaSolveError,
    NonFiniteEvaluationError,
)


class ConfigError(ValueError):
    """Bad command line or config-file contents."""


def _names_objective(name) -> bool:
    return isinstance(name, str) and name.lower() in OBJECTIVES


@dataclass(frozen=True)
class MethodConfig:
    """Routine selection and sweep sizes, checked whole before any data is read."""

    method: str = "all"
    p_values: tuple[int, ...] = DEFAULT_P_VALUES
    weight_steps: int = 11
    epsilon_points: int = 11
    epsilon_primary: str = "mrr"
    order: tuple[str, ...] = ("mrr", "ra")

    def __post_init__(self) -> None:
        if self.method not in ALL_METHODS + ("all",):
            raise ValueError(f"unknown method {self.method!r}; "
                             f"expected one of {ALL_METHODS + ('all',)}")
        if not self.p_values or min(self.p_values) < 1:
            raise ValueError(f"p_values must be positive integers, at least one, "
                             f"got {list(self.p_values)}")
        if self.weight_steps < 2 or self.epsilon_points < 2:
            raise ValueError("weight_steps and epsilon_points must be at least 2")
        if not _names_objective(self.epsilon_primary):
            raise ValueError(f"epsilon_primary must name one of {OBJECTIVES}, "
                             f"got {self.epsilon_primary!r}")
        if (not isinstance(self.order, tuple) or not self.order
                or not all(_names_objective(o) for o in self.order)
                or len({o.lower() for o in self.order}) != len(self.order)):
            raise ValueError(f"order must list distinct objectives of {OBJECTIVES}, "
                             f"got {self.order!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: data source, model source, methods, outputs."""

    data: str = "builtin"
    models: str = "refit"
    bounds: Bounds = CASE_STUDY_BOUNDS
    method: MethodConfig = field(default_factory=MethodConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    ga: GaConfig = field(default_factory=GaConfig)
    out: Path = Path("results")

    def __post_init__(self) -> None:
        if not self.data:
            raise ValueError("data must name a CSV file or 'builtin', got ''")
        if self.models not in MODEL_SOURCES:
            raise ValueError(f"unknown model source {self.models!r}; "
                             f"expected one of {MODEL_SOURCES}")


#: the config file's keys, per block ("" is the top level): JSON key -> dataclass field.
#: Each value's JSON type is read from its field's annotation (see ``_from_json``).
CONFIG_KEYS = {
    "": {k: k for k in ("data", "models", "bounds", "method", "solver", "ga", "out")},
    "bounds": {"lower": "lower", "upper": "upper"},
    "method": {k: k for k in ("method", "p_values", "weight_steps", "epsilon_points",
                              "epsilon_primary", "order")},
    "solver": {"starts": "n_starts", "seed": "seed", "kkt_tol": "kkt_tol",
               "feas_tol": "feas_tol", "max_outer": "max_outer", "max_inner": "max_inner"},
    "ga": {"pop": "pop_size", "gens": "generations", "pc": "crossover_prob",
           "eta_c": "crossover_eta", "pm": "mutation_prob", "eta_m": "mutation_eta",
           "seed": "seed"},
}
#: command-line argument -> the config keys it sets ("block.key", or "key" at the top
#: level) and its argparse options; ``--config`` and the positional ``csvs`` set none
FLAGS = {
    "--config": ((), {"help": "JSON config file"}),
    "--data": (("data",), {"help": "experiment CSV path, or 'builtin'"}),
    "--models": (("models",), {"choices": MODEL_SOURCES, "help": "model source"}),
    "--out": (("out",), {"help": "output directory"}),
    "--method": (("method.method",), {"choices": ALL_METHODS + ("all",),
                                      "help": "routine to run"}),
    "--p": (("method.p_values",), {"type": int, "nargs": "+",
                                   "help": "p values for the deviation criterion"}),
    "--steps": (("method.weight_steps",), {"type": int, "help": "weight sweep step count"}),
    "--epsilon-points": (("method.epsilon_points",),
                         {"type": int, "help": "epsilon sweep point count"}),
    "--order": (("method.order",), {"type": lambda text: [o.strip() for o in text.split(",")],
                                    "help": "lexicographic preference order, e.g. mrr,ra"}),
    "--seed": (("solver.seed", "ga.seed"),
               {"type": int, "help": "seed for solver starts and the GA"}),
    "--starts": (("solver.starts",), {"type": int, "help": "multistart count"}),
    "csvs": ((), {"nargs": "*", "help": "front CSV files to merge"}),
}
#: command-line flag -> the config keys it sets
FLAG_KEYS = {flag: keys for flag, (keys, _) in FLAGS.items() if keys}
#: field annotation -> the JSON values it takes and their name in errors
_JSON_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"),
               str: (str, "a string"), Path: (str, "a string")}


def _from_json(value, hint, label: str):
    """The JSON ``value`` as a field annotated ``hint`` takes it: a dataclass from an
    object of its block's keys, a ``tuple[...]`` from a list of its item type, ``int``
    from an integer, ``float`` from a finite number, ``str`` and ``Path`` from a
    string, not an empty one for a ``Path`` (that would be the working directory).
    A boolean is never a number."""
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, label)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{label} must be a list, got {value!r}")
        return tuple(_from_json(v, typing.get_args(hint)[0], label) for v in value)
    kinds, name = _JSON_KINDS[hint]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{label} must be {name}, got {value!r}")
    # an integer too large for a float raises OverflowError: load_config reports it
    if hint is float and not math.isfinite(value):
        raise ConfigError(f"{label} must be finite, got {value!r}")
    if hint is Path and not value:
        raise ConfigError(f"{label} must be a non-empty path")
    return Path(value) if hint is Path else value


#: each config class's field annotations, evaluated once: the classes are fixed
_hints = functools.cache(typing.get_type_hints)


def _build(cls, raw, block: str):
    """The dataclass ``cls`` from the JSON object ``raw`` of config block ``block``;
    keys it omits keep their defaults, and ``cls`` checks the values' ranges."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{block or 'config'} must be a JSON object, got {raw!r}")
    keys = CONFIG_KEYS[block]
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {block or 'config'} keys: {sorted(unknown)}")
    hints = _hints(cls)
    return cls(**{keys[k]: _from_json(v, hints[keys[k]], f"{block}.{k}" if block else k)
                  for k, v in raw.items()})


def load_config(path: str | Path | None, args: argparse.Namespace | None = None) -> RunConfig:
    """Build a RunConfig from a JSON file, then from the file with the flags given in
    ``args`` laid over it (see ``FLAG_KEYS``); missing blocks and keys keep their
    defaults, and a flag's value takes the checks of its config key."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    cfg = _build_config(raw)
    flags = {flag: getattr(args, flag[2:].replace("-", "_"), None) for flag in FLAG_KEYS}
    given = {flag: value for flag, value in flags.items() if value is not None}
    for flag, value in given.items():
        for key in FLAG_KEYS[flag]:
            block, _, name = key.rpartition(".")
            (raw.setdefault(block, {}) if block else raw)[name] = value
    return _build_config(raw) if given else cfg


def _build_config(raw) -> RunConfig:
    try:
        return _build(RunConfig, raw, "")
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc


def _load_records(cfg: RunConfig):
    if cfg.data == "builtin":
        return builtin_case_study()
    return load_experiments(cfg.data)


def _select_models(cfg: RunConfig, records) -> tuple[PolynomialModel, PolynomialModel]:
    if cfg.models == "refit":
        return tuple(fit_model(records, PolyBasis.FULL_QUADRATIC_TRIPLE, name)
                     for name in OBJECTIVES)
    return published_pair(cfg.models)


def _build_problem(cfg: RunConfig, models) -> MooProblem:
    ra_model, mrr_model = models
    return MooProblem(
        objectives=(Objective(ra_model, Sense.MINIMIZE), Objective(mrr_model, Sense.MAXIMIZE)),
        bounds=cfg.bounds,
    )


def _counters_dict(counters: RunCounters) -> dict:
    return {"iterations": counters.iterations, "function_evals": counters.function_evals}


def _utopia_dict(problem: MooProblem, utopia) -> dict:
    """The ideal/nadir pair per objective, in natural units."""
    return {
        "counters": _counters_dict(utopia.counters),
        "objectives": {
            o.name: {
                "sense": o.sense.value,
                "best": float(o.sign * utopia.ideal[i]),
                "best_x": utopia.ideal_x[i].tolist(),
                "worst": float(o.sign * utopia.nadir[i]),
                "worst_x": utopia.nadir_x[i].tolist(),
            }
            for i, o in enumerate(problem.objectives)
        },
    }


def _make_out_dir(cfg: RunConfig) -> None:
    """Make the output directory if missing; a path that cannot be one is a config error."""
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {cfg.out}: {exc}") from exc


def _write(path: Path, text: str) -> None:
    """Write one output file; a path that cannot be written is a config error."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_front(out: Path, stem: str, front: Front, title: str) -> None:
    """``stem``.csv and ``stem``.svg of ``front`` in ``out``."""
    _write(out / f"{stem}.csv", front_to_csv_text(front))
    _write(out / f"{stem}.svg", front_svg(front, title=title))


def cmd_fit(cfg: RunConfig) -> int:
    records = _load_records(cfg)
    _make_out_dir(cfg)
    label = cfg.models
    cmp = compare_models(records, _select_models(cfg, records), published_pair("eq21"),
                         label_a=label, label_b="eq21")
    summary = {key: {label: [getattr(d, key) for d in cmp.a],
                     "eq21": [getattr(d, key) for d in cmp.b]}
               for key in ("mapd", "max_predicted", "min_predicted")}
    summary["winner_by_lower_mapd"] = dict(zip(OBJECTIVES, cmp.winners))
    payload = {
        "data": cfg.data,
        "models": {
            resp: {
                "model": model_to_dict(d.model),
                "mapd": d.mapd,
                "apd_per_row": list(d.apd_per_row),
                "predicted": list(d.predicted),
                "max_predicted": d.max_predicted,
                "min_predicted": d.min_predicted,
            }
            for resp, d in zip(OBJECTIVES, cmp.a)
        },
        "summary": summary,
    }
    _write_json(cfg.out / "fit.json", payload)
    _write(cfg.out / "comparison.csv", comparison_csv_text(cmp))
    print(f"fit: {len(records)} records, models={cfg.models}")
    (ra_a, mrr_a), (ra_b, mrr_b) = cmp.a, cmp.b
    print(f"  MAPD Ra={ra_a.mapd:.4f} MRR={mrr_a.mapd:.4f} "
          f"(eq21 baseline: Ra={ra_b.mapd:.4f} MRR={mrr_b.mapd:.4f})")
    print(f"  wrote {cfg.out / 'fit.json'} and {cfg.out / 'comparison.csv'}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    records = _load_records(cfg)
    violations = validate_records(records, cfg.bounds)
    if not violations:
        print(f"validate: {len(records)} records, all within bounds "
              f"{cfg.bounds.lower} .. {cfg.bounds.upper}")
    else:
        print(f"validate: {len(violations)} violation(s) in {len(records)} records")
        for v in violations:
            print(f"  record {v.index + 1}: {v.message}")
    return EXIT_OK


def _run_method(method: str, cfg: RunConfig, problem: MooProblem, utopia):
    """Run one routine with its configured sweep; returns (result, parameters)."""
    mc, solver = cfg.method, cfg.solver
    if method == "global_criterion":
        return (scalarize.global_criterion_sweep(problem, mc.p_values, solver, utopia),
                {"p_values": list(mc.p_values)})
    if method == "weighted_sum":
        return (scalarize.weighted_sum_sweep(problem, mc.weight_steps, solver, utopia),
                {"weight_steps": mc.weight_steps})
    if method == "epsilon_constraint":
        return (scalarize.epsilon_sweep(problem, mc.epsilon_primary, mc.epsilon_points, solver,
                                        utopia),
                {"epsilon_points": mc.epsilon_points, "primary": mc.epsilon_primary})
    if method == "lexicographic":
        result = scalarize.lexicographic(problem, mc.order, solver, utopia)
        return result, {"order": list(result.order)}
    # "ga", the one name left that MethodConfig admits
    return run_ga(problem, cfg.ga), {k: getattr(cfg.ga, f) for k, f in CONFIG_KEYS["ga"].items()}


def _outcome_dict(outcome: SolveOutcome) -> dict:
    return {"x": outcome.x, "objective": outcome.objective, "converged": outcome.converged,
            "kkt_residual": outcome.kkt_residual,
            "constraint_violation": outcome.constraint_violation,
            "counters": _counters_dict(outcome.counters)}


def _point_dict(result: MethodResult) -> dict:
    """A solved point's JSON: its result's fields plus its solver outcome, flattened.

    A lexicographic stage's ``objective`` names the objective it optimized, so
    its outcome (whose ``objective`` is the optimum) is nested instead. The
    values are the result's own: ``json`` writes their tuples as lists.
    """
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    outcome = _outcome_dict(fields.pop("outcome"))
    if isinstance(result, LexStage):
        return {**fields, "outcome": outcome}
    return {**fields, **outcome}


def _routine_payload(method: str, result: RoutineResult, parameters: dict, optima) -> dict:
    payload = {"method": method, "counters": _counters_dict(result.counters),
               "parameters": parameters}
    if method in SCALARIZATION_METHODS:
        payload["individual_optima"] = optima
    if method == "lexicographic":
        payload["terminated_early"] = result.terminated_early
        payload["stages"] = [_point_dict(r) for r in result.results]
    elif method == "ga":
        # no GA point is a separate solve: its front's points are its results
        payload["points"] = [{"tag": p.tag, "x": p.x, "responses": p.responses}
                             for p in result.front.points]
    else:
        payload["points"] = [_point_dict(r) for r in result.results]
    return payload


def _run_methods(cfg: RunConfig, methods) -> tuple:
    """Run ``methods`` and write each one's outputs; returns (utopia, results by method)."""
    records = _load_records(cfg)
    problem = _build_problem(cfg, _select_models(cfg, records))
    _make_out_dir(cfg)
    utopia = (scalarize.individual_optima(problem, cfg.solver)
              if any(m in SCALARIZATION_METHODS for m in methods) else None)
    optima = None if utopia is None else _utopia_dict(problem, utopia)
    results = {}
    for method in methods:
        result, parameters = _run_method(method, cfg, problem, utopia)
        results[method] = result
        _write_json(cfg.out / f"outcome_{method}.json",
                    _routine_payload(method, result, parameters, optima))
        _write_front(cfg.out, f"front_{method}", result.front, method.replace("_", " "))
        print(f"{method}: {len(result.front.points)} point(s), "
              f"{result.counters.iterations} iterations, "
              f"{result.counters.function_evals} function evals")
        unconverged = [r.tag for r in result.results if not r.outcome.converged]
        if unconverged:
            print(f"  unconverged: {', '.join(unconverged)}")
    return utopia, results


def cmd_optimize(cfg: RunConfig) -> int:
    method = cfg.method.method
    _run_methods(cfg, ALL_METHODS if method == "all" else (method,))
    print(f"wrote results to {cfg.out}/")
    return EXIT_OK


def _merge_tolerance(fronts) -> np.ndarray:
    """Per-objective epsilon for cross-method merging.

    1e-9 of the response scale: well above last-bit solver noise, well below
    the 1e-6 relative slack the lexicographic stages trade away, so genuinely
    distinct points never eliminate each other.
    """
    values = np.array([p.responses for f in fronts for p in f.points], dtype=float)
    return 1e-9 * np.abs(values.reshape(-1, len(fronts[0].senses))).max(axis=0, initial=1.0)


def _merge(fronts):
    return merge_fronts(fronts, eps=_merge_tolerance(fronts))


def cmd_compare(cfg: RunConfig) -> int:
    utopia, results = _run_methods(cfg, ALL_METHODS)
    rows = [("individual_optima", utopia.counters)]
    rows.extend((m, results[m].counters) for m in ALL_METHODS)
    lines = ["routine,total_iterations,total_function_evals"]
    lines += [f"{name},{c.iterations},{c.function_evals}" for name, c in rows]
    _write(cfg.out / "efficiency.csv", "\n".join(lines) + "\n")
    merged = _merge([r.front for r in results.values()])
    _write_front(cfg.out, "front_all", merged, "all methods")
    print(f"efficiency report and merged front ({len(merged.points)} points) in {cfg.out}/")
    return EXIT_OK


def cmd_front(cfg: RunConfig, csv_paths) -> int:
    if not csv_paths:
        raise ConfigError("front: at least one front CSV is required")
    senses = (Sense.MINIMIZE, Sense.MAXIMIZE)
    try:
        fronts = [read_front_csv(p, senses) for p in csv_paths]
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    merged = _merge(fronts)
    _make_out_dir(cfg)
    _write_front(cfg.out, "front_all", merged, "merged front")
    print(f"merged {len(fronts)} front(s) into {len(merged.points)} points in {cfg.out}/")
    return EXIT_OK


_COMMON = ("--config", "--data", "--models", "--out")
#: subcommand -> its function, its help text and its arguments (keys of ``FLAGS``);
#: the function takes the config, then the values of the positional arguments
COMMANDS = {
    "fit": (cmd_fit, "fit models and write APD/MAPD diagnostics", _COMMON),
    "validate": (cmd_validate, "check records against the variable bounds", _COMMON),
    "optimize": (cmd_optimize, "run one routine (or all) and emit fronts",
                 _COMMON + ("--method", "--p", "--steps", "--epsilon-points", "--order",
                            "--seed", "--starts")),
    "compare": (cmd_compare, "run all five routines and the efficiency report",
                _COMMON + ("--seed", "--starts")),
    "front": (cmd_front, "merge front CSVs into one filtered front", ("csvs", "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pareto-forge",
        description="Fit milling response models and generate Pareto fronts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, names) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name in names:
            p.add_argument(name, **FLAGS[name][1])
    return parser


#: the parser of every ``main`` call, built on the first: it keeps no state between
#: parses, and building it at import would slow every start-up
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    run, _, names = COMMANDS[args.command]
    try:
        cfg = load_config(getattr(args, "config", None), args)
        return run(cfg, *(getattr(args, n) for n in names if not n.startswith("-")))
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DatasetError, ValueError, MemoryError, OverflowError) as exc:
        # remaining ValueErrors are bad parameter values (step counts, seeds, ...);
        # a MemoryError or an OverflowError is a size too large to allocate or index
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
