import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import typing
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_forge import (
    CASE_STUDY_BOUNDS,
    ExperimentRecord,
    GaConfig,
    PolyBasis,
    Sense,
    SolverConfig,
    builtin_case_study,
    compare_models,
    fit_ols,
    load_experiments,
    published_pair,
    read_front_csv,
    save_experiments,
)
from pareto_forge import cli, scalarize
from pareto_forge.cli import (
    ALL_METHODS,
    COMMANDS,
    CONFIG_KEYS,
    FLAG_KEYS,
    MODEL_SOURCES,
    OBJECTIVES,
    ConfigError,
    MethodConfig,
    RunConfig,
    build_parser,
    load_config,
    main,
)
from pareto_forge.nlsolver import RunCounters, SolveOutcome
from pareto_forge.polymodel import model_to_dict
from pareto_forge.scalarize import LexStage

SMALL_CONFIG = {
    "solver": {"starts": 2, "seed": 3},
    "ga": {"pop": 8, "gens": 5, "seed": 3},
}


def write_config(tmp_path, **extra):
    cfg = dict(SMALL_CONFIG)
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_fit_builtin_refit(tmp_path, capsys):
    out = tmp_path / "fitout"
    assert main(["fit", "--out", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    mapd = payload["summary"]["mapd"]
    assert abs(mapd["refit"][0] - 0.0235) <= 0.002
    assert abs(mapd["refit"][1] - 0.0518) <= 0.005
    assert abs(mapd["eq21"][0] - 0.0707) <= 0.002
    assert abs(mapd["eq21"][1] - 0.2047) <= 0.005
    assert payload["summary"]["winner_by_lower_mapd"] == {"ra": "refit", "mrr": "refit"}
    lines = (out / "comparison.csv").read_text().strip().splitlines()
    assert len(lines) == 28
    assert "MAPD" in capsys.readouterr().out


def test_fit_published_linear_models(tmp_path):
    out = tmp_path / "fitout"
    assert main(["fit", "--models", "eq21", "--out", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert abs(payload["summary"]["mapd"]["eq21"][0] - 0.0707) <= 0.002


@pytest.mark.parametrize("models", MODEL_SOURCES)
def test_fit_json_models_are_the_pair_diagnostics(tmp_path, models):
    out = tmp_path / "fitout"
    assert main(["fit", "--models", models, "--out", str(out)]) == 0
    written = json.loads((out / "fit.json").read_text())["models"]
    records = builtin_case_study()
    pair = (tuple(fit_ols(records, PolyBasis.FULL_QUADRATIC_TRIPLE, r).model for r in OBJECTIVES)
            if models == "refit" else published_pair(models))
    diagnostics = compare_models(records, pair, published_pair("eq21")).a
    for resp, model, d in zip(OBJECTIVES, pair, diagnostics):
        assert d.model == model
        expected = {"model": model_to_dict(d.model), "mapd": d.mapd,
                    "apd_per_row": list(d.apd_per_row), "predicted": list(d.predicted),
                    "max_predicted": d.max_predicted, "min_predicted": d.min_predicted}
        assert written[resp] == json.loads(json.dumps(expected)), resp


def test_validate_builtin(capsys):
    assert main(["validate"]) == 0
    assert "all within bounds" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    csv.write_text("vc,fz,t,ra,mrr\n400,0.04,0.2,1,1000\n")
    assert main(["validate", "--data", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "1 violation" in out and "vc above upper bound" in out


def test_optimize_weighted_sum_front_rows(tmp_path):
    out = tmp_path / "ws"
    assert main(["optimize", "--method", "weighted_sum", "--steps", "11",
                 "--out", str(out), "--starts", "4"]) == 0
    rows = (out / "front_weighted_sum.csv").read_text().strip().splitlines()
    assert rows[0] == "method,param,vc,fz,t,ra,mrr"
    assert len(rows) == 12
    payload = json.loads((out / "outcome_weighted_sum.json").read_text())
    assert payload["counters"]["function_evals"] > 0
    assert len(payload["points"]) == 11
    assert "individual_optima" in payload
    assert (out / "front_weighted_sum.svg").exists()


def test_optimize_lexicographic_trace(tmp_path):
    out = tmp_path / "lex"
    assert main(["optimize", "--method", "lexicographic", "--order", "mrr,ra",
                 "--out", str(out), "--starts", "4"]) == 0
    payload = json.loads((out / "outcome_lexicographic.json").read_text())
    assert payload["terminated_early"] is True
    stages = payload["stages"]
    assert len(stages) == 2
    assert stages[0]["objective"] == "MRR" and stages[1]["objective"] == "Ra"
    # stage 1 is the individual optimum of MRR that the payload records
    mrr = payload["individual_optima"]["objectives"]["MRR"]
    assert stages[0]["outcome"]["x"] == mrr["best_x"]
    x1, x2 = stages[0]["outcome"]["x"], stages[1]["outcome"]["x"]
    assert all(abs(a - b) <= 1e-3 for a, b in zip(x1, x2))


@pytest.mark.parametrize("method, max_inner, rows", [
    # at 2 inner steps the individual optima converge and the second stage does not
    ("lexicographic", 2, "stages"),
    ("global_criterion", 3, "points"),
])
def test_unconverged_points_printed_after_summary(tmp_path, capsys, method, max_inner, rows):
    cfg = write_config(tmp_path, solver={"starts": 2, "seed": 3, "max_inner": max_inner})
    out = tmp_path / "run"
    assert main(["optimize", "--method", method, "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    payload = json.loads((out / f"outcome_{method}.json").read_text())
    tags = [pt["tag"] for pt in payload[rows]
            if not pt.get("outcome", pt)["converged"]]
    assert tags
    summary = next(i for i, line in enumerate(lines) if line.startswith(f"{method}:"))
    assert lines[summary + 1] == "  unconverged: " + ", ".join(tags)


@pytest.mark.parametrize("method", ["lexicographic", "global_criterion"])
def test_unconverged_individual_optimum_exits_3_naming_it(tmp_path, capsys, method):
    # at 1 inner step no individual-optimum group converges; Ra's optimum is the first
    cfg = write_config(tmp_path, solver={"starts": 2, "seed": 3, "max_inner": 1})
    out = tmp_path / "run"
    assert main(["optimize", "--method", method, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: solver failed on the optimum of objective 'Ra'")
    assert not (out / f"outcome_{method}.json").exists()


def test_converged_run_prints_no_unconverged_line(tmp_path, capsys):
    assert main(["optimize", "--method", "weighted_sum", "--steps", "3", "--starts", "2",
                 "--out", str(tmp_path / "ws")]) == 0
    assert "unconverged" not in capsys.readouterr().out


def test_optimize_all_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["optimize", "--method", "all", "--seed", "7", "--config", cfg,
                 "--out", str(out1)]) == 0
    assert main(["optimize", "--method", "all", "--seed", "7", "--config", cfg,
                 "--out", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and len(names1) == 15
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_compare_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "efficiency.csv").read_text().strip().splitlines()
    assert lines[0] == "routine,total_iterations,total_function_evals"
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    expected = {"individual_optima", "global_criterion", "lexicographic",
                "weighted_sum", "epsilon_constraint", "ga"}
    assert set(rows) == expected
    for name, (iters, fevals) in rows.items():
        assert int(fevals) > 0, name
    assert (out / "front_all.csv").exists()
    assert (out / "front_all.svg").exists()
    # one rule per solved point: its result's fields plus its solver outcome
    solved = {"tag", "x", "responses", "feasible", "objective", "converged", "kkt_residual",
              "constraint_violation", "counters"}
    gc = json.loads((out / "outcome_global_criterion.json").read_text())
    assert [pt["p"] for pt in gc["points"]] == gc["parameters"]["p_values"]
    for method in ("global_criterion", "weighted_sum", "epsilon_constraint"):
        points = json.loads((out / f"outcome_{method}.json").read_text())["points"]
        tags = [row.split(",")[1] for row in
                (out / f"front_{method}.csv").read_text().splitlines()[1:]]
        assert [pt["tag"] for pt in points] == tags
        assert all(solved <= set(pt) for pt in points), method
    for stage in json.loads((out / "outcome_lexicographic.json").read_text())["stages"]:
        assert stage["tag"] == stage["objective"] and stage["x"] == stage["outcome"]["x"]
        assert solved - {"tag", "x", "responses", "feasible"} <= set(stage["outcome"])
    for pt in json.loads((out / "outcome_ga.json").read_text())["points"]:
        assert set(pt) == {"tag", "x", "responses"}


def test_compare_default_merged_front_has_all_method_labels(tmp_path):
    out = tmp_path / "cmp_default"
    assert main(["compare", "--out", str(out)]) == 0
    rows = (out / "front_all.csv").read_text().strip().splitlines()[1:]
    methods = {row.split(",")[0] for row in rows}
    assert methods == {"global_criterion", "lexicographic", "weighted_sum",
                       "epsilon_constraint", "genetic_algorithm"}


def test_front_merges_csvs(tmp_path):
    src = tmp_path / "src"
    assert main(["optimize", "--method", "weighted_sum", "--out", str(src),
                 "--starts", "2"]) == 0
    assert main(["optimize", "--method", "lexicographic", "--out", str(src),
                 "--starts", "2"]) == 0
    out = tmp_path / "merged"
    assert main(["front", str(src / "front_weighted_sum.csv"),
                 str(src / "front_lexicographic.csv"), "--out", str(out)]) == 0
    merged = (out / "front_all.csv").read_text().strip().splitlines()
    assert merged[0] == "method,param,vc,fz,t,ra,mrr"
    assert len(merged) > 1
    assert (out / "front_all.svg").exists()


def test_merge_drops_an_infeasible_point_that_dominates_a_feasible_one(problem):
    # the infeasible result has the lower Ra and the higher MRR; it stays in the
    # results, but neither the routine's front nor the merge of it holds it
    def result(x, responses, tag, feasible):
        outcome = SolveOutcome(x, 0.0, True, 0.0, 0.0, RunCounters())
        return scalarize.MethodResult(tag, x, responses, outcome, feasible)

    kept = result((200.0, 0.1, 0.4), (0.8, 20000.0), "eps=0.8", True)
    infeasible = result((300.0, 0.1, 0.4), (0.6, 30000.0), "eps=0.6", False)
    sweep = scalarize._sweep(problem, [kept, infeasible], "epsilon_constraint")
    assert sweep.results == (kept, infeasible)
    merged = cli._merge([sweep.front])
    assert [(p.tag, p.x, p.responses) for p in merged.points] == [
        ("eps=0.8", kept.x, kept.responses)]


def test_missing_data_file_is_config_error(tmp_path, capsys):
    assert main(["fit", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_bad_config_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solvr": {}}))
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_removed_ga_elite_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ga": {"elite": 0.5}}))
    out = tmp_path / "o"
    assert main(["optimize", "--method", "ga", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown ga keys: ['elite']" in capsys.readouterr().err
    assert not out.exists()


def test_too_few_records_is_numeric_error(tmp_path, capsys):
    csv = tmp_path / "tiny.csv"
    rows = ["vc,fz,t,ra,mrr"] + [f"{78 + i},0.04,0.2,2.23,730" for i in range(5)]
    csv.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--data", str(csv), "--out", str(tmp_path / "o")]) == 3
    assert "fewer records" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["fit"], ["compare", "--starts", "2"]])
def test_overflowing_coefficients_are_numeric_errors(tmp_path, capsys, command):
    # every MRR finite and positive, up to 1.05e308: the data is valid, but the
    # least-squares coefficients pass the float range
    csv = tmp_path / "huge_mrr.csv"
    save_experiments(csv, [replace(r, mrr=r.mrr * 3e303) for r in builtin_case_study()])
    assert main(["validate", "--data", str(csv)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*command, "--data", str(csv), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "overflow" in err


def test_overflowing_model_value_is_a_numeric_error_without_warning(tmp_path, capsys):
    # the fit stays finite, but a model value overflows at the first solve's points
    csv = tmp_path / "large_mrr.csv"
    save_experiments(csv, [replace(r, mrr=r.mrr * 1.2e303) for r in builtin_case_study()])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["compare", "--starts", "2", "--data", str(csv),
                     "--out", str(tmp_path / "o")]) == 3
    assert not caught
    assert "non-finite evaluation in 'individual optima'" in capsys.readouterr().err


def test_front_requires_inputs(capsys):
    assert main(["front"]) == 2


def test_bad_parameter_values_are_config_errors(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["optimize", "--method", "weighted_sum", "--starts", "0", "--out", out]) == 2
    assert main(["optimize", "--method", "weighted_sum", "--steps", "1", "--out", out]) == 2


@pytest.mark.parametrize("args, code", [
    # a p past int64 is solved as a float: its point ends unconverged, and is reported
    (["--method", "global_criterion", "--p", str(10**21)], 0),
    (["--method", "global_criterion", "--starts", str(10**20)], 2),
    (["--method", "weighted_sum", "--steps", str(10**20)], 2),
])
def test_oversized_sizes_exit_without_a_traceback(tmp_path, capsys, args, code):
    assert main(["optimize", *args, "--out", str(tmp_path / "o")]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code:
        assert captured.err.startswith("error:")
    else:
        assert f"unconverged: p={10**21}" in captured.out


@pytest.mark.parametrize("config", [
    {"method": {"weight_steps": "11"}},
    {"solver": {"starts": True}},
    {"method": {"p_values": [1.5]}},
    {"method": {"epsilon_points": 1.5}},
    {"solver": {"max_outer": 0}},
    {"solver": {"max_inner": 0}},
    '{"ga": {"eta_c": NaN}}',
    '{"solver": {"kkt_tol": NaN}}',
    '{"solver": {"feas_tol": Infinity}}',
    '{"ga": {"pm": -Infinity}}',
    '{"ga": {"eta_m": 1e999}}',
    '{"bounds": {"lower": [78, 0.04, NaN], "upper": [314, 0.16, 0.6]}}',
    {"ga": {"pc": True}},
    {"ga": {"seed": -1}},
    {"solver": {"seed": -1}},
    {"bounds": {"lower": ["78", 0.04, 0.2], "upper": [314, 0.16, 0.6]}},
    {"solver": [["starts", 2]]},
    {"out": None},
    {"data": ["builtin"]},
])
def test_bad_config_values_exit_2(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    assert main(["optimize", "--method", "weighted_sum", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("method", [
    {"epsilon_points": 1},
    {"weight_steps": 1},
    {"epsilon_primary": True},
    {"epsilon_primary": 1},
    {"epsilon_primary": "speed"},
    {"order": "mrr"},
    {"order": []},
    {"order": ["mrr", "MRR"]},
    {"order": ["mrr", "feed"]},
    {"p_values": []},
    {"p_values": [2, 0]},
    {"method": "simplex"},
])
def test_bad_method_block_exits_2_before_any_output(tmp_path, capsys, method):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_CONFIG, "method": method}))
    out = tmp_path / "o"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 2
    assert not list(out.glob("outcome_*.json")) and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


#: per flag, its command-line values and the config file that holds the same setting
_FLAG_FILES = {
    "--data": (["runs.csv"], {"data": "runs.csv"}),
    "--models": (["eq23"], {"models": "eq23"}),
    "--out": (["elsewhere"], {"out": "elsewhere"}),
    "--method": (["ga"], {"method": {"method": "ga"}}),
    "--p": (["1", "3"], {"method": {"p_values": [1, 3]}}),
    "--steps": (["4"], {"method": {"weight_steps": 4}}),
    "--epsilon-points": (["5"], {"method": {"epsilon_points": 5}}),
    "--order": (["ra, mrr"], {"method": {"order": ["ra", "mrr"]}}),
    "--starts": (["2"], {"solver": {"starts": 2}}),
    "--seed": (["9"], {"solver": {"seed": 9}, "ga": {"seed": 9}}),
}


def test_every_flag_but_config_is_a_config_key():
    parser = build_parser()
    dests = {flag[2:].replace("-", "_") for flag in FLAG_KEYS}
    assert set(vars(parser.parse_args(["optimize"]))) - {"command", "config"} == dests
    for argv in (["fit"], ["validate"], ["compare"], ["front"]):
        assert set(vars(parser.parse_args(argv))) - {"command", "config", "csvs"} <= dests
    assert set(_FLAG_FILES) == set(FLAG_KEYS)


@pytest.mark.parametrize("flag", sorted(FLAG_KEYS))
def test_flag_equals_its_config_keys(tmp_path, flag):
    values, raw = _FLAG_FILES[flag]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    from_flag = load_config(None, build_parser().parse_args(["optimize", flag, *values]))
    assert from_flag == load_config(path) != RunConfig()


def test_flag_overrides_the_file_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"solver": {"seed": 1, "starts": 4}, "ga": {"seed": 2}}))
    cfg = load_config(path, build_parser().parse_args(["compare", "--seed", "5"]))
    assert (cfg.solver.seed, cfg.ga.seed, cfg.solver.n_starts) == (5, 5, 4)


@pytest.mark.parametrize("argv", [
    ["fit", "--data", ""],
    ["optimize", "--data", ""],
    ["optimize", "--order", ""],
    ["optimize", "--out", ""],
])
def test_empty_flag_value_exits_2_before_any_output(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_bad_method_flags_exit_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "o"
    for flags in (["--p", "0"], ["--epsilon-points", "1"], ["--order", "mrr,speed"]):
        assert main(["optimize", *flags, "--out", str(out)]) == 2
    assert not out.exists()


def test_each_command_help_names_its_flags(capsys):
    for command, (_, _, names) in COMMANDS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        shown = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
        assert shown == {name for name in names if name.startswith("--")}, command
        assert ("--config" in shown) == (command != "front"), command


@pytest.mark.parametrize("argv", [
    ["fit", "--data", ""],
    ["validate", "--config", "{config}"],
])
def test_empty_data_names_its_key(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({"data": ""}))
    assert main([a.format(config="cfg.json") for a in argv]) == 2
    assert "data must name a CSV file or 'builtin', got ''" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


# Each size fails at its first numpy allocation, so no memory is taken. They lie
# beyond a 128 TiB address space, so the allocation fails whatever the host's
# overcommit policy.
@pytest.mark.parametrize("argv", [
    ["--method", "weighted_sum", "--starts", str(10**15)],
    ["--method", "epsilon_constraint", "--epsilon-points", str(10**15)],
    ["--method", "ga", "--config", "{config}"],
])
def test_allocation_that_fails_exits_2(tmp_path, capsys, argv):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"ga": {"pop": 10**15}}))
    argv = [a.format(config=config) for a in argv]
    assert main(["optimize", *argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err


def test_front_labels_survive_two_merges(tmp_path):
    # a comma, quotes and a line feed; then a bare carriage return, which the csv
    # writer's minimal quoting leaves alone unless told
    for k, label in enumerate(('a,b "c"\nd', "a\rb")):
        cell = label.replace('"', '""')
        first = tmp_path / f"in{k}.csv"
        first.write_text(f'method,param,vc,fz,t,ra,mrr\n"{cell}","tag {cell}",'
                         "200,0.1,0.3,1.0,2000\n", encoding="utf-8")
        for src, out in ((first, f"m1_{k}"), (tmp_path / f"m1_{k}" / "front_all.csv", f"m2_{k}")):
            assert main(["front", str(src), "--out", str(tmp_path / out)]) == 0
        merged = read_front_csv(tmp_path / f"m2_{k}" / "front_all.csv",
                                (Sense.MINIMIZE, Sense.MAXIMIZE))
        assert [(p.method, p.tag) for p in merged.points] == [(label, f"tag {label}")]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=8,
)
_KNOWN_KEYS = {
    None: ("data", "models", "bounds", "method", "solver", "ga", "out"),
    "bounds": ("lower", "upper"),
    "method": ("method", "p_values", "weight_steps", "epsilon_points", "epsilon_primary",
               "order"),
    "solver": ("starts", "seed", "kkt_tol", "feas_tol", "max_outer", "max_inner"),
    "ga": ("pop", "gens", "pc", "eta_c", "pm", "eta_m", "seed"),
}


# each top-level key holds any JSON value or, for a block, an object of its known keys
_CONFIGS = st.fixed_dictionaries({}, optional={
    name: st.dictionaries(st.sampled_from(_KNOWN_KEYS[name]), _JSON) | _JSON
    if name in _KNOWN_KEYS else _JSON
    for name in _KNOWN_KEYS[None]
}) | _JSON


@settings(max_examples=300, deadline=None)
@given(_CONFIGS)
def test_load_config_returns_a_config_or_raises_config_error(tmp_path_factory, raw):
    # integers are bounded, so no accepted draw can ask for a huge population
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(raw))
    try:
        assert isinstance(load_config(path), RunConfig)
    except ConfigError:
        pass


def test_unknown_model_source_in_config_exits_2_before_any_output(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"models": "bogus"}))
    out = tmp_path / "o"
    assert main(["fit", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "unknown model source 'bogus'" in capsys.readouterr().err


def test_oversized_csv_field_exits_2(tmp_path, capsys):
    # the csv module refuses fields over 128 KiB with csv.Error, not a ValueError
    field = "1" * (200 * 1024)
    data = tmp_path / "runs.csv"
    data.write_text(f"vc,fz,t,ra,mrr\n{field},0.1,0.3,1,1\n")
    assert main(["validate", "--data", str(data)]) == 2
    front = tmp_path / "front.csv"
    front.write_text(f"method,param,vc,fz,t,ra,mrr\n{field},a,100,0.1,0.3,1,1000\n")
    out = tmp_path / "o"
    assert main(["front", str(front), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "field larger than field limit" in err and "Traceback" not in err


def test_front_with_nan_row_exits_2_before_any_output(tmp_path, capsys):
    front = tmp_path / "front.csv"
    front.write_text("method,param,vc,fz,t,ra,mrr\n"
                     "ga,a,200,0.1,0.3,1.0,2000\n"
                     "ga,b,100,0.1,0.3,nan,1000\n")
    out = tmp_path / "o"
    assert main(["front", str(front), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{front}: row 2" in capsys.readouterr().err


_NUMBERS = st.floats().map(repr) | st.sampled_from(["nan", "inf", "-inf", "1e400"])
_CELLS = _NUMBERS | st.sampled_from(["", " ", "abc", '"', "\x00", "\r"]) | st.text(max_size=4)


def _csv_files(header):
    """File contents: the given header or another first row, then up to five rows,
    each all numbers of the header's width or any cells of about that width, as
    UTF-8; or arbitrary bytes."""
    width = header.count(",") + 1
    rows = (st.lists(_NUMBERS, min_size=width, max_size=width)
            | st.lists(_CELLS, min_size=width - 1, max_size=width + 1)).map(",".join)
    text = st.builds(lambda first, body: "\n".join([first, *body]),
                     st.just(header) | rows, st.lists(rows, max_size=5))
    return text.map(lambda s: s.encode("utf-8")) | st.binary(max_size=64)


@settings(max_examples=200, deadline=None)
@given(_csv_files("vc,fz,t,ra,mrr"))
def test_load_experiments_returns_records_or_raises_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "runs.csv"
    path.write_bytes(data)
    try:
        records = load_experiments(path)
    except ValueError:
        return
    assert records and all(isinstance(r, ExperimentRecord) for r in records)


@settings(max_examples=200, deadline=None)
@given(_csv_files("method,param,vc,fz,t,ra,mrr"))
def test_read_front_csv_returns_a_finite_front_or_raises_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "front.csv"
    path.write_bytes(data)
    try:
        front = read_front_csv(path, (Sense.MINIMIZE, Sense.MAXIMIZE))
    except ValueError:
        return
    for p in front.points:
        assert len(p.x) == 3 and len(p.responses) == 2
        assert all(math.isfinite(v) for v in (*p.x, *p.responses))


def test_nested_out_dir_created(tmp_path):
    out = tmp_path / "deep" / "nested" / "dir"
    assert main(["fit", "--out", str(out)]) == 0
    assert (out / "fit.json").exists()


@pytest.mark.parametrize("command", ["fit", "optimize", "front"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command):
    front = tmp_path / "front.csv"
    front.write_text("method,param,vc,fz,t,ra,mrr\nga,a,200,0.1,0.3,1.0,2000\n")
    argv = {"fit": ["fit"],
            "optimize": ["optimize", "--method", "lexicographic", "--starts", "2"],
            "front": ["front", str(front)]}[command]
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile, afile / "x"):
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err and "Traceback" not in err
    assert afile.read_text() == ""


@pytest.mark.parametrize("command, blocked", [
    (["fit"], "fit.json"),
    (["optimize", "--method", "lexicographic"], "front_lexicographic.svg"),
    (["compare"], "efficiency.csv"),
])
def test_unwritable_output_file_exits_2(tmp_path, capsys, command, blocked):
    # a directory where an output file goes makes the write fail inside --out
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    assert main([*command, "--config", write_config(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / blocked}") and "Traceback" not in err


@settings(max_examples=200, deadline=None)
@given(_CONFIGS)
def test_main_exits_0_2_or_3_without_a_traceback(tmp_path_factory, raw):
    # drawn "data" strings are relative paths, so each run has a working directory of its own
    work = tmp_path_factory.mktemp("main")
    (work / "cfg.json").write_text(json.dumps(raw))
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["optimize", "--method", "weighted_sum", "--config", "cfg.json",
                         "--out", str(work / "o")])
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


# Typed configs: every key draws a well-typed, in-range value, so each draw runs
# its routines with non-default settings. Sizes stay small: pop <= 12, gens <= 5,
# starts <= 3, sweep points <= 5.
_DECADES = st.integers(-12, -1).map(lambda k: 10.0 ** k)
_BY_ANNOTATION = {int: st.integers(0, 2 ** 16), float: _DECADES}
_SIZED = {
    ("method", "method"): st.sampled_from(ALL_METHODS + ("all",)),
    ("method", "p_values"): st.lists(st.integers(1, 20), min_size=1, max_size=3),
    ("method", "weight_steps"): st.integers(2, 5),
    ("method", "epsilon_points"): st.integers(2, 5),
    ("method", "epsilon_primary"): st.sampled_from(OBJECTIVES),
    ("method", "order"): st.permutations(OBJECTIVES).flatmap(
        lambda names: st.integers(1, len(names)).map(lambda k: list(names[:k]))),
    ("solver", "starts"): st.integers(1, 3),
    ("solver", "max_outer"): st.integers(1, 3) | st.just(50),
    ("solver", "max_inner"): st.integers(1, 3) | st.just(200),
    ("ga", "pop"): st.sampled_from([4, 6, 8, 10, 12]),
    ("ga", "gens"): st.integers(0, 5),
}


def _typed_block(block, cls):
    hints = typing.get_type_hints(cls)
    return st.fixed_dictionaries({}, optional={
        key: _SIZED.get((block, key), _BY_ANNOTATION.get(hints[name]))
        for key, name in CONFIG_KEYS[block].items()})


def _sub_box(fractions):
    lb, span = CASE_STUDY_BOUNDS.lower, CASE_STUDY_BOUNDS.span
    return {"lower": [lo + 0.4 * a * w for lo, a, w in zip(lb, fractions[:3], span)],
            "upper": [lo + (1.0 - 0.4 * b) * w for lo, b, w in zip(lb, fractions[3:], span)]}


_TYPED_CONFIGS = st.fixed_dictionaries({}, optional={
    "models": st.sampled_from(MODEL_SOURCES),
    "bounds": st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6).map(_sub_box),
    "method": _typed_block("method", MethodConfig),
    "solver": _typed_block("solver", SolverConfig),
    "ga": _typed_block("ga", GaConfig),
})


def test_typed_strategy_draws_every_key():
    for block, cls in (("method", MethodConfig), ("solver", SolverConfig), ("ga", GaConfig)):
        hints = typing.get_type_hints(cls)
        for key, name in CONFIG_KEYS[block].items():
            assert (block, key) in _SIZED or hints[name] in _BY_ANNOTATION, (block, key)


@settings(max_examples=25, deadline=None)
@given(_TYPED_CONFIGS)
def test_main_runs_typed_configs(tmp_path_factory, raw):
    # a well-typed, in-range config is never a config error: it runs, or a solve fails
    work = tmp_path_factory.mktemp("typed")
    (work / "cfg.json").write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["optimize", "--config", str(work / "cfg.json"), "--out", str(work / "o")])
    assert code in (0, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_readme_config_example_names_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"--config config.json`.*?```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "config.json"
    path.write_text(example)
    assert isinstance(load_config(path), RunConfig)
    raw = json.loads(example)
    assert set(raw) == set(CONFIG_KEYS[""])
    for block, keys in CONFIG_KEYS.items():
        if block:
            assert set(raw[block]) == set(keys), block


def test_cli_import_leaves_scipy_unloaded():
    # the runtime needs numpy alone; scipy is a test and benchmark dependency
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import pareto_forge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


# -- payloads and process reuse -------------------------------------------------


def _asdict_point(result):
    """A solved point's JSON as ``dataclasses.asdict`` builds it: the oracle of the
    shallow ``_point_dict``."""
    fields = dataclasses.asdict(result)
    outcome = fields.pop("outcome")
    if isinstance(result, LexStage):
        return {**fields, "outcome": outcome}
    return {**fields, **outcome}


def _asdict_payload(method, result, parameters, optima):
    payload = {"method": method, "counters": dataclasses.asdict(result.counters),
               "parameters": parameters}
    if method != "ga":
        payload["individual_optima"] = optima
    if method == "lexicographic":
        payload["terminated_early"] = result.terminated_early
        payload["stages"] = [_asdict_point(r) for r in result.results]
    elif method == "ga":
        payload["points"] = [{"tag": p.tag, "x": p.x, "responses": p.responses}
                             for p in result.front.points]
    else:
        payload["points"] = [_asdict_point(r) for r in result.results]
    return payload


def test_routine_payloads_equal_their_asdict_oracle(tmp_path):
    cfg = load_config(write_config(tmp_path))
    problem = cli._build_problem(cfg, cli._select_models(cfg, cli._load_records(cfg)))
    utopia = scalarize.individual_optima(problem, cfg.solver)
    optima = cli._utopia_dict(problem, utopia)
    assert optima["counters"] == dataclasses.asdict(utopia.counters)
    for method in ALL_METHODS:
        result, parameters = cli._run_method(method, cfg, problem, utopia)
        got = cli._routine_payload(method, result, parameters, optima)
        want = _asdict_payload(method, result, parameters, optima)
        assert got == want, method
        # the same JSON text, so the same types too (tuples are written as lists)
        assert (json.dumps(got, indent=2, sort_keys=True)
                == json.dumps(want, indent=2, sort_keys=True)), method


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_main_calls_in_one_process_equal_fresh_interpreters(tmp_path):
    # the parser and the config annotations are built once per process: a call must
    # write what it writes alone, after a run with a flag and after a bad config
    (tmp_path / "bad.json").write_text('{"solver": {"starts": "two"}}')
    common = ["--method", "lexicographic", "--seed", "3", "--starts", "2"]
    calls = [("ra_mrr", ["optimize", *common, "--order", "ra,mrr"]),
             ("bad", ["optimize", *common, "--config", str(tmp_path / "bad.json")]),
             ("default", ["optimize", *common])]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    sink = io.StringIO()
    for name, argv in calls:
        in_process, alone = tmp_path / "in_process" / name, tmp_path / "alone" / name
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([*argv, "--out", str(in_process)])
        proc = subprocess.run([sys.executable, "-m", "pareto_forge.cli", *argv,
                               "--out", str(alone)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert code == proc.returncode == (2 if name == "bad" else 0), (name, proc.stderr)
        assert in_process.exists() == alone.exists() == (name != "bad")
        if name != "bad":
            assert _tree_bytes(in_process) == _tree_bytes(alone), name
    lex = [json.loads((tmp_path / "in_process" / n / "outcome_lexicographic.json").read_text())
           for n in ("ra_mrr", "default")]
    assert [p["parameters"]["order"] for p in lex] == [["Ra", "MRR"], ["MRR", "Ra"]]
