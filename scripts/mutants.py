#!/usr/bin/env python3
"""Mutation gate: the tests must kill a fixed list of one-edit mutants of the package.

Each mutant of ``MUTANTS`` replaces one text, which occurs exactly once in its
file, by another. For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies the edit there, and runs
only the mutant's named tests with pytest: a failing test kills it. A mutant
marked equivalent changes no output, for the reason it gives, so it is expected
to survive. Prints one line per mutant and exits 1 if a mutant not marked
equivalent survives, or if a run cannot test its mutant (a named test is
missing, say). The method is DeMillo, Lipton & Sayward, *IEEE Computer* 11(4):34,
1978.

Usage: python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SCALARIZE = "src/pareto_forge/scalarize.py"
POLYMODEL = "src/pareto_forge/polymodel.py"
CLI = "src/pareto_forge/cli.py"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    reason: str
    equivalent: bool = False


MUTANTS = (
    Mutant("active_tol_1e-2", SCALARIZE, "ACTIVE_TOL = 1e-5", "ACTIVE_TOL = 1e-2",
           ("tests/test_scalarize.py::test_epsilon_constraint_inactive_bound",),
           "an epsilon point with scaled slack between 1e-5 and 1e-2 reads active"),
    Mutant("front_keeps_infeasible", SCALARIZE,
           "for r in results if r.feasible]", "for r in results]",
           ("tests/test_scalarize.py::"
            "test_an_infeasible_epsilon_point_is_a_result_and_not_a_front_point",),
           "an infeasible epsilon point reaches the front, its CSV, its SVG and the merge"),
    Mutant("lex_stage2_without_slack", SCALARIZE,
           "[(f_star + LEX_SLACK_REL * abs(f_star),)]", "[(f_star,)]",
           ("tests/test_metamorphic.py::"
            "test_lexicographic_is_an_individual_optimum_then_an_epsilon_point",),
           "the second stage holds the first objective at its optimum exactly"),
    Mutant("lex_stage1_from_anti_optimum", SCALARIZE,
           "outcomes = [utopia.outcomes[2 * indices[0]]]",
           "outcomes = [utopia.outcomes[2 * indices[0] + 1]]",
           ("tests/test_metamorphic.py::"
            "test_lexicographic_is_an_individual_optimum_then_an_epsilon_point",),
           "stage 1 is the first objective's worst point"),
    Mutant("lex_one_stage_terminated_early", SCALARIZE,
           "terminated = len(outcomes) == 2 and", "terminated = len(outcomes) != 2 or",
           ("tests/test_metamorphic.py::"
            "test_lexicographic_is_an_individual_optimum_then_an_epsilon_point",),
           "a one-objective order reports that its second stage stopped early"),
    Mutant("lex_stage2_guard_removed", SCALARIZE,
           "        if not held.feasible:\n            raise StageInfeasibleError(",
           "        if False:\n            raise StageInfeasibleError(",
           ("tests/test_scalarize.py::test_lexicographic_stage_infeasible",),
           "an infeasible second stage is returned as a solved point"),
    Mutant("utopia_unchecked", SCALARIZE,
           "    if utopia.problem != problem:", "    if False:",
           ("tests/test_scalarize.py::test_utopia_of_another_problem_is_rejected",),
           "a utopia solved over another box normalises this problem's sweeps"),
    Mutant("anti_optimum_sign_plus", SCALARIZE,
           "np.where(groups % 2, -1.0, 1.0)", "np.where(groups % 2, 1.0, 1.0)",
           ("tests/test_scalarize.py::"
            "test_every_callback_reads_its_column_of_a_mixed_basis_stack",
            "tests/test_scalarize.py::test_individual_optima_match_case_study"),
           "the anti-optima are solved as second optima"),
    Mutant("optimum_reads_other_model", SCALARIZE,
           "model, sign = groups // 2,", "model, sign = 1 - groups // 2,",
           ("tests/test_scalarize.py::"
            "test_every_callback_reads_its_column_of_a_mixed_basis_stack",
            "tests/test_scalarize.py::test_individual_optima_match_case_study"),
           "each objective's optimum is solved on the other objective's model"),
    Mutant("stack_values_reads_jacobian_row", POLYMODEL,
           "_product(stack, x, slice(0, None, 10))", "_product(stack, x, slice(1, None, 10))",
           ("tests/test_polymodel.py::test_one_model_rows_equal_their_column_of_the_stack",),
           "the objective values are the d/dvc rows"),
    Mutant("placement_without_b", POLYMODEL,
           "np.array(model.coefficients)[term] * a * b", "np.array(model.coefficients)[term] * a",
           ("tests/test_polymodel.py::test_stack_layout_of_a_cubic_table",),
           "second partials lose the second exponent factor, which only a cubic shows"),
    Mutant("placement_without_a", POLYMODEL,
           "np.array(model.coefficients)[term] * a * b", "np.array(model.coefficients)[term] * b",
           ("tests/test_polymodel.py::test_stack_layout_equals_the_written_out_placement",),
           "every derivative row loses its first exponent factor"),
    Mutant("point_without_counters", CLI,
           ',\n            "counters": _counters_dict(outcome.counters)}', "}",
           ("tests/test_cli.py::test_routine_payloads_equal_their_asdict_oracle",),
           "solved points in outcome_*.json carry no counters"),
    Mutant("hints_of_the_first_class", CLI,
           "_hints = functools.cache(typing.get_type_hints)",
           "_hints = (lambda seen: lambda cls: seen.setdefault(0, typing.get_type_hints(cls)))({})",
           ("tests/test_cli.py::test_flag_overrides_the_file_key",),
           "every config block is built from the first class's annotations"),
    Mutant("parser_keeps_last_order", CLI,
           "    args = _parser().parse_args(argv)\n",
           "    args = _parser().parse_args(argv)\n"
           "    [a for a in _parser()._actions if a.dest == 'command'][0].choices["
           "args.command].set_defaults(**{k: v for k, v in vars(args).items() if k == 'order'})\n",
           ("tests/test_cli.py::test_main_calls_in_one_process_equal_fresh_interpreters",),
           "an in-process call inherits the previous call's --order"),
    Mutant("lex_payload_without_optima", CLI,
           "    if method in SCALARIZATION_METHODS:\n",
           "    if method in SCALARIZATION_METHODS and method != 'lexicographic':\n",
           ("tests/test_cli.py::test_optimize_lexicographic_trace",),
           "outcome_lexicographic.json loses the individual optima its stage 1 reads"),
    Mutant("lex_slack_x1000", SCALARIZE, "LEX_SLACK_REL = 1e-6", "LEX_SLACK_REL = 1e-3",
           ("tests/test_scalarize.py::test_lexicographic_reverse_order_stage_monotonicity",),
           "the second stage trades away a thousand times the first objective's slack"),
    Mutant("epsilon_always_feasible", SCALARIZE,
           "feasible=outcome.constraint_violation <= config.feas_tol,", "feasible=True,",
           ("tests/test_scalarize.py::test_epsilon_constraint_infeasible",),
           "an unattainable epsilon bound is reported as a solved point"),
    Mutant("weak_pareto_needs_every_zero", SCALARIZE,
           "weak_pareto_only=any(w == 0.0 for w in weights)",
           "weak_pareto_only=all(w == 0.0 for w in weights)",
           ("tests/test_scalarize.py::test_weighted_sum_zero_weight_flagged",),
           "a sweep endpoint with one zero weight is not flagged weakly Pareto optimal"),
    Mutant("rho_grows_on_0.9", "src/pareto_forge/nlsolver.py",
           "grow = shifted > 0.25 * v_prev[live]", "grow = shifted > 0.9 * v_prev[live]",
           ("tests/test_scalarize.py::test_stalled_epsilon_rows_leave_the_multiplier_loop",),
           "the penalty grows only when the violation barely falls"),
    Mutant("merge_tolerance_zero", CLI, "return 1e-9 * np.abs(", "return 0.0 * np.abs(",
           ("tests/test_svgplot.py::"
            "test_front_of_extreme_finite_values_exits_0_with_a_plottable_svg",),
           "the merge keeps points that differ only by solver noise"),
    Mutant("stalled_rows_kept_in_search", "src/pareto_forge/nlsolver.py",
           "            if not moving.all():\n                search,",
           "            if False:\n                search,",
           ("tests/test_nlsolver.py", "tests/test_metamorphic.py::"
            "test_sweep_equals_one_multistart_per_point"),
           "a stalled row's step is zero, so its slope is not negative and it is never "
           "evaluated: keeping it in the search only costs array work",
           equivalent=True),
    Mutant("lex_utopia_not_passed", CLI,
           "scalarize.lexicographic(problem, mc.order, solver, utopia)",
           "scalarize.lexicographic(problem, mc.order, solver)",
           ("tests/test_cli.py::test_optimize_lexicographic_trace",
            "tests/test_cli.py::test_compare_outputs"),
           "lexicographic then solves the same individual optima again, with the same "
           "config, and gets the same bits",
           equivalent=True),
)

#: pytest's exit codes: 0 every test passed, 1 some test failed; others are errors
_OUTCOMES = {0: "passed", 1: "failed"}


def _copy_tree(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", into / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def run(tests, mutant: Mutant | None = None) -> tuple[str, str]:
    """("passed", "failed" or "error", pytest's output tail) of ``tests`` in a
    temporary copy of the tree, with ``mutant`` applied if one is given."""
    with tempfile.TemporaryDirectory(prefix="mutant_") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            path = tree / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                return "error", f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True)
    tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-15:])
    return _OUTCOMES.get(proc.returncode, "error"), tail


def main() -> int:
    # a test that fails on the tree itself would kill every mutant it is named for
    every = list(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
    outcome, tail = run(every)
    if outcome != "passed":
        print(f"the named tests do not pass on the unmutated tree:\n{tail}")
        return 1
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome, tail = run(mutant.tests, mutant)
        verdict = {"passed": "survived", "failed": "killed"}.get(outcome, "error")
        label = verdict + (" (equivalent)" if mutant.equivalent else "")
        print(f"{label:<22} {mutant.name:<34} {time.perf_counter() - start:5.1f} s", flush=True)
        if verdict == "error" or (verdict == "survived" and not mutant.equivalent):
            bad += 1
            print(f"  {mutant.reason}\n" + "\n".join("  | " + line for line in tail.splitlines()))
    print(f"{len(MUTANTS)} mutants, {bad} not killed that should be")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
