#!/usr/bin/env python3
"""Mutation gate: the tests must kill a fixed list of one-edit mutants of the package.

Each mutant of ``MUTANTS`` replaces one text, which occurs exactly once in its
file, by another. For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies the edit there, and runs
only the mutant's named tests with pytest: a failing test kills it. A mutant
marked equivalent changes no output, for the reason it gives, so it is expected
to survive. A run whose tests take longer than ``TIMEOUT_S`` is stopped and
reported as timed out, since a mutant can make a loop endless. Prints one line
per mutant and exits 1 if a mutant not marked equivalent survives or times out,
or if a run cannot test its mutant (a named test is missing, say). The method
is DeMillo, Lipton & Sayward, *IEEE Computer* 11(4):34, 1978.

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
EVOLVE = "src/pareto_forge/evolve.py"
NLSOLVER = "src/pareto_forge/nlsolver.py"
RANKS_TEST = "tests/test_evolve.py::test_ranks_equal_matrix_peel_and_brute_force"
SURVIVORS_TEST = "tests/test_evolve.py::test_survivors_equal_the_full_ranking_crowding_and_sort"
TEXTBOOK_TEST = "tests/test_evolve.py::test_ga_equals_textbook_nsga2"
BLOCKS_TEST = "tests/test_evolve.py::test_ga_equals_textbook_nsga2_across_block_boundaries"
PER_GENE_TEST = "tests/test_evolve.py::test_array_sbx_and_mutation_match_per_gene_reference"
KEY_ORDER_TEST = "tests/test_evolve.py::test_complex_key_sorts_rows_as_lexsort"
NATURAL_TEST = "tests/test_evolve.py::test_ga_front_responses_are_the_natural_values_of_its_points"
VARIATION_BLOCK_TEST = "tests/test_evolve.py::test_variation_is_drawn_a_bounded_block_at_a_time"
CROWDING_TEST = "tests/test_evolve.py::test_crowding_by_rank_equals_per_rank_and_previous_crowding"
MIRROR_TEST = "tests/test_metamorphic.py::test_swapping_the_objectives_mirrors_the_ga"
LAGRANGIAN_ORACLE_TEST = ("tests/test_jets.py::"
                          "test_lagrangian_and_squared_violation_equal_the_full_matrix_oracle")


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
    Mutant("rho_grows_on_0.9", NLSOLVER,
           "grow = shifted > 0.25 * v_prev[live]", "grow = shifted > 0.9 * v_prev[live]",
           ("tests/test_scalarize.py::test_stalled_epsilon_rows_leave_the_multiplier_loop",),
           "the penalty grows only when the violation barely falls"),
    Mutant("merge_tolerance_zero", CLI, "return 1e-9 * np.abs(", "return 0.0 * np.abs(",
           ("tests/test_svgplot.py::"
            "test_front_of_extreme_finite_values_exits_0_with_a_plottable_svg",),
           "the merge keeps points that differ only by solver noise"),
    Mutant("front_zero_strict_below_best", EVOLVE,
           "~(b >= best[first])", "b < best[first]",
           (RANKS_TEST, SURVIVORS_TEST),
           "the first sorted row and its copies, under the NaN head, leave front 0"),
    Mutant("copy_runs_not_swapped", EVOLVE,
           "    if any(falls):\n", "    if False:\n",
           (SURVIVORS_TEST, TEXTBOOK_TEST, MIRROR_TEST),
           "a minimized second or a maximized first objective is crowded in the layout "
           "reversed, so the last of a run of exact copies takes its first's distance"),
    Mutant("copy_swap_in_the_other_objective", EVOLVE,
           "falls = [senses[0] is Sense.MAXIMIZE, senses[1] is Sense.MINIMIZE]",
           "falls = [senses[1] is Sense.MINIMIZE, senses[0] is Sense.MAXIMIZE]",
           (SURVIVORS_TEST, TEXTBOOK_TEST),
           "under (min, min) or (max, max) the copy runs swap their ends in the objective "
           "whose natural value rises along the layout"),
    Mutant("front_span_over_the_layout", EVOLVE,
           "        first, last = np.repeat(stop - counts, counts)[1:-1], "
           "np.repeat(stop - 1, counts)[1:-1]\n", "",
           (SURVIVORS_TEST, CROWDING_TEST),
           "every front's interior rows divide by the span of the whole layout, from front "
           "0's first row to the last front's last"),
    Mutant("survivors_tie_by_front_position", EVOLVE,
           "key.imag = at  #", "key.imag = np.arange(len(at))  #",
           (SURVIVORS_TEST,),
           "survivors of equal crowding are taken in layout order, not index order"),
    Mutant("selection_key_without_index", EVOLVE,
           "key.imag = at  #", "key.imag = 0.0  #",
           (SURVIVORS_TEST,),
           "survivors of equal crowding are taken in whatever order the sort leaves them"),
    Mutant("sweep_bisect_right", EVOLVE,
           "from bisect import bisect_left", "from bisect import bisect_right as bisect_left",
           (RANKS_TEST,),
           "an exact copy of a front's last row joins the next front"),
    Mutant("sweep_key_f2_only", EVOLVE,
           "zip(f2[rest].tolist(), f1[rest].tolist())", "zip(f2[rest].tolist())",
           (RANKS_TEST,),
           "a row with an equal f2 and a larger f1 joins the front that dominates it"),
    Mutant("front_sort_by_f1_alone", EVOLVE,
           'rows = np.argsort(key, kind="stable")', 'rows = np.argsort(key.real, kind="stable")',
           (RANKS_TEST, KEY_ORDER_TEST),
           "rows of equal f1 are taken in index order, so a dominated one can enter front 0"),
    Mutant("ga_ranks_natural_units", EVOLVE,
           "responses = stack_values(stack, x)", "responses = problem.natural_values(x)",
           (TEXTBOOK_TEST, NATURAL_TEST),
           "the GA's rows are natural units, so the key's f2 minimizes the maximized MRR and "
           "the final front's MRR is negated"),
    Mutant("final_front_not_converted", EVOLVE,
           "(resp[best] * [s.sign for s in senses]).tolist()", "resp[best].tolist()",
           (NATURAL_TEST, TEXTBOOK_TEST),
           "the final front reports a maximized objective's minimization form, its negation"),
    Mutant("picks_not_refilled_per_block", EVOLVE,
           "picks, draws = np.empty((block, 2, n), dtype=np.intp), np.empty((block, 19 * (n // 2)))\n"
           "    while done < config.generations:\n"
           "        count = min(block, config.generations - done)\n"
           "        picks[:] = np.arange(n)\n",
           "picks, draws = np.tile(np.arange(n), (block, 2, 1)), np.empty((block, 19 * (n // 2)))\n"
           "    while done < config.generations:\n"
           "        count = min(block, config.generations - done)\n",
           (BLOCKS_TEST, VARIATION_BLOCK_TEST, TEXTBOOK_TEST),
           "every block after the first shuffles the last block's permutations again, so its "
           "tournaments are not rng.permutation(n)'s"),
    Mutant("ga_finiteness_unchecked", EVOLVE,
           "        if not np.isfinite(responses).all():\n", "        if False:\n",
           ("tests/test_cli.py::"
            "test_ga_of_an_overflowing_box_is_a_numeric_error_without_warning",),
           "the GA ranks infinite and NaN responses and writes a front where every solver "
           "routine stops with a numerical failure"),
    Mutant("beta_not_neutral_off_crossing", EVOLVE,
           "& (swap < 0.5), beta, 1.0)", "& (swap < 0.5), beta, beta)",
           (PER_GENE_TEST, TEXTBOOK_TEST, BLOCKS_TEST),
           "a gene that does not cross takes its pair's spread factor anyway"),
    Mutant("step_not_zeroed_off_mutation", EVOLVE,
           "step = np.where(gene_coin < config.mutation_prob, np.where(low, r - 1.0, 1.0 - r), 0.0)",
           "step = np.where(low, r - 1.0, 1.0 - r)",
           (PER_GENE_TEST, TEXTBOOK_TEST, BLOCKS_TEST),
           "every gene mutates, whatever its coin"),
    Mutant("block_always_full", EVOLVE,
           "count = min(block, config.generations - done)", "count = block",
           (BLOCKS_TEST, VARIATION_BLOCK_TEST),
           "the last block runs past the configured generations"),
    Mutant("draw_slices_swapped", EVOLVE,
           "sbx, mutation = np.split(draws, [7 * half], axis=1)",
           "mutation, sbx = np.split(draws, [12 * half], axis=1)",
           (PER_GENE_TEST, TEXTBOOK_TEST),
           "crossover reads the mutation draws of a generation's row and mutation the "
           "crossover draws"),
    Mutant("solver_invalid_not_ignored", NLSOLVER,
           '@np.errstate(over="ignore", invalid="ignore")', '@np.errstate(over="ignore")',
           ("tests/test_cli.py::test_overflowing_model_value_is_a_numeric_error_without_warning",),
           "an overflowing basis term times a zero coefficient warns of an invalid value "
           "before the numerical failure is reported"),
    Mutant("bad_start_named_last", NLSOLVER,
           "starts[np.argmax(outside)]", "starts[len(outside) - 1 - np.argmax(outside[::-1])]",
           ("tests/test_nlsolver.py::test_first_bad_start_among_many_is_named",),
           "the error names the last start outside the box, not the first"),
    Mutant("start_lower_edge_strict", NLSOLVER,
           "(lo - tol <= starts)", "(lo - tol < starts)",
           ("tests/test_nlsolver.py::test_start_at_the_tolerance_edge_is_accepted",),
           "a start on the lower tolerance edge, which Bounds.contains accepts, is rejected"),
    Mutant("start_check_without_tolerance", NLSOLVER,
           "tol = 1e-9 * (hi - lo)", "tol = 0.0 * (hi - lo)",
           ("tests/test_nlsolver.py::test_start_at_the_tolerance_edge_is_accepted",),
           "a start within 1e-9 of the box span outside it is rejected"),
    Mutant("box_only_every_outer_iteration", NLSOLVER,
           "config.max_outer if prob.constrained else 1", "config.max_outer",
           ("tests/test_nlsolver.py::test_box_only_solve_is_one_inner_solve",),
           "an unconverged box-only row repeats its inner solve up to max_outer times"),
    Mutant("restoration_restarts_infeasible", NLSOLVER,
           "restored = prob.evaluate(1, stuck, s_r)[:, 0] <= config.feas_tol",
           "restored = prob.evaluate(1, stuck, s_r)[:, 0] > config.feas_tol",
           ("tests/test_nlsolver.py::"
            "test_row_at_a_locally_infeasible_vertex_leaves_for_restoration",),
           "a row that restoration made feasible is not restarted, one it left infeasible is"),
    Mutant("lagrangian_without_lam_squared", NLSOLVER,
           "out[:, 0] += (mult * mult - lam * lam) / (2.0 * rho)",
           "out[:, 0] += mult * mult / (2.0 * rho)",
           ("tests/test_nlsolver.py::test_lagrangian_value_is_the_piecewise_penalty",),
           "the Lagrangian's value is off by lam^2 / (2 rho), and by that jump where the "
           "constraint leaves the penalty"),
    Mutant("restart_without_estimate", NLSOLVER,
           ",\n                            _multiplier_estimate(prob, rows, s_r))", ")",
           ("tests/test_scalarize.py::test_restored_rows_restart_stationary_at_the_ra_optimum",),
           "a restored row restarts at lam = 0, and the objective pulls it back out of the "
           "feasible set"),
    Mutant("curvature_only_inside_penalty", NLSOLVER,
           "np.where(shifted > -rho * _ACTIVE_EPS, rho, 0.0)", "np.where(mult > 0, rho, 0.0)",
           ("tests/test_nlsolver.py::test_hessian_carries_the_bound_curvature_in_its_eps_band",),
           "a feasible row within _ACTIVE_EPS of the bound has no curvature of it in its "
           "Newton model"),
    Mutant("penalty_upper_orientation", NLSOLVER,
           "out[:, 4:] += band[:, None] * gc[:, HESS_ROW] * gc[:, HESS_COL]",
           "out[:, 4:] += band[:, None] * gc[:, HESS_COL] * gc[:, HESS_ROW]",
           (LAGRANGIAN_ORACLE_TEST,),
           "the penalty's curvature is rounded as the upper triangle's (band grad c_v) grad c_w, "
           "not the lower triangle's that eigh reads"),
    Mutant("joint_read_of_a_row_new_to_one", NLSOLVER,
           "both = fresh[0] & fresh[1]", "both = fresh[0] | fresh[1]",
           ("tests/test_nlsolver.py::test_a_row_new_to_one_function_reads_that_function_alone",),
           "a restored row, new to the objective alone, is read jointly and counted for both "
           "functions"),
    Mutant("unit_factor_without_span_product", NLSOLVER,
           "self.span[HESS_COL] * self.span[HESS_ROW]", "self.span[HESS_COL]",
           (LAGRANGIAN_ORACLE_TEST,),
           "the second partials are scaled to the unit cube by one variable's span, not two"),
    Mutant("estimate_allows_negative", NLSOLVER,
           "cands = np.where(cands > 0, cands, 0.0)", "cands = cands",
           ("tests/test_nlsolver.py::test_multiplier_estimate_is_never_negative",),
           "the restart can begin at a negative multiplier of c <= 0"),
    Mutant("svg_axis_without_ulp_test", "src/pareto_forge/svgplot.py",
           "math.isfinite(b - a) and b - a > 2.0 ** 20 * math.ulp(max(abs(a), abs(b)))",
           "math.isfinite(b - a)",
           ("tests/test_svgplot.py::"
            "test_front_of_extreme_finite_values_exits_0_with_a_plottable_svg",),
           "an axis a few units in the last place wide is ticked at a step that does not "
           "move the tick, and the tick loop never ends"),
    Mutant("stalled_rows_kept_in_search", NLSOLVER,
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
#: seconds a run's tests may take: ten times the slowest run, of every named test
#: on the unmutated tree (about 16 s on 2 shared cores)
TIMEOUT_S = 160


def _copy_tree(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", into / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def run(tests, mutant: Mutant | None = None) -> tuple[str, str]:
    """("passed", "failed", "timed out" or "error", pytest's output tail) of
    ``tests`` in a temporary copy of the tree, with ``mutant`` applied if one is
    given."""
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
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired as stopped:
            # the output read before the stop comes as bytes, even in text mode
            output = (stopped.stdout or b"") + (stopped.stderr or b"")
            return "timed out", _tail(output.decode(errors="replace"))
    return _OUTCOMES.get(proc.returncode, "error"), _tail(proc.stdout + proc.stderr)


def _tail(output: str) -> str:
    return "\n".join(output.strip().splitlines()[-15:])


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
        verdict = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
        label = verdict + (" (equivalent)" if mutant.equivalent else "")
        print(f"{label:<22} {mutant.name:<34} {time.perf_counter() - start:5.1f} s", flush=True)
        if verdict in ("error", "timed out") or (verdict == "survived" and not mutant.equivalent):
            bad += 1
            print(f"  {mutant.reason}\n" + "\n".join("  | " + line for line in tail.splitlines()))
    print(f"{len(MUTANTS)} mutants, {bad} not killed that should be")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
