import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_run(tmp_path, capsys):
    out = tmp_path / "results"
    assert _load("run_case_study").run(str(out)) == 0
    for name in ("fit.json", "comparison.csv", "efficiency.csv", "front_all.svg"):
        assert (out / name).is_file(), name
    assert _load("ga_seed_study").main(2) == 0
    assert "spread over 2 seeds" in capsys.readouterr().out


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["J"].shape == (2, 3) and namespace["H"].shape == (2, 3, 3)
    assert "w=0" in capsys.readouterr().out


def test_same_outputs_finds_a_tree_equal_to_itself(tmp_path, capsys):
    same_outputs = _load("same_outputs")
    for tree, text in (("a", "1"), ("b", "2")):
        (tmp_path / tree / "sub").mkdir(parents=True)
        (tmp_path / tree / "same.txt").write_text("x")
        (tmp_path / tree / "sub" / "f.txt").write_text(text)
        (tmp_path / tree / f"only_{tree}.txt").write_text("x")
    assert same_outputs.differing(tmp_path / "a", tmp_path / "b") == [
        "only_a.txt", "only_b.txt", "sub/f.txt"]
    src = str(ROOT / "src")
    subset = [c for c in same_outputs.COMMANDS if c[0] in ("fit", "validate")]
    assert same_outputs.main([src, src], subset) == 0
    assert "identical over 2 commands" in capsys.readouterr().out


def test_same_outputs_runs_both_trees_under_each_env_setting(tmp_path, capsys):
    same_outputs = _load("same_outputs")
    src = str(ROOT / "src")
    validate = [c for c in same_outputs.COMMANDS if c[0] == "validate"]
    # the interpreter reports its imports on stderr, which the command's log keeps
    env = {"PYTHONPROFILEIMPORTTIME": "1"}
    assert same_outputs.run_tree(ROOT / "src", tmp_path / "a", validate, env) == []
    assert "import time:" in (tmp_path / "a" / "validate.log").read_text(encoding="utf-8")
    pinned = ["--env", "OPENBLAS_CORETYPE=Prescott", "--env", "NPY_DISABLE_CPU_FEATURES="]
    assert same_outputs.main([src, src, *pinned], validate) == 0
    assert "identical over 1 commands" in capsys.readouterr().out
    for bad, error in (("NAME", "expected NAME=VALUE"), ("=VALUE", "expected NAME=VALUE"),
                       ("PYTHONPATH=x", "cannot set PYTHONPATH")):
        with pytest.raises(SystemExit):
            same_outputs.main([src, src, "--env", bad], validate)
        assert error in capsys.readouterr().err


def test_every_mutant_edits_one_place():
    # the gate itself runs in CI; here only its table is checked against the tree
    for mutant in _load("mutants").MUTANTS:
        text = (ROOT / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old and mutant.tests and mutant.reason, mutant.name


def test_a_mutant_that_hangs_is_reported_as_timed_out(monkeypatch, capsys):
    mutants = _load("mutants")
    sleeper = mutants.Mutant(
        "import_sleeps", mutants.EVOLVE, "from bisect import bisect_left\n",
        "from bisect import bisect_left\nimport time\ntime.sleep(120)\n",
        ("tests/test_evolve.py::test_sort_simple_chain",), "importing the package never ends")
    monkeypatch.setattr(mutants, "MUTANTS", (sleeper,))
    # the unmutated run of the named test takes about 2 s
    monkeypatch.setattr(mutants, "TIMEOUT_S", 8)
    assert mutants.main() == 1
    out = capsys.readouterr().out
    assert re.search(r"^timed out +import_sleeps ", out, re.M), out
    assert "  importing the package never ends\n" in out
    assert out.endswith("1 mutants, 1 not killed that should be\n")


def test_ab_time_runs_a_tree_against_itself(capsys):
    src = str(ROOT / "src")
    ab_time = _load("ab_time")
    assert ab_time.main([src, src, "--reps", "2", "--workloads", "ga_seed_merge"]) == 0
    seconds, quartiles = r"\d+\.\d{4} s", r"\(quartiles \d+\.\d{4}-\d+\.\d{4}\)"
    assert re.fullmatch(rf"ga_seed_merge \(seed 0\): B/A median \d+\.\d{{3}}, B faster in [0-2] of "
                        rf"2 pairs; median A {seconds} {quartiles}, B {seconds} {quartiles}; "
                        r"claim rule (met|not met)\n", capsys.readouterr().out)
    # the claim rule: B faster in nine tenths of the pairs, ties counting for
    # neither, by a median gap wider than A's interquartile range (0.2 here)
    base = [(1.0, 0.7), (1.1, 0.8), (1.2, 0.9), (1.3, 1.0), (1.4, 1.1)] * 2
    assert ab_time.quartiles([a for a, _ in base]) == pytest.approx((1.1, 1.3))
    assert ab_time.summary("w", 3, base).endswith(
        "B/A median 0.750, B faster in 10 of 10 pairs; median A 1.2000 s (quartiles "
        "1.1000-1.3000), B 0.9000 s (quartiles 0.8000-1.0000); claim rule met")
    tied = base[:9] + [(1.2, 1.2)]
    assert ab_time.summary("w", 3, tied).endswith("9 of 10 pairs; median A 1.2000 s (quartiles "
                                                  "1.1000-1.2750), B 0.9000 s (quartiles "
                                                  "0.8000-1.0000); claim rule met")
    assert ab_time.summary("w", 3, tied[:8] + [(1.3, 1.3)] + tied[9:]).endswith(
        "B faster in 8 of 10 pairs; median A 1.2000 s (quartiles 1.1000-1.2750), B 0.9000 s "
        "(quartiles 0.8000-1.0750); claim rule not met")
    narrow = [(a, a - 0.15) for a, _ in base]
    assert ab_time.summary("w", 3, narrow).endswith("claim rule not met")
    assert ab_time.summary("w", 3, [(1.0, 0.5)]).endswith(
        "median A 1.0000 s (quartiles 1.0000-1.0000), B 0.5000 s (quartiles 0.5000-0.5000); "
        "claim rule met")


def test_ab_time_seed_picks_the_commands(tmp_path, capsys):
    ab_time = _load("ab_time")
    seeds = []

    class Workload:
        def prepare(self, input_dir):
            return None

        def commands(self, seed, slot, inputs, out):
            seeds.append((seed, slot))
            return seed, [["validate"]]

    class Cli:
        @staticmethod
        def main(argv):
            return 0

    pairs = ab_time.compare((Cli, Cli), Workload(), 2, tmp_path, seed=7)
    assert len(pairs) == 2 and seeds == [(7, 0), (7, 0), (7, 1)]
    with pytest.raises(SystemExit):
        ab_time.main([str(ROOT / "src")] * 2 + ["--seed", "-1"])
    assert "--seed must be non-negative" in capsys.readouterr().err
