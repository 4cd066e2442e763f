#!/usr/bin/env python3
"""Check that two source trees write the same bytes for a fixed set of commands.

Runs every command of ``COMMANDS`` once with each tree's ``src`` on the import
path, each command in a fresh interpreter, into one directory per tree. A
command's exit code, stdout and stderr are written beside its files, so they
are compared too. Prints every file whose bytes differ or that only one tree
wrote, and every command that exited non-zero, and exits 1 if there is any;
the two directories are then kept for inspection, otherwise they are removed.
The GA commands include a short run at population 120, every ranking of which
needs the fronts past front 0, so a fault there shows in its final front.

Usage: python scripts/same_outputs.py A_SRC B_SRC
"""

import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# the benchmark's synthetic 125-run dataset, written by the tree under test
_SYNTHETIC = ("import pathlib, sys\n"
              "sys.path.append(sys.argv[1])\n"
              "from workloads import synthetic_csv_text\n"
              "pathlib.Path('synthetic.csv').write_text(synthetic_csv_text())\n")

#: (name, command-line arguments of ``pareto_forge.cli``), run in order in the
#: tree's directory; compare_eps41 runs every routine with a 41-point epsilon
#: sweep (one batched solve of its points x starts); "synthetic" writes the
#: dataset the eps and lex commands read; lex_ra_mrr and lex_single run the case
#: study's lexicographic sequence in reverse order and with one objective alone;
#: ga.json sets the population of 120
#: that the benchmark's GA runs use, and ga_copies.json turns crossover and
#: mutation off, so every child is a copy of its parent and the population fills
#: with duplicate rows, whose ties the ranking, crowding and selection must break
#: the same way; merge_band merges two fronts whose points differ inside the
#: merge band; ga_early stops a population of 120 after 3 generations, while
#: front 0 cannot yet fill the next population,
#: so every ranking it makes is exact past front 0 and decides its final front;
#: ga_small runs a population of 4, fewer rows than the unit cube's 8 corners
#: that seed the initial population
COMMANDS = (
    ("fit", ["fit", "--out", "fit"]),
    ("validate", ["validate"]),
    ("compare_7", ["compare", "--seed", "7", "--out", "compare_7"]),
    ("compare_20", ["compare", "--seed", "20", "--out", "compare_20"]),
    ("compare_eq23", ["compare", "--models", "eq23", "--seed", "3", "--out", "compare_eq23"]),
    ("compare_eq21", ["compare", "--models", "eq21", "--seed", "3", "--out", "compare_eq21"]),
    ("compare_eps41", ["compare", "--config", "eps41.json", "--seed", "3",
                       "--out", "compare_eps41"]),
    ("synthetic", None),
    ("eps_41", ["optimize", "--method", "epsilon_constraint", "--epsilon-points", "41",
                "--data", "synthetic.csv", "--seed", "3", "--out", "eps_41"]),
    ("lex", ["optimize", "--method", "lexicographic", "--data", "synthetic.csv", "--seed", "3",
             "--out", "lex"]),
    ("lex_ra_mrr", ["optimize", "--method", "lexicographic", "--order", "ra,mrr", "--seed", "3",
                    "--out", "lex_ra_mrr"]),
    ("lex_single", ["optimize", "--method", "lexicographic", "--order", "mrr", "--seed", "3",
                    "--out", "lex_single"]),
    ("ga_0", ["optimize", "--method", "ga", "--config", "ga.json", "--seed", "0",
              "--out", "ga_0"]),
    ("ga_1", ["optimize", "--method", "ga", "--config", "ga.json", "--seed", "1",
              "--out", "ga_1"]),
    ("merge", ["front", "ga_0/front_ga.csv", "ga_1/front_ga.csv", "--out", "merge"]),
    ("ga_copies", ["optimize", "--method", "ga", "--config", "ga_copies.json", "--seed", "2",
                   "--out", "ga_copies"]),
    ("merge_band", ["front", "band_a.csv", "band_b.csv", "--out", "merge_band"]),
    ("ga_early", ["optimize", "--method", "ga", "--config", "ga_early.json", "--seed", "0",
                  "--out", "ga_early"]),
    ("ga_small", ["optimize", "--method", "ga", "--config", "ga_small.json", "--seed", "5",
                  "--out", "ga_small"]),
)

_FRONT_HEADER = "method,param,vc,fz,t,ra,mrr\n"

#: configuration and input files written into each tree's directory before the
#: commands run. The merge band is 1e-9 of each response's largest magnitude, here
#: 8e-10 in ra and 3e-5 in mrr: b,2 and b,3 lie inside it of a,2 and a,1, which
#: dominate them exactly, so only the band keeps them; b,1 is dominated beyond it
CONFIGS = {
    "eps41.json": '{"method": {"epsilon_points": 41}}\n',
    "ga.json": '{"ga": {"pop": 120}}\n',
    "ga_copies.json": '{"ga": {"pop": 16, "gens": 40, "pc": 0, "pm": 0}}\n',
    "ga_early.json": '{"ga": {"pop": 120, "gens": 3}}\n',
    "ga_small.json": '{"ga": {"pop": 4, "gens": 5}}\n',
    "band_a.csv": _FRONT_HEADER + "a,1,100,0.1,0.3,0.5,10000\na,2,200,0.1,0.3,0.8,30000\n",
    "band_b.csv": _FRONT_HEADER + ("b,1,150,0.1,0.3,0.6,9000\n"
                                   "b,2,210,0.1,0.3,0.8000000001,30000\n"
                                   "b,3,110,0.1,0.3,0.5,9999.999999\n"),
}


def run_tree(src: Path, out: Path, commands) -> list[str]:
    """Run ``commands`` with ``src`` first on the import path, in ``out``; returns
    the names of those that exited non-zero."""
    failed = []
    out.mkdir(parents=True)
    for name, text in CONFIGS.items():
        (out / name).write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for name, argv in commands:
        if argv is None:
            argv = ["-c", _SYNTHETIC, str(PERFBENCH)]
        else:
            argv = ["-m", "pareto_forge.cli", *argv]
        done = subprocess.run([sys.executable, *argv], cwd=out, env=env, capture_output=True,
                              text=True)
        log = f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        (out / f"{name}.log").write_text(log, encoding="utf-8")
        if done.returncode:
            failed.append(name)
    return failed


def differing(a: Path, b: Path) -> list[str]:
    """Relative paths of the files under ``a`` and ``b`` whose bytes differ, or
    that only one of them holds."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(n) for n in names
                  if not ((a / n).is_file() and (b / n).is_file()
                          and filecmp.cmp(a / n, b / n, shallow=False)))


def main(a_src: str, b_src: str, commands=COMMANDS) -> int:
    work = Path(tempfile.mkdtemp(prefix="same_outputs_"))
    a, b = work / "a", work / "b"
    # a command that fails in both trees would compare equal and show nothing
    failed = [f"{tree}/{name}.log" for tree, src in (("a", a_src), ("b", b_src))
              for name in run_tree(Path(src), work / tree, commands)]
    files = sum(1 for p in a.rglob("*") if p.is_file())
    diff = differing(a, b)
    for name in failed:
        print(f"failed: {name}")
    for name in diff:
        print(f"differs: {name}")
    if failed or diff:
        print(f"{len(diff)} of {files} file(s) differ, {len(failed)} command(s) failed; "
              f"outputs kept in {work}")
        return 1
    shutil.rmtree(work)
    print(f"all {files} files identical over {len(commands)} commands")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__.rsplit("\n\n", 1)[1].strip(), file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
