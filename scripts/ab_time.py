#!/usr/bin/env python3
"""Time two source trees against each other in one process.

Imports each tree's ``pareto_forge`` under its own name (the package uses
relative imports only), writes the inputs of the benchmark workloads of
``perfbench/workloads.py`` once, and then runs each workload's command set, the
``cli.main`` calls of one benchmark iteration, with the two trees in turn,
alternating which tree goes first. Both trees run in the same process, one
right after the other, so host drift that moves separate processes by tens of
percent mostly cancels in each pair's ratio. Prints, per workload, the median of
the per-pair time ratios B/A, the number of pairs in which B was faster, each
tree's median time with its quartiles, and whether B meets the claim rule: B
faster in at least nine tenths of the pairs (ties count for neither), and
median A - median B wider than A's interquartile range.

Usage: python scripts/ab_time.py A_SRC B_SRC [--reps N] [--seed N] [--workloads NAME,...]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_cli(name: str, src: str):
    """``cli`` of the package under ``src``, imported as the package ``name``."""
    init = Path(src).resolve() / "pareto_forge" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no pareto_forge package under {src}")
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run_once(cli, argvs) -> float:
    """Seconds that ``argvs`` take through ``cli.main``; a failed command raises."""
    sink = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes = [cli.main(argv) for argv in argvs]
    elapsed = time.perf_counter() - t0
    if any(codes):
        raise RuntimeError(f"{argvs} exited {codes}: {sink.getvalue()[-2000:]}")
    return elapsed


def compare(clis, workload, reps: int, work: Path, seed: int = 0) -> list[tuple[float, float]]:
    """(A seconds, B seconds) of ``reps`` pairs of one workload's iterations at
    workload seed ``seed``, after one untimed iteration per tree; pair i runs A
    first when i is even."""
    inputs = workload.prepare(work / "inputs")
    pairs = []
    for i in range(-1, reps):
        _, argvs = workload.commands(seed, max(i, 0), inputs, work / "out")
        times = {}
        for tree in ((0, 1) if i % 2 == 0 else (1, 0)):
            times[tree] = run_once(clis[tree], argvs)
            shutil.rmtree(work / "out", ignore_errors=True)
        if i >= 0:
            pairs.append((times[0], times[1]))
    return pairs


def quartiles(times) -> tuple[float, float]:
    """First and third quartiles of ``times``, linearly interpolated as numpy's
    default percentile does."""
    if len(times) < 2:
        return times[0], times[0]
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, q3


def summary(name: str, seed: int, pairs) -> str:
    """One line of ``pairs`` (A seconds, B seconds) of a workload."""
    a, b = [p[0] for p in pairs], [p[1] for p in pairs]
    wins = sum(tb < ta for ta, tb in pairs)
    (a_q1, a_q3), (b_q1, b_q3) = quartiles(a), quartiles(b)
    a_s, b_s = statistics.median(a), statistics.median(b)
    ratio = statistics.median(tb / ta for ta, tb in pairs)
    met = wins >= 0.9 * len(pairs) and a_s - b_s > a_q3 - a_q1
    return (f"{name} (seed {seed}): B/A median {ratio:.3f}, "
            f"B faster in {wins} of {len(pairs)} pairs; "
            f"median A {a_s:.4f} s (quartiles {a_q1:.4f}-{a_q3:.4f}), "
            f"B {b_s:.4f} s (quartiles {b_q1:.4f}-{b_q3:.4f}); "
            f"claim rule {'met' if met else 'not met'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("--reps", type=int, default=12, help="timed pairs per workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed, which picks each iteration's command seeds")
    parser.add_argument("--workloads", help="comma-separated names (default: all)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    path = sys.path[:]
    # the workloads' set-up imports pareto_forge from tree A to write the inputs
    sys.path[:0] = [str(Path(args.a_src).resolve()), str(PERFBENCH)]
    work = Path(tempfile.mkdtemp(prefix="ab_time_"))
    try:
        from workloads import WORKLOADS

        names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
        clis = (load_cli("ab_tree_a", args.a_src), load_cli("ab_tree_b", args.b_src))
        for name in names:
            pairs = compare(clis, WORKLOADS[name], args.reps, work / name, args.seed)
            print(summary(name, args.seed, pairs))
    finally:
        sys.path[:] = path
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
