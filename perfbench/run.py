#!/usr/bin/env python3
"""Benchmark of the pareto-forge command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): case_study_compare, ga_seed_merge,
eps_synthetic. Load is one process, closed loop, one caller; nothing else runs
while an iteration is timed.

With ``--trace 0`` the end-to-end metrics are measured:

* ``setup_s``: time from interpreter start to ready (package imported, inputs
  loaded or generated, models fitted) in fresh interpreters, each scaled by
  the fixed calibration loop (``calibrate.py``) run just before and just after
  it to a host on which that loop takes ``SETUP_CALIB_REF_MS``; the median of
  ``SETUP_RUNS`` probes;
* ``wall_rel``: median over timed iterations of the iteration's wall time
  divided by the mean wall time of the calibration loop run just before and
  just after it;
* ``peak_rss_mb``: peak resident memory of the benchmark process, read right
  after the timed loop;
* ``hv_ratio``: mean over the command seeds of the run of HV(front) /
  HV(reference), the reference being the non-dominated set of a 201^3 grid of
  the fitted models;
* ``converged_frac``: solver outcomes in the ``outcome_*.json`` files with
  ``converged: true``, over all solver outcomes, counted once per command seed
  (1 where there are none).

Every iteration with the same command seed must repeat the outputs of the
first, so the last two metrics are exact: the same workload seed gives the
same values however fast the host is. The report above the result line also
gives the raw set-up and wall times with their sample counts,
``failed_frac``, ``unconverged_frac`` = 1 - ``converged_frac`` and
``hv_gap`` = 1 - ``hv_ratio``. Those three are often exactly 0, so the gated
metrics are their never-zero forms and the result's ``failed`` count.

With ``--trace 1`` a separate run wraps the package's layers (see
``layertrace.py``) on every second iteration and reports per-layer self times
and counters, and the tracing overhead. Each traced iteration runs the
commands of the untraced iteration before it. Spans are written to
``.perfbench_out/spans_<workload>.tsv``.

Every iteration's outputs are checked (``checks.py``); a failed check, a
non-zero exit or a front or counter that differs from an earlier iteration
with the same seed is a failed iteration. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import calibrate
from workloads import ROOT, SRC, WORKLOADS, use_checkout_package

HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 9
#: Calibration loop time of the host that ``setup_s`` is scaled to, near the
#: loop's typical time on the 2-CPU host the benchmark was written on.
SETUP_CALIB_REF_MS = 25.0
IMPORT_RUNS = 3
PROBE_TIMEOUT_S = 60
MIN_TIMED_ITERATIONS = 4

END_TO_END_UNITS = {"setup_s": "s", "wall_rel": "ratio", "peak_rss_mb": "MB", "hv_ratio": "ratio",
                    "converged_frac": "ratio"}
SOLVER_ROUTINES = ("individual_optima", "global_criterion", "weighted_sum",
                   "epsilon_constraint", "lexicographic")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def setup_probe(workload: str, input_dir: Path) -> float:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(input_dir)],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def measure_setup(workload: str, work: Path) -> tuple[list[float], list[float]]:
    """Raw seconds of each set-up probe, and each scaled to the reference host
    by the calibrations just before and just after it."""
    gc.collect()
    calib_ns = [calibrate()]
    raw = []
    for k in range(SETUP_RUNS):
        raw.append(setup_probe(workload, work / f"probe{k}"))
        calib_ns.append(calibrate())
    scaled = [2e6 * SETUP_CALIB_REF_MS * r / (a + b)
              for r, a, b in zip(raw, calib_ns, calib_ns[1:])]
    return raw, scaled


def import_probe() -> dict[str, float]:
    """Cumulative import seconds of the package and of its solver module."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pareto_forge"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()[-2000:]}")
    found = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line[len("import time:"):].split("|")
            if name.strip() in ("pareto_forge", "pareto_forge.nlsolver"):
                found[name.strip()] = int(cumulative) / 1e6
    return found


def run_commands(cli, argvs) -> list:
    """Run each argv through ``cli.main``; returns exit codes (or error text)."""
    codes = []
    sink = io.StringIO()
    for argv in argvs:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
            except Exception as exc:  # a traceback is a failed iteration, not a crashed run
                code = f"{type(exc).__name__}: {exc}"
        codes.append(code)
        if code != 0:
            break
    return codes


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def timed_loop(args, workload, inputs, cli, tracer, work: Path) -> list[dict]:
    """Closed-loop iterations of the workload's ``cli.main`` calls, in process.

    Each iteration runs between two runs of the calibration loop (the one after
    an iteration is the one before the next). Iteration 0 is a warm-up inside
    the ``--seconds`` budget: its outputs are checked but its time is not
    reported. The loop goes on until it has timed a few iterations and run
    every command seed of the workload once, then starts no iteration that
    would likely end past the budget. With a tracer, every second iteration
    after the warm-up is traced and repeats the commands of the one before, so
    traced and untraced iterations share the work and the host's drift.
    """
    iterations = []
    deadline = time.monotonic() + args.seconds
    index = 0
    while True:
        timed = [it["wall_ns"] for it in iterations if not it["warmup"]]
        seeds = {it["seed"] for it in iterations}
        if len(timed) >= MIN_TIMED_ITERATIONS and len(seeds) >= workload.seed_cycle:
            typical_s = statistics.median(timed) / 1e9
            if time.monotonic() + typical_s > deadline:
                break
        out = work / f"iter{index:04d}"
        slot = (index + 1) // 2 if tracer is not None else index
        seed, argvs = workload.commands(args.seed, slot, inputs, out)
        traced = tracer is not None and index > 0 and index % 2 == 0
        gc.collect()
        calib_ns = calibrate()
        if iterations:
            iterations[-1]["calib_after_ns"] = calib_ns
        if traced:
            tracer.install()
            tracer.begin_iteration(index)
            try:
                codes = run_commands(cli, argvs)
            finally:
                wall_ns, self_ns, counts = tracer.end_iteration()
                tracer.uninstall()
        else:
            t0 = time.perf_counter_ns()
            codes = run_commands(cli, argvs)
            wall_ns = time.perf_counter_ns() - t0
            self_ns, counts = None, None
        iterations.append({
            "index": index, "seed": seed, "dir": out.name, "codes": codes,
            "warmup": index == 0, "traced": traced, "wall_ns": wall_ns, "calib_ns": calib_ns,
            "bytes_written": dir_bytes(out) if out.exists() else 0,
            "self_ns": self_ns, "counts": counts,
        })
        index += 1
    gc.collect()
    iterations[-1]["calib_after_ns"] = calibrate()
    return iterations


def digest(out: Path, counters: dict) -> str:
    """Hash of every CSV the iteration wrote, byte for byte, and of its counters."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*.csv")):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    h.update(json.dumps(counters, sort_keys=True).encode())
    return h.hexdigest()


def evaluate_iterations(workload: str, iterations: list[dict], models, base: Path) -> None:
    """Check every iteration's outputs; adds failures, counters and hv_ratio to each."""
    from checks import CHECKS, FINAL_FRONTS, harvest, read_front_rows, utopia_of
    from pareto_forge.dataset import CASE_STUDY_BOUNDS
    from reference import grid_reference, hypervolume

    utopias = set()
    if workload == "case_study_compare":
        for it in iterations:
            try:
                utopias.add(utopia_of(base / it["dir"]))
            except (OSError, KeyError, ValueError):
                pass  # that iteration fails its check below
    ref = grid_reference(models, CASE_STUDY_BOUNDS, sorted(utopias))
    ref_hv = ref.hv
    first_digest = {}
    for it in iterations:
        out = base / it["dir"]
        failures = [f"command {k} exited with {c}" for k, c in enumerate(it["codes"]) if c != 0]
        it["counters"], it["hv_ratio"] = None, 0.0
        if not failures:
            try:
                failures += CHECKS[workload](out, ref, CASE_STUDY_BOUNDS)
                it["counters"] = harvest(out)
                rows = [r for name in FINAL_FRONTS[workload]
                        for r in read_front_rows(out / name)]
                ra = [r[3][0] for r in rows]
                mrr = [r[3][1] for r in rows]
                it["hv_ratio"] = hypervolume(ra, mrr, ref.ra_max, ref.mrr_min) / ref_hv
                key = digest(out, it["counters"])
                if first_digest.setdefault(it["seed"], key) != key:
                    failures.append(f"outputs differ from the first iteration with seed "
                                    f"{it['seed']}")
            except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if it["self_ns"] is not None and sum(it["self_ns"].values()) != it["wall_ns"]:
            failures.append("layer self times do not add up to the iteration wall time")
        it["failures"] = failures


def rel(it: dict) -> float:
    """Iteration wall time over the mean of the calibrations on either side of it."""
    return 2.0 * it["wall_ns"] / (it["calib_ns"] + it["calib_after_ns"])


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples beyond it, by nearest rank."""
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    return p, sorted(values)[max(1, math.ceil(p * n / 100)) - 1]


def git_sha() -> str:
    if not (ROOT / ".git").exists():  # do not report the sha of an enclosing repository
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": git_sha()}


def first_per_seed(iterations: list[dict]) -> list[dict]:
    """The first iteration of each command seed, by seed; the others repeat its outputs."""
    first = {}
    for it in iterations:
        first.setdefault(it["seed"], it)
    return [first[seed] for seed in sorted(first)]


def end_to_end(timed, per_seed, setup, peak_rss_mb, attempted, failed):
    raw_setup, scaled_setup = setup
    rels = [rel(it) for it in timed]
    wall = [it["wall_ns"] / 1e9 for it in timed]
    calib_ms = statistics.median(it["calib_ns"] / 1e6 for it in timed)
    hv = statistics.fmean(it["hv_ratio"] for it in per_seed)
    outcomes = sum(c["outcomes"] for it in per_seed if it["counters"]
                   for c in it["counters"].values())
    unconverged = sum(c["unconverged"] for it in per_seed if it["counters"]
                      for c in it["counters"].values())
    metrics = {
        "setup_s": statistics.median(scaled_setup),
        "wall_rel": statistics.median(rels),
        "peak_rss_mb": peak_rss_mb,
        "hv_ratio": hv,
        # 0 of 0 unconverged where no solver runs, as in the report line below
        "converged_frac": 1.0 - unconverged / outcomes if outcomes else 1.0,
    }
    tail = tail_percentile(wall)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "too few samples for a percentile with 10 beyond it")
    lines = [
        f"  setup_s          {metrics['setup_s']:.4f} s      median of {len(scaled_setup)} fresh "
        f"interpreters at {SETUP_CALIB_REF_MS:g} ms per calibration; raw median "
        f"{statistics.median(raw_setup):.4f} s (not gated)",
        f"  wall_rel         {metrics['wall_rel']:.3f} ratio  median of {len(rels)} timed "
        f"iterations; calibration loop median {calib_ms:.2f} ms",
        f"  wall_s           {statistics.median(wall):.4f} s      median of {len(wall)}; "
        f"{tail_text} (raw, not gated)",
        f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB",
        f"  failed_frac      {failed / attempted:.4f}       {failed} of {attempted} iterations",
        f"  unconverged_frac {unconverged / outcomes if outcomes else 0.0:.4f}       "
        f"{unconverged} of {outcomes} solver outcomes of {len(per_seed)} command seeds",
        f"  hv_gap           {1.0 - hv:.6f}     hv_ratio {hv:.6f} against the 201^3 grid front, "
        f"mean of {len(per_seed)} command seeds",
    ]
    return metrics, lines


def _median_of(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def per_layer(traced, untraced, imports) -> dict:
    from layertrace import LAYERS

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = ("s", _median_of(it["self_ns"][layer] / 1e9 for it in traced))
    m["trace.unattributed_s"] = ("s", _median_of(it["self_ns"]["unattributed"] / 1e9
                                                 for it in traced))
    m["trace.overhead_rel"] = ("ratio", _median_of(rel(it) for it in traced)
                               - _median_of(rel(it) for it in untraced))
    m["trace.spans"] = ("count", _median_of(it["counts"].get("spans", 0) for it in traced))

    def count(key):
        return _median_of(it["counts"].get(key, 0) for it in traced)

    def ratio(num, den):
        # no solves at all: nothing missed and nothing unconverged
        return _median_of(it["counts"][num] / it["counts"][den] if it["counts"].get(den) else 1.0
                          for it in traced)

    m["polymodel.calls"] = ("count", count("polymodel.calls"))
    m["nlsolver.minimize_calls"] = ("count", count("nlsolver.minimize_calls"))
    m["nlsolver.start_hit_frac"] = ("ratio", ratio("nlsolver.start_hits", "nlsolver.starts"))
    m["nlsolver.converged_frac"] = ("ratio", ratio("nlsolver.converged", "nlsolver.solves"))
    m["nlsolver.import_s"] = ("s", _median_of(i["pareto_forge.nlsolver"] for i in imports))
    m["pareto_forge.import_s"] = ("s", _median_of(i["pareto_forge"] for i in imports))
    for routine in SOLVER_ROUTINES:
        for field in ("iterations", "function_evals", "unconverged"):
            m[f"scalarize.{routine}.{field}"] = (
                "count", _median_of(it["counters"][routine][field] for it in traced
                                    if it["counters"]))
    m["evolve.sort_calls"] = ("count", count("evolve.sort_calls"))
    m["evolve.generation_ms"] = ("ms", _median_of(
        it["counts"]["evolve.run_ns"] / it["counts"]["evolve.run_generations"] / 1e6
        if it["counts"].get("evolve.run_generations") else 0.0 for it in traced))
    m["evolve.function_evals"] = ("count", _median_of(it["counters"]["ga"]["function_evals"]
                                                      for it in traced if it["counters"]))
    m["evolve.generations"] = ("count", _median_of(it["counters"]["ga"]["iterations"]
                                                   for it in traced if it["counters"]))
    m["pareto.filter_points_in"] = ("count", count("pareto.filter_points_in"))
    m["pareto.filter_points_out"] = ("count", count("pareto.filter_points_out"))
    m["cli.bytes_written"] = ("B", _median_of(it["bytes_written"] for it in traced))
    m["cli.bytes_read"] = ("B", count("cli.bytes_read"))
    return m


def run(args, work: Path) -> int:
    from layertrace import Tracer, load_layers

    workload = WORKLOADS[args.workload]
    setup, imports = ([], []), []
    if args.trace:
        imports = [import_probe() for _ in range(IMPORT_RUNS)]
    else:
        setup = measure_setup(args.workload, work)

    inputs = workload.prepare(work / "inputs")
    modules = load_layers()
    tracer = Tracer(modules) if args.trace else None
    iterations = timed_loop(args, workload, inputs, modules["cli"], tracer, work / "iterations")
    # read before the grid reference and the checks, which are not the workload's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans_written = tracer.write_spans(OUT_DIR / f"spans_{args.workload}.tsv") if tracer else 0

    models = [m.coefficients for m in inputs.models]
    evaluate_iterations(args.workload, iterations, models, work / "iterations")
    attempted = len(iterations)
    failed = sum(bool(it["failures"]) for it in iterations)
    timed = [it for it in iterations if not it["warmup"]]
    untraced = [it for it in timed if not it["traced"]]
    traced = [it for it in timed if it["traced"]]

    info = machine()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s: {attempted} "
          f"iterations (1 warm-up), one process, closed loop, one caller")
    print(f"  machine: {info['nproc']} cpus, {info['cpu']}; Python {info['python']}, "
          f"numpy {info['numpy']}, scipy {info['scipy']}; git {info['git_sha']}")
    for it in iterations:
        for message in it["failures"][:5]:
            print(f"  FAILED iteration {it['index']} (seed {it['seed']}): {message}")

    if args.trace:
        layer = per_layer(traced, untraced, imports)
        metrics = {name: {"value": value, "unit": unit} for name, (unit, value) in layer.items()}
        for name, (unit, value) in layer.items():
            print(f"  {name:38s} {value:.6g} {unit}")
        print(f"  {len(traced)} traced and {len(untraced)} untraced iterations; "
              f"{spans_written} spans in {OUT_DIR.name}/spans_{args.workload}.tsv")
    else:
        values, lines = end_to_end(untraced, first_per_seed(iterations), setup, peak_rss_mb,
                                   attempted, failed)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print("\n".join(lines))

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "setup_raw_s": setup[0],
        "setup_scaled_s": setup[1], "imports": imports,
        "iterations": [{k: it[k] for k in ("index", "seed", "traced", "wall_ns", "calib_ns",
                                           "calib_after_ns",
                                           "hv_ratio", "counters", "failures", "self_ns",
                                           "counts", "bytes_written")}
                       for it in iterations],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"report_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        use_checkout_package()
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of a pareto-forge checkout", file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
