"""Layer spans recorded from outside the package, by wrapping module attributes.

Each public function of the nine ``pareto_forge`` modules is replaced, at
every module attribute that refers to it, by a wrapper that records a span
when the call crosses from one layer into another. A layer is the module
that defines the function. Calls within one layer record no span, because
they do not change any layer's self time, but the counters below still see
them. The scoring callbacks that ``scalarize`` hands to the solver are
wrapped too, through ``scalarize.SmoothFunction``, so their arithmetic is
charged to ``scalarize`` rather than to the solver that calls them.

A layer's self time is the time inside its spans minus the time inside their
child spans. Each iteration is one root span; its self time is the
unattributed remainder, so the layer self times plus the remainder equal the
iteration's wall time exactly (integer nanoseconds).
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import Counter
from pathlib import Path
from types import FunctionType

LAYERS = ("dataset", "polymodel", "regression", "nlsolver", "scalarize", "evolve", "pareto",
          "svgplot", "cli")
UNATTRIBUTED = len(LAYERS)
SPAN_FIELDS = ("id", "parent", "iteration", "layer", "function", "start_ns", "end_ns")

#: A start "hits" when it reaches the multistart's best objective within this
#: relative tolerance, with the same feasibility as the best start.
HIT_RTOL = 1e-6


def load_layers() -> dict:
    return {name: importlib.import_module(f"pareto_forge.{name}") for name in LAYERS}


class Tracer:
    """Patches the layers while installed; keeps spans in memory until written."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.spans = array("q")
        self.self_ns = [0] * (len(LAYERS) + 1)
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []
        self._next_id = 1
        self._iteration = -1
        self._first_span = 0
        self._starts: list = []
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "nlsolver.minimize": self._on_minimize,
            "nlsolver.multistart_minimize": self._on_multistart,
            "evolve.nondominated_sort": self._on_sort,
            "evolve.run_ga": self._on_run_ga,
            "pareto.filter_nondominated": self._on_filter,
            "cli.load_config": self._on_read,
            "dataset.load_experiments": self._on_read,
            "pareto.read_front_csv": self._on_read,
        }

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, FunctionType) or value.__name__.startswith("_"):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("pareto_forge.") or layer not in LAYERS:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, layer, value.__name__)
                self._patch(mod, attr, wrappers[id(value)])
        scalarize = self.modules["scalarize"]
        smooth = scalarize.SmoothFunction

        def traced_smooth_function(value_and_grad, *args, **kwargs):
            fn = self._wrap(value_and_grad, "scalarize", "value_and_grad")
            return smooth(fn, *args, **kwargs)

        self._patch(scalarize, "SmoothFunction", traced_smooth_function)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _patch(self, mod, attr, replacement) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, replacement)

    def _name_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _wrap(self, fn, layer: str, name: str):
        layer_idx = LAYERS.index(layer)
        fn_idx = self._name_index(f"{layer}.{name}")
        hook = self._hooks.get(f"{layer}.{name}")
        stack = self._stack
        calls_key = f"{layer}.calls"

        def wrapper(*args, **kwargs):
            if not stack or stack[-1][1] == layer_idx:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result, None)
                return result
            self.counts[calls_key] += 1
            frame = [self._next_id, layer_idx, time.perf_counter_ns(), 0]
            self._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, fn_idx)
            if hook is not None:
                hook(args, kwargs, result, self.spans[-1] - frame[2])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, fn_idx: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, layer_idx, start, child_ns = frame
        duration = end - start
        self.self_ns[layer_idx] += duration - child_ns
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.extend((span_id, parent[0] if parent else 0, self._iteration, layer_idx,
                           fn_idx, start, end))

    # -- iterations -------------------------------------------------------

    def begin_iteration(self, iteration: int) -> None:
        self._iteration = iteration
        self._first_span = len(self.spans)
        self.self_ns = [0] * (len(LAYERS) + 1)
        self.counts = Counter()
        self._stack.append([self._next_id, UNATTRIBUTED, time.perf_counter_ns(), 0])
        self._next_id += 1

    def end_iteration(self) -> tuple[int, dict, dict]:
        """Close the root span; returns (wall_ns, self_ns per layer, counters)."""
        root = self._stack[-1]
        self._close(root, self._name_index("iteration"))
        wall_ns = self.spans[-1] - self.spans[-2]
        self_ns = dict(zip(LAYERS + ("unattributed",), self.self_ns))
        if sum(self_ns.values()) != wall_ns:
            raise RuntimeError("layer self times do not add up to the iteration wall time")
        self.counts["spans"] = (len(self.spans) - self._first_span) // len(SPAN_FIELDS)
        return wall_ns, self_ns, dict(self.counts)

    # -- counters at layer boundaries -------------------------------------

    def _on_minimize(self, args, kwargs, result, duration):
        self.counts["nlsolver.minimize_calls"] += 1
        self._starts.append(result)

    def _on_multistart(self, args, kwargs, best, duration):
        starts, self._starts = self._starts, []
        config = args[2] if len(args) > 2 else kwargs.get("config")
        feas_tol = config.feas_tol if config is not None else 1e-6
        best_feasible = best.constraint_violation <= feas_tol
        tol = HIT_RTOL * max(1.0, abs(best.objective))
        hits = sum(
            (s.constraint_violation <= feas_tol) == best_feasible
            and abs(s.objective - best.objective) <= tol
            for s in starts
        )
        self.counts["nlsolver.starts"] += len(starts)
        self.counts["nlsolver.start_hits"] += hits
        self.counts["nlsolver.solves"] += 1
        self.counts["nlsolver.converged"] += bool(best.converged)

    def _on_sort(self, args, kwargs, result, duration):
        self.counts["evolve.sort_calls"] += 1

    def _on_run_ga(self, args, kwargs, result, duration):
        self.counts["evolve.run_ns"] += duration
        self.counts["evolve.runs"] += 1
        self.counts["evolve.run_generations"] += result.counters.iterations

    def _on_filter(self, args, kwargs, result, duration):
        self.counts["pareto.filter_points_in"] += len(args[0])
        self.counts["pareto.filter_points_out"] += len(result)

    def _on_read(self, args, kwargs, result, duration):
        path = args[0] if args else None
        if path is not None:
            self.counts["cli.bytes_read"] += os.path.getsize(path)

    # -- output -----------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write every span as one tab-separated row; returns the row count."""
        width = len(SPAN_FIELDS)
        t0 = min(self.spans[5::width], default=0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            layer_names = LAYERS + ("unattributed",)
            for k in range(0, len(self.spans), width):
                sid, parent, it, layer, fn, start, end = self.spans[k:k + width]
                fh.write(f"{sid}\t{parent}\t{it}\t{layer_names[layer]}\t{self.names[fn]}\t"
                         f"{start - t0}\t{end - t0}\n")
        return len(self.spans) // width
