"""Per-layer spans recorded from outside the library.

Each span wraps one public function at the module attribute where its
caller looks it up (``qamp.recommend.sample`` is the ``sample`` that
``recommend()`` calls), so the library itself is not modified.  A span
records its name, start, end, parent span, request id and a few counts
taken from its arguments or result.  Spans stay in memory; the per-layer
metrics are derived from them after the traced requests have run.

A wrap point whose attribute no longer exists is listed as absent and its
metrics read 0; that is not an error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, REQUEST, COUNTS = range(6)


def _amps(args, kwargs, result):
    return {"amps": args[0].size}


def _log(args, kwargs, result):
    # The log is kept and read after the run, so deriving counts from it
    # adds nothing to the enclosing span.
    return {"log": result[1]}


def _draws(args, kwargs, result):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return {"draws": 1 if size is None else int(size)}


# (span name, module, attribute, counts from (args, kwargs, result))
WRAP_POINTS = (
    ("request.recommend", "qamp.recommend", "recommend", None),
    ("request.durr_hoyer", "qamp.optimize", "durr_hoyer", None),
    ("request.dynamic_optimize", "qamp.optimize", "dynamic_optimize", None),
    ("experiments.steps", "qamp.experiments", "experiment_steps", None),
    ("experiments.accuracy", "qamp.experiments", "experiment_accuracy", None),
    ("experiments.corollaries", "qamp.experiments", "experiment_corollaries", None),
    ("recommend.calibrate_beta", "qamp.recommend", "calibrate_beta", None),
    ("recommend.calibrate_beta", "qamp.experiments", "calibrate_beta", None),
    ("recommend.similarity_policy", "qamp.recommend", "similarity_policy", None),
    ("recommend.similarity_policy", "qamp.experiments", "similarity_policy", None),
    ("optimize.build_optimization_policy", "qamp.optimize", "build_optimization_policy", None),
    ("dynamic_search.run_dynamic", "qamp.recommend", "run_dynamic", _log),
    ("dynamic_search.run_dynamic", "qamp.optimize", "run_dynamic", _log),
    ("dynamic_search.run_dynamic", "qamp.experiments", "run_dynamic", _log),
    ("dynamic_search.mask_draw", "qamp.dynamic_search", "sample_mask",
     lambda a, k, r: {"selected": r.count_selected}),
    ("static_search.search_unknown_m", "qamp.optimize", "search_unknown_m",
     lambda a, k, r: {"found": int(r.found), "iterations": r.iterations_used}),
    ("static_search.grover_iteration", "qamp.experiments", "grover_iteration", None),
    ("core.sample", "qamp.recommend", "sample", _draws),
    ("core.sample", "qamp.optimize", "sample", _draws),
    ("core.sample", "qamp.static_search", "sample", _draws),
    ("backend.selection_stats", "qamp.backend", "selection_stats", None),
    ("backend.doubled_step", "qamp.backend", "doubled_step", _amps),
    ("backend.grover_step", "qamp.backend", "grover_step", _amps),
    ("report.write_csv", "qamp.experiments", "write_csv", None),
    ("report.write_svg", "qamp.experiments", "write_svg", None),
)


class Tracer:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.request = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if count is not None:
                record[COUNTS] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        patched = []
        self.absent = []
        try:
            for name, module_name, attr, count in WRAP_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(name, original, count))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def touched_states(log) -> int:
    """Distinct states ever selected during a dynamic run, from its log."""
    if log is None or not log.selected_indices:
        return 0
    return int(np.unique(np.concatenate(log.selected_indices)).size)


def _log_counts(log) -> dict:
    kept = log.best_round is not None
    return {
        "rounds": log.rounds,
        "restarts": len(log.restart_rounds),
        "best_round": log.best_round if kept else 0,
        "kept_rounds": log.rounds if kept else 0,
        "touched": touched_states(log),
        "states": 1 << log.n,
    }


def request_counts(spans: list[list]) -> dict:
    """Deterministic counts per request id: calls and summed counts per span name.

    Wall times are left out, so a replay of the same requests must give
    identical dictionaries.
    """
    out: dict = defaultdict(lambda: defaultdict(int))
    for record in spans:
        totals = out[record[REQUEST]]
        totals[(record[NAME], "calls")] += 1
        counts = record[COUNTS] or {}
        if "log" in counts:
            counts = _log_counts(counts["log"]) if counts["log"] is not None else {}
        for key, value in counts.items():
            totals[(record[NAME], key)] += value
    return {request: dict(totals) for request, totals in out.items()}


def layer_metrics(spans: list[list], items_returned: int) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    ``items_returned`` is the number of distinct items the traced recommend
    requests returned (0 on other workloads), the base of draws_per_item.
    """
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_time: dict[int, float] = defaultdict(float)
    for record in spans:
        duration = record[END] - record[START]
        busy[record[NAME]] += duration
        calls[record[NAME]] += 1
        if record[PARENT] >= 0:
            child_time[record[PARENT]] += duration
    self_time: dict[str, float] = defaultdict(float)
    for index, record in enumerate(spans):
        self_time[record[NAME]] += record[END] - record[START] - child_time[index]

    def summed(name: str, key: str, where=lambda record: True) -> float:
        return sum(
            (record[COUNTS] or {}).get(key, 0)
            for record in spans
            if record[NAME] == name and where(record)
        )

    def inside(ancestor: str):
        def test(record) -> bool:
            parent = record[PARENT]
            while parent >= 0:
                if spans[parent][NAME] == ancestor:
                    return True
                parent = spans[parent][PARENT]
            return False

        return test

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    runs = [
        _log_counts(record[COUNTS]["log"])
        for record in spans
        if record[NAME] == "dynamic_search.run_dynamic" and record[COUNTS] and record[COUNTS]["log"] is not None
    ]
    rounds = sum(run["rounds"] for run in runs)
    search_sampling = sum(
        record[END] - record[START]
        for record in spans
        if record[NAME] == "core.sample" and inside("static_search.search_unknown_m")(record)
    )
    iteration_time = (
        busy["static_search.search_unknown_m"] - search_sampling + busy["static_search.grover_iteration"]
    )
    iterations = summed("static_search.search_unknown_m", "iterations") + calls["static_search.grover_iteration"]

    return {
        "dynamic_search.mask_draw.calls": calls["dynamic_search.mask_draw"],
        "dynamic_search.mask_draw.busy_s": busy["dynamic_search.mask_draw"],
        "dynamic_search.mask_draw.selected_mean": ratio(
            summed("dynamic_search.mask_draw", "selected"), calls["dynamic_search.mask_draw"]
        ),
        "backend.selection_stats.calls": calls["backend.selection_stats"],
        "backend.selection_stats.busy_s": busy["backend.selection_stats"],
        "backend.stats_calls_per_round": ratio(
            sum(1 for r in spans if r[NAME] == "backend.selection_stats" and inside("dynamic_search.run_dynamic")(r)),
            rounds,
        ),
        "backend.doubled_step.calls": calls["backend.doubled_step"],
        "backend.doubled_step.busy_s": busy["backend.doubled_step"],
        "backend.doubled_step.amps_per_s": ratio(summed("backend.doubled_step", "amps"), busy["backend.doubled_step"]),
        "dynamic_search.run_dynamic.self_s": self_time["dynamic_search.run_dynamic"],
        "dynamic_search.rounds": rounds,
        "dynamic_search.ms_per_round": ratio(1e3 * busy["dynamic_search.run_dynamic"], rounds),
        "dynamic_search.restart_ratio": ratio(sum(run["restarts"] for run in runs), rounds),
        "dynamic_search.useful_round_ratio": ratio(
            sum(run["best_round"] for run in runs), sum(run["kept_rounds"] for run in runs)
        ),
        "dynamic_search.touched_ratio": ratio(
            sum(run["touched"] for run in runs), sum(run["states"] for run in runs)
        ),
        "backend.grover_step.calls": calls["backend.grover_step"],
        "backend.grover_step.busy_s": busy["backend.grover_step"],
        "backend.grover_step.amps_per_s": ratio(summed("backend.grover_step", "amps"), busy["backend.grover_step"]),
        "static_search.iterations": iterations,
        "static_search.us_per_iteration": ratio(1e6 * iteration_time, iterations),
        "static_search.search_unknown_m.calls": calls["static_search.search_unknown_m"],
        "static_search.search_unknown_m.self_s": self_time["static_search.search_unknown_m"],
        "static_search.search_unknown_m.hit_ratio": ratio(
            summed("static_search.search_unknown_m", "found"), calls["static_search.search_unknown_m"]
        ),
        "core.sample.calls": calls["core.sample"],
        "core.sample.busy_s": busy["core.sample"],
        "core.sample.draws": summed("core.sample", "draws"),
        "recommend.draws_per_item": ratio(
            summed("core.sample", "draws", inside("request.recommend")), items_returned
        ),
        "optimize.build_optimization_policy.busy_s": busy["optimize.build_optimization_policy"],
        "recommend.similarity_policy.busy_s": busy["recommend.similarity_policy"],
        "experiments.steps.self_s": self_time["experiments.steps"],
        "experiments.accuracy.self_s": self_time["experiments.accuracy"],
        "experiments.corollaries.self_s": self_time["experiments.corollaries"],
        "report.write_csv.busy_s": busy["report.write_csv"],
        "report.write_svg.busy_s": busy["report.write_svg"],
        "recommend.calibrate_beta.busy_s": busy["recommend.calibrate_beta"],
    }
