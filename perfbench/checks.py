"""Answer checker: every answer is verified against the benchmark's own inputs.

Each ``check_*`` function returns a list of problems; an empty list means the
answer passed.  Expected values are recomputed here from the inputs the
benchmark generated (similarity by popcount, optimum from the raw values,
CSV headers from the documented formats), not read back from the library.

``self_test()`` feeds the checker corrupted copies of real answers and
returns the corruptions it failed to flag.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from pathlib import Path

import numpy as np

from qamp import experiments as qexp
from qamp import optimize as qopt

# The package re-exports the recommend() function under the submodule's name.
qrec = importlib.import_module("qamp.recommend")

CSV_HEADERS = {
    "steps.csv": "n,static_steps,dynamic_rounds,dynamic_inner_iterations",
    "steps_runs.csv": "experiment,n,seed,static_steps,dynamic_rounds,dynamic_inner_iterations,wall_time_ms",
    "accuracy.csv": "S,p_static,p_dynamic",
    "accuracy_runs.csv": "experiment,n,seed,variant,S,p,wall_time_ms",
    "corollaries.csv": "check,n,trials,max_deviation,tolerance,passed",
}
SVG_FILES = {"steps": ("steps.svg",), "accuracy": ("accuracy.svg",), "corollaries": ()}
SUM_ATOL = 1e-9


def expected_similarity(spec, index: int) -> int:
    return spec.n - (index ^ spec.reference).bit_count()


def check_recommendation(spec, m: int, result) -> list[str]:
    problems = []
    indices = [item.index for item in result.items]
    if len(indices) != m:
        problems.append(f"returned {len(indices)} items, asked for {m}")
    if len(set(indices)) != len(indices):
        problems.append("duplicate item")
    for item in result.items:
        if not 0 <= item.index < (1 << spec.n):
            problems.append(f"item {item.index} out of range for n={spec.n}")
        elif item.similarity != expected_similarity(spec, item.index):
            problems.append(
                f"item {item.index} reports similarity {item.similarity}, "
                f"expected {expected_similarity(spec, item.index)}"
            )
    return problems


def best_similarity_sum(n: int, m: int) -> int:
    """Largest sum of m distinct similarities: fill classes from S = n down."""
    total, left = 0, m
    for s in range(n, -1, -1):
        take = min(left, math.comb(n, s))
        total += take * s
        left -= take
        if left == 0:
            break
    return total


def recommendation_quality(spec, m: int, result) -> float:
    """Sum of the similarities of the distinct in-range returned items over the best possible sum."""
    distinct = {item.index for item in result.items if 0 <= item.index < (1 << spec.n)}
    achieved = sum(expected_similarity(spec, index) for index in distinct)
    return achieved / best_similarity_sum(spec.n, m)


def check_optimization(values: np.ndarray, optimum: float, result) -> list[str]:
    if not 0 <= result.best_index < values.size:
        return [f"best_index {result.best_index} out of range"]
    problems = []
    if result.best_value != values[result.best_index]:
        problems.append(
            f"best_value {result.best_value!r} != values[{result.best_index}] = {values[result.best_index]!r}"
        )
    if result.optimal != (result.best_value == optimum):
        problems.append(
            f"optimal={result.optimal} but best_value {result.best_value!r}, table optimum {optimum!r}"
        )
    return problems


def percentile_rank(values: np.ndarray, sense, value: float) -> float:
    """Mid-rank of ``value`` in the table: (worse + half of equal) / N, 1 = best."""
    worse = np.count_nonzero(values > value if sense is qopt.Sense.MIN else values < value)
    equal = np.count_nonzero(values == value)
    return (worse + 0.5 * equal) / values.size


def _read_csv(path: Path) -> tuple[str, list[list[str]]] | None:
    if not path.is_file():
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return "", []
    return lines[0], [line.split(",") for line in lines[1:]]


def _check_files(config, problems: list[str]) -> dict[str, list[list[str]]]:
    """Header check of every CSV the experiment writes; returns the parsed rows."""
    tables = {}
    for name, header in CSV_HEADERS.items():
        if not name.startswith(config.experiment):
            continue
        parsed = _read_csv(Path(config.output_dir) / name)
        if parsed is None:
            problems.append(f"{name} missing")
        elif parsed[0] != header:
            problems.append(f"{name} header {parsed[0]!r}, expected {header!r}")
        else:
            tables[name] = parsed[1]
    for name in SVG_FILES[config.experiment]:
        path = Path(config.output_dir) / name
        text = path.read_text(encoding="utf-8") if path.is_file() else ""
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            problems.append(f"{name} missing or not an SVG document")
    return tables


def check_experiment(config, outcome) -> tuple[list[str], float | None, dict]:
    """Check one experiment's outcome and files; returns (problems, quality, counters)."""
    problems: list[str] = []
    tables = _check_files(config, problems)
    quality = None
    if config.experiment == "steps":
        lo, hi = config.resolved_range()
        if [row.n for row in outcome.rows] != list(range(lo, hi + 1)):
            problems.append("steps rows do not cover the n range")
        for row in outcome.rows:
            # default threshold n-1: the ball holds the reference and its n neighbours
            expected = math.floor((math.pi / 4.0) * math.sqrt((1 << row.n) / (row.n + 1)))
            if row.static_steps != expected:
                problems.append(f"n={row.n}: static_steps {row.static_steps}, expected {expected}")
            if row.dynamic_inner_iterations != 2 * row.dynamic_rounds:
                problems.append(f"n={row.n}: inner iterations are not twice the rounds")
        if "steps.csv" in tables and len(tables["steps.csv"]) != len(outcome.rows):
            problems.append("steps.csv row count disagrees with the outcome")
        counters = {"rows": tuple(dataclasses.astuple(row) for row in outcome.rows)}
    elif config.experiment == "accuracy":
        n = outcome.n
        for label, curve in (("p_static", outcome.p_static), ("p_dynamic", outcome.p_dynamic)):
            if curve.shape != (n + 1,) or abs(float(curve.sum()) - 1.0) > SUM_ATOL:
                problems.append(f"{label} is not a distribution over S = 0..{n}")
        rows = tables.get("accuracy.csv")
        if rows is not None and [float(row[2]) for row in rows] != [float(v) for v in outcome.p_dynamic]:
            problems.append("accuracy.csv p_dynamic disagrees with the outcome")
        # default threshold n-1: the target ball is S >= n-1
        quality = float(outcome.p_dynamic[n - 1 :].sum())
        counters = {"p_dynamic": tuple(float(v) for v in outcome.p_dynamic)}
    else:
        failing = [f"{r.check}@n={r.n}" for r in outcome.results if not r.passed]
        if failing or not outcome.passed:
            problems.append(f"corollary checks failed: {failing}")
        rows = tables.get("corollaries.csv")
        if rows is not None and len(rows) != len(outcome.results):
            problems.append("corollaries.csv row count disagrees with the outcome")
        counters = {"max_deviation": tuple(r.max_deviation for r in outcome.results)}
    return problems, quality, counters


def self_test(workdir: Path) -> list[str]:
    """Run the checker on small real answers and on corrupted copies of them.

    Returns one line per failure of the checker itself: a clean answer it
    rejected, or a corrupted answer it accepted.  Empty means the checker
    works.
    """
    failures: list[str] = []

    def expect(label: str, problems: list[str], flagged: bool) -> None:
        if bool(problems) != flagged:
            failures.append(f"{label}: {'accepted' if flagged else 'rejected'} ({problems})")

    rng = np.random.default_rng(0)
    spec = qrec.SimilaritySpec(8, 77)
    rec = qrec.recommend(spec, 4, qrec.calibrate_beta(8, 4.0), rng)
    expect("clean recommendation", check_recommendation(spec, 4, rec), False)
    first, second = rec.items[0], rec.items[1]
    corrupt = {
        "duplicate item": (first, first) + rec.items[2:],
        "out-of-range item": (dataclasses.replace(first, index=1 << spec.n),) + rec.items[1:],
        "similarity disagreeing with similarity_table": (
            first,
            dataclasses.replace(second, similarity=second.similarity - 1),
        ) + rec.items[2:],
    }
    for label, items in corrupt.items():
        expect(label, check_recommendation(spec, 4, dataclasses.replace(rec, items=items)), True)

    values = rng.standard_normal(1 << 8)
    table = qopt.ObjectiveTable(8, values, qopt.Sense.MIN)
    optimum = float(values.min())
    opt = qopt.durr_hoyer(table, rng)
    expect("clean optimization", check_optimization(values, optimum, opt), False)
    expect(
        "best_value != values[best_index]",
        check_optimization(values, optimum, dataclasses.replace(opt, best_value=opt.best_value + 1.0)),
        True,
    )
    expect(
        "optimal flag disagreeing with the table optimum",
        check_optimization(values, optimum, dataclasses.replace(opt, optimal=not opt.optimal)),
        True,
    )

    config = qexp.ExperimentConfig("corollaries", n_range=(2, 3), seeds=1, output_dir=workdir / "corollaries")
    report = qexp.experiment_corollaries(config)
    expect("clean corollaries", check_experiment(config, report)[0], False)
    broken = (dataclasses.replace(report.results[0], passed=False),) + report.results[1:]
    expect(
        "failed corollary check",
        check_experiment(config, dataclasses.replace(report, results=broken))[0],
        True,
    )

    config = qexp.ExperimentConfig("accuracy", n=6, seeds=1, output_dir=workdir / "accuracy")
    accuracy = qexp.experiment_accuracy(config)
    expect("clean accuracy", check_experiment(config, accuracy)[0], False)
    csv_path = Path(config.output_dir) / "accuracy.csv"
    lines = csv_path.read_text(encoding="utf-8").split("\n", 1)
    csv_path.write_text("S,p_static,p_dyn\n" + lines[1], encoding="utf-8")
    expect("CSV with the wrong header", check_experiment(config, accuracy)[0], True)
    return failures
