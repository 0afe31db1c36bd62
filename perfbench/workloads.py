"""The four benchmark workloads: seeded inputs, program-side set-up, requests.

Every workload follows the same life cycle:

* ``generate()`` makes the benchmark's own random inputs from the seed
  (objective values, references).  It is never timed.
* ``build()`` turns them into the program-side objects a user would build
  once (``calibrate_beta`` results, ``ObjectiveTable`` s).  A fresh process
  running import + ``build()`` is what ``setup_s`` measures.
* ``request(i)`` returns ``(call, check)`` for request ``i``.  ``call()`` is
  the one library call that is timed; ``check(answer)`` verifies the answer
  and scores it.  Request ``i`` depends only on ``(seed, i)``, so replaying
  it gives the same inputs and the same library RNG stream.

Library entry points are looked up on their module at call time
(``qrec.recommend(...)``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qamp import experiments as qexp
from qamp import optimize as qopt

import checks
from spans import touched_states

# The package re-exports the recommend() function under the submodule's name.
qrec = importlib.import_module("qamp.recommend")


@dataclass
class Verdict:
    """What the benchmark learned from one answer.

    ``problems`` is empty when every check passed; ``quality`` is the
    request's answer_quality score (None when the request type has none
    or the request raised);
    ``counters`` are deterministic facts read off the result object, which
    must repeat exactly when the request is replayed.
    """

    problems: list[str]
    quality: float | None = None
    counters: dict = field(default_factory=dict)


class Recommend:
    """``recommend()`` at n = 16 against a uniformly drawn reference item."""

    n = 16
    # Per-m latency is nearly constant, so a median on the boundary between
    # two m classes would jump between them from run to run.  With m = 5 and
    # m = 10 twice each, the median sits in the middle of the m = 10 class
    # and p90 inside the m = 5 class.
    M_CYCLE = (5, 5, 10, 10, 20, 50)
    trace_requests = 36

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed

    def generate(self) -> None:
        """References and m are drawn per request from (seed, i)."""

    def build(self) -> None:
        self.params = {m: qrec.calibrate_beta(self.n, float(m)) for m in sorted(set(self.M_CYCLE))}

    def m_for(self, i: int) -> int:
        # Each block of len(M_CYCLE) requests is a seeded permutation of the
        # cycle, so every block has the same mix of m.
        block, pos = divmod(i, len(self.M_CYCLE))
        order = np.random.default_rng([self.seed, block, 2]).permutation(len(self.M_CYCLE))
        return self.M_CYCLE[order[pos]]

    def request(self, i: int):
        reference = int(np.random.default_rng([self.seed, i, 0]).integers(1 << self.n))
        m = self.m_for(i)
        spec = qrec.SimilaritySpec(self.n, reference)
        params = self.params[m]
        rng = np.random.default_rng([self.seed, i, 1])

        def call():
            return qrec.recommend(spec, m, params, rng)

        def check(result) -> Verdict:
            log = result.log
            return Verdict(
                checks.check_recommendation(spec, m, result),
                checks.recommendation_quality(spec, m, result),
                {
                    "items": tuple(item.index for item in result.items),
                    "rounds": log.rounds,
                    "best_round": log.best_round,
                    "restarts": len(log.restart_rounds),
                    "touched": touched_states(log),
                },
            )

        return call, check


SENSES = (qopt.Sense.MIN, qopt.Sense.MAX)
TABLE_KINDS = ("normal", "ties", "needle")


def objective_values(kind: str, sense: qopt.Sense, n: int, rng: np.random.Generator) -> np.ndarray:
    """One objective table's values.

    ``normal``: continuous, a unique optimum.  ``ties``: integers with about
    four states per value, so several states share the optimum.
    ``needle``: a flat plateau with one better state.
    """
    n_states = 1 << n
    if kind == "normal":
        return rng.standard_normal(n_states)
    if kind == "ties":
        return rng.integers(0, n_states // 4, size=n_states).astype(np.float64)
    level = float(rng.standard_normal())
    values = np.full(n_states, level)
    values[int(rng.integers(n_states))] = level - 1.0 if sense is qopt.Sense.MIN else level + 1.0
    return values


class _Optimize:
    """Shared pool logic of the two optimizer workloads.

    A pool of tables (every kind x sense, ``copies`` times) is generated
    and built once; request i runs on table i mod pool size with its own
    RNG.
    """

    n: int
    copies = 2
    kinds = TABLE_KINDS

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.raw = []
        for _ in range(self.copies):
            for sense in SENSES:
                for kind in self.kinds:
                    values = objective_values(kind, sense, self.n, rng)
                    optimum = float(values.min() if sense is qopt.Sense.MIN else values.max())
                    self.raw.append((sense, values, optimum))

    def build(self) -> None:
        self.tables = [qopt.ObjectiveTable(self.n, values, sense) for sense, values, _ in self.raw]

    def solve(self, table, rng):
        raise NotImplementedError

    def quality(self, values, sense, optimum, result) -> float:
        raise NotImplementedError

    def request(self, i: int):
        k = i % len(self.tables)
        table = self.tables[k]
        sense, values, optimum = self.raw[k]
        rng = np.random.default_rng([self.seed, i, 1])

        def call():
            return self.solve(table, rng)

        def check(result) -> Verdict:
            problems = checks.check_optimization(values, optimum, result)
            counters = {
                "best_index": result.best_index,
                "iterations": result.grover_iterations_total,
                "outer_rounds": result.outer_rounds,
                "touched": touched_states(result.log),
            }
            return Verdict(problems, self.quality(values, sense, optimum, result), counters)

        return call, check


class OptimizeDurrHoyer(_Optimize):
    """``durr_hoyer()`` at n = 14: static search and sampling only."""

    n = 14
    copies = 8
    trace_requests = 96

    def solve(self, table, rng):
        return qopt.durr_hoyer(table, rng)

    def quality(self, values, sense, optimum, result) -> float:
        return 1.0 if result.best_value == optimum else 0.0


class OptimizeDynamic(_Optimize):
    """``dynamic_optimize()`` at n = 18: wide masks, two dynamic rounds.

    The timed pool holds normal and tied tables only.  On a one-needle
    table every probe sees the plateau, the policy looks flat, and
    ``dynamic_optimize()`` returns a plateau value with ``optimal=True``
    (ROADMAP item 5).  Such a request fails on every seed, so instead of
    mixing it into the timed requests, ``needle_probe()`` runs a fixed set
    of one-needle tables untimed in every run and reports each wrong answer.
    """

    n = 18
    copies = 3
    kinds = ("normal", "ties")
    trace_requests = 96
    NEEDLE_PROBES = 8

    def solve(self, table, rng):
        return qopt.dynamic_optimize(table, rng)

    def quality(self, values, sense, optimum, result) -> float:
        return checks.percentile_rank(values, sense, result.best_value)

    def needle_probe(self) -> list[list[str]]:
        """Problems of each of NEEDLE_PROBES one-needle requests; an empty list is a right answer."""
        rng = np.random.default_rng([self.seed, 4])
        outcomes = []
        for i in range(self.NEEDLE_PROBES):
            sense = SENSES[i % len(SENSES)]
            values = objective_values("needle", sense, self.n, rng)
            optimum = float(values.min() if sense is qopt.Sense.MIN else values.max())
            table = qopt.ObjectiveTable(self.n, values, sense)
            try:
                result = self.solve(table, np.random.default_rng([self.seed, i, 5]))
            except Exception as exc:  # a probe that raises is a wrong answer too
                outcomes.append([f"{type(exc).__name__}: {exc}"])
                continue
            outcomes.append(checks.check_optimization(values, optimum, result))
        return outcomes


class ExperimentSweep:
    """Cycles the three experiments at small n, writing CSV + SVG each time."""

    n = 12
    CYCLE = ("steps", "accuracy", "corollaries")
    SEEDS_PER_REQUEST = 5
    trace_requests = 36

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> None:
        """Seed bases are drawn per request from (seed, i)."""

    def build(self) -> None:
        """Experiments build their own policies; nothing is shared between requests."""

    def config(self, i: int) -> qexp.ExperimentConfig:
        experiment = self.CYCLE[i % len(self.CYCLE)]
        seed_base = int(np.random.default_rng([self.seed, i, 0]).integers(2**31))
        extent = {
            "steps": {"n_range": (10, 14)},
            "accuracy": {"n": self.n},
            "corollaries": {"n_range": (2, 10)},
        }[experiment]
        return qexp.ExperimentConfig(
            experiment,
            seeds=self.SEEDS_PER_REQUEST,
            seed_base=seed_base,
            output_dir=self.workdir / f"request-{i}",
            **extent,
        )

    def request(self, i: int):
        config = self.config(i)
        entry = f"experiment_{config.experiment}"

        def call():
            return getattr(qexp, entry)(config)

        def check(outcome) -> Verdict:
            try:
                problems, quality, counters = checks.check_experiment(config, outcome)
            finally:
                shutil.rmtree(config.output_dir, ignore_errors=True)
            return Verdict(problems, quality, counters)

        return call, check


WORKLOADS = {
    "recommend": Recommend,
    "optimize-durr-hoyer": OptimizeDurrHoyer,
    "optimize-dynamic": OptimizeDynamic,
    "experiment-sweep": ExperimentSweep,
}

