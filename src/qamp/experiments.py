"""Seeded experiments: step-count sweep, sampling-accuracy curves, invariant suite.

Trial seeds are derived as ``seed_base + trial_index``; identical configs
reproduce identical numeric output (wall-time columns aside).  The static
baseline marks the similarity ball S >= threshold around the reference
(threshold defaults to n-1, a ball of n+1 states) and its step count is
the full schedule length floor((pi/4) * sqrt(N/M)).  The dynamic arm runs
a policy calibrated to the same expected selected count and reports the
first round at which the ball's probability mass exceeds 1/2.

The ball is a union of similarity classes, watched as a 0/1 class policy,
and the static arm is closed form: sin**2((2k+1) theta) on the ball, split
over the classes by size.  So ``steps`` and ``accuracy`` allocate nothing
of 2**n entries and run to ``MAX_QUBITS``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backend import (
    SelectionMask,
    StateVector,
    dynamic_iteration,
    gain_report,
    grover_iteration,
    ordering_witness,
    replay_round_states,
    uniform_init,
)
from .core import MAX_QUBITS
from .dynamic_search import (
    SelectionPolicy,
    class_counts,
    gain_bound,
    planned_rounds,
    predicted_crossing,
    run_dynamic,
)
from .errors import ConfigError
from .recommend import (
    SelectionProbabilityParams,
    SimilaritySpec,
    class_masses,
    similarity_params,
    similarity_policy,
)
from .report import write_csv, write_svg
from .static_search import marked_probability, optimal_iterations

EXPERIMENTS = ("steps", "accuracy", "corollaries")
IDENTITY_TOL = 1e-10
ORDERING_TOL = 1e-12


@dataclass
class ExperimentConfig:
    experiment: str
    n: int | None = None
    n_range: tuple[int, int] | None = None  # default depends on the experiment
    seeds: int = 20
    seed_base: int = 0
    beta: float | None = None
    m_target: float | None = None
    threshold: int | None = None
    reference: int = 0
    output_dir: Path = Path("out")
    fmt: str = "both"
    inject_fault: bool = False

    def resolved_range(self) -> tuple[int, int]:
        if self.n_range is not None:
            return self.n_range
        return (2, 10) if self.experiment == "corollaries" else (10, 14)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; use one of {EXPERIMENTS}")
        if self.seeds < 1:
            raise ConfigError(f"seed count must be >= 1, got {self.seeds}")
        if self.seed_base < 0:
            raise ConfigError(f"seed base must be >= 0, got {self.seed_base}")
        lo, hi = self.resolved_range()
        if not (1 <= lo <= hi <= MAX_QUBITS):
            raise ConfigError(f"n range must satisfy 1 <= lo <= hi <= {MAX_QUBITS}, got {lo}:{hi}")
        if self.n is not None and not 1 <= self.n <= MAX_QUBITS:
            raise ConfigError(f"n must be in [1, {MAX_QUBITS}], got {self.n}")
        check_format(self.fmt)


def check_format(fmt: str) -> str:
    if fmt not in ("csv", "svg", "both"):
        raise ConfigError(f"format must be csv, svg or both, got {fmt!r}")
    return fmt


def write_outputs(out_dir, fmt: str, tables, charts) -> tuple[Path, ...]:
    """Write ``(name, header, rows)`` tables as CSV and ``(name, title,
    x_label, y_label, series)`` charts as SVG under ``out_dir``, as ``fmt``
    (csv, svg or both) selects; tables first.  Returns the paths written."""
    out = Path(out_dir)
    files: list[Path] = []
    if fmt in ("csv", "both"):
        for name, header, rows in tables:
            files.append(out / name)
            write_csv(files[-1], header, rows)
    if fmt in ("svg", "both"):
        for name, title, x_label, y_label, series in charts:
            files.append(out / name)
            write_svg(files[-1], title, x_label, y_label, series)
    return tuple(files)


def _check_reference(config: ExperimentConfig, n: int) -> None:
    if not 0 <= config.reference < (1 << n):
        raise ConfigError(f"reference must be in [0, {1 << n}) for n={n}, got {config.reference}")


def _ball(config: ExperimentConfig, n: int) -> tuple[SelectionPolicy, int, SelectionProbabilityParams]:
    """The similarity ball S >= threshold around the reference as a 0/1 class
    policy, its size, and the dynamic arm's parameters: the given beta or
    m_target, else a calibration to the ball size."""
    tau = config.threshold if config.threshold is not None else n - 1
    if not 0 <= tau <= n:
        raise ConfigError(f"similarity threshold must be in [0, {n}], got {tau}")
    size = int(class_counts(n)[tau:].sum())
    if config.beta is None and config.m_target is None and 2 * size >= 1 << n:
        raise ConfigError(f"threshold {tau} gives a ball of {size} states at n={n}; "
                          f"calibration needs fewer than N/2 = {1 << (n - 1)}")
    ball = SelectionPolicy.by_similarity(n, config.reference, np.arange(n + 1) >= tau)
    return ball, size, similarity_params(n, config.beta, config.m_target, float(size))


@dataclass(frozen=True)
class StepsRow:
    n: int
    static_steps: float
    dynamic_rounds: float
    dynamic_inner_iterations: float
    crossed: int  # seeds whose ball mass exceeded 1/2 within the cap


@dataclass(frozen=True)
class StepsOutcome:
    rows: tuple[StepsRow, ...]
    run_rows: tuple[tuple, ...]
    files: tuple[Path, ...]


def experiment_steps(config: ExperimentConfig) -> StepsOutcome:
    """Static schedule length vs rounds for the ball mass to reach 1/2.

    A run steps through violating rounds to a cap set before it starts:
    ``ceil(1.25 c) + 8`` for the crossing c the moment model predicts
    (:func:`~qamp.dynamic_search.predicted_crossing`), else
    ``2 * planned_rounds + 8``.  Its crossing is the first round whose
    watched mass exceeds 1/2.  A run that never crosses counts at the cap,
    in its row and in the median; ``StepsRow.crossed`` counts the seeds
    that crossed.
    """
    config.validate()
    lo, hi = config.resolved_range()
    _check_reference(config, lo)
    rows: list[StepsRow] = []
    run_rows: list[tuple] = []
    for n in range(lo, hi + 1):
        ball, size, params = _ball(config, n)
        static_steps = optimal_iterations(1 << n, size)
        policy = similarity_policy(SimilaritySpec(n, config.reference), params)
        crossing = predicted_crossing(policy, ball, 0.5)
        cap = 2 * planned_rounds(policy) + 8 if crossing is None else math.ceil(1.25 * crossing) + 8

        dyn_rounds = np.empty(config.seeds)
        crossed = 0
        for trial in range(config.seeds):
            seed = config.seed_base + trial
            rng = np.random.default_rng(seed)
            t0 = time.perf_counter()
            _, log = run_dynamic(policy, rng, rounds=cap, watch=ball)
            wall_ms = (time.perf_counter() - t0) * 1e3
            above = np.flatnonzero(log.watched_mass_by_round > 0.5)
            rounds = int(above[0]) + 1 if above.size else cap
            crossed += bool(above.size)
            dyn_rounds[trial] = rounds
            run_rows.append(("steps", n, seed, static_steps, rounds, 2 * rounds, wall_ms))
        med = float(np.median(dyn_rounds))
        rows.append(StepsRow(n, float(static_steps), med, 2.0 * med, crossed))

    ns = [r.n for r in rows]
    files = write_outputs(config.output_dir, config.fmt, [
        ("steps.csv", ["n", "static_steps", "dynamic_rounds", "dynamic_inner_iterations"],
         [(r.n, r.static_steps, r.dynamic_rounds, r.dynamic_inner_iterations) for r in rows]),
        ("steps_runs.csv", ["experiment", "n", "seed", "static_steps", "dynamic_rounds",
                            "dynamic_inner_iterations", "wall_time_ms"], run_rows),
    ], [
        ("steps.svg", "Steps to majority mass on the target set", "bit width n",
         "steps (median over seeds)",
         [("static schedule", ns, [r.static_steps for r in rows]),
          ("dynamic rounds", ns, [r.dynamic_rounds for r in rows])]),
    ])
    return StepsOutcome(tuple(rows), tuple(run_rows), files)


@dataclass(frozen=True)
class AccuracyOutcome:
    n: int
    p_static: np.ndarray
    p_dynamic: np.ndarray
    run_rows: tuple[tuple, ...]
    files: tuple[Path, ...]


def experiment_accuracy(config: ExperimentConfig) -> AccuracyOutcome:
    """Final-state sampling probability per similarity class, static vs dynamic.

    Each dynamic run makes the rounds :func:`~qamp.dynamic_search.planned_rounds`
    plans for its policy and keeps its final state.
    """
    config.validate()
    n = config.n if config.n is not None else 13
    n_states = 1 << n
    _check_reference(config, n)
    ball, size, params = _ball(config, n)
    p_marked = marked_probability(n_states, size, optimal_iterations(n_states, size))
    p_static = class_counts(n) * np.where(
        ball.class_probabilities == 1.0,
        p_marked / size,
        (1.0 - p_marked) / max(n_states - size, 1),  # no state is outside a ball of N
    )

    spec = SimilaritySpec(n, config.reference)
    policy = similarity_policy(spec, params)
    rounds = planned_rounds(policy)
    run_rows: list[tuple] = []
    for s in range(n + 1):
        run_rows.append(("accuracy", n, -1, "static", s, float(p_static[s]), 0.0))
    curves = np.empty((config.seeds, n + 1))
    for trial in range(config.seeds):
        seed = config.seed_base + trial
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        state, _ = run_dynamic(policy, rng, rounds=rounds)
        wall_ms = (time.perf_counter() - t0) * 1e3
        curves[trial] = class_masses(state, spec)
        for s in range(n + 1):
            run_rows.append(("accuracy", n, seed, "dynamic", s, float(curves[trial, s]), wall_ms))
    med = np.median(curves, axis=0)
    p_dynamic = med / med.sum()

    ss = list(range(n + 1))
    files = write_outputs(config.output_dir, config.fmt, [
        ("accuracy.csv", ["S", "p_static", "p_dynamic"],
         [(s, float(p_static[s]), float(p_dynamic[s])) for s in ss]),
        ("accuracy_runs.csv", ["experiment", "n", "seed", "variant", "S", "p", "wall_time_ms"],
         run_rows),
    ], [
        ("accuracy.svg", "Sampling probability by similarity class", "similarity S",
         "class probability",
         [("static", ss, [float(v) for v in p_static]),
          ("dynamic", ss, [float(v) for v in p_dynamic])]),
    ])
    return AccuracyOutcome(n, p_static, p_dynamic, tuple(run_rows), files)


@dataclass(frozen=True)
class CheckResult:
    check: str
    n: int
    trials: int
    max_deviation: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class CorollariesReport:
    results: tuple[CheckResult, ...]
    files: tuple[Path, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _random_state(n: int, rng: np.random.Generator) -> StateVector:
    amps = rng.standard_normal(1 << n)
    amps /= math.sqrt(float(amps @ amps))
    return StateVector(n, amps)


def _identity_check(n: int, trials: int, rng, full: bool) -> CheckResult:
    name = "doubled-identity-all-selected" if full else "doubled-identity-none-selected"
    mask = SelectionMask.full(n) if full else SelectionMask.empty(n)
    worst = 0.0
    for _ in range(trials):
        state = _random_state(n, rng)
        after = dynamic_iteration(state, mask)
        dev = float(np.linalg.norm(after.amps - state.amps))
        worst = max(worst, dev)
    return CheckResult(name, n, trials, worst, IDENTITY_TOL, worst <= IDENTITY_TOL)


def _ordering_check(n: int, trials: int, rng, doubled: bool) -> CheckResult:
    """Selected-then-skipped states must stay at or above never-selected ones."""
    n_states = 1 << n
    worst = -math.inf
    for _ in range(trials):
        count = int(rng.integers(1, max(2, n_states // 2 + 1)))
        indices = rng.choice(n_states, size=count, replace=False)
        witness = ordering_witness(SelectionMask.from_indices(n, indices), doubled=doubled)
        worst = max(worst, witness.unselected_amp - witness.selected_amp)
    return CheckResult(
        "reselection-ordering", n, trials, worst, ORDERING_TOL, worst <= ORDERING_TOL
    )


def _undoubled_witness_check(n: int, trials: int, rng) -> CheckResult:
    """Single steps must show the inversion: once-selected ends strictly below."""
    n_states = 1 << n
    worst = -math.inf
    for _ in range(trials):
        count = int(rng.integers(1, n_states))
        indices = rng.choice(n_states, size=count, replace=False)
        witness = ordering_witness(SelectionMask.from_indices(n, indices), doubled=False)
        worst = max(worst, witness.selected_amp - witness.unselected_amp)
    return CheckResult(
        "undoubled-inversion-witness", n, trials, worst, 0.0, worst < 0.0
    )


def _gain_bound_check(n: int, trials: int, rng) -> CheckResult:
    """Measured gain stays under the ceiling while the next step keeps
    unselected amplitudes positive."""
    n_states = 1 << n
    worst = 0.0
    ok = True
    for _ in range(trials):
        count = int(rng.integers(1, n_states))
        mask = SelectionMask.from_indices(n, rng.choice(n_states, size=count, replace=False))
        bound = gain_bound(n_states, mask.count_selected)
        state = uniform_init(n)
        for _step in range(2 * optimal_iterations(n_states, mask.count_selected) + 2):
            nxt = grover_iteration(state, mask)
            unsel_next = nxt.amps[~mask.selected]
            # strictly positive beyond float noise: N/4-sized masks land on 0
            next_positive = bool(unsel_next.size) and float(unsel_next.min()) > 1e-9
            if next_positive:
                report = gain_report(state, mask)
                if not report.complete:
                    ratio = report.gain / bound
                    worst = max(worst, ratio)
                    ok = ok and ratio < 1.0
            state = nxt
            if not next_positive:
                break
    return CheckResult("gain-ceiling", n, trials, worst, 1.0, ok)


def _dense_replay_check(n: int, trials: int, rng) -> CheckResult:
    """A run's final state equals literal dense steps with its logged masks."""
    n_states = 1 << n
    worst = 0.0
    for _ in range(trials):
        probs = rng.uniform(0.0, 0.8) * rng.random(n_states)
        policy = SelectionPolicy.probabilistic(n, probs)
        run_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        state, log = run_dynamic(policy, run_rng, rounds=6)
        replayed = replay_round_states(log)[-1]
        worst = max(worst, float(np.linalg.norm(state.amps - replayed.amps)))
    return CheckResult(
        "engine-dense-replay", n, trials, worst, IDENTITY_TOL, worst <= IDENTITY_TOL
    )


def experiment_corollaries(config: ExperimentConfig) -> CorollariesReport:
    """Invariant suite: doubled-step identities, ordering witnesses, gain
    ceiling, and the run engine against dense steps, swept over small n.

    ``inject_fault`` replaces the doubled step with a single one in the
    reselection-ordering check; the check must then fail (that is the
    point of the witness).
    """
    config.validate()
    lo, hi = config.resolved_range()
    trials = max(4, config.seeds)
    rng = np.random.default_rng(config.seed_base)
    results: list[CheckResult] = []
    for n in range(lo, hi + 1):
        results.append(_identity_check(n, trials, rng, full=False))
        results.append(_identity_check(n, trials, rng, full=True))
        results.append(_ordering_check(n, trials, rng, doubled=not config.inject_fault))
        results.append(_undoubled_witness_check(n, trials, rng))
        results.append(_gain_bound_check(n, max(2, trials // 2), rng))
        if n <= 8:
            results.append(_dense_replay_check(n, max(2, trials // 2), rng))

    files = write_outputs(config.output_dir, config.fmt, [
        ("corollaries.csv", ["check", "n", "trials", "max_deviation", "tolerance", "passed"],
         [(r.check, r.n, r.trials, r.max_deviation, r.tolerance, r.passed) for r in results]),
    ], ())
    return CorollariesReport(tuple(results), files)
