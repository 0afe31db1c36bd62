"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import copy
import math
import time

import numpy as np
import pytest

from qamp import (
    ObjectiveTable,
    SelectionMask,
    Sense,
    StateVector,
    build_optimization_policy,
    durr_hoyer,
    dynamic_iteration,
    dynamic_optimize,
    gain_bound,
    gain_report,
    grover_iteration,
    nominal_rounds,
    optimal_iterations,
    ordering_witness,
    planned_rounds,
    probability_of,
    search,
    uniform_init,
)
from qamp.experiments import (
    ExperimentConfig,
    experiment_accuracy,
    experiment_corollaries,
    experiment_steps,
)

PAPER_STATIC_SERIES = {10: 7, 11: 10, 12: 13, 13: 18, 14: 25}


def announce(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {message}")


def random_state(n, rng) -> StateVector:
    amps = rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


def test_criterion_1_exact_small_case_rotation():
    """n=2, one marked state: one iteration reaches probability 1 (fast)."""
    marked = np.array([3])
    search(2, marked, np.random.default_rng(0))  # warmup
    start = time.perf_counter()
    result = search(2, marked, np.random.default_rng(1))
    elapsed_ms = (time.perf_counter() - start) * 1e3
    assert result.iterations_used == 1
    assert abs(result.success_probability - 1.0) <= 1e-12
    assert result.outcome == 3
    assert elapsed_ms < 1.0
    announce(1, f"one iteration at n=2 reaches 1.0 within 1e-12 in {elapsed_ms:.3f} ms")


def test_criterion_2_closed_form_agreement():
    """Simulated marked probability equals the rotation closed form to 1e-9."""
    checks = 0
    for n in range(1, 13):
        size = 1 << n
        for n_marked in (1, 2, 4):
            if n_marked > size:
                continue
            mask = SelectionMask.from_indices(n, range(n_marked))
            half_theta = math.asin(math.sqrt(n_marked / size))
            state = uniform_init(n)
            for k in range(1, optimal_iterations(size, n_marked) + 1):
                state = grover_iteration(state, mask)
                expected = math.sin((2 * k + 1) * half_theta) ** 2
                assert abs(probability_of(state, mask) - expected) <= 1e-9
                checks += 1
    announce(2, f"{checks} closed-form comparisons within 1e-9 across n<=12, M in {{1,2,4}}")


def test_criterion_3_doubled_identities_and_fault_witness(tmp_path):
    """1000 doubled-step identity checks at 1e-10; single steps break ordering."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 11))
        state = random_state(n, rng)
        mask = SelectionMask.full(n) if trial % 2 else SelectionMask.empty(n)
        dev = float(np.linalg.norm(dynamic_iteration(state, mask).amps - state.amps))
        worst = max(worst, dev)
        assert dev <= 1e-10
    # fault injection: the undoubled variant must fail the ordering check
    report = experiment_corollaries(
        ExperimentConfig("corollaries", n_range=(3, 6), seeds=8, fmt="csv",
                         output_dir=tmp_path, inject_fault=True)
    )
    failing = {r.check for r in report.results if not r.passed}
    assert failing == {"reselection-ordering"}
    witness = ordering_witness(SelectionMask.from_indices(3, [5]), doubled=False)
    assert witness.selected_amp < witness.unselected_amp
    announce(3, f"1000 identity checks (worst L2 {worst:.2e} <= 1e-10); "
                "single-step variant fails the ordering check")


def test_criterion_4_gain_ceiling():
    """500 random static masks: gain below the ceiling on every certified step."""
    rng = np.random.default_rng(7)
    cases = 0
    checked_states = 0
    while cases < 500:
        n = int(rng.integers(2, 11))
        size = 1 << n
        count = int(rng.integers(1, size))
        mask = SelectionMask.from_indices(n, rng.choice(size, size=count, replace=False))
        cases += 1
        bound = gain_bound(size, count)
        state = uniform_init(n)
        for _ in range(2 * optimal_iterations(size, count) + 2):
            nxt = grover_iteration(state, mask)
            unsel_next = nxt.amps[~mask.selected]
            next_positive = bool(unsel_next.size) and float(unsel_next.min()) > 1e-9
            if next_positive:
                assert gain_report(state, mask).gain < bound
                checked_states += 1
            state = nxt
            if not next_positive:
                break
    announce(4, f"gain ceiling held on {checked_states} certified steps over 500 masks")


def test_criterion_5_steps_band(tmp_path):
    """Static series (7,10,13,18,25) exactly; dynamic medians within 2x."""
    start = time.perf_counter()
    outcome = experiment_steps(
        ExperimentConfig("steps", n_range=(10, 14), seeds=21, seed_base=0,
                         output_dir=tmp_path, fmt="csv")
    )
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0
    for row in outcome.rows:
        assert abs(row.static_steps - PAPER_STATIC_SERIES[row.n]) <= 2
        assert row.dynamic_rounds / row.static_steps <= 2.0
    announce(5, "static steps "
             + str([int(r.static_steps) for r in outcome.rows])
             + " vs reference (7,10,13,18,25); dynamic/static ratios "
             + str([round(r.dynamic_rounds / r.static_steps, 2) for r in outcome.rows])
             + f"; sweep took {elapsed:.1f}s")


def test_criterion_6_accuracy_shape(tmp_path):
    """Class-mass curves at n=13: monotone tail, top-heavy, unit mass."""
    outcome = experiment_accuracy(
        ExperimentConfig("accuracy", n=13, seeds=21, seed_base=0,
                         output_dir=tmp_path, fmt="csv")
    )
    dynamic, static = outcome.p_dynamic, outcome.p_static
    assert abs(dynamic.sum() - 1.0) <= 1e-6
    assert abs(static.sum() - 1.0) <= 1e-6
    for s in range(6, 13):
        assert dynamic[s + 1] >= dynamic[s]
    top2 = float(dynamic[13] + dynamic[12])
    assert top2 > 0.5
    assert abs(float(dynamic[13]) - 0.355) <= 0.15
    assert abs(float(static[12]) - 0.933) <= 0.15
    announce(6, f"dynamic S=13 {float(dynamic[13]):.3f} (target 0.355 +- 0.15), "
                f"static S=12 {float(static[12]):.3f} (target 0.933 +- 0.15), "
                f"top-2 share {top2:.3f}, curves sum to 1")


def test_criterion_7_threshold_optimizer():
    """50 seeded objectives at n=8: >=45 exact optima within the step budget."""
    exact = 0
    totals = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        table = ObjectiveTable(8, rng.standard_normal(256), Sense.MIN)
        result = durr_hoyer(table, rng)
        exact += result.optimal
        totals.append(result.grover_iterations_total)
    budget = 4 * math.log2(256) * math.sqrt(256)
    assert exact >= 45
    assert np.mean(totals) <= budget
    announce(7, f"exact optimum in {exact}/50 runs; mean iterations "
                f"{np.mean(totals):.1f} <= {budget:.0f}")


def test_criterion_8_dynamic_optimizer_budget_and_quality():
    """Iterations exactly 2*rounds, rounds capped; top-1% hit rate >= 1/2."""
    cap = math.ceil(math.pi / 4 * math.sqrt(1024))
    hits = 0
    rounds = []
    for seed in range(100):
        rng = np.random.default_rng(500 + seed)
        values = rng.standard_normal(1024)
        table = ObjectiveTable(10, values, Sense.MAX)
        policy = build_optimization_policy(table, copy.deepcopy(rng))  # the run's own probes
        result = dynamic_optimize(table, rng)
        assert result.grover_iterations_total == 2 * result.outer_rounds
        assert result.outer_rounds <= cap
        assert result.outer_rounds == min(planned_rounds(policy), nominal_rounds(10))
        rounds.append(result.outer_rounds)
        hits += int(np.sum(values > result.best_value)) < 1024 * 0.01
    assert hits / 100 >= 0.5
    announce(8, f"budget exactly 2*rounds (rounds {min(rounds)}-{max(rounds)} <= {cap}); "
                f"top-1% value in {hits}/100 runs")


def test_criterion_9_reproducibility(tmp_path):
    """Identical configs produce byte-identical CSV (wall-time aside)."""
    def strip_wall(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[0].split(",")[-1] == "wall_time_ms":
            return [",".join(line.split(",")[:-1]) for line in lines]
        return lines

    compared = []
    for which, kwargs in (
        ("steps", dict(n_range=(5, 7), seeds=4)),
        ("accuracy", dict(n=9, seeds=4)),
        ("corollaries", dict(n_range=(2, 5), seeds=5)),
    ):
        outs = []
        for run in ("first", "second"):
            config = ExperimentConfig(
                which, seed_base=3, output_dir=tmp_path / which / run, fmt="csv", **kwargs
            )
            if which == "steps":
                files = experiment_steps(config).files
            elif which == "accuracy":
                files = experiment_accuracy(config).files
            else:
                files = experiment_corollaries(config).files
            outs.append(sorted(files))
        for a, b in zip(*outs):
            assert a.name == b.name
            assert strip_wall(a) == strip_wall(b)
            compared.append(a.name)
    announce(9, f"byte-identical re-runs for {sorted(set(compared))}")
