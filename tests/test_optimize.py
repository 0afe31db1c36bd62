import math
import tracemalloc

import numpy as np
import pytest

from qamp import (
    ObjectiveTable,
    Sense,
    ShapeMismatchError,
    SizeError,
    build_optimization_policy,
    durr_hoyer,
    dynamic_optimize,
    load_objective,
    nominal_rounds,
    planned_rounds,
    save_objective,
)
from qamp.optimize import policy_from_estimates


def random_table(n, seed, sense=Sense.MIN):
    rng = np.random.default_rng(seed)
    return ObjectiveTable(n, rng.standard_normal(1 << n), sense)


class TestObjectiveTable:
    def test_length_checked(self):
        with pytest.raises(ShapeMismatchError):
            ObjectiveTable(3, np.zeros(7))

    @pytest.mark.parametrize("n", [0, 31])
    def test_qubit_count_checked(self, n):
        with pytest.raises(SizeError):
            ObjectiveTable(n, np.zeros(1))

    def test_finite_checked(self):
        values = np.zeros(8)
        values[3] = np.inf
        with pytest.raises(ValueError):
            ObjectiveTable(3, values)

    def test_better_orientation(self):
        table_min = ObjectiveTable(2, [3.0, 1.0, 2.0, 0.5], Sense.MIN)
        table_max = ObjectiveTable(2, [3.0, 1.0, 2.0, 0.5], Sense.MAX)
        assert table_min.optimum_value() == 0.5
        assert table_max.optimum_value() == 3.0


class TestDurrHoyer:
    def test_identity_table_starts_solved(self):
        # the loop starts at state 0, which is already the minimum here
        table = ObjectiveTable(8, np.arange(256, dtype=float), Sense.MIN)
        result = durr_hoyer(table, np.random.default_rng(1))
        assert result.best_index == 0
        assert result.best_value == 0.0
        assert result.optimal

    def test_constant_table(self):
        table = ObjectiveTable(6, np.full(64, 2.5), Sense.MIN)
        result = durr_hoyer(table, np.random.default_rng(0))
        assert result.best_index == 0
        assert result.optimal

    def test_exact_optimum_rate_and_budget(self):
        exact = 0
        totals = []
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            table = ObjectiveTable(8, rng.standard_normal(256), Sense.MIN)
            result = durr_hoyer(table, rng)
            exact += result.optimal
            totals.append(result.grover_iterations_total)
        assert exact >= 45
        assert np.mean(totals) <= 4 * math.log2(256) * math.sqrt(256)

    def test_maximize_sense(self):
        hits = 0
        for seed in range(20):
            table = random_table(6, seed, Sense.MAX)
            result = durr_hoyer(table, np.random.default_rng(seed))
            hits += result.optimal
        assert hits >= 17

    def test_incumbent_strictly_improves(self):
        table = random_table(6, seed=5)
        result = durr_hoyer(table, np.random.default_rng(5))
        rounds = result.threshold_rounds
        values = [float(table.values[r.incumbent_before]) for r in rounds]
        for a, b in zip(values, values[1:]):
            assert b < a
        assert rounds[-1].found is None  # loop ends on a give-up round
        assert result.outer_rounds == len(rounds)
        assert result.log is None

    def test_marked_sets_match_bruteforce(self):
        # mask built per round equals the exhaustive strictly-better set
        table = random_table(6, seed=9)
        for r in durr_hoyer(table, np.random.default_rng(9)).threshold_rounds:
            threshold = float(table.values[r.incumbent_before])
            by_hand = sum(
                1 for x in range(64) if float(table.values[x]) < threshold
            )
            assert r.marked_count == by_hand


class TestOptimizationPolicy:
    def test_limit_boundaries(self):
        table = ObjectiveTable(10, np.linspace(0.0, 1.0, 1024), Sense.MAX)
        policy = policy_from_estimates(table, 0.0, 1.0)
        assert policy.probabilities[-1] == pytest.approx(1.0)  # r = 1
        assert policy.probabilities[0] == pytest.approx(1.0 / 1024)  # r = 0

    def test_sense_orientation(self):
        table = ObjectiveTable(4, np.linspace(0.0, 1.0, 16), Sense.MIN)
        policy = policy_from_estimates(table, 0.0, 1.0)
        assert policy.probabilities[0] == pytest.approx(1.0)
        assert policy.probabilities[-1] == pytest.approx(1.0 / 16)

    def test_clamped_outside_estimates(self):
        table = ObjectiveTable(4, np.linspace(-2.0, 2.0, 16), Sense.MAX)
        policy = policy_from_estimates(table, -1.0, 1.0)
        assert policy.probabilities[-1] == pytest.approx(1.0)
        assert policy.probabilities[0] == pytest.approx(1.0 / 16)

    def test_expected_count_direct_summation(self):
        # oracle: plain-python sum of 2**(n*(r-1)) over the table
        table = ObjectiveTable(8, np.linspace(0.0, 1.0, 256), Sense.MAX)
        policy = policy_from_estimates(table, 0.0, 1.0)
        by_hand = sum(2.0 ** (8 * (x / 255.0 - 1.0)) for x in range(256))
        assert policy.moments()[0] == pytest.approx(by_hand, rel=1e-12)

    @pytest.mark.parametrize("sense", [Sense.MIN, Sense.MAX])
    def test_range_too_narrow_for_its_slope(self, sense):
        # over subnormal values k * 5e-324, n / (f_hi - f_lo) overflows, yet
        # P is 2**(n (r - 1)) with r = k / 15 (flipped under MIN), as it is
        # over any range, and the end states get P = 1 and P = 2**-n exactly
        tiny = float(np.nextafter(0.0, 1.0))
        table = ObjectiveTable(4, np.arange(16) * tiny, sense)
        f_lo, f_hi = 0.0, 15 * tiny
        assert math.isinf(4 / (f_hi - f_lo))
        r = np.arange(16) / 15.0
        if sense is Sense.MIN:
            r = 1.0 - r
        probs = policy_from_estimates(table, f_lo, f_hi).probabilities
        np.testing.assert_allclose(probs, 2.0 ** (4 * (r - 1.0)), rtol=1e-15, atol=0)
        ends = (probs[0], probs[-1])
        assert ends == ((2.0**-4, 1.0) if sense is Sense.MAX else (1.0, 2.0**-4))
        # a two-state table of {0, 5e-324}
        pair = ObjectiveTable(1, np.array([0.0, tiny]), sense)
        probs = policy_from_estimates(pair, 0.0, tiny).probabilities.tolist()
        assert probs == ([0.5, 1.0] if sense is Sense.MAX else [1.0, 0.5])

    @pytest.mark.parametrize("sense", [Sense.MIN, Sense.MAX])
    @pytest.mark.parametrize("offset", [0.0, 1e12, -1e15])
    def test_values_far_from_zero_keep_the_rescaled_accuracy(self, sense, offset):
        # values offset + k over a range of 15: P is the rescaled formula
        # 2**(n (r - 1)), r = (v - f_lo) / (f_hi - f_lo), flipped under MIN,
        # to 1e-14 relative wherever the values sit
        table = ObjectiveTable(4, offset + np.arange(16.0), sense)
        f_lo, f_hi = offset + 0.0, offset + 15.0
        r = (table.values - f_lo) / (f_hi - f_lo)
        if sense is Sense.MIN:
            r = 1.0 - r
        probs = policy_from_estimates(table, f_lo, f_hi).probabilities
        np.testing.assert_allclose(probs, 2.0 ** (4 * (r - 1.0)), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", [1, 8, 18])
    def test_probe_count_is_ceil_sqrt_n(self, n):
        # the policy draws exactly ceil(sqrt(N)) uniform probes, and nothing else
        n_states = 1 << n
        table = ObjectiveTable(n, np.arange(n_states, dtype=np.float64))
        rng = np.random.default_rng(5)
        build_optimization_policy(table, rng)
        twin = np.random.default_rng(5)
        twin.integers(0, n_states, size=math.ceil(math.sqrt(n_states)))
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_flat_signal_policy(self):
        # probes that all read one value give no policy
        table = ObjectiveTable(5, np.full(32, 1.0), Sense.MIN)
        assert build_optimization_policy(table, np.random.default_rng(0)) is None

    @pytest.mark.parametrize("value", [0.0, -2.5])
    def test_equal_estimates_rejected(self, value):
        table = ObjectiveTable(4, np.linspace(-1.0, 1.0, 16), Sense.MIN)
        with pytest.raises(ValueError):
            policy_from_estimates(table, value, value)


class TestDynamicOptimize:
    def test_budget_identity_and_cap(self):
        cap = math.ceil(math.pi / 4 * math.sqrt(1024))
        for seed in range(20):
            table = random_table(10, seed, Sense.MAX)
            result = dynamic_optimize(table, np.random.default_rng(seed))
            assert result.grover_iterations_total == 2 * result.outer_rounds
            assert result.outer_rounds <= cap

    def test_top_percentile_rate(self):
        hits = 0
        for seed in range(60):
            rng = np.random.default_rng(7000 + seed)
            values = rng.standard_normal(1024)
            table = ObjectiveTable(10, values, Sense.MAX)
            result = dynamic_optimize(table, rng)
            hits += int(np.sum(values > result.best_value)) < 1024 * 0.01
        assert hits / 60 >= 0.4

    def test_flat_objective_returns_valid_index(self):
        table = ObjectiveTable(6, np.full(64, 3.25), Sense.MIN)
        result = dynamic_optimize(table, np.random.default_rng(2))
        assert 0 <= result.best_index < 64
        assert result.grover_iterations_total == 0
        assert result.optimal

    @pytest.mark.parametrize("sense", [Sense.MIN, Sense.MAX])
    @pytest.mark.parametrize("best_first", [False, True])
    def test_selected_for_sure_states_do_not_read_as_flat(self, sense, best_first):
        # the best states get selection probability 1; only equal probes
        # make the policy flat and skip the rounds
        values = np.arange(1 << 10, dtype=np.float64)
        if best_first == (sense is Sense.MAX):
            values = values[::-1].copy()
        table = ObjectiveTable(10, values, sense)
        policy = build_optimization_policy(table, np.random.default_rng(5))
        result = dynamic_optimize(table, np.random.default_rng(5))
        assert result.log is not None
        assert result.outer_rounds == min(planned_rounds(policy), nominal_rounds(10)) >= 1

    def test_needle_missed_by_every_probe_takes_the_shortcut(self):
        # the 64 probes of an n = 12 table all read the background value, so
        # no round runs and the answer is the best of 10 uniform samples
        n, needle, seed = 12, 1234, 0
        values = np.ones(1 << n)
        values[needle] = 0.0
        table = ObjectiveTable(n, values, Sense.MIN)
        probes = np.random.default_rng(seed).integers(0, 1 << n, size=64)
        assert needle not in probes.tolist()
        assert build_optimization_policy(table, np.random.default_rng(seed)) is None
        result = dynamic_optimize(table, np.random.default_rng(seed))
        assert result.log is None
        assert (result.grover_iterations_total, result.outer_rounds) == (0, 0)
        assert result.best_value == 1.0 and result.optimal is False

    def test_two_valued_table_seen_by_the_probes_runs_nominal_rounds(self):
        n, seed = 12, 0
        values = np.where(np.arange(1 << n) % 2 == 0, 1.0, 2.0)
        table = ObjectiveTable(n, values, Sense.MIN)
        probes = np.random.default_rng(seed).integers(0, 1 << n, size=64)
        assert len(set(values[probes].tolist())) == 2
        result = dynamic_optimize(table, np.random.default_rng(seed))
        assert result.log is not None
        assert result.outer_rounds == result.log.rounds == nominal_rounds(n)
        assert result.grover_iterations_total == 2 * nominal_rounds(n)

    def test_one_needle_optimal_flag_is_true_statement(self):
        # the probes all miss the needle, so the policy looks flat; the
        # answer is then the best of uniform samples, rarely the needle
        values = np.ones(1 << 12)
        values[1234] = 0.0
        table = ObjectiveTable(12, values, Sense.MIN)
        for seed in range(20):
            result = dynamic_optimize(table, np.random.default_rng(seed))
            assert result.best_value == table.values[result.best_index]
            assert result.optimal == (result.best_value == 0.0)

    # (best_index, rounds, optimal) per table seed, recorded again when a
    # run came to make its planned rounds and return its final state, and
    # when table runs came to take their first rounds from their support
    # draw; the seeds' requests restart nowhere
    PINNED = {
        Sense.MIN: [(6128, 2, False), (8041, 2, False), (6210, 2, True)],
        Sense.MAX: [(1645, 2, False), (12998, 2, False), (3663, 1, False)],
    }

    @pytest.mark.parametrize("sense", [Sense.MIN, Sense.MAX])
    def test_pinned_outputs(self, sense):
        for seed, (best_index, rounds, optimal) in zip((11, 12, 13), self.PINNED[sense]):
            values = np.random.default_rng(seed).standard_normal(1 << 14)
            table = ObjectiveTable(14, values, sense)
            result = dynamic_optimize(table, np.random.default_rng(seed + 100))
            assert result.best_index == best_index
            assert result.best_value == values[best_index]
            assert result.outer_rounds == result.log.rounds == rounds
            assert result.log.best_round is None and result.log.restart_rounds == ()
            assert result.optimal == optimal

    def test_request_allocates_under_two_per_state_vectors(self):
        # the policy table is the one float64 N-vector a request needs; the
        # support draw and the run add well under another
        n = 18
        table = random_table(n, seed=3)
        tracemalloc.start()
        try:
            result = dynamic_optimize(table, np.random.default_rng(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.outer_rounds == nominal_rounds(n)
        assert peak < 2 * 8 << n

    def test_fewer_iterations_than_threshold_loop(self):
        dyn, thresh = [], []
        for seed in range(50):
            table = random_table(10, 2000 + seed)
            thresh.append(
                durr_hoyer(table, np.random.default_rng(3000 + seed)).grover_iterations_total
            )
            dyn.append(
                dynamic_optimize(table, np.random.default_rng(4000 + seed)).grover_iterations_total
            )
        assert np.median(dyn) < np.median(thresh)


class TestObjectiveFiles:
    def test_round_trip(self, tmp_path):
        table = random_table(5, seed=3, sense=Sense.MAX)
        path = tmp_path / "table.obj"
        save_objective(path, table)
        loaded = load_objective(path)
        assert loaded.n == 5
        assert loaded.sense is Sense.MAX
        np.testing.assert_array_equal(loaded.values, table.values)

    def test_header_format(self, tmp_path):
        path = tmp_path / "table.obj"
        path.write_text("n=2 sense=min\n0.0 1.0 2.0 3.0\n", encoding="utf-8")
        table = load_objective(path)
        assert table.n == 2 and table.sense is Sense.MIN

    def test_bad_header(self, tmp_path):
        path = tmp_path / "table.obj"
        path.write_text("qubits=2\n0 1 2 3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_objective(path)

    def test_bad_sense(self, tmp_path):
        path = tmp_path / "table.obj"
        path.write_text("n=2 sense=upward\n0 1 2 3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_objective(path)

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "table.obj"
        path.write_text("n=2 sense=min\n0 1 2\n", encoding="utf-8")
        with pytest.raises(ShapeMismatchError):
            load_objective(path)
