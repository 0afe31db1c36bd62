import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qamp import (
    NoSolutionError,
    SelectionMask,
    ShapeMismatchError,
    StateVector,
    grover_iteration,
    optimal_iterations,
    probability_of,
    sample,
    search,
    search_unknown_m,
    uniform_init,
)
from qamp.backend import sample_dense
from qamp.cli import main
from qamp.static_search import _Rotation


def closed_form(n_states, n_marked, k):
    """Independent oracle: rotation angle per step in the two-component plane."""
    return math.sin((2 * k + 1) * math.asin(math.sqrt(n_marked / n_states))) ** 2


def iteration_matrix(n, marked_indices):
    """Independent oracle: the amplification step as an explicit matrix."""
    size = 1 << n
    oracle = np.eye(size)
    for x in marked_indices:
        oracle[x, x] = -1.0
    diffusion = 2.0 / size * np.ones((size, size)) - np.eye(size)
    return diffusion @ oracle


def literal_steps(n, selected, k):
    """Independent oracle: k flip-and-reflect steps from uniform, in plain numpy.

    Returns the final state and the marked probability after each step.
    """
    amps = np.full(1 << n, 1.0 / math.sqrt(1 << n))
    marked_probs = []
    for _ in range(k):
        amps = np.where(selected, -amps, amps)
        amps = 2.0 * amps.mean() - amps
        marked_probs.append(float(amps[selected] @ amps[selected]))
    return StateVector(n, amps), marked_probs


class TestOptimalIterations:
    @pytest.mark.parametrize(
        "n_states,n_marked,expected",
        [(4, 1, 1), (1024, 1, 25), (8, 8, 0), (1 << 13, 14, 18), (1 << 14, 15, 25)],
    )
    def test_values(self, n_states, n_marked, expected):
        assert optimal_iterations(n_states, n_marked) == expected

    def test_no_solutions(self):
        with pytest.raises(NoSolutionError):
            optimal_iterations(16, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            optimal_iterations(16, 17)


class TestGroverIteration:
    def test_exact_n2(self):
        state = grover_iteration(uniform_init(2), SelectionMask.from_indices(2, [3]))
        np.testing.assert_allclose(state.amps, [0, 0, 0, 1], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n,marked", [(2, [3]), (3, [1, 6]), (5, [0, 7, 30]), (6, [33])])
    def test_matches_matrix_route(self, n, marked):
        matrix = iteration_matrix(n, marked)
        rng = np.random.default_rng(n)
        amps = rng.standard_normal(1 << n)
        amps /= np.linalg.norm(amps)
        mask = SelectionMask.from_indices(n, marked)
        state = StateVector(n, amps.copy())
        for _ in range(3):
            state = grover_iteration(state, mask)
            amps = matrix @ amps
            np.testing.assert_allclose(state.amps, amps, rtol=0, atol=1e-12)

    def test_closed_form_three_iterations(self):
        mask = SelectionMask.from_indices(4, [7])
        state = uniform_init(4)
        for _ in range(3):
            state = grover_iteration(state, mask)
        assert probability_of(state, mask) == pytest.approx(closed_form(16, 1, 3), abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("n_marked", [1, 2, 4])
    def test_closed_form_full_schedule(self, n, n_marked):
        n_states = 1 << n
        mask = SelectionMask.from_indices(n, range(n_marked))
        state = uniform_init(n)
        for k in range(1, optimal_iterations(n_states, n_marked) + 1):
            state = grover_iteration(state, mask)
            assert probability_of(state, mask) == pytest.approx(
                closed_form(n_states, n_marked, k), abs=1e-9
            )


class TestSearch:
    def test_exact_n2(self):
        rng = np.random.default_rng(0)
        result = search(2, np.array([3]), rng)
        assert result.outcome == 3
        assert result.success_probability == pytest.approx(1.0, abs=1e-12)
        assert result.iterations_used == 1

    def test_n10_success_probability(self):
        rng = np.random.default_rng(1)
        result = search(10, np.array([511]), rng)
        assert result.iterations_used == 25
        assert result.success_probability >= 0.994

    def test_all_marked_zero_iterations(self):
        rng = np.random.default_rng(2)
        result = search(3, np.arange(8), rng)
        assert result.iterations_used == 0
        assert result.success_probability == pytest.approx(1.0)
        assert 0 <= result.outcome < 8

    def test_majority_marked_uses_zero_iterations(self):
        rng = np.random.default_rng(3)
        result = search(4, np.arange(9), rng)
        assert result.iterations_used == 0
        assert result.success_probability == pytest.approx(9 / 16)

    def test_empty_marked_rejected(self):
        with pytest.raises(NoSolutionError):
            search(3, np.array([], dtype=np.int64), np.random.default_rng(0))

    def test_success_rate_over_seeds(self):
        hits = 0
        for seed in range(200):
            result = search(10, np.array([137]), np.random.default_rng(seed))
            hits += result.outcome == 137
        assert hits / 200 >= 0.99

    def test_trajectory_recording(self):
        rng = np.random.default_rng(4)
        result = search(6, np.array([9]), rng, record_trajectory=True)
        assert len(result.trajectory) == result.iterations_used
        assert result.trajectory[-1] == pytest.approx(result.success_probability)

    def test_monotone_growth_below_optimum(self):
        mask = SelectionMask.from_indices(10, [0])
        state = uniform_init(10)
        previous = probability_of(state, mask)
        for _ in range(optimal_iterations(1024, 1)):
            state = grover_iteration(state, mask)
            current = probability_of(state, mask)
            assert current > previous
            previous = current

    def test_majority_guarantee_closed_form(self):
        # floor schedule reaches >= 1/2 for every M <= N/2 (worst case is equality)
        for n in range(1, 13):
            n_states = 1 << n
            for n_marked in range(1, n_states // 2 + 1):
                k = optimal_iterations(n_states, n_marked)
                assert closed_form(n_states, n_marked, k) >= 0.5 - 1e-9


class TestSparseState:
    """The closed-form state is stored as ``bulk`` plus the marked amplitudes."""

    @staticmethod
    def dense_state_after(n, selected, k):
        """Independent oracle: both closed-form amplitudes written over all N states."""
        n_states, n_marked = 1 << n, int(selected.sum())
        angle = (2 * k + 1) * math.asin(math.sqrt(n_marked / n_states))
        marked_amp = math.sin(angle) / math.sqrt(max(n_marked, 1))
        unmarked_amp = math.cos(angle) / math.sqrt(max(n_states - n_marked, 1))
        return StateVector(n, np.where(selected, marked_amp, unmarked_amp))

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 10])
    @pytest.mark.parametrize("which", ["none", "one", "half", "all-but-one", "all"])
    def test_matches_dense_state_and_its_draws(self, n, which):
        n_states = 1 << n
        n_marked = {"none": 0, "one": 1, "half": n_states // 2,
                    "all-but-one": n_states - 1, "all": n_states}[which]
        rng = np.random.default_rng([n, n_marked])
        selected = np.zeros(n_states, dtype=bool)
        selected[rng.choice(n_states, n_marked, replace=False)] = True
        ks = {0, 1, 2, 7}
        if n_marked:
            ks.add(optimal_iterations(n_states, n_marked))
        for k in sorted(ks):
            dense = self.dense_state_after(n, selected, k)
            state = _Rotation(n, np.flatnonzero(selected)).state_after(k)
            assert state.idx.size == n_marked
            np.testing.assert_array_equal(state.amps, dense.amps)
            # M = N leaves bulk at cos(pi/2) ~ 6e-17, M = 0 stores no index
            seed = 1000 * k + n
            got = sample(state, np.random.default_rng(seed), size=2000)
            want = sample_dense(dense, np.random.default_rng(seed), size=2000)
            np.testing.assert_array_equal(got, want)

    def test_marked_indices_checked_once_per_search(self):
        with pytest.raises(ShapeMismatchError):
            _Rotation(3, np.array([5, 2]))
        rotation = _Rotation(3, np.array([2, 5]))
        assert all(rotation.state_after(k).idx is rotation.state_after(0).idx for k in range(3))

    @pytest.mark.parametrize("run", [search, search_unknown_m])
    @pytest.mark.parametrize("marked", [[5, 2], [2, 2], [-1, 3], [3, 8]])
    def test_bad_marked_indices_rejected(self, run, marked):
        with pytest.raises(ShapeMismatchError):
            run(3, np.array(marked), np.random.default_rng(0))

    def test_all_marked_bulk_is_rounding_only(self):
        state = _Rotation(4, np.arange(16)).state_after(0)
        assert 0.0 < abs(state.bulk) < 1e-16
        assert state.amp == pytest.approx(np.full(16, 0.25), abs=1e-15)

    @pytest.mark.parametrize("run", [search, search_unknown_m])
    def test_memory_is_o_marked(self, run):
        # at n = 22 one dense float64 vector is 32 MiB; the marked set is one state
        marked = np.array([1 << 21])
        tracemalloc.start()
        try:
            result = run(22, marked, np.random.default_rng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.found
        assert peak < 1 << 20

    @pytest.mark.parametrize("schedule", [[], ["--unknown-m"]])
    def test_grover_command_memory_is_o_marked(self, capsys, schedule):
        # at n = 30 a dense mask would take 1 GiB; the command keeps three indices
        tracemalloc.start()
        try:
            code = main(["grover", "--n", "30", "--m", "3", "--seed", "1", *schedule])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and "outcome=" in capsys.readouterr().out
        assert peak < 1 << 24


class TestSearchUnknownM:
    def test_dispatch_from_search(self, capsys):
        # `qamp grover --unknown-m` runs this schedule on its marked indices
        result = search_unknown_m(6, np.array([5]), np.random.default_rng(8))
        assert result.outcome == 5
        assert main(["grover", "--n", "6", "--marked", "5", "--unknown-m", "--seed", "8"]) == 0
        assert f"outcome=5 iterations={result.iterations_used} " in capsys.readouterr().out

    def test_finds_single_target(self):
        hits = 0
        for seed in range(50):
            result = search_unknown_m(8, np.array([77]), np.random.default_rng(seed))
            hits += result.outcome == 77
        assert hits >= 45

    def test_empty_marked_gives_up_after_budget(self):
        result = search_unknown_m(8, np.array([], dtype=np.int64), np.random.default_rng(0))
        assert result.outcome is None
        assert not result.found
        assert result.iterations_used >= math.ceil(3 * math.sqrt(256))

    def test_all_marked_immediate(self):
        result = search_unknown_m(5, np.arange(32), np.random.default_rng(1))
        assert result.found
        assert result.iterations_used <= 2

    def test_deterministic_for_seed(self):
        marked = np.array([3, 200])
        a = search_unknown_m(8, marked, np.random.default_rng(9))
        b = search_unknown_m(8, marked, np.random.default_rng(9))
        assert (a.outcome, a.iterations_used) == (b.outcome, b.iterations_used)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**31), fraction=st.floats(0.0, 1.0))
@example(n=6, seed=0, fraction=0.0)
@example(n=6, seed=1, fraction=0.75)
@example(n=6, seed=2, fraction=1.0)
def test_closed_form_matches_literal_steps(n, seed, fraction):
    """Both schedules sample, for one seed, what k literal steps would give them."""
    n_states = 1 << n
    rng = np.random.default_rng(seed)
    selected = np.zeros(n_states, dtype=bool)
    selected[rng.choice(n_states, round(fraction * n_states), replace=False)] = True
    mask, n_marked = SelectionMask(n, selected), int(selected.sum())

    if n_marked:
        k = math.floor(math.pi / 4 * math.sqrt(n_states / n_marked))
        k = 0 if 2 * n_marked > n_states else k
        state, marked_probs = literal_steps(n, selected, k)
        want = sample_dense(state, np.random.default_rng(seed))
        got = search(
            n, np.flatnonzero(selected), np.random.default_rng(seed), record_trajectory=True
        )
        assert (got.outcome, got.iterations_used, got.found) == (want, k, True)
        assert abs(got.success_probability - probability_of(state, mask)) <= 1e-12
        assert len(got.trajectory) == k
        np.testing.assert_allclose(got.trajectory, marked_probs, rtol=0, atol=1e-12)

    rng = np.random.default_rng(seed)
    budget, total, attempt, want = math.ceil(3 * math.sqrt(n_states)), 0, 0, None
    while total < budget:
        k = int(rng.integers(0, math.ceil(1.2**attempt) + 1))
        total, attempt = total + k, attempt + 1
        state, _ = literal_steps(n, selected, k)
        outcome = sample_dense(state, rng)
        if selected[outcome]:
            want = outcome
            break
    got = search_unknown_m(n, np.flatnonzero(selected), np.random.default_rng(seed))
    assert (got.outcome, got.iterations_used, got.found) == (want, total, want is not None)
    assert abs(got.success_probability - probability_of(state, mask)) <= 1e-12
