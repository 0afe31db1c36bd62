import dataclasses
import hashlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qamp import (
    DynamicRunLog,
    GainReport,
    ObjectiveTable,
    SelectionMask,
    SelectionPolicy,
    Sense,
    StateVector,
    ValidityError,
    build_optimization_policy,
    dynamic_iteration,
    gain_bound,
    gain_report,
    grover_iteration,
    nominal_rounds,
    optimal_iterations,
    ordering_witness,
    planned_rounds,
    probability_of,
    replay_round_states,
    run_dynamic,
    uniform_init,
)
from qamp.dynamic_search import (
    _PASCAL,
    VALIDITY_ATOL,
    _colex_words,
    _draw_support,
    _Support,
    class_counts,
    similarity_classes,
)
from qamp.recommend import (
    SelectionProbabilityParams,
    SimilaritySpec,
    calibrate_beta,
    similarity_policy,
)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


# a log's columns, derived ones first; each has one entry per round
LOG_COLUMNS = (
    "n_selected", "gains", "p_selected", "p_unselected", "mean_amplitude",
    "min_unselected_amp", "policy_mass_by_round", "watched_mass_by_round",
)


class TestSelectionPolicy:
    def test_probabilities_clamped(self):
        policy = SelectionPolicy.probabilistic(2, [-1.0, 0.5, 2.0, 0.0])
        assert policy.probabilities.min() == 0.0
        assert policy.probabilities.max() == 1.0

    def test_probabilities_at_zero_outside_the_catalog(self):
        n, reference = 6, 0b101101
        class_probs = np.linspace(0.1, 0.9, n + 1)
        catalog = [40, 3, 17, 3, 58]  # unsorted, with a repeat
        policy = SelectionPolicy.by_similarity(n, reference, class_probs, catalog)
        # members, non-members between them, below the first and above the last
        indices = np.array([3, 17, 40, 58, 0, 2, 4, 18, 41, 59, 63])
        want = class_probs[similarity_classes(n, reference, indices)]
        want[4:] = 0.0
        assert np.array_equal(policy.probabilities_at(indices), want)
        empty = SelectionPolicy.by_similarity(n, reference, class_probs, [])
        assert np.array_equal(empty.probabilities_at(indices), np.zeros(indices.size))


class TestDynamicIteration:
    @pytest.mark.parametrize("full", [False, True])
    def test_degenerate_mask_identity(self, full):
        for seed in range(10):
            state = random_state(6, seed)
            mask = SelectionMask.full(6) if full else SelectionMask.empty(6)
            after = dynamic_iteration(state, mask)
            assert np.linalg.norm(after.amps - state.amps) <= 1e-10

    def test_doubling_is_two_single_steps(self):
        state = random_state(5, seed=3)
        mask = SelectionMask.from_indices(5, [1, 2, 3])
        twice = grover_iteration(grover_iteration(state, mask), mask)
        np.testing.assert_allclose(
            dynamic_iteration(state, mask).amps, twice.amps, rtol=0, atol=1e-12
        )

    def test_small_selected_set_gains_mass(self):
        # single mark: both inner steps stay in the productive regime
        mask = SelectionMask.from_indices(3, [0])
        state = uniform_init(3)
        before = probability_of(state, mask)
        report = gain_report(state, mask)
        assert report.mean_amplitude > 0.0 and report.min_unselected_amp > 0.0
        after = probability_of(dynamic_iteration(state, mask), mask)
        assert after > before

    def test_quarter_mask_boundary_returns_to_input(self):
        # selecting exactly N/4 states rotates symmetrically about the peak:
        # the second inner step starts from zero unselected amplitude (the
        # productive conditions break mid-round) and the mass comes back
        mask = SelectionMask.from_indices(3, [0, 1])
        state = uniform_init(3)
        mid = grover_iteration(state, mask)
        assert float(mid.amps[~mask.selected].min()) == pytest.approx(0.0, abs=1e-15)
        after = probability_of(dynamic_iteration(state, mask), mask)
        assert after == pytest.approx(probability_of(state, mask), abs=1e-12)


class TestGainReport:
    def test_uniform_ratio(self):
        report = gain_report(uniform_init(5), SelectionMask.from_indices(5, range(3)))
        assert report.gain == pytest.approx(3 / 29)
        assert report.ns_actual == 3
        assert report.p_selected + report.p_unselected == pytest.approx(1.0, abs=1e-9)

    def test_ns_bound_from_measured_gain(self):
        # craft a state with selected/unselected mass 8:1 at n=10
        amps = np.full(1024, math.sqrt(1.0 / (9 * 1023)))
        amps[0] = math.sqrt(8.0 / 9.0)
        report = gain_report(StateVector(10, amps), SelectionMask.from_indices(10, [0]))
        assert report.gain == pytest.approx(8.0)
        assert report.ns_bound == pytest.approx(64.0)

    def test_infinite_gain_signal(self):
        report = gain_report(StateVector(2, [0, 0, 0, 1]), SelectionMask.from_indices(2, [3]))
        assert math.isinf(report.gain)
        assert report.complete
        assert report.ns_bound == 0.0

    def test_empty_mask_zero_gain(self):
        report = gain_report(uniform_init(3), SelectionMask.empty(3))
        assert report.gain == 0.0
        assert math.isinf(report.ns_bound)
        assert not report.complete

    def test_post_flip_mean(self):
        state = uniform_init(3)
        mask = SelectionMask.from_indices(3, [0, 1, 2])
        report = gain_report(state, mask)
        flipped = np.where(mask.selected, -state.amps, state.amps)
        assert report.mean_amplitude == pytest.approx(float(flipped.mean()), abs=1e-15)


class TestProgressConditions:
    """The progress conditions as ``gain_report`` gives them."""

    def test_uniform_all_ok_at_boundary_gain(self):
        state = uniform_init(4)
        for count in range(1, 8):
            report = gain_report(state, SelectionMask.from_indices(4, range(count)))
            assert report.mean_amplitude > -VALIDITY_ATOL
            assert report.min_unselected_amp > -VALIDITY_ATOL
            # the selected count stays under the ceiling N / (2G) of the measured gain
            assert report.ns_actual <= report.ns_bound

    def test_negative_unselected_detected(self):
        amps = np.full(8, 1 / math.sqrt(8))
        amps[7] *= -1
        amps /= np.linalg.norm(amps)
        report = gain_report(StateVector(3, amps), SelectionMask.from_indices(3, [0]))
        assert report.min_unselected_amp < -VALIDITY_ATOL


class TestGainBound:
    def test_bound_certifies_next_step(self):
        # while the next step keeps unselected amplitudes positive (beyond
        # float noise; N/4-sized masks land exactly on zero), gain < bound
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            size = 1 << n
            count = int(rng.integers(1, size))
            mask = SelectionMask.from_indices(n, rng.choice(size, size=count, replace=False))
            bound = gain_bound(size, count)
            state = uniform_init(n)
            for _step in range(2 * optimal_iterations(size, count) + 2):
                nxt = grover_iteration(state, mask)
                unsel_next = nxt.amps[~mask.selected]
                next_positive = unsel_next.size and float(unsel_next.min()) > 1e-9
                if next_positive:
                    report = gain_report(state, mask)
                    assert report.gain < bound
                state = nxt
                if not next_positive:
                    break

    def test_bound_fails_at_last_positive_state(self):
        # n=4, single mark: at k=2 unselected amps are still positive but the
        # measured gain already exceeds the ceiling (the next step flips them)
        mask = SelectionMask.from_indices(4, [7])
        state = uniform_init(4)
        for _ in range(2):
            state = grover_iteration(state, mask)
        assert float(state.amps[~mask.selected].min()) > 0.0
        assert gain_report(state, mask).gain > gain_bound(16, 1)


class TestOrderingWitness:
    def algebra_oracle(self, n, count):
        # two single steps from uniform: selection round then empty round
        size = 1 << n
        a = 1.0 / math.sqrt(size)
        mu1 = a * (size - 2 * count) / size
        sel1, unsel1 = 2 * mu1 + a, 2 * mu1 - a
        mu2 = (count * sel1 + (size - count) * unsel1) / size
        return 2 * mu2 - sel1, 2 * mu2 - unsel1

    def test_once_selected_falls_below(self):
        witness = ordering_witness(SelectionMask.from_indices(3, [5]))
        assert witness.selected_amp < witness.unselected_amp

    @pytest.mark.parametrize("n,count", [(3, 1), (4, 3), (5, 10), (6, 20)])
    def test_matches_algebra(self, n, count):
        witness = ordering_witness(SelectionMask.from_indices(n, range(count)))
        sel, unsel = self.algebra_oracle(n, count)
        assert witness.selected_amp == pytest.approx(sel, abs=1e-12)
        assert witness.unselected_amp == pytest.approx(unsel, abs=1e-12)

    def test_doubling_preserves_order(self):
        witness = ordering_witness(SelectionMask.from_indices(3, [5]), doubled=True)
        assert witness.selected_amp >= witness.unselected_amp

    def test_empty_mask_equal(self):
        witness = ordering_witness(SelectionMask.empty(3))
        assert witness.selected_amp == witness.unselected_amp


class TestRunDynamic:
    def test_zero_rounds(self):
        policy = SelectionPolicy.probabilistic(4, np.full(16, 0.2))
        state, log = run_dynamic(policy, np.random.default_rng(0), rounds=0)
        np.testing.assert_allclose(state.amps, uniform_init(4).amps)
        assert log.rounds == 0
        for name in ("events", *LOG_COLUMNS[:-1]):
            assert getattr(log, name).shape == (0,), name
        assert log.watched_mass_by_round is None
        assert log.starts.tolist() == [0]
        assert log.selected_indices == ()

    def test_static_policy_thirteen_rounds(self):
        mask = SelectionMask.from_indices(10, [511])
        policy = SelectionPolicy.probabilistic(mask.n, mask.selected)
        state, log = run_dynamic(policy, np.random.default_rng(0), rounds=13)
        assert log.rounds == 13
        assert probability_of(state, mask) >= 0.99

    def test_validity_abort_carries_log(self):
        # selecting ~60% of the space flips the post-flip mean negative
        policy = SelectionPolicy.probabilistic(8, np.full(256, 0.6))
        with pytest.raises(ValidityError) as excinfo:
            run_dynamic(policy, np.random.default_rng(0), rounds=4)
        err = excinfo.value
        assert err.log.rounds < 4
        assert abs(err.state.norm_sq() - 1.0) < 1e-9

    def test_abort_never_logs_violating_round(self):
        # completed rounds of a guarded run replay to valid boundary states
        for seed in range(12):
            rng = np.random.default_rng(seed)
            probs = rng.uniform(0.0, 0.8) * rng.random(64)
            policy = SelectionPolicy.probabilistic(6, probs)
            try:
                _, log = run_dynamic(policy, np.random.default_rng(seed + 100), rounds=6)
            except ValidityError as err:
                log = err.log
            states = replay_round_states(log)
            for state, selected in zip(states, log.selected_indices):
                report = gain_report(state, SelectionMask.from_indices(log.n, selected))
                assert report.mean_amplitude > -VALIDITY_ATOL
                assert report.min_unselected_amp > -VALIDITY_ATOL

    def test_stop_above_own_mask(self):
        mask = SelectionMask.from_indices(10, [7])
        policy = SelectionPolicy.probabilistic(mask.n, mask.selected)
        state, log = run_dynamic(
            policy, np.random.default_rng(0), rounds=40, stop_above=0.5, watch=policy
        )
        assert log.rounds < 40
        assert log.p_selected[-1] > 0.5
        assert np.all(log.p_selected[:-1] <= 0.5)

    def test_stop_above_needs_watch(self):
        policy = SelectionPolicy.probabilistic(6, np.full(64, 0.1))
        with pytest.raises(ValueError, match="stop_above"):
            run_dynamic(policy, np.random.default_rng(0), rounds=4, stop_above=0.5)

    def test_stop_above_watched_fixed_set(self):
        target = SelectionMask.from_indices(8, range(4))
        policy = SelectionPolicy.probabilistic(
            8, np.where(np.arange(256) < 4, 1.0, 1 / 256.0)
        )
        state, log = run_dynamic(
            policy,
            np.random.default_rng(1),
            rounds=40,
            stop_above=0.5,
            watch=SelectionPolicy.probabilistic(8, target.selected),
            on_violation="continue",
        )
        assert log.watched_mass_by_round[-1] > 0.5
        assert probability_of(state, target) > 0.5

    def test_keep_best_returns_best_round_state(self):
        mask = SelectionMask.from_indices(8, [3])
        policy = SelectionPolicy.probabilistic(mask.n, mask.selected)
        # 24 rounds = 48 steps, far past the ~12-step optimum: final state is
        # poor but the best round is near the peak
        state, log = run_dynamic(
            policy, np.random.default_rng(0), rounds=24, keep_best=True,
            on_violation="continue",
        )
        assert log.best_round is not None
        assert probability_of(state, mask) == pytest.approx(
            max(log.policy_mass_by_round), abs=1e-12
        )
        assert probability_of(state, mask) > 0.9

    def test_policy_mass_equals_p_selected_for_static(self):
        mask = SelectionMask.from_indices(6, [1])
        policy = SelectionPolicy.probabilistic(mask.n, mask.selected)
        _, log = run_dynamic(
            policy, np.random.default_rng(0), rounds=5, on_violation="continue"
        )
        np.testing.assert_allclose(log.policy_mass_by_round, log.p_selected, rtol=0, atol=1e-15)

    def test_deterministic_for_seed(self):
        policy = SelectionPolicy.probabilistic(8, np.full(256, 0.02))
        a_state, a_log = run_dynamic(policy, np.random.default_rng(3), rounds=6)
        b_state, b_log = run_dynamic(policy, np.random.default_rng(3), rounds=6)
        assert np.array_equal(a_state.amps, b_state.amps)
        for name in ("events", "starts", *LOG_COLUMNS):
            assert np.array_equal(getattr(a_log, name), getattr(b_log, name)), name

    def test_log_mask_roundtrip(self):
        policy = SelectionPolicy.probabilistic(5, np.full(32, 0.3))
        _, log = run_dynamic(
            policy, np.random.default_rng(0), rounds=3, on_violation="continue"
        )
        for i, selected in enumerate(log.selected_indices):
            mask = SelectionMask.from_indices(log.n, selected)
            assert mask.count_selected == log.report(i).ns_actual == log.n_selected[i]


def _compositions(total, buckets):
    for bars in itertools.combinations(range(total + buckets - 1), buckets - 1):
        counts = []
        prev = -1
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(total + buckets - 2 - prev)
        yield counts


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_selection_count_ordering_exhaustive(n, rounds):
    """States selected in a superset of rounds end with at least as large a
    coefficient, over every mask sequence a guarded run would complete.

    Exhaustive over selection patterns: states sharing a pattern stay
    identical, so mask sequences reduce to compositions of the state count
    over the 2**rounds patterns.
    """
    size = 1 << n
    buckets = 1 << rounds
    checked = 0
    for counts in _compositions(size, buckets):
        pattern_of = np.repeat(np.arange(buckets), counts)
        state = uniform_init(n)
        valid = True
        masks = [SelectionMask(n, (pattern_of >> r) & 1 == 1) for r in range(rounds)]
        for mask in masks:
            report = gain_report(state, mask)
            if min(report.mean_amplitude, report.min_unselected_amp) <= -VALIDITY_ATOL:
                valid = False
                break
            state = dynamic_iteration(state, mask)
        if not valid:
            continue
        rep = {
            p: float(state.amps[np.flatnonzero(pattern_of == p)[0]])
            for p in range(buckets)
            if counts[p]
        }
        for p in rep:
            for q in rep:
                if p != q and (p & q) == q:
                    checked += 1
                    assert rep[p] >= rep[q] - 1e-12
    assert checked > 0


def two_dense_steps(state, mask):
    """Two literal steps in plain numpy: flip the selected signs, then
    reflect every amplitude about the mean."""
    amps = state.amps
    for _ in range(2):
        amps = np.where(mask.selected, -amps, amps)
        amps = 2.0 * amps.mean() - amps
    return StateVector(state.n, amps)


def dense_report(state, mask):
    """GainReport computed directly from the dense amplitudes."""
    sel = state.amps[mask.selected]
    unsel = state.amps[~mask.selected]
    p_sel, p_unsel = float(sel @ sel), float(unsel @ unsel)
    gain = p_sel / p_unsel if p_unsel > 0.0 else math.inf
    if gain == 0.0:
        ns_bound = math.inf
    elif math.isinf(gain):
        ns_bound = 0.0
    else:
        ns_bound = state.size / (2.0 * gain)
    return GainReport(
        p_selected=p_sel,
        p_unselected=p_unsel,
        gain=gain,
        mean_amplitude=float(np.where(mask.selected, -state.amps, state.amps).mean()),
        min_unselected_amp=float(unsel.min()) if unsel.size else math.inf,
        ns_bound=ns_bound,
        ns_actual=mask.count_selected,
    )


def assert_reports_close(got, want, tol=1e-12):
    # gain and ns_bound are ratios of masses, so a mass of 1e-5 off by 1e-16
    # moves them by 1e-11 relative; atan maps them back to mass-sized errors
    for field in dataclasses.fields(GainReport):
        value, expected = getattr(got, field.name), getattr(want, field.name)
        assert type(value) is type(expected), field.name
        if field.name in ("gain", "ns_bound"):
            value, expected = math.atan(value), math.atan(expected)
        assert value == pytest.approx(expected, rel=0, abs=tol), field.name


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**31), density=st.floats(0.0, 1.0))
def test_doubling_identity_property(n, seed, density):
    state = random_state(n, seed)
    for mask in (SelectionMask.empty(n), SelectionMask.full(n)):
        after = dynamic_iteration(state, mask)
        assert float(np.linalg.norm(after.amps - state.amps)) <= 1e-10
    random_mask = SelectionMask(n, np.random.default_rng(seed).random(1 << n) < density)
    for mask in (SelectionMask.empty(n), SelectionMask.full(n), random_mask):
        after = dynamic_iteration(state, mask)
        reference = two_dense_steps(state, mask)
        np.testing.assert_allclose(after.amps, reference.amps, rtol=0, atol=1e-12)
        support = support_holding(state, mask)
        assert support.take_round(0, check=False) is None
        np.testing.assert_allclose(support.sparse_state().amps, after.amps, rtol=0, atol=1e-12)
        closed_form = GainReport.of(
            *(column[0] for column in support.columns[:4]), mask.count_selected, state.size
        )
        assert_reports_close(closed_form, gain_report(after, mask))


def support_holding(state, mask):
    """A one-round run's ``_Support`` whose support is the whole space, set to
    hold ``state`` (as offsets from a zero bulk), and whose round selects ``mask``."""
    size = state.size
    everything = SelectionPolicy.probabilistic(state.n, np.ones(size))
    support = _Support(everything, 1, np.random.default_rng(0))
    # the whole space is the support, in index order, and every weight is 1
    assert np.array_equal(support.idx, np.arange(size))
    support._pos = np.flatnonzero(mask.selected)
    support._starts = [0, support._pos.size]
    support._weights = np.ones((2, support._pos.size))
    support._weight_sums = [(support._pos.size, float(support._pos.size))]
    support.bulk = 0.0
    support.e[:] = state.amps
    support.sum_e = [float(state.amps.sum())] * 2
    support.sum_ee = [float(state.amps @ state.amps)] * 2
    return support


def random_policy(kind, n, scale, rng):
    """A policy of the given form with selection probabilities up to ``scale``."""
    if kind == "static":  # a fixed mask, as a 0/1 table
        return SelectionPolicy.probabilistic(n, rng.random(1 << n) < scale)
    if kind == "table":
        return SelectionPolicy.probabilistic(n, scale * rng.random(1 << n))
    catalog = None
    if kind == "catalog":
        catalog = np.flatnonzero(rng.random(1 << n) < 0.6)
    reference = int(rng.integers(1 << n))
    return SelectionPolicy.by_similarity(n, reference, scale * rng.random(n + 1), catalog)


def dense_probabilities(policy):
    """The per-state selection probability table of any policy form."""
    n = policy.n
    if policy.probabilities is not None:
        return policy.probabilities
    probs = policy.class_probabilities[similarity_classes(n, policy.reference, np.arange(1 << n))]
    if policy.catalog is not None:
        probs = np.where(np.isin(np.arange(1 << n), policy.catalog), probs, 0.0)
    return probs


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**31),
    scale=st.floats(0.0, 1.0),
    kind=st.sampled_from(["table", "static", "class", "catalog"]),
    keep_best=st.booleans(),
    watch=st.sampled_from([None, "table", "class", "catalog"]),
)
def test_run_dynamic_matches_dense_replay(n, seed, scale, kind, keep_best, watch):
    rng = np.random.default_rng(seed)
    policy = random_policy(kind, n, scale, rng)
    watched = random_policy(watch, n, 1.0, rng) if watch else None
    final, log = run_dynamic(
        policy, rng, rounds=8, keep_best=keep_best, on_violation="continue", watch=watched
    )
    probs = dense_probabilities(policy)
    state = best = uniform_init(n)
    for i, selected in enumerate(log.selected_indices):
        if i in log.restart_rounds:
            state = uniform_init(n)
        assert selected.dtype == np.int64
        assert np.all(np.diff(selected) > 0)
        assert np.all(probs[selected] > 0.0)
        mask = SelectionMask.from_indices(n, selected)
        state = two_dense_steps(state, mask)
        assert_reports_close(log.report(i), dense_report(state, mask))
        mass = float(probs @ state.probabilities())
        assert log.policy_mass_by_round[i] == pytest.approx(mass, rel=0, abs=1e-12)
        if watch:
            mass = float(dense_probabilities(watched) @ state.probabilities())
            assert log.watched_mass_by_round[i] == pytest.approx(mass, rel=0, abs=1e-12)
        if i + 1 == log.best_round:
            best = state
    assert log.best_round is None if not keep_best else log.best_round <= log.rounds
    assert (log.watched_mass_by_round is None) == (not watch)
    want = best if keep_best else state
    np.testing.assert_allclose(final.amps, want.amps, rtol=0, atol=1e-12)
    replayed = replay_round_states(log)[-1]
    np.testing.assert_allclose(replayed.amps, state.amps, rtol=0, atol=1e-12)


def test_continue_steps_through_violations():
    policy = SelectionPolicy.probabilistic(8, np.full(256, 0.6))
    final, log = run_dynamic(
        policy, np.random.default_rng(0), rounds=4, on_violation="continue"
    )
    assert log.rounds == 4 and log.restart_rounds == () and log.best_round is None
    states = replay_round_states(log)
    np.testing.assert_allclose(states[-1].amps, final.amps, rtol=0, atol=1e-12)
    for i, selected in enumerate(log.selected_indices):
        mask = SelectionMask.from_indices(8, selected)
        # every round started from a state its mask violates, and stepped anyway
        before = gain_report(states[i], mask)
        assert min(before.mean_amplitude, before.min_unselected_amp) < -VALIDITY_ATOL
        # the log's columns are the diagnostics after the step, along the same mask
        after = gain_report(states[i + 1], mask)
        assert log.mean_amplitude[i] == pytest.approx(after.mean_amplitude, abs=1e-12)
        assert log.min_unselected_amp[i] == pytest.approx(after.min_unselected_amp, abs=1e-12)


def test_unknown_violation_mode_rejected():
    policy = SelectionPolicy.probabilistic(4, np.full(16, 0.1))
    for mode in ("skip", "restart"):
        with pytest.raises(ValueError, match="on_violation"):
            run_dynamic(policy, np.random.default_rng(0), rounds=2, on_violation=mode)


def test_watched_policy_of_another_size_rejected():
    policy = SelectionPolicy.probabilistic(4, np.full(16, 0.1))
    watch = SelectionPolicy.probabilistic(5, np.full(32, 0.1))
    with pytest.raises(ValueError, match="watched policy has n=5, run has n=4"):
        run_dynamic(policy, np.random.default_rng(0), rounds=2, watch=watch)


@pytest.mark.parametrize("n", range(10, 21))
def test_planned_round_is_the_engine_peak(n):
    """The plan lands within max(2, 2%) of the median best round of 16
    seeded runs of 1.5 plans, and the median mass there is at least 0.98
    of the median peak mass: with and without an every-third catalog that
    holds the reference, for m = 1, 5 and 50."""
    reference = 3 * ((1 << n) // 9)
    for m, catalog in itertools.product((1, 5, 50), (None, np.arange(0, 1 << n, 3))):
        policy = similarity_policy(
            SimilaritySpec(n, reference), calibrate_beta(n, m), catalog=catalog
        )
        plan = planned_rounds(policy)
        masses = np.array([
            run_dynamic(
                policy, np.random.default_rng(seed), rounds=int(1.5 * plan),
                on_violation="continue",
            )[1].policy_mass_by_round
            for seed in range(16)
        ])
        best = np.median(np.argmax(masses, axis=1) + 1)
        case = (m, catalog is not None, plan, best)
        assert abs(plan - best) <= max(2.0, 0.02 * best), case
        assert np.median(masses[:, plan - 1]) >= 0.98 * np.median(masses.max(axis=1)), case


def test_plan_of_a_policy_that_selects_almost_nothing_falls_back():
    # beta = 5 gives the two catalog items, far from the reference,
    # selection probabilities below 1e-15: the predicted mass is still
    # rising at the search bound, 8 * R_2 + 8 rounds for
    # R_2 = floor((pi/8) sqrt(N / max(1, M_2))) = 6
    params = SelectionProbabilityParams(8, beta=5.0, norm_c=math.exp(-40.0))
    policy = similarity_policy(SimilaritySpec(8, 0), params, catalog=np.array([254, 255]))
    r2 = math.floor((math.pi / 8) * math.sqrt(256 / max(1.0, policy.moments()[1])))
    assert r2 == 6
    t0 = time.perf_counter()
    assert planned_rounds(policy) == 2 * r2 + 8
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("n", range(4, 17))
def test_plan_of_a_fixed_mask_is_the_rotation_peak(n):
    """For a 0/1 table of M states the model is exact: a doubled round turns
    the state by 4 theta, sin theta = sqrt(M / N), so the plan is the first
    r at which sin**2((4r + 1) theta) stops rising."""
    size = 1 << n
    for count in sorted({1, 2, 3, 5, size // 16, size // 8 - 1, size // 3} - {0}):
        theta = math.asin(math.sqrt(count / size))
        peak = 0
        while math.sin((4 * peak + 5) * theta) ** 2 >= math.sin((4 * peak + 1) * theta) ** 2:
            peak += 1
        probs = np.zeros(size)
        probs[np.random.default_rng(count).choice(size, count, replace=False)] = 1.0
        assert planned_rounds(SelectionPolicy.probabilistic(n, probs)) == peak, count


@pytest.mark.parametrize("n", [10, 14, 18])
@pytest.mark.parametrize("kind", ["normal", "tied"])
def test_plan_of_a_table_is_the_engine_peak(n, kind):
    """The plan of the optimizer's probe-built per-state policy lies within
    2 rounds of the median best round of 16 runs of twice the plan: on
    normal tables and on tied ones (about four states per integer value),
    minimised and maximised."""
    size = 1 << n
    for seed in range(8):
        rng = np.random.default_rng([n, seed])
        if kind == "normal":
            values = rng.standard_normal(size)
        else:
            values = rng.integers(0, size // 4, size=size).astype(np.float64)
        table = ObjectiveTable(n, values, (Sense.MIN, Sense.MAX)[seed % 2])
        policy = build_optimization_policy(table, rng)
        plan = planned_rounds(policy)
        best = np.median([
            np.argmax(run_dynamic(
                policy, np.random.default_rng(run), 2 * plan, on_violation="continue"
            )[1].policy_mass_by_round) + 1
            for run in range(16)
        ])
        assert abs(plan - best) <= 2, (seed, plan, best)


# planned_rounds of the calibrated similarity policy at reference 3 * (N // 9),
# keyed by (n, m): without a catalog, and (for n <= 20) with an every-third
# catalog, which holds that reference.  One round more or less moves every
# recommend stream, which the law test's max(2, 2%) band cannot see.
PINNED_PLANS = {
    (8, 1): (6, 6),
    (8, 5): (4, 6),
    (8, 50): (1, 2),
    (12, 1): (25, 25),
    (12, 5): (21, 25),
    (12, 50): (9, 17),
    (12, 500): (1, 2),
    (16, 1): (100, 100),
    (16, 5): (91, 100),
    (16, 50): (52, 84),
    (16, 500): (16, 30),
    (20, 1): (402, 402),
    (20, 5): (374, 401),
    (20, 50): (250, 373),
    (20, 500): (106, 193),
    (24, 1): (1608, None),
    (24, 5): (1517, None),
    (24, 50): (1105, None),
    (24, 500): (572, None),
    (30, 1): (12868, None),
    (30, 5): (12295, None),
    (30, 50): (9639, None),
    (30, 500): (5905, None),
}


def test_planned_rounds_match_the_pinned_grid():
    for (n, m), (plain, every_third) in PINNED_PLANS.items():
        spec, params = SimilaritySpec(n, 3 * ((1 << n) // 9)), calibrate_beta(n, m)
        assert planned_rounds(similarity_policy(spec, params)) == plain, (n, m)
        if every_third is not None:
            catalog = np.arange(0, 1 << n, 3)
            assert planned_rounds(similarity_policy(spec, params, catalog=catalog)) == every_third, (n, m)


@pytest.mark.parametrize("with_catalog", [False, True, pytest.param(None, id="table")])
def test_class_draw_selects_each_state_with_its_class_probability(with_catalog):
    """Per round, each state is in the mask with probability P(S) of its class,
    whatever the run touched before; two states of one class are selected
    together with probability P(S)**2, and so is one state in two rounds.
    ``with_catalog=None`` runs the catalog policy as a per-state table."""
    n, reference, runs, rounds = 5, 0b10110, 3000, 3
    class_probs = np.array([0.02, 0.1, 0.3, 0.5, 0.8, 1.0])
    catalog = None if with_catalog is False else np.arange(0, 32, 2)
    policy = SelectionPolicy.by_similarity(n, reference, class_probs, catalog)
    probs = dense_probabilities(policy)
    if with_catalog is None:
        policy = SelectionPolicy.probabilistic(n, probs)
    counts = np.zeros((rounds, 1 << n))
    pair = np.zeros(rounds)
    # two states of similarity 3 (P = 0.5), both in the catalog when there is one
    same_class = [x for x in range(32) if probs[x] == 0.5][:2]
    assert len(same_class) == 2
    # one state of P = 0.5 and one of P = 0.1, in the catalog when there is one
    across = np.array([next(x for x in range(32) if probs[x] == p) for p in (0.5, 0.1)])
    both = np.zeros((rounds, rounds, across.size))
    for seed in range(runs):
        _, log = run_dynamic(
            policy, np.random.default_rng(seed), rounds=rounds, on_violation="continue"
        )
        for i, selected in enumerate(log.selected_indices):
            counts[i, selected] += 1
            pair[i] += np.isin(same_class, selected).all()
        member = np.array([np.isin(across, selected) for selected in log.selected_indices])
        both += member[:, None, :] & member[None, :, :]
    for i in range(rounds):
        freq = counts[i] / runs
        assert np.all(freq[probs == 0.0] == 0.0)
        assert np.all(freq[probs == 1.0] == 1.0)
        inner = (probs > 0.0) & (probs < 1.0)
        z = (freq[inner] - probs[inner]) / np.sqrt(probs[inner] * (1 - probs[inner]) / runs)
        assert np.max(np.abs(z)) < 4.5
        z_pair = (pair[i] / runs - 0.25) / math.sqrt(0.25 * 0.75 / runs)
        assert abs(z_pair) < 4.5
    # rounds 1 and 3 among them: each state is selected in both with P**2
    want = probs[across] ** 2
    for i, j in itertools.combinations(range(rounds), 2):
        z_rounds = (both[i, j] / runs - want) / np.sqrt(want * (1 - want) / runs)
        assert np.max(np.abs(z_rounds)) < 4.5, (i, j)


def test_masks_keep_their_law_over_many_rounds():
    """Over 20 rounds each state is selected at most once per round, in each
    round with probability P and in each pair of rounds with P**2.  P = 0.1
    takes its later rounds from geometric gaps (from 16 rounds on), P = 0.5
    from a Bernoulli row."""
    probs = np.array([0.1, 0.5, 0.02, 1.0, 0.0, 0.3, 0.1, 0.5])
    policy = SelectionPolicy.probabilistic(3, probs)
    runs, rounds = 3000, 20
    watched = np.array([0, 1])  # P = 0.1 and P = 0.5
    member = np.zeros((runs, rounds, probs.size), dtype=bool)
    for seed in range(runs):
        _, log = run_dynamic(policy, np.random.default_rng(seed), rounds, on_violation="continue")
        for r, selected in enumerate(log.selected_indices):
            assert np.all(np.diff(selected) > 0)
            member[seed, r, selected] = True
    member = member[:, :, watched]
    want = probs[watched]
    freq = member.mean(axis=0)
    z = (freq - want) / np.sqrt(want * (1 - want) / runs)
    assert np.max(np.abs(z)) < 4.5
    both = np.einsum("sik,sjk->ijk", member.astype(float), member.astype(float)) / runs
    want2 = want**2
    for i, j in itertools.combinations(range(rounds), 2):
        z_pair = (both[i, j] - want2) / np.sqrt(want2 * (1 - want2) / runs)
        assert np.max(np.abs(z_pair)) < 4.5, (i, j)


def test_running_sums_do_not_drift():
    """After a run at n = 24 of 2 * 1438 + 8 rounds (stepping through
    violations), the running sums equal the sums of the stored offsets."""
    n = 24
    policy = similarity_policy(SimilaritySpec(n, 0x5A5A5A), calibrate_beta(n, 5.0))
    watch = SelectionPolicy.by_similarity(n, 0x5A5A5A, (np.arange(n + 1) >= n - 2) * 1.0)
    rounds = 2 * 1438 + 8
    support = _Support(policy, rounds, np.random.default_rng(0), watch)
    for r in range(rounds):
        support.take_round(r, check=False)
    weights = np.stack([np.ones_like(support.p), support.p, support.w])
    e = support.e
    assert rounds > 2800 and np.any(e != 0.0)
    np.testing.assert_allclose(support.sum_e, weights @ e, rtol=0, atol=1e-12)
    np.testing.assert_allclose(support.sum_ee, weights @ (e * e), rtol=0, atol=1e-12)


def test_ranks_map_one_to_one_onto_each_class():
    # colex ranks 0..C(n, d) - 1 give every word with d bits set exactly once
    for n in range(1, 13):
        popcounts = np.bitwise_count(np.arange(1 << n))
        for d in range(n + 1):
            size = math.comb(n, d)
            words = _colex_words(np.full(size, d), np.arange(size))
            assert np.array_equal(np.sort(words), np.flatnonzero(popcounts == d)), (n, d)
    n, d = 30, 15
    words = _colex_words(np.full(2, d), np.array([0, math.comb(n, d) - 1]))
    assert np.all((words >= 0) & (words < 1 << n))
    assert np.all(np.bitwise_count(words) == d)
    assert words[0] != words[1]


def colex_walk(n, bits_set, ranks):
    """Colex unranking one bit position at a time, from the top: bit c is
    set exactly when C(c, k) <= r for the k bits and rank r still to place."""
    words = np.zeros(ranks.size, dtype=np.int64)
    left = np.array(bits_set, dtype=np.int64)
    rest = np.array(ranks, dtype=np.int64)
    for bit in range(n - 1, -1, -1):
        binom = _PASCAL[bit].take(left)
        take = binom <= rest
        rest -= binom * take
        left -= take
        words += take << bit
    return words


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 30), seed=st.integers(0, 2**31), size=st.integers(0, 300))
def test_colex_words_match_the_bit_walk(n, seed, size):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, n + 1, size)
    ranks = (rng.random(size) * _PASCAL[n, bits]).astype(np.int64)
    # the last rank of each class too
    ranks[::3] = _PASCAL[n, bits[::3]] - 1
    assert np.array_equal(_colex_words(bits, ranks), colex_walk(n, bits, ranks))


@pytest.mark.parametrize("with_catalog", [False, True])
def test_policy_ranks_give_each_class_in_full(with_catalog):
    # a policy's rank map lists each class around its reference, the catalog
    # members of the class in index order when there is a catalog
    n, reference = 9, 0b101100110
    catalog = np.arange(3, 1 << n, 5) if with_catalog else None
    policy = SelectionPolicy.by_similarity(n, reference, np.full(n + 1, 0.5), catalog)
    space = np.arange(1 << n) if catalog is None else catalog
    for s in range(n + 1):
        size = int(policy.class_sizes[s])
        states = policy.states_of_rank(np.full(size, s), np.arange(size))
        members = space[similarity_classes(n, reference, space) == s]
        if with_catalog:
            assert np.array_equal(states, members)
        else:
            assert np.array_equal(np.sort(states), members)


def test_large_class_support_is_sorted_distinct_and_class_consistent():
    # at n = 30 a support of T states takes O(T) memory, not a list of any
    # class (the middle one has C(30, 15) ~ 1.6e8 members)
    n = 30
    class_probs = np.linspace(1e-6, 3e-6, n + 1)  # one value per class
    policy = SelectionPolicy.by_similarity(n, 0x2A5A5A5A, class_probs)
    tracemalloc.start()
    try:
        idx, p = _draw_support(policy, 4, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expected = float(class_counts(n) @ (1.0 - (1.0 - class_probs) ** 4))
    assert abs(idx.size - expected) < 5.0 * math.sqrt(expected)
    assert np.all(np.diff(idx) > 0)
    assert idx[0] >= 0 and idx[-1] < 1 << n
    assert np.array_equal(p, class_probs[similarity_classes(n, policy.reference, idx)])
    # a few int64 words per support state (about 10 here)
    assert peak < 32 * 8 * idx.size


@pytest.mark.parametrize("rounds", [0, 1, 2, 3, 6])
@pytest.mark.parametrize("n", [3, 12, 13, 14, 18])
def test_table_support_draw_is_the_whole_table_formula(n, rounds):
    # one short block (n < 13), exactly one block (n = 13) and several: the
    # support is the whole-table formula over the uniforms of one
    # rng.random(N), and the generator ends where that call leaves it
    size = 1 << n
    probs = np.random.default_rng(n).random(size) ** 4
    probs[::7] = 0.0
    probs[::11] = 1.0
    policy = SelectionPolicy.probabilistic(n, probs)
    rng, reference = np.random.default_rng(rounds), np.random.default_rng(rounds)
    idx, p = _draw_support(policy, rounds, rng)
    if rounds == 0:
        want = np.empty(0, dtype=np.int64)
    else:
        uniforms = reference.random(size)
        want = np.flatnonzero(1.0 - np.power(1.0 - uniforms, 1.0 / rounds) < probs)
        assert np.all(np.isin(np.arange(0, size, 11), want))
    assert idx.dtype == want.dtype and np.array_equal(idx, want)
    assert np.array_equal(p, probs[want])
    assert rng.bit_generator.state == reference.bit_generator.state


def test_table_support_draw_allocates_nothing_per_state():
    # the optimizer's policy at n = 18, whose support is a few % of N: the
    # draw peaks below a quarter of one float64 N-vector
    n = 18
    table = ObjectiveTable(n, np.random.default_rng(3).standard_normal(1 << n))
    policy = build_optimization_policy(table, np.random.default_rng(3))
    tracemalloc.start()
    try:
        idx, _ = _draw_support(policy, nominal_rounds(n), np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < idx.size < (1 << n) // 10
    assert peak < 2 << n


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("form", ["table", "class"])
def test_non_finite_selection_probability_rejected(form, bad):
    n = 16 if form == "class" else 8
    probs = np.full(n + 1 if form == "class" else 1 << n, 0.1)
    probs[3] = bad
    with pytest.raises(ValueError, match="finite"):
        if form == "class":
            SelectionPolicy.by_similarity(n, 0, probs)
        else:
            SelectionPolicy.probabilistic(n, probs)


def test_class_policy_run_allocates_no_flag_per_state():
    # a class-policy run stores only its support: at n = 24 it stays below
    # one byte per state
    n = 24
    params = calibrate_beta(n, 5.0)
    policy = similarity_policy(SimilaritySpec(n, 0x5A5A5A), params)
    tracemalloc.start()
    try:
        state, log = run_dynamic(policy, np.random.default_rng(0), 1438, on_violation="continue")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.rounds == 1438
    assert abs(state.norm_sq() - 1.0) < 1e-9
    assert peak < 1 << n


def digest_runs():
    """(name, log) of each run of a seeded grid: class, catalog and table
    policies, keep_best on and off, watch on and off, and one run that
    aborts (the error's log)."""
    n, reference = 9, 0b101100101
    by_class = similarity_policy(SimilaritySpec(n, reference), calibrate_beta(n, 4.0))
    catalog = SelectionPolicy.by_similarity(
        n, reference, by_class.class_probabilities, np.arange(0, 1 << n, 3)
    )
    ball = SelectionPolicy.by_similarity(n, reference, (np.arange(n + 1) >= n - 1) * 1.0)
    table = SelectionPolicy.probabilistic(8, 0.08 * np.random.default_rng(5).random(256))
    table_watch = SelectionPolicy.probabilistic(8, np.arange(256) % 7 == 0)
    crowded = SelectionPolicy.probabilistic(8, np.full(256, 0.3))
    grid = [
        ("class", by_class, {"rounds": 8}),
        ("class-best-watch", by_class, {"rounds": 2 * 8 + 8, "keep_best": True, "watch": ball}),
        ("catalog-best", catalog, {"rounds": 2 * 14 + 8, "keep_best": True}),
        ("catalog-watch-stop", catalog, {"rounds": 40, "watch": ball, "stop_above": 0.5}),
        ("table", table, {"rounds": 12}),
        ("table-best-watch", table, {"rounds": 12, "keep_best": True, "watch": table_watch}),
    ]
    for seed, (name, policy, kwargs) in enumerate(grid):
        _, log = run_dynamic(policy, np.random.default_rng(seed), on_violation="continue", **kwargs)
        yield name, log
    with pytest.raises(ValidityError) as excinfo:
        run_dynamic(crowded, np.random.default_rng(0), rounds=4)
    yield "abort", excinfo.value.log


def log_digest(head, arrays):
    """sha256 of ``repr(head)`` followed by the bytes of each array (b"none" for None)."""
    digest = hashlib.sha256(repr(head).encode())
    for array in arrays:
        digest.update(b"none" if array is None else np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# log_digest((n, rounds, best_round, ()), (events, starts, *LOG_COLUMNS))
# of each run of digest_runs(), computed from the per-round reports and
# index arrays the log kept before it kept columns; the empty tuple, where
# the log once kept restarted rounds, keeps those digests.  The class,
# class-best-watch, catalog-best and table digests were pinned after
# their columns matched a dense replay (replay_round_states and
# gain_report) to 1e-12
PINNED_LOG_DIGESTS = {
    "class": "ceaefff7aceaf0ba9976404e1834b5b8c886ddbed5700fd44e81db7f80a586e2",
    "class-best-watch": "6619dff148e76882061f2105b7f6bcd99f1d6a907d654411ab4dbff62824548e",
    "catalog-best": "6ecbf3b6a50446dd571bb095284b0a23e30cdcf56b9e64714a1867df7ccd1648",
    "catalog-watch-stop": "29d33e92a687674f554975b2e68be03236ff70794e182d9416997d4dd9ff88f8",
    "table": "bfbe7248c205d2178f2df9239ff247fa4343c8bbc98c63a56c9a53c318d7b173",
    "table-best-watch": "22891266cc6211a686119e9f191621fb8ed379ac605d083ca53aac836b0b014f",
    "abort": "3fecfc5e6d4da71ccf3b48bbadeec29f0969b1b9e93ee3ca2d9f785affe826ee",
}


def test_log_columns_match_pinned_digests():
    logs = dict(digest_runs())
    assert sorted(logs) == sorted(PINNED_LOG_DIGESTS)
    stored = {field.name for field in dataclasses.fields(DynamicRunLog)}
    assert stored == {"n", "rounds", "best_round", "events", "starts",
                      *LOG_COLUMNS} - {"n_selected", "gains"}
    assert logs["abort"].rounds
    for name, log in logs.items():
        head = (log.n, log.rounds, log.best_round, ())
        columns = [getattr(log, column) for column in LOG_COLUMNS]
        assert log.events.dtype == log.starts.dtype == log.n_selected.dtype == np.int64, name
        assert all(c is None or c.dtype == np.float64 for c in columns[1:]), name
        assert np.array_equal(np.concatenate([log.starts[:0], *log.selected_indices]), log.events)
        digest = log_digest(head, [log.events, log.starts, *columns])
        assert digest == PINNED_LOG_DIGESTS[name], name
