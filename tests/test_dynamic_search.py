import copy
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
    _colex_words,
    _draw_class_run,
    _draw_support,
    _draw_table_run,
    _Support,
    class_counts,
    predicted_crossing,
    similarity_classes,
)
from qamp.recommend import (
    SelectionProbabilityParams,
    SimilaritySpec,
    calibrate_beta,
    similarity_policy,
)


# "positive" in the progress conditions is tested as > -SIGN_ATOL, to absorb float noise
SIGN_ATOL = 1e-9


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


# a log's columns, derived ones first; each has one entry per round
LOG_COLUMNS = (
    "n_selected", "gains", "p_selected", "p_unselected", "mean_amplitude",
    "min_unselected_amp", "watched_mass_by_round",
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
            assert report.mean_amplitude > -SIGN_ATOL
            assert report.min_unselected_amp > -SIGN_ATOL
            # the selected count stays under the ceiling N / (2G) of the measured gain
            assert report.ns_actual <= report.ns_bound

    def test_negative_unselected_detected(self):
        amps = np.full(8, 1 / math.sqrt(8))
        amps[7] *= -1
        amps /= np.linalg.norm(amps)
        report = gain_report(StateVector(3, amps), SelectionMask.from_indices(3, [0]))
        assert report.min_unselected_amp < -SIGN_ATOL


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

    def test_policy_mass_equals_p_selected_for_static(self):
        mask = SelectionMask.from_indices(6, [1])
        policy = SelectionPolicy.probabilistic(mask.n, mask.selected)
        _, log = run_dynamic(policy, np.random.default_rng(0), rounds=5, watch=policy)
        np.testing.assert_allclose(log.watched_mass_by_round, log.p_selected, rtol=0, atol=1e-15)

    def test_deterministic_for_seed(self):
        policy = SelectionPolicy.probabilistic(8, np.full(256, 0.02))
        a_state, a_log = run_dynamic(policy, np.random.default_rng(3), rounds=6)
        b_state, b_log = run_dynamic(policy, np.random.default_rng(3), rounds=6)
        assert np.array_equal(a_state.amps, b_state.amps)
        for name in ("events", "starts", *LOG_COLUMNS):
            assert np.array_equal(getattr(a_log, name), getattr(b_log, name)), name

    def test_log_mask_roundtrip(self):
        policy = SelectionPolicy.probabilistic(5, np.full(32, 0.3))
        _, log = run_dynamic(policy, np.random.default_rng(0), rounds=3)
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
    coefficient, over every mask sequence whose rounds all start from a
    state that meets the progress conditions.

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
            if min(report.mean_amplitude, report.min_unselected_amp) <= -SIGN_ATOL:
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
        support.take_round(0)
        np.testing.assert_allclose(support.sparse_state().amps, after.amps, rtol=0, atol=1e-12)
        closed_form = GainReport.of(
            *(float(column[0]) for column in support.columns()[:4]), mask.count_selected, state.size
        )
        assert_reports_close(closed_form, gain_report(after, mask))


def support_holding(state, mask):
    """A one-round run's ``_Support`` whose support is the whole space, set to
    hold ``state`` (as offsets from the uniform bulk it starts with), and
    whose round selects ``mask``."""
    size = state.size
    everything = SelectionPolicy.probabilistic(state.n, np.ones(size))
    support = _Support(everything, 1, np.random.default_rng(0))
    # the whole space is the support, in index order
    assert np.array_equal(support.idx, np.arange(size))
    support._pos = np.flatnonzero(mask.selected)
    support._starts = [0, support._pos.size]
    support._weights = np.ones((1, support._pos.size))
    # the round's unselected and selected counts
    selected = support._pos.size
    support._per_round = np.array([[size - selected], [selected]], dtype=float)
    support.e[:] = state.amps - support.bulk
    support.sum_e = float(support.e.sum())
    # the sums of e**2 and of e
    support._sums_at_start[:] = [float(support.e @ support.e), support.sum_e]
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
    watch=st.sampled_from([None, "table", "class", "catalog"]),
)
def test_run_dynamic_matches_dense_replay(n, seed, scale, kind, watch):
    rng = np.random.default_rng(seed)
    policy = random_policy(kind, n, scale, rng)
    watched = random_policy(watch, n, 1.0, rng) if watch else None
    # the same masks, watching the policy itself: its policy mass
    twin = copy.deepcopy(rng)
    final, log = run_dynamic(policy, rng, rounds=8, watch=watched)
    policy_mass = run_dynamic(policy, twin, rounds=8, watch=policy)[1].watched_mass_by_round
    probs = dense_probabilities(policy)
    state = uniform_init(n)
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
        assert policy_mass[i] == pytest.approx(mass, rel=0, abs=1e-12)
        if watch:
            mass = float(dense_probabilities(watched) @ state.probabilities())
            assert log.watched_mass_by_round[i] == pytest.approx(mass, rel=0, abs=1e-12)
    assert log.best_round is None
    assert (log.watched_mass_by_round is None) == (not watch)
    np.testing.assert_allclose(final.amps, state.amps, rtol=0, atol=1e-12)
    replayed = replay_round_states(log)[-1]
    np.testing.assert_allclose(replayed.amps, state.amps, rtol=0, atol=1e-12)


def test_continue_steps_through_violations():
    policy = SelectionPolicy.probabilistic(8, np.full(256, 0.6))
    final, log = run_dynamic(policy, np.random.default_rng(0), rounds=4)
    assert log.rounds == 4 and log.restart_rounds == () and log.best_round is None
    states = replay_round_states(log)
    np.testing.assert_allclose(states[-1].amps, final.amps, rtol=0, atol=1e-12)
    for i, selected in enumerate(log.selected_indices):
        mask = SelectionMask.from_indices(8, selected)
        # every round started from a state its mask violates, and stepped anyway
        before = gain_report(states[i], mask)
        assert min(before.mean_amplitude, before.min_unselected_amp) < -SIGN_ATOL
        # the log's columns are the diagnostics after the step, along the same mask
        after = gain_report(states[i + 1], mask)
        assert log.mean_amplitude[i] == pytest.approx(after.mean_amplitude, abs=1e-12)
        assert log.min_unselected_amp[i] == pytest.approx(after.min_unselected_amp, abs=1e-12)


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
                policy, np.random.default_rng(seed), rounds=int(1.5 * plan), watch=policy
            )[1].watched_mass_by_round
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
            np.argmax(
                run_dynamic(
                    policy, np.random.default_rng(run), 2 * plan, watch=policy
                )[1].watched_mass_by_round
            ) + 1
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


def test_table_moments_allocate_nothing_per_state():
    """A table's moments are reductions over it: at n = 18 one call's
    tracemalloc peak stays far below the 2 MiB of one float64 N-vector,
    and M_1..M_3 equal the sums of P, P**2 and P**3 formed elementwise."""
    n = 18
    table = ObjectiveTable(n, np.random.default_rng(3).standard_normal(1 << n))
    policy = build_optimization_policy(table, np.random.default_rng(3))
    tracemalloc.start()
    try:
        moments = policy.moments()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    probs = policy.probabilities
    squares = probs * probs
    want = [probs.sum(), squares.sum(), squares @ probs]
    np.testing.assert_allclose(moments, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("form", ["table", "class", "catalog"])
@pytest.mark.parametrize("n", [2, 7, 10])
def test_moments_are_weighted_sums_over_all_states(n, form):
    """W_j = sum over x of v(x) P(x)**j for j = 0..2, v the selection
    probabilities of the weights (by default of the policy itself), equals
    the sum over all states of ``probabilities_at``: for the policy, for
    another policy of its form and for a 0/1 one."""
    rng = np.random.default_rng([n, len(form)])
    reference, states = (1 << n) // 3, np.arange(1 << n)
    classes = similarity_classes(n, reference, states)

    def policy_of(per_class, per_state):
        if form == "table":
            return SelectionPolicy.probabilistic(n, per_state)
        catalog = np.arange(1, 1 << n, 3) if form == "catalog" else None
        return SelectionPolicy.by_similarity(n, reference, per_class, catalog)

    policy = policy_of(rng.random(n + 1) ** 2, rng.random(1 << n) ** 2)
    probs = policy.probabilities_at(states)
    for weights in (
        None,
        policy,
        policy_of(rng.random(n + 1), rng.random(1 << n)),
        policy_of(np.arange(n + 1) >= n - 1, classes >= n - 1),
    ):
        v = probs if weights is None else weights.probabilities_at(states)
        want = [float(np.sum(v * probs**j)) for j in range(3)]
        np.testing.assert_allclose(policy.moments(weights), want, rtol=1e-12, atol=0)


def test_moments_of_weights_of_another_form_rejected():
    # the weights must list the states as the policy does: same n and form,
    # and for classes the same reference and catalog (equal, not the same array)
    n, probs, catalog = 6, np.full(7, 0.25), np.arange(0, 64, 3)
    table = SelectionPolicy.probabilistic(n, np.full(64, 0.25))
    by_class = SelectionPolicy.by_similarity(n, 5, probs)
    in_catalog = SelectionPolicy.by_similarity(n, 5, probs, catalog)
    for policy, weights in [
        (table, by_class),
        (by_class, table),
        (table, SelectionPolicy.probabilistic(n + 1, np.full(128, 0.25))),
        (by_class, SelectionPolicy.by_similarity(n + 1, 5, np.full(8, 0.25))),
        (by_class, SelectionPolicy.by_similarity(n, 4, probs)),
        (by_class, in_catalog),
        (in_catalog, by_class),
        (in_catalog, SelectionPolicy.by_similarity(n, 5, probs, catalog[1:])),
    ]:
        with pytest.raises(ValueError, match="weights must be a policy of the same form"):
            policy.moments(weights)
    with pytest.raises(ValueError, match="weights must be a policy of the same form"):
        predicted_crossing(by_class, table, 0.5)
    same = SelectionPolicy.by_similarity(n, 5, np.ones(7), catalog.copy())
    assert in_catalog.moments(same) == [float(catalog.size) * 0.25**j for j in range(3)]


@pytest.mark.parametrize("n", range(12, 21))
def test_predicted_crossing_is_the_engine_median(n):
    """experiment steps' default case: under the similarity policy
    calibrated to the ball S >= n - 1 around reference 0 (n + 1 states),
    the predicted first round whose ball mass exceeds 1/2 is within 2
    rounds of the median of the engine's first such round over 40 seeded
    runs of twice the prediction plus 8 (a run that never crosses counts
    as never)."""
    policy = similarity_policy(SimilaritySpec(n, 0), calibrate_beta(n, n + 1.0))
    ball = SelectionPolicy.by_similarity(n, 0, (np.arange(n + 1) >= n - 1) * 1.0)
    crossing = predicted_crossing(policy, ball, 0.5)
    assert crossing is not None
    firsts = []
    for seed in range(40):
        _, log = run_dynamic(policy, np.random.default_rng(seed), 2 * crossing + 8, watch=ball)
        above = np.flatnonzero(log.watched_mass_by_round > 0.5)
        firsts.append(above[0] + 1 if above.size else math.inf)
    assert abs(crossing - np.median(firsts)) <= 2, (crossing, np.median(firsts))


def test_predicted_crossing_of_a_fixed_mask_is_the_rotation():
    """Watching the mask it selects, a 0/1 table of one state out of 64
    crosses 1/2 at the first r with sin**2((4r + 1) theta) > 1/2,
    sin theta = 1/8, and never crosses 1, which is all of the mass."""
    policy = SelectionPolicy.probabilistic(6, np.arange(64) == 5)
    theta = math.asin(1 / 8)
    first = next(r for r in itertools.count(1) if math.sin((4 * r + 1) * theta) ** 2 > 0.5)
    assert predicted_crossing(policy, policy, 0.5) == first == 2
    assert predicted_crossing(policy, policy, 1.0) is None


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
        _, log = run_dynamic(policy, np.random.default_rng(seed), rounds=rounds)
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
    round with probability P and in each pair of rounds with P**2; a state
    of P = 1 is selected in every round.  The 3-qubit table takes its later
    rounds from geometric gaps over 20 and 9 rounds, and from one Bernoulli
    row per state over 8.  Under a class policy at n = 5, with and without
    a catalog, each class is a grid of (member, round) cells drawn as
    geometric gaps, with a further pass for a class the first one leaves
    short, and P = 1 takes every cell of its class."""
    probs = np.array([0.1, 0.5, 0.02, 1.0, 0.0, 0.3, 0.1, 0.5])
    table = SelectionPolicy.probabilistic(3, probs)
    # by similarity S = 0..5 to the reference
    class_probs = np.array([0.1, 0.5, 0.02, 0.1, 0.5, 1.0])
    by_class = SelectionPolicy.by_similarity(5, 0b01101, class_probs)
    catalog = SelectionPolicy.by_similarity(5, 0b01101, class_probs, np.arange(1, 32, 3))
    runs = 3000
    for policy, watched_p, rounds in ((table, (0.1, 0.5), 20), (table, (0.1, 0.5), 8),
                                      (table, (0.1, 0.5), 9), (by_class, (0.02, 0.1, 0.5), 20),
                                      (catalog, (0.02, 0.1, 0.5), 20)):
        dense = dense_probabilities(policy)
        # the first state of each watched P
        watched = np.array([np.flatnonzero(dense == p)[0] for p in watched_p])
        member = np.zeros((runs, rounds, dense.size), dtype=bool)
        for seed in range(runs):
            _, log = run_dynamic(policy, np.random.default_rng(seed), rounds)
            for r, selected in enumerate(log.selected_indices):
                assert np.all(np.diff(selected) > 0)
                member[seed, r, selected] = True
        assert np.all(member[:, :, dense == 1.0]) and not np.any(member[:, :, dense == 0.0])
        member = member[:, :, watched]
        want = dense[watched]
        freq = member.mean(axis=0)
        z = (freq - want) / np.sqrt(want * (1 - want) / runs)
        assert np.max(np.abs(z)) < 4.5, policy
        both = np.einsum("sik,sjk->ijk", member.astype(float), member.astype(float)) / runs
        want2 = want**2
        for i, j in itertools.combinations(range(rounds), 2):
            z_pair = (both[i, j] - want2) / np.sqrt(want2 * (1 - want2) / runs)
            assert np.max(np.abs(z_pair)) < 4.5, (policy, i, j)


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
    # at n = 30 a run of E events takes O(E) memory, not a list of any class
    # (the middle one has C(30, 15) ~ 1.6e8 members): a 4-round run of
    # small probabilities, and the 12,868 rounds planned for m = 1, whose
    # middle class is a grid of ~2e12 cells and whose class 0 has the least
    # positive double as P, an infinite geometric gap
    n = 30
    class_probs = np.linspace(1e-6, 3e-6, n + 1)  # one value per class
    short = SelectionPolicy.by_similarity(n, 0x2A5A5A5A, class_probs)
    planned = similarity_policy(SimilaritySpec(n, 3 * ((1 << n) // 9)), calibrate_beta(n, 1.0))
    assert planned.class_probabilities[0] == np.nextafter(0.0, 1.0)
    assert planned_rounds(planned) == PINNED_PLANS[(n, 1)][0] == 12868
    for policy, rounds in ((short, 4), (planned, 12868)):
        tracemalloc.start()
        try:
            idx, round_of, pos = _draw_class_run(policy, rounds, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.diff(idx) > 0)
        assert idx.size == 0 or (idx[0] >= 0 and idx[-1] < 1 << n)
        assert np.all(policy.probabilities_at(idx) > 0.0)
        # the events are in range, sorted by round, then position, so each
        # round's states are distinct and in index order
        assert np.all((round_of >= 0) & (round_of < rounds))
        assert np.all((pos >= 0) & (pos < idx.size))
        assert np.all(np.diff(round_of.astype(np.int64) * idx.size + pos) > 0)
        # every support state is selected in some round
        assert np.array_equal(np.unique(pos), np.arange(idx.size))
        # a few int64 words per event (about 17 here)
        assert peak < 32 * 8 * max(pos.size, 1)
    # four rounds select each state at most a few times, so the support is about q-sized
    expected = float(class_counts(n) @ (1.0 - (1.0 - class_probs) ** 4))
    short_support = _draw_class_run(short, 4, np.random.default_rng(0))[0]
    assert abs(short_support.size - expected) < 5.0 * math.sqrt(expected)
    # at m = 1 the reference alone has P = 1, and it is in every round
    assert planned.reference in idx and pos.size >= rounds


def table_with_edges(n):
    """A table of P = U**4 for seeded uniforms U, with every 7th state at
    P = 0 and every 11th at P = 1."""
    probs = np.random.default_rng(n).random(1 << n) ** 4
    probs[::7] = 0.0
    probs[::11] = 1.0
    return probs


def whole_table_support(probs, rounds, reference):
    """The support of a table run and each state's first round, drawn from
    ``reference`` by the formula over the whole table: the candidates are
    the states whose byte of one N-byte draw (full-range 64-bit integers,
    little-endian) falls below 256 R P; each draws one uniform U', in index
    order, and the support is the candidates whose
    r = (((255 - B) + (1 - U')) / 256)**(1/R) exceeds 1 - P; the first
    round is G = min(floor(R ln r / ln(1 - P)), R - 1)."""
    if rounds == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    words = reference.integers(0, 1 << 64, size=probs.size // 8, dtype=np.uint64)
    digits = words.astype("<u8").view(np.uint8)
    candidates = np.flatnonzero(digits < probs * (256.0 * rounds))
    assert np.all(probs[candidates] > 0.0)
    rest = ((1.0 - reference.random(candidates.size)) + (255 - digits[candidates])) / 256.0
    r = rest ** (1.0 / rounds)
    keep = r > 1.0 - probs[candidates]
    with np.errstate(divide="ignore"):
        first = np.floor(rounds * np.log(r[keep]) / np.log1p(-probs[candidates[keep]]))
    return candidates[keep], np.minimum(first, rounds - 1).astype(np.int64)


@pytest.mark.parametrize("rounds", range(7))
@pytest.mark.parametrize("n", [3, 12, 13, 14, 18])
def test_table_support_draw_is_the_whole_table_formula(n, rounds):
    # one short block (n < 13), exactly one block (n = 13) and several, over
    # one call's 8 blocks of bytes (n = 14) and four calls (n = 18): the
    # support and first rounds of whole_table_support, and the generator
    # ends where its two draws leave it
    probs = table_with_edges(n)
    policy = SelectionPolicy.probabilistic(n, probs)
    rng, reference = np.random.default_rng(rounds), np.random.default_rng(rounds)
    idx, p, first = _draw_support(policy, rounds, rng)
    want, want_first = whole_table_support(probs, rounds, reference)
    if rounds:
        assert np.all(np.isin(np.arange(0, probs.size, 11), want))
        # a state of P = 1 is first selected in round 0
        assert np.all(want_first[probs[want] == 1.0] == 0)
        assert np.all((want_first >= 0) & (want_first < rounds))
    assert idx.dtype == want.dtype and np.array_equal(idx, want)
    assert np.array_equal(p, probs[want])
    assert first.dtype == want_first.dtype and np.array_equal(first, want_first)
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("rounds", [0, 1, 2, 3, 8])
@pytest.mark.parametrize("n", [3, 14])
def test_table_run_draw_is_the_support_then_one_row_per_state(n, rounds):
    # for R <= 8 the events after whole_table_support's first rounds come
    # from one (T, R - 1) block of uniforms, a state selected in round
    # 1 + j when its uniform j falls below P and j + 1 is after its first
    # round; at R <= 1 the generator ends where the support draw leaves it
    probs = table_with_edges(n)
    policy = SelectionPolicy.probabilistic(n, probs)
    rng, reference = np.random.default_rng(rounds), np.random.default_rng(rounds)
    idx, round_of, pos = _draw_table_run(policy, rounds, rng)
    want, first = whole_table_support(probs, rounds, reference)
    member = np.zeros((rounds, want.size), dtype=bool)
    member[first, np.arange(want.size)] = True
    if rounds > 1:
        later = reference.random((want.size, rounds - 1)) < probs[want, None]
        member[1:] |= (later & (np.arange(1, rounds) > first[:, None])).T
    want_round, want_pos = np.nonzero(member)
    assert np.array_equal(idx, want)
    assert np.array_equal(round_of, want_round) and np.array_equal(pos, want_pos)
    assert pos.dtype == np.intp
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("rounds", [1, 2, 3, 8])
def test_table_support_keeps_its_law_at_the_byte_edges(rounds, bits):
    """Each state is in the support with probability q = 1 - (1 - P)**R at
    the edges of the byte prefilter: P exactly k / (256 R) for k = 1, 2 and
    255 and one ulp to each side, R P >= 1, P = 0 (never in it) and P = 1
    (always in it); under a 64-bit and a 32-bit bit generator."""
    edges = [k / (256.0 * rounds) for k in (1, 2, 255)]
    probs = [q for p in edges for q in (np.nextafter(p, 0.0), p, np.nextafter(p, 1.0))]
    probs += [1.0 / rounds, min(1.0, 1.5 / rounds), 0.0, 1.0, 0.3, 0.05, 0.7]
    assert len(probs) == 16
    probs = np.array(probs)
    policy = SelectionPolicy.probabilistic(4, probs)
    rng, runs = np.random.Generator(bits(rounds)), 20000
    counts = np.zeros(16)
    for _ in range(runs):
        idx, p, _ = _draw_support(policy, rounds, rng)
        assert np.all(np.diff(idx) > 0) and np.array_equal(p, probs[idx])
        counts[idx] += 1
    want = 1.0 - (1.0 - probs) ** rounds
    assert np.all(counts[want == 0.0] == 0) and np.all(counts[want == 1.0] == runs)
    inner = (want > 0.0) & (want < 1.0)
    z = (counts[inner] / runs - want[inner]) / np.sqrt(want[inner] * (1 - want[inner]) / runs)
    assert np.max(np.abs(z)) < 4.5, z


class _TopDigitGenerator:
    """Every byte 255 and every uniform the largest below 1: U as close to
    1 as the draw can make it."""

    def integers(self, low, high, size, dtype):
        return np.full(size, np.iinfo(dtype).max, dtype=dtype)

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("rounds", [1, 2, 6])
def test_table_support_keeps_a_certain_state_at_the_top_uniform(rounds):
    # B = 255 and U' = 1 - 2**-53 put U within 2**-61 of 1; a state with
    # P = 1 is still in the support, and no state with P < 1 is
    probs = np.full(8, 0.5)
    probs[[2, 5]] = 1.0
    idx, p, _ = _draw_support(SelectionPolicy.probabilistic(3, probs), rounds, _TopDigitGenerator())
    assert idx.tolist() == [2, 5] and p.tolist() == [1.0, 1.0]


def test_table_support_draw_allocates_nothing_per_state():
    # the optimizer's policy at n = 18, whose support is a few % of N: the
    # draw peaks below a quarter of one float64 N-vector
    n = 18
    table = ObjectiveTable(n, np.random.default_rng(3).standard_normal(1 << n))
    policy = build_optimization_policy(table, np.random.default_rng(3))
    tracemalloc.start()
    try:
        idx, _, _ = _draw_support(policy, nominal_rounds(n), np.random.default_rng(3))
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
        state, log = run_dynamic(policy, np.random.default_rng(0), 1438)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.rounds == 1438
    assert abs(state.norm_sq() - 1.0) < 1e-9
    assert peak < 1 << n


def digest_runs():
    """(name, log) of each run of a seeded grid: class, catalog and table
    policies, watch on and off."""
    n, reference = 9, 0b101100101
    by_class = similarity_policy(SimilaritySpec(n, reference), calibrate_beta(n, 4.0))
    catalog = SelectionPolicy.by_similarity(
        n, reference, by_class.class_probabilities, np.arange(0, 1 << n, 3)
    )
    ball = SelectionPolicy.by_similarity(n, reference, (np.arange(n + 1) >= n - 1) * 1.0)
    table = SelectionPolicy.probabilistic(8, 0.08 * np.random.default_rng(5).random(256))
    table_watch = SelectionPolicy.probabilistic(8, np.arange(256) % 7 == 0)
    grid = [
        ("class", by_class, {"rounds": 8}),
        ("class-watch", by_class, {"rounds": 2 * 8 + 8, "watch": ball}),
        ("catalog", catalog, {"rounds": 2 * 14 + 8}),
        ("catalog-watch", catalog, {"rounds": 40, "watch": ball}),
        ("table", table, {"rounds": 12}),
        ("table-watch", table, {"rounds": 12, "watch": table_watch}),
    ]
    for seed, (name, policy, kwargs) in enumerate(grid):
        _, log = run_dynamic(policy, np.random.default_rng(seed), **kwargs)
        yield name, log


def log_digest(head, arrays):
    """sha256 of ``repr(head)`` followed by the bytes of each array (b"none" for None)."""
    digest = hashlib.sha256(repr(head).encode())
    for array in arrays:
        digest.update(b"none" if array is None else np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# log_digest((n, rounds, None, ()), (events, starts, *LOG_COLUMNS))
# of each run of digest_runs(), computed from the per-round reports and
# index arrays the log kept before it kept columns; the None, where the
# log once kept the round a run returned, and the empty tuple, where it
# once kept restarted rounds, keep those digests.  The class and table
# digests were pinned after their columns matched a dense replay
# (replay_round_states and gain_report) to 1e-12, again after the same
# check when class runs came to draw their masks as one grid of
# (member, round) cells, and when table runs came to draw their support
# one random byte per state first.  The class-watch, catalog,
# catalog-watch and table-watch digests were pinned after the same check
# when runs stopped reading their state between rounds.  When the log
# dropped its policy-mass column, the class, class-watch, catalog and
# catalog-watch digests became those of the same logs without it, and the
# table and table-watch digests were pinned after the same check, as
# table runs came to take their first rounds from their support draw
PINNED_LOG_DIGESTS = {
    "class": "062fb44c92c92a9c4c10bd52e50c0637fd2351afe45ca50a0d1a612c7ea70668",
    "class-watch": "7d214335b7836e3ac1c8ba8e8fc0d34287e0e0ba59c62f63d12cc2570bc4bbfa",
    "catalog": "088511270bb5d8a96a2c79d5c7450f36d3b4debe6faea892553ac8d0e5802e01",
    "catalog-watch": "bc8f9c02d67a52795491fca3b115203c5384d6deb0154fdadeb24fe93febd917",
    "table": "ca29c02d39586dd6e2fe1d548927ca271fbe54277c838e347efe975eb17bbec1",
    "table-watch": "c4705194872263c336a735139298c5fccf2daec0de20fa49b5f74a1b3494d2c7",
}


def test_log_columns_match_pinned_digests():
    logs = dict(digest_runs())
    assert sorted(logs) == sorted(PINNED_LOG_DIGESTS)
    stored = {field.name for field in dataclasses.fields(DynamicRunLog)}
    assert stored == {"n", "rounds", "events", "starts", *LOG_COLUMNS} - {"n_selected", "gains"}
    for name, log in logs.items():
        head = (log.n, log.rounds, None, ())
        columns = [getattr(log, column) for column in LOG_COLUMNS]
        assert log.events.dtype == log.starts.dtype == log.n_selected.dtype == np.int64, name
        assert all(c is None or c.dtype == np.float64 for c in columns[1:]), name
        assert np.array_equal(np.concatenate([log.starts[:0], *log.selected_indices]), log.events)
        digest = log_digest(head, [log.events, log.starts, *columns])
        assert digest == PINNED_LOG_DIGESTS[name], name
