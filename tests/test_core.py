import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qamp import (
    NormalizationError,
    SelectionMask,
    ShapeMismatchError,
    SizeError,
    SparseState,
    StateVector,
    backend,
    grover_iteration,
    probability_of,
    sample,
    uniform_init,
)
from qamp.core import _sparse_inverse_cdf, in_sorted

# chi-square 99% critical values, df -> value (standard table)
CHI2_99 = {3: 11.345, 15: 30.578}


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


def random_mask(n, seed):
    rng = np.random.default_rng(seed)
    return SelectionMask(n, rng.random(1 << n) < rng.random())


class TestUniformInit:
    def test_n2_amplitudes(self):
        assert np.array_equal(uniform_init(2).amps, [0.5, 0.5, 0.5, 0.5])

    def test_n1_amplitudes(self):
        np.testing.assert_allclose(uniform_init(1).amps, [1 / math.sqrt(2)] * 2, rtol=0, atol=1e-15)

    def test_n10_normalized(self):
        state = uniform_init(10)
        assert np.all(state.amps == 1 / 32)
        assert abs(state.norm_sq() - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [0, -1, 31])
    def test_out_of_range(self, n):
        with pytest.raises(SizeError):
            uniform_init(n)


class TestProbabilityOf:
    def test_uniform_single(self):
        assert probability_of(uniform_init(2), SelectionMask.from_indices(2, [3])) == pytest.approx(0.25)

    def test_full_mask(self):
        assert probability_of(uniform_init(4), SelectionMask.full(4)) == pytest.approx(1.0)

    def test_concentrated_state(self):
        # the state produced by one step from uniform at n=2
        mask = SelectionMask.from_indices(2, [3])
        assert probability_of(grover_iteration(uniform_init(2), mask), mask) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            probability_of(uniform_init(2), SelectionMask.empty(4))


class TestSample:
    def test_deterministic_outcome(self):
        state = SparseState(2, 0.0, [3], [1.0])
        for seed in range(5):
            assert sample(state, np.random.default_rng(seed)) == 3

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(11)
        draws = sample(SparseState.uniform(1), rng, size=100_000)
        freq = np.bincount(draws, minlength=2) / draws.size
        assert abs(freq[0] - 0.5) < 0.01
        assert abs(freq[1] - 0.5) < 0.01

    def test_seed_reproducibility(self):
        state = random_sparse_state(4, np.random.default_rng(3), "random", zero_bulk=False)
        a = [sample(state, np.random.default_rng(42)) for _ in range(20)]
        b = [sample(state, np.random.default_rng(42)) for _ in range(20)]
        assert a == b

    def test_unnormalized_rejected(self):
        state = SparseState(2, 0.5, [3], [0.4])
        with pytest.raises(NormalizationError):
            sample(state, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "n,weights",
        [(2, None), (4, "crafted")],
    )
    def test_chi_square_consistency(self, n, weights):
        # 1e5 draws against amps**2 at 99% confidence
        if weights is None:
            state = SparseState.uniform(n)
        else:
            # half the states stored, at weights around the bulk's
            rng = np.random.default_rng(5)
            idx = np.sort(rng.choice(1 << n, size=1 << (n - 1), replace=False))
            amp = rng.uniform(0.5, 1.5, idx.size)
            scale = 1.0 / math.sqrt(float(amp @ amp) + (1 << n) - idx.size)
            state = SparseState(n, scale, idx, amp * scale)
        rng = np.random.default_rng(1234)
        draws = sample(state, rng, size=100_000)
        observed = np.bincount(draws, minlength=1 << n)
        expected = state.probabilities() * draws.size
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_99[(1 << n) - 1]


def random_sparse_state(n, rng, touched, zero_bulk, sign=1.0):
    """A normalised sparse state with stored amplitudes of both signs, some
    of them 0; None when every amplitude came out 0."""
    n_states = 1 << n
    if touched == "empty":
        idx = np.empty(0, dtype=np.int64)
    elif touched == "full":
        idx = np.arange(n_states)
    else:
        idx = np.sort(rng.choice(n_states, size=int(rng.integers(0, n_states + 1)), replace=False))
    amp = rng.standard_normal(idx.size)  # both signs
    amp[rng.random(idx.size) < 0.2] = 0.0
    bulk = 0.0 if zero_bulk else float(rng.standard_normal())
    norm_sq = float(amp @ amp) + bulk * bulk * (n_states - idx.size)
    if norm_sq == 0.0:
        return None
    scale = sign / math.sqrt(norm_sq)
    return SparseState(n, bulk * scale, idx, amp * scale)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 9),
    seed=st.integers(0, 2**31),
    touched=st.sampled_from(["random", "empty", "full"]),
    zero_bulk=st.booleans(),
    size=st.sampled_from([None, 1, 50]),
)
def test_sparse_sample_matches_dense(n, seed, touched, zero_bulk, size):
    # the index-order inversion over bulk + stored states picks what the
    # dense cumsum over the same amplitudes picks, for the same generator
    state = random_sparse_state(n, np.random.default_rng(seed), touched, zero_bulk)
    assume(state is not None)
    dense = StateVector(n, state.amps)
    assert state.norm_sq() == pytest.approx(dense.norm_sq(), abs=1e-12)
    got = sample(state, np.random.default_rng(seed + 1), size=size)
    want = backend.sample_dense(dense, np.random.default_rng(seed + 1), size=size)
    if size is None:
        assert type(got) is int and got == want
    else:
        assert got.dtype == np.int64 and np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 9),
    seed=st.integers(0, 2**31),
    touched=st.sampled_from(["random", "empty", "full"]),
    zero_bulk=st.booleans(),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_scalar_sparse_draw_matches_batch_of_one(n, seed, touched, zero_bulk, sign):
    # the scalar path and the batch path invert the same uniform alike
    state = random_sparse_state(n, np.random.default_rng(seed), touched, zero_bulk, sign)
    assume(state is not None)
    for draw in range(5):
        got = sample(state, np.random.default_rng([seed, draw]))
        want = sample(state, np.random.default_rng([seed, draw]), size=1)
        assert type(got) is int and got == want[0]


# masses a**2 that are exact dyadic fractions, so u can sit exactly on a
# cumulative boundary; each case lists (u, first index whose mass through it exceeds u)
BOUNDARY_CASES = {
    # masses (1, 4, 1, 4, 4, 1, 0, 1) / 16, stored states of both signs and one of 0
    "bulk and stored": (SparseState(3, 0.25, [1, 3, 4, 6], [0.5, -0.5, 0.5, 0.0]),
                        [(0.0, 0), (1 / 16, 1), (5 / 16, 2), (6 / 16, 3), (10 / 16, 4),
                         (14 / 16, 5), (15 / 16, 7), (np.nextafter(1.0, 0.0), 7)]),
    # zero bulk: the states between stored ones are never drawn
    "zero bulk": (SparseState(3, 0.0, [1, 2, 5, 6], [0.5, 0.5, -0.5, 0.5]),
                  [(0.0, 1), (0.25, 2), (0.5, 5), (0.75, 6), (np.nextafter(1.0, 0.0), 6)]),
    "no stored index": (SparseState.uniform(2), [(0.0, 0), (0.25, 1), (0.5, 2), (0.75, 3)]),
    "every index stored": (SparseState(2, 0.0, [0, 1, 2, 3], [0.5, -0.5, 0.5, 0.5]),
                           [(0.0, 0), (0.25, 1), (0.5, 2), (0.75, 3)]),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_sparse_inverse_cdf_on_cumulative_boundaries(case):
    state, points = BOUNDARY_CASES[case]
    cum = np.cumsum(state.probabilities())
    assert cum[-1] == 1.0
    for u, want in points:
        assert np.searchsorted(cum, u, side="right") == want  # the dense inversion
        got = _sparse_inverse_cdf(state, u)
        assert type(got) is int and got == want
        assert _sparse_inverse_cdf(state, np.array([u])).tolist() == [want]
    us = np.array([u for u, _ in points])
    assert _sparse_inverse_cdf(state, us).tolist() == [want for _, want in points]


class TestSparseState:
    def test_with_amplitudes_keeps_indices(self):
        state = SparseState(2, 0.5, [1, 3], [-0.5, 0.5])
        moved = state.with_amplitudes(0.0, [0.6, -0.8])
        assert moved.idx is state.idx
        assert moved.bulk == 0.0 and type(moved.bulk) is float
        assert np.array_equal(moved.amps, [0.0, 0.6, 0.0, -0.8])
        assert np.array_equal(state.amp, [-0.5, 0.5])

    @pytest.mark.parametrize("amp", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]])
    def test_with_amplitudes_rejects_wrong_shape(self, amp):
        with pytest.raises(ShapeMismatchError):
            SparseState(2, 0.5, [1, 3], [-0.5, 0.5]).with_amplitudes(0.5, amp)

    def test_dense_form(self):
        state = SparseState(2, 0.5, [1, 3], [-0.5, 0.5])
        assert np.array_equal(state.amps, [0.5, -0.5, 0.5, 0.5])
        assert state.norm_sq() == 1.0
        assert np.array_equal(state.probabilities(), [0.25] * 4)

    def test_uniform_stores_nothing(self):
        state = SparseState.uniform(10)
        assert state.idx.size == 0
        assert np.array_equal(state.amps, uniform_init(10).amps)

    @pytest.mark.parametrize("idx", [[2, 1], [1, 1], [4], [-1]])
    def test_bad_indices_rejected(self, idx):
        with pytest.raises(ShapeMismatchError):
            SparseState(2, 0.5, idx, np.zeros(len(idx)))

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            sample(SparseState(2, 0.5, [0], [0.0]), np.random.default_rng(0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**31), ops=st.lists(st.integers(0, 1), max_size=12))
def test_norm_preserved_under_op_sequences(n, seed, ops):
    # op 0 is a step with the mask, op 1 a step with the empty mask (the
    # reflection about the mean alone)
    rng = np.random.default_rng(seed)
    amps = uniform_init(n).amps
    masks = (rng.random(1 << n) < 0.5, np.zeros(1 << n, dtype=bool))
    for op in ops:
        backend.grover_step(amps, masks[op])
    assert abs(float(amps @ amps) - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**31))
def test_involutions(n, seed):
    # a step with the empty mask is the reflection about the mean, and a step
    # with a mask followed by one with the empty mask is the sign flip alone
    # (the two reflections cancel): both are involutions
    state = random_state(n, seed)
    mask = random_mask(n, seed ^ 0x5EED)
    empty = np.zeros(state.size, dtype=bool)
    amps = state.amps.copy()
    for selected in (mask.selected, empty):
        backend.grover_step(amps, selected)
    np.testing.assert_allclose(
        amps, np.where(mask.selected, -state.amps, state.amps), rtol=0, atol=1e-12
    )
    for selected in (mask.selected, empty):
        backend.grover_step(amps, selected)
    np.testing.assert_allclose(amps, state.amps, rtol=0, atol=1e-12)
    for _ in range(2):
        backend.grover_step(amps, empty)
    np.testing.assert_allclose(amps, state.amps, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), size=st.integers(0, 40))
@example(seed=0, size=0)
def test_in_sorted_matches_isin(seed, size):
    rng = np.random.default_rng(seed)
    members = np.sort(rng.choice(64, size=size, replace=False))
    # queries reach below the first member and past the last
    x = rng.integers(-3, 80, size=50)
    np.testing.assert_array_equal(in_sorted(members, x), np.isin(x, members))
    for value in x[:10].tolist():
        assert in_sorted(members, value) == np.isin(value, members)


def test_state_vector_validation():
    with pytest.raises(ShapeMismatchError):
        StateVector(2, [1.0, 0.0])
    with pytest.raises(ShapeMismatchError):
        SelectionMask(3, np.zeros(4, dtype=bool))
    with pytest.raises(ShapeMismatchError):
        SelectionMask.from_indices(2, [4])


def test_mask_counts_and_views():
    mask = SelectionMask.from_indices(3, [1, 5])
    assert mask.count_selected == 2
    assert mask.size == 8
    assert np.flatnonzero(mask.selected).tolist() == [1, 5]
    assert SelectionMask.empty(3).count_selected == 0
    assert SelectionMask.full(3).count_selected == 8


def test_oversized_qubit_count_rejected_before_allocation():
    # 2**40 mask entries would take 1 TiB; each constructor must check n first
    from qamp import SelectionPolicy, SimilaritySpec
    from qamp.cli import main

    builders = [
        lambda: SelectionMask.from_indices(40, [0]),
        lambda: SelectionMask.empty(40),
        lambda: SelectionMask.full(40),
        lambda: SelectionMask(40, np.zeros(4, dtype=bool)),
        lambda: SelectionPolicy.probabilistic(40, np.zeros(4)),
        lambda: SelectionPolicy.by_similarity(40, 0, np.zeros(41)),
        lambda: SimilaritySpec(40, 0),
        lambda: uniform_init(40),
    ]
    tracemalloc.start()
    try:
        for build in builders:
            with pytest.raises(SizeError):
                build()
        assert main(["grover", "--n", "40", "--m", "1"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
