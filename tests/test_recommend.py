import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qamp import (
    CalibrationError,
    ConfigError,
    InvalidParamsError,
    SelectionProbabilityParams,
    ShapeMismatchError,
    SimilaritySpec,
    calibrate_beta,
    class_counts,
    class_masses,
    expected_selected_count,
    load_catalog,
    recommend,
    similarity,
    similarity_policy,
)
from qamp.cli import main
from qamp.core import sample
from qamp.dynamic_search import planned_rounds, run_dynamic, similarity_classes
from qamp.errors import UnderAmplifiedError
from qamp.recommend import probability_by_class, similarity_params

LN2 = math.log(2.0)
# the package re-exports the recommend() function under the submodule's name
recommend_module = importlib.import_module("qamp.recommend")


class TestSimilarity:
    def test_identical_items(self):
        assert similarity(0b1010, SimilaritySpec(4, 0b1010)) == 4

    def test_antipodal_items(self):
        assert similarity(0b0000, SimilaritySpec(4, 0b1111)) == 0

    def test_single_bit_difference(self):
        assert similarity(0b1011, SimilaritySpec(4, 0b1010)) == 3

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.integers(0, 1 << 10, size=2)
            assert similarity(int(x), SimilaritySpec(10, int(y))) == similarity(
                int(y), SimilaritySpec(10, int(x))
            )

    def test_out_of_range(self):
        with pytest.raises(ShapeMismatchError):
            similarity(16, SimilaritySpec(4, 0))

    def test_table_matches_scalar(self):
        spec = SimilaritySpec(6, 41)
        table = similarity_classes(spec.n, spec.reference, np.arange(1 << spec.n))
        for x in range(64):
            assert table[x] == similarity(x, spec)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_binomial_class_structure(self, n):
        # states at similarity S number exactly C(n, S)
        counts = np.bincount(similarity_classes(n, 0, np.arange(1 << n)), minlength=n + 1)
        assert counts.tolist() == [math.comb(n, s) for s in range(n + 1)]
        assert class_counts(n).tolist() == counts.tolist()


class TestSelectionProbability:
    def test_default_top(self):
        params = SelectionProbabilityParams(10)
        assert probability_by_class(params)[10] == 1.0

    def test_default_bottom(self):
        params = SelectionProbabilityParams(10)
        assert probability_by_class(params)[0] == pytest.approx(2**-10)

    def test_default_next_to_top(self):
        assert probability_by_class(SelectionProbabilityParams(10))[9] == pytest.approx(0.5)

    def test_default_closed_form(self):
        probs = probability_by_class(SelectionProbabilityParams(12))
        assert probs.shape == (13,)
        for s in range(13):
            assert probs[s] == pytest.approx(2.0 ** (s - 12))

    def test_top_limit_enforced(self):
        # a gentle decay cannot select the best state almost surely
        with pytest.raises(InvalidParamsError):
            SelectionProbabilityParams(10, beta=0.1)

    def test_bottom_limit_enforced(self):
        with pytest.raises(InvalidParamsError):
            SelectionProbabilityParams(10, beta=LN2, norm_c=0.5)

    @pytest.mark.parametrize(
        "case",
        [
            ["recommend", "--n", "8", "--m", "5", "--beta", "nan"],
            ["dynamic", "--n", "8", "--beta", "inf"],
            ["experiment", "accuracy", "--n", "8", "--seeds", "2", "--beta", "nan"],
            {"beta": math.inf},
            {"norm_c": math.nan},
        ],
        ids=["recommend-cli", "dynamic-cli", "accuracy-cli", "beta-inf", "norm-c-nan"],
    )
    def test_non_finite_beta_rejected(self, case, tmp_path, monkeypatch):
        # min(1, nan) is 1, so a nan or inf beta passes both boundary limits
        # unless it is rejected outright
        if isinstance(case, dict):
            with pytest.raises(InvalidParamsError):
                SelectionProbabilityParams(8, **case)
        else:
            monkeypatch.chdir(tmp_path)
            assert main(case) == 2

    def test_steep_beta_keeps_both_limits(self):
        # c = exp(-720) is subnormal and exp(720) overflows: P(S) comes from
        # exp(min(0, ln c + beta * S)) instead
        n = 30
        params = similarity_params(n, 24.0, None, 1.0)
        probs = probability_by_class(params)
        assert np.all(np.isfinite(probs))
        assert probs[-1] >= 1.0 - 2.0**-n and probs[0] <= 2.0**-n
        assert np.all(np.diff(probs) >= 0)
        assert similarity_policy(SimilaritySpec(n, 0), params).moments()[0] >= 1.0

    @pytest.mark.parametrize("n", [8, 20, 30])
    def test_steepest_explicit_beta_keeps_the_top_limit(self, n):
        # a prefactor of fewer than n significant bits no longer gives back
        # P(n) = 1; every beta * n below that is accepted, every one above
        # it rejected by name
        steepest = -math.log(math.ulp(0.0)) - n * LN2
        for beta_n in np.linspace(steepest - 20.0, steepest, 400):
            probs = probability_by_class(similarity_params(n, beta_n / n, None, 1.0))
            assert probs[-1] >= 1.0 - 2.0**-n
        with pytest.raises(InvalidParamsError, match=r"beta \* n = .* too steep"):
            similarity_params(n, (steepest + 0.01) / n, None, 1.0)

    def test_monotone_in_similarity(self):
        for params in (
            SelectionProbabilityParams(8),
            SelectionProbabilityParams(8, beta=2.0, norm_c=math.exp(-16.0)),
            calibrate_beta(8, 3.0),
        ):
            probs = probability_by_class(params)
            assert np.all(np.diff(probs) >= 0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 14), beta=st.floats(0.5, 6.0))
@example(n=3, beta=0.6875)
def test_constructed_params_meet_limits(n, beta):
    try:
        params = SelectionProbabilityParams(n, beta=beta, norm_c=min(2.0**-n, math.exp(-beta * n)))
    except InvalidParamsError:
        return
    size = 1 << n
    probs = probability_by_class(params)
    assert probs[n] >= 1.0 - 1.0 / size
    assert probs[0] <= 1.0 / size


def test_default_family_least_similar_within_limit():
    # exp(ln 2**-n) exceeds 2**-n by a few ulps at n = 3, 6, 7, 8, ...
    bottoms = [probability_by_class(SelectionProbabilityParams(n))[0] for n in range(1, 31)]
    assert [n for n, p in enumerate(bottoms, start=1) if p > 2.0**-n] == []


class TestCalibrateBeta:
    def test_default_expected_count_identity(self):
        # direct-summation oracle: sum_S C(10,S) * 2**(S-10) = 3**10 / 2**10
        params = SelectionProbabilityParams(10)
        by_hand = sum(math.comb(10, s) * 2.0 ** (s - 10) for s in range(11))
        assert by_hand == pytest.approx(3**10 / 2**10)
        assert expected_selected_count(params) == pytest.approx(by_hand, abs=1e-9)

    def test_round_trip_at_glue_point(self):
        params = calibrate_beta(10, 1.5**10)
        assert params.beta == pytest.approx(LN2, abs=1e-6)

    @pytest.mark.parametrize("m_target", [2.0, 5.0, 11.0, 57.0, 80.0, 200.0, 500.0])
    def test_calibration_hits_target(self, m_target):
        params = calibrate_beta(10, m_target)
        assert expected_selected_count(params) == pytest.approx(m_target, abs=0.5)
        assert expected_selected_count(params) < 512

    @pytest.mark.parametrize("n", range(2, 31))
    def test_single_item_target_at_every_n(self, n):
        # from n = 25 on the prefactor exp(-beta n) of m = 1 underflows to 0
        params = calibrate_beta(n, 1.0)
        assert probability_by_class(params)[n] >= 1.0 - 1.0 / (1 << n)
        assert expected_selected_count(params) == pytest.approx(1.0, abs=0.5)

    def test_single_item_cli_at_n25(self):
        # m = 1 lies in the documented domain [1, N/2) at every n
        assert main(["recommend", "--n", "25", "--m", "1", "--seed", "3"]) == 0

    def test_target_of_n_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_beta(10, 1024)

    def test_target_above_half_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_beta(10, 512)


class TestRecommend:
    def test_mean_similarity_over_seeds(self):
        spec = SimilaritySpec(10, 0)
        params = calibrate_beta(10, 5.0)
        means = []
        for seed in range(100):
            result = recommend(spec, 5, params, np.random.default_rng(seed))
            assert len(result.items) == 5
            assert len({item.index for item in result.items}) == 5
            means.append(np.mean([item.similarity for item in result.items]))
        assert np.mean(means) >= 8.0

    def test_single_target_returns_reference_majority(self):
        # a policy selecting only the reference reduces to fixed-mask search
        spec = SimilaritySpec(10, 0)
        params = SelectionProbabilityParams(10, beta=40.0, norm_c=math.exp(-400.0))
        probs = probability_by_class(params)
        assert probs[10] == pytest.approx(1.0)
        assert probs[9] == pytest.approx(0.0, abs=1e-15)
        hits = sum(
            recommend(spec, 1, params, np.random.default_rng(seed)).items[0].index == 0
            for seed in range(200)
        )
        assert hits / 200 > 0.5

    def test_items_sorted_by_similarity_then_index(self):
        spec = SimilaritySpec(8, 17)
        result = recommend(spec, 8, calibrate_beta(8, 8.0), np.random.default_rng(3))
        keys = [(-item.similarity, item.index) for item in result.items]
        assert keys == sorted(keys)

    def test_histogram_shape(self):
        # class masses are non-decreasing toward high similarity (top half)
        spec = SimilaritySpec(10, 0)
        params = calibrate_beta(10, 11.0)
        curves = []
        for seed in range(20):
            result = recommend(spec, 3, params, np.random.default_rng(seed))
            assert result.per_similarity_sampling.sum() == pytest.approx(1.0, abs=1e-9)
            curves.append(result.per_similarity_sampling)
        median = np.median(curves, axis=0)
        assert np.all(np.diff(median[5:]) >= 0)

    def test_deterministic_for_seed(self):
        spec = SimilaritySpec(10, 7)
        params = calibrate_beta(10, 5.0)
        a = recommend(spec, 5, params, np.random.default_rng(7))
        b = recommend(spec, 5, params, np.random.default_rng(7))
        assert [i.index for i in a.items] == [i.index for i in b.items]
        assert a.rounds_used == b.rounds_used

    def test_catalog_restricts_items(self):
        spec = SimilaritySpec(8, 0)
        catalog = np.array([0, 1, 2, 4, 8, 16, 32, 64])
        result = recommend(
            spec, 3, calibrate_beta(8, 4.0), np.random.default_rng(1), catalog=catalog
        )
        assert all(item.index in set(catalog.tolist()) for item in result.items)

    @pytest.mark.parametrize(
        "m,catalog", [(3, [0, 1, 1]), (257, None)], ids=["catalog", "space"]
    )
    def test_more_items_than_selectable_rejected(self, m, catalog):
        # rejected before the run, not after 50*m draws
        with pytest.raises(ConfigError):
            recommend(
                SimilaritySpec(8, 0),
                m,
                calibrate_beta(8, 4.0),
                np.random.default_rng(1),
                catalog=None if catalog is None else np.array(catalog),
            )

    # items, rounds_used and the top three class masses (to 1e-12) of runs
    # of the planned round count that sample their final state
    PINNED = [
        (0, 1, [(0, 16), (16, 15), (512, 15), (8192, 15), (5121, 13)], 91,
         [0.03198017733765537, 0.16751181614672692, 0.791344261257404]),
        (12345, 2, [(12345, 16), (12313, 15), (12337, 15), (13433, 14), (29229, 12)], 91,
         [0.03472526321409539, 0.18425090110716247, 0.7663035315259958]),
        (40000, 3, [(40000, 16), (37952, 15), (40004, 15), (40128, 15), (40512, 15)], 91,
         [0.0223304312291355, 0.20095689486158697, 0.7657503438736009]),
    ]

    @pytest.mark.parametrize(
        "reference,seed,items,rounds_used,top_masses", PINNED,
        ids=[f"reference{case[0]}-seed{case[1]}" for case in PINNED],
    )
    def test_pinned_outputs(self, reference, seed, items, rounds_used, top_masses):
        result = recommend(
            SimilaritySpec(16, reference), 5, calibrate_beta(16, 5.0), np.random.default_rng(seed)
        )
        assert [(item.index, item.similarity) for item in result.items] == items
        assert result.rounds_used == rounds_used
        np.testing.assert_allclose(
            result.per_similarity_sampling[-3:], top_masses, rtol=0, atol=1e-12
        )

    @staticmethod
    def whole_cap_reference(spec, m, params, seed, catalog):
        """The first m distinct items of one draw of the whole 50 * m cap."""
        rng = np.random.default_rng(seed)
        policy = similarity_policy(spec, params, catalog=catalog)
        state, _ = run_dynamic(policy, rng, rounds=planned_rounds(policy))
        draws = sample(state, rng, size=50 * m)
        if catalog is not None:
            draws = draws[np.isin(draws, catalog)]
        distinct = list(dict.fromkeys(draws.tolist()))
        return sorted(distinct[:m]) if len(distinct) >= m else None

    @pytest.mark.parametrize("with_catalog", [False, True], ids=["space", "catalog"])
    def test_blocked_draws_match_one_draw_of_the_whole_cap(self, with_catalog):
        n, m = 10, 8
        params = calibrate_beta(n, 8.0)
        # every seventh item: a few seeds run out of draws, the rest succeed
        catalog = np.arange(0, 1 << n, 7) if with_catalog else None
        outcomes = []
        for seed in range(24):
            spec = SimilaritySpec(n, (37 * seed) % (1 << n))
            want = self.whole_cap_reference(spec, m, params, seed, catalog)
            if want is None:
                with pytest.raises(UnderAmplifiedError, match=f"within {50 * m} draws"):
                    recommend(spec, m, params, np.random.default_rng(seed), catalog=catalog)
            else:
                result = recommend(spec, m, params, np.random.default_rng(seed), catalog=catalog)
                assert sorted(item.index for item in result.items) == want, seed
            outcomes.append(want is None)
        assert outcomes.count(False) >= 20
        assert with_catalog == (True in outcomes)

    def test_draws_stop_once_m_items_are_distinct(self, monkeypatch):
        sizes = []

        def counted(state, rng, size=None):
            sizes.append(size)
            return sample(state, rng, size=size)

        monkeypatch.setattr(recommend_module, "sample", counted)
        params = calibrate_beta(16, 5.0)
        result = recommend(SimilaritySpec(16, 0), 5, params, np.random.default_rng(1))
        assert len(result.items) == 5
        assert sizes[0] == 5 and sum(sizes) < 50 * 5
        assert sizes == [5 * 2**k for k in range(len(sizes))]

    def test_large_space_allocates_less_than_one_dense_vector(self):
        n = 22
        spec = SimilaritySpec(n, 0x2AAAAA)
        params = calibrate_beta(n, 5.0)
        tracemalloc.start()
        try:
            result = recommend(spec, 5, params, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.items) == 5
        assert peak < (1 << n) * 8

    def test_mismatched_params_rejected(self):
        with pytest.raises(ShapeMismatchError):
            similarity_policy(SimilaritySpec(8, 0), SelectionProbabilityParams(9))


@pytest.mark.parametrize("with_catalog", [False, True])
def test_sparse_class_masses_match_dense(with_catalog):
    # class masses from bulk**2 * class counts plus the stored states agree
    # with a bincount over the dense final state; non-catalog states carry
    # mass too
    n = 12
    spec = SimilaritySpec(n, 1234)
    catalog = np.arange(0, 1 << n, 3) if with_catalog else None
    policy = similarity_policy(spec, calibrate_beta(n, 5.0), catalog=catalog)
    sims = similarity_classes(n, spec.reference, np.arange(1 << n))
    for seed in range(4):
        state, _ = run_dynamic(policy, np.random.default_rng(seed), rounds=12)
        dense = np.bincount(sims, weights=state.amps * state.amps, minlength=n + 1)
        np.testing.assert_allclose(class_masses(state, spec), dense, rtol=1e-12, atol=0)


class TestLoadCatalog:
    def test_binary_and_decimal_lines(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("0101\n12\n# comment\n\n7\n0101\n", encoding="utf-8")
        items = load_catalog(path, 4)
        assert items.tolist() == [5, 7, 12]

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("99\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_catalog(path, 4)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("hello\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_catalog(path, 4)
