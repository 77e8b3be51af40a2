"""Deterministic bootstrap CIs: content-derived, process-independent."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import bootstrap as bootstrap_module
from repro.analysis.bootstrap import (
    _ascending,
    _percentile,
    _randrange_stream,
    bootstrap_ci95,
    bootstrap_mean_samples,
)
from repro.util.rng import fold_seed


def loop_mean_samples(values, base_seed, *labels, n_resamples=200):
    """The scalar resampling loop: one ``randrange`` call per draw.

    The oracle for the bulk kernel, which must return this list float
    for float.
    """
    values = list(values)
    n = len(values)
    rng = random.Random(fold_seed(base_seed, *labels))
    means = []
    for _ in range(n_resamples):
        total = 0.0
        for _ in range(n):
            total += values[rng.randrange(n)]
        means.append(total / n)
    return means


def loop_ci95(values, base_seed, *labels, n_resamples=200):
    """:func:`bootstrap_ci95` over the scalar loop's means."""
    if len(values) <= 1:
        return 0.0
    means = sorted(
        loop_mean_samples(values, base_seed, *labels, n_resamples=n_resamples)
    )
    lo = _percentile(means, 0.025)
    hi = _percentile(means, 0.975)
    return max(0.0, (hi - lo) / 2.0)


def mixed_values(rng, n):
    """``n`` ints and floats spanning about 24 orders of magnitude."""
    values = []
    for _ in range(n):
        if rng.random() < 0.3:
            values.append(rng.randint(-(10**7), 10**7))
        else:
            values.append(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12))
    return values


def bits(floats):
    """Exact float identity: tells -0.0 from 0.0 and matches nan to nan."""
    return [value.hex() for value in floats]


class CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``getrandbits`` calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


class TestScalarOracle:
    """The bulk kernel against the scalar loop, bit for bit."""

    RESAMPLES = (1, 7, 200, 1000)

    # Every n from 1 to 40 crosses each bit_length boundary (1, 2, 3, 4,
    # 7, 8, 9, 16, 17, 31, 32, 33), where the shift and rejection change.
    @pytest.mark.parametrize("n", range(1, 41))
    def test_means_and_interval_equal_the_loop(self, n):
        rng = random.Random(n)
        for label_set in range(6):
            n_resamples = self.RESAMPLES[(n + label_set) % len(self.RESAMPLES)]
            values = mixed_values(rng, n)
            labels = ("oracle", n, label_set, f"objective-{label_set % 3}")
            expected = loop_mean_samples(
                values, 20050610, *labels, n_resamples=n_resamples
            )
            means = bootstrap_mean_samples(
                values, 20050610, *labels, n_resamples=n_resamples
            )
            assert bits(means) == bits(expected)
            assert all(type(mean) is float for mean in means)
            assert bootstrap_ci95(
                values, 20050610, *labels, n_resamples=n_resamples
            ) == loop_ci95(values, 20050610, *labels, n_resamples=n_resamples)

    # The loop overflows to inf and makes nan silently; so must the kernel.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values", [
        [4, 1, 3],
        [0.1, 0.2, 0.3, 0.4],
        [1e16, 1.0, -1e16, 3.0, 0.5],
        [-0.0, -0.0],
        [2 ** 60 + 1, 3, 2 ** 53 + 1],
        [1.7e308, 1.7e308, -1.0],
        [float("inf"), 1.0, float("-inf")],
        [float("nan"), 2.0],
    ], ids=[
        "ints", "tenths", "cancellation", "negative-zero", "big-ints",
        "overflow", "infinities", "nan",
    ])
    def test_special_values_equal_the_loop(self, values):
        for n_resamples in self.RESAMPLES:
            labels = ("special", repr(values), n_resamples)
            assert bits(
                bootstrap_mean_samples(values, 7, *labels, n_resamples=n_resamples)
            ) == bits(loop_mean_samples(values, 7, *labels, n_resamples=n_resamples))
            assert bits(
                [bootstrap_ci95(values, 7, *labels, n_resamples=n_resamples)]
            ) == bits([loop_ci95(values, 7, *labels, n_resamples=n_resamples)])

    def test_top_up_draw(self):
        # These labels leave too few words below n in the first bulk
        # draw, so the stream is continued by a second getrandbits call.
        n, n_resamples, labels = 17, 7, ("top-up", 87)
        rng = CountingRandom(fold_seed(20050610, *labels))
        stream = _randrange_stream(rng, n, n * n_resamples)
        assert rng.calls >= 2
        reference = random.Random(fold_seed(20050610, *labels))
        assert stream.tolist() == [
            reference.randrange(n) for _ in range(n * n_resamples)
        ]
        values = mixed_values(random.Random(17), n)
        means = bootstrap_mean_samples(
            values, 20050610, *labels, n_resamples=n_resamples
        )
        assert bits(means) == bits(
            loop_mean_samples(values, 20050610, *labels, n_resamples=n_resamples)
        )

    def test_pinned_literal_means(self):
        # Literal outputs, so a CPython change to randrange's rejection
        # rule or getrandbits' word order fails here, not only in the
        # comparison with the loop (which would change along with it).
        values = [3, 0.5, -2.25, 1000000, 7.125]
        assert bootstrap_mean_samples(
            values, 20050610, "pinned", "energy", n_resamples=6
        ) == [3.1, 1.775, 200000.35, 200003.225, 4.15, 200000.35]
        assert bootstrap_ci95(
            values, 20050610, "pinned", "energy"
        ) == 300000.1325
        wide = [
            3, 0.5, -2.25, 1000000, 7.125, 1e-9, -40, 0.1, 12345678901,
            2.5e-3, 6, 0.3, -7.75, 1, 9.5, 100, 0.7,
        ]
        assert bootstrap_mean_samples(
            wide, 20050610, "pinned", "energy", n_resamples=4
        ) == [
            726275228.4058824,
            726275252.6913235,
            1452491636.7970588,
            726334055.7780883,
        ]


class TestDeterminism:
    def test_same_labels_same_interval(self):
        values = [1.0, 2.0, 4.0, 8.0]
        first = bootstrap_ci95(values, 20050610, "point-token", "energy")
        second = bootstrap_ci95(values, 20050610, "point-token", "energy")
        assert first == second

    def test_different_labels_different_stream(self):
        values = [1.0, 2.0, 4.0, 8.0]
        energy = bootstrap_ci95(values, 20050610, "tok", "energy")
        latency = bootstrap_ci95(values, 20050610, "tok", "latency")
        assert energy != latency

    def test_resampled_means_are_reproducible(self):
        values = [3.0, 1.0, 2.0]
        first = bootstrap_mean_samples(values, 7, "x", n_resamples=50)
        second = bootstrap_mean_samples(values, 7, "x", n_resamples=50)
        assert first == second
        assert len(first) == 50

    def test_global_rng_state_is_untouched(self):
        import random

        random.seed(1234)
        expected = random.random()
        random.seed(1234)
        bootstrap_ci95([1.0, 2.0, 3.0], 99, "tok")
        assert random.random() == expected


class TestStatisticalShape:
    def test_single_value_has_zero_width(self):
        assert bootstrap_ci95([5.0], 1, "x") == 0.0

    def test_constant_sample_has_zero_width(self):
        assert bootstrap_ci95([2.0, 2.0, 2.0, 2.0], 1, "x") == 0.0

    def test_wider_spread_wider_interval(self):
        tight = bootstrap_ci95([10.0, 10.1, 9.9, 10.05], 3, "t")
        loose = bootstrap_ci95([10.0, 20.0, 0.0, 15.0], 3, "t")
        assert loose > tight > 0.0

    def test_resampled_means_stay_in_range(self):
        values = [1.0, 5.0, 9.0]
        means = bootstrap_mean_samples(values, 11, "r", n_resamples=100)
        assert all(min(values) <= m <= max(values) for m in means)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="empty"):
            bootstrap_ci95([], 1, "x")
        with pytest.raises(ValueError, match="empty"):
            bootstrap_mean_samples([], 1, "x")

    def test_bad_resample_count_raises(self):
        with pytest.raises(ValueError, match="n_resamples"):
            bootstrap_mean_samples([1.0], 1, "x", n_resamples=0)

    @pytest.mark.parametrize("n_resamples", [0, -3, 200.0])
    @pytest.mark.parametrize("values", [[5.0], [1.0, 2.0, 4.0]], ids=["one", "three"])
    def test_bad_resample_count_raises_for_every_sample_size(
        self, values, n_resamples
    ):
        with pytest.raises(ValueError, match="n_resamples"):
            bootstrap_ci95(values, 1, "x", n_resamples=n_resamples)
        with pytest.raises(ValueError, match="n_resamples"):
            bootstrap_mean_samples(values, 1, "x", n_resamples=n_resamples)


class TestPercentile:
    def test_endpoints_and_midpoint(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _percentile(values, 0.0) == 1.0
        assert _percentile(values, 1.0) == 5.0
        assert _percentile(values, 0.5) == 3.0

    def test_interpolates_between_ranks(self):
        assert _percentile([0.0, 10.0], 0.25) == 2.5

    def test_single_element(self):
        assert _percentile([7.0], 0.975) == 7.0

    def test_out_of_range_fraction_raises(self):
        with pytest.raises(ValueError, match="fraction"):
            _percentile([1.0], 1.5)


#: Few distinct values, so resampled means tie often; signed zeros,
#: infinities and NaN are the cases where orderings can disagree.
_TIE_PRONE = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-310, -1e-310,
     math.inf, -math.inf, math.nan]
)


class TestArraySort:
    """bootstrap_ci95 sorts its means as an array unless one is NaN; the
    order must be ``sorted``'s, element for element."""

    @settings(max_examples=300, deadline=None)
    @given(means=st.lists(_TIE_PRONE.filter(lambda v: not math.isnan(v)), max_size=40))
    def test_array_sort_equals_sorted(self, means):
        ordered = _ascending(np.array(means, dtype=np.float64))
        assert isinstance(ordered, np.ndarray)
        assert bits(ordered.tolist()) == bits(sorted(means))

    @settings(max_examples=100, deadline=None)
    @given(means=st.lists(_TIE_PRONE, min_size=1, max_size=40).filter(
        lambda values: any(math.isnan(v) for v in values)))
    def test_nan_keeps_the_list_sort(self, means):
        ordered = _ascending(np.array(means, dtype=np.float64))
        assert isinstance(ordered, list)
        assert bits(ordered) == bits(sorted(means))

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(_TIE_PRONE, min_size=2, max_size=9),
        n_resamples=st.sampled_from([1, 2, 7, 40, 200]),
        label=st.integers(0, 10**6),
    )
    def test_interval_equals_the_sorted_path(self, values, n_resamples, label):
        assert bits(
            [bootstrap_ci95(values, 7, "ties", label, n_resamples=n_resamples)]
        ) == bits([loop_ci95(values, 7, "ties", label, n_resamples=n_resamples)])

    def test_only_nan_means_take_the_list_sort(self, monkeypatch):
        calls = []

        def counting_sorted(values):
            calls.append(len(values))
            return sorted(values)

        monkeypatch.setattr(bootstrap_module, "sorted", counting_sorted, raising=False)
        bootstrap_ci95([0.0, -0.0, 1.0, 1.0], 7, "array", n_resamples=50)
        assert calls == []
        bootstrap_ci95([math.nan, 1.0, 2.0], 7, "list", n_resamples=50)
        assert calls == [50]

    def test_mean_samples_stay_a_list_of_floats(self):
        means = bootstrap_mean_samples([0.0, -0.0, 2.5], 7, "list", n_resamples=9)
        assert type(means) is list
        assert all(type(mean) is float for mean in means)
