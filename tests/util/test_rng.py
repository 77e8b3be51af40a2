"""Tests for repro.util.rng."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import (
    RandomStreams,
    fold_seed,
    fold_seed_onward,
    hash_finish_array,
    hash_prefix_array,
    hash_to_unit_interval,
    hash_to_unit_interval_array,
)


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_different_names_are_independent_objects(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is not streams.stream("b")

    def test_same_seed_reproduces_sequences(self):
        first = RandomStreams(42).stream("mac").random()
        second = RandomStreams(42).stream("mac").random()
        assert first == second

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("mac").random()
        b = RandomStreams(2).stream("mac").random()
        assert a != b

    def test_different_names_produce_different_sequences(self):
        streams = RandomStreams(7)
        a = [streams.stream("x").random() for _ in range(5)]
        b = [streams.stream("y").random() for _ in range(5)]
        assert a != b

    def test_stream_isolation_under_extra_draws(self):
        # Drawing extra values from one stream must not shift another —
        # the whole point of named streams (common random numbers).
        streams_a = RandomStreams(9)
        streams_a.stream("noise").random()
        value_a = streams_a.stream("placement").random()
        streams_b = RandomStreams(9)
        for _ in range(100):
            streams_b.stream("noise").random()
        value_b = streams_b.stream("placement").random()
        assert value_a == value_b

    def test_spawn_derives_deterministic_child(self):
        child_a = RandomStreams(5).spawn("run3").stream("s").random()
        child_b = RandomStreams(5).spawn("run3").stream("s").random()
        assert child_a == child_b

    def test_spawn_differs_from_parent(self):
        parent = RandomStreams(5)
        child = parent.spawn("run3")
        assert parent.stream("s").random() != child.stream("s").random()

    def test_names_lists_created_streams(self):
        streams = RandomStreams(0)
        streams.stream("b")
        streams.stream("a")
        assert list(streams.names()) == ["a", "b"]

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            RandomStreams(0).stream("")

    def test_rejects_non_int_seed(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]

    def test_root_seed_property(self):
        assert RandomStreams(13).root_seed == 13


class TestHashToUnitInterval:
    def test_deterministic(self):
        assert hash_to_unit_interval(1, 2, 3) == hash_to_unit_interval(1, 2, 3)

    def test_in_unit_interval(self):
        for key in range(200):
            value = hash_to_unit_interval(99, key)
            assert 0.0 <= value < 1.0

    def test_key_order_matters(self):
        assert hash_to_unit_interval(0, 1, 2) != hash_to_unit_interval(0, 2, 1)

    def test_seed_changes_value(self):
        assert hash_to_unit_interval(1, 5) != hash_to_unit_interval(2, 5)

    def test_roughly_uniform(self):
        # Crude uniformity check: mean of many hashed values near 0.5.
        values = [hash_to_unit_interval(7, i) for i in range(2000)]
        mean = sum(values) / len(values)
        assert abs(mean - 0.5) < 0.02

    def test_no_obvious_sequential_correlation(self):
        # Adjacent integer keys should not produce adjacent values.
        values = [hash_to_unit_interval(3, i) for i in range(100)]
        diffs = [abs(b - a) for a, b in zip(values, values[1:])]
        assert sum(diffs) / len(diffs) > 0.1


_KEY = st.integers(min_value=-(2**62), max_value=2**62)


class TestHashToUnitIntervalArray:
    """The batched kernel must agree with the scalar hash bit-for-bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=_KEY,
        nodes=st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=32),
        key=_KEY,
    )
    def test_elementwise_equal_to_scalar(self, seed, nodes, key):
        batched = hash_to_unit_interval_array(seed, np.array(nodes), key)
        reference = [hash_to_unit_interval(seed, node, key) for node in nodes]
        assert batched.tolist() == reference

    @settings(max_examples=100, deadline=None)
    @given(seed=_KEY, keys=st.lists(_KEY, min_size=1, max_size=4))
    def test_scalar_key_chains_match(self, seed, keys):
        batched = hash_to_unit_interval_array(seed, *keys)
        assert float(batched) == hash_to_unit_interval(seed, *keys)

    def test_negative_keys_match_scalar_masking(self):
        # The simulator's per-broadcast q-coin salt is a negative key.
        nodes = np.arange(50)
        batched = hash_to_unit_interval_array(5, nodes, -3)
        reference = [hash_to_unit_interval(5, int(v), -3) for v in nodes]
        assert batched.tolist() == reference

    def test_broadcasting_scalar_and_array_keys(self):
        nodes = np.arange(20)
        frames = np.arange(20) * 7
        batched = hash_to_unit_interval_array(1, nodes, frames)
        reference = [
            hash_to_unit_interval(1, int(n), int(f)) for n, f in zip(nodes, frames)
        ]
        assert batched.tolist() == reference

    def test_values_in_unit_interval(self):
        values = hash_to_unit_interval_array(11, np.arange(10_000))
        assert float(values.min()) >= 0.0
        assert float(values.max()) <= 1.0

    def test_returns_float64_of_input_shape(self):
        out = hash_to_unit_interval_array(3, np.arange(12).reshape(3, 4), 9)
        assert out.shape == (3, 4)
        assert out.dtype == np.float64


class TestFoldedStage:
    """A per-node stage folded once, then one round per coin (the ideal
    kernel's p- and q-coins), must equal the scalar hash."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=_KEY,
        pairs=st.lists(
            st.tuples(st.integers(min_value=0, max_value=499), _KEY),
            min_size=1, max_size=32,
        ),
    )
    def test_gathered_stage_then_key_equals_scalar(self, seed, pairs):
        # As in the q-coins: the stage of every node, gathered by node id,
        # then a frame key (>= 0) or a broadcast-scope key (-1 - index).
        nodes = np.array([node for node, _ in pairs])
        keys = np.array([key for _, key in pairs], dtype=np.int64)
        stage = hash_prefix_array(seed, np.arange(500))
        folded = hash_finish_array(stage[nodes], keys)
        reference = [hash_to_unit_interval(seed, node, key) for node, key in pairs]
        assert folded.tolist() == reference

    @settings(max_examples=100, deadline=None)
    @given(seed=_KEY, node_count=st.integers(1, 40), index=st.integers(0, 10_000))
    def test_stage_broadcasts_over_rows(self, seed, node_count, index):
        nodes = np.arange(node_count)
        rows = np.array([index, -1 - index])[:, None]
        folded = hash_finish_array(hash_prefix_array(seed, nodes), rows)
        assert folded.shape == (2, node_count)
        for r, key in enumerate((index, -1 - index)):
            assert folded[r].tolist() == [
                hash_to_unit_interval(seed, v, key) for v in range(node_count)
            ]

    def test_leading_scalar_keys_fold_like_the_scalar_chain(self):
        stage = hash_prefix_array(3, 5, np.arange(4))
        assert hash_finish_array(stage, -7).tolist() == [
            hash_to_unit_interval(3, 5, v, -7) for v in range(4)
        ]

    def test_prefix_is_uint64_state(self):
        stage = hash_prefix_array(1, np.arange(6))
        assert stage.dtype == np.uint64 and stage.shape == (6,)
        assert hash_finish_array(stage).tolist() == [
            hash_to_unit_interval(1, v) for v in range(6)
        ]


def whole_string_fold(base_seed, *labels):
    """The fold as one loop over the joined labels: the oracle."""
    acc = base_seed
    for ch in ":".join(str(label) for label in labels):
        acc = (acc * 1000003 + ord(ch)) & 0x7FFFFFFFFFFFFFFF
    return acc


_BASE_SEED = st.one_of(
    st.sampled_from([0, -1, -(2**63), 2**63 - 1, 2**63, 2**64 + 5, 2**80]),
    st.integers(min_value=-(2**70), max_value=2**70),
)
_LABEL = st.one_of(
    st.text(),  # unicode and the empty label included
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.booleans(),
)


class TestFoldSeed:
    @settings(max_examples=300, deadline=None)
    @given(base=_BASE_SEED, labels=st.lists(_LABEL, max_size=5))
    def test_equals_the_whole_string_fold(self, base, labels):
        assert fold_seed(base, *labels) == whole_string_fold(base, *labels)

    @settings(max_examples=300, deadline=None)
    @given(
        base=_BASE_SEED,
        head=st.lists(_LABEL, min_size=1, max_size=4),
        tail=st.lists(_LABEL, max_size=4),
    )
    def test_continuing_a_fold_equals_folding_every_label(self, base, head, tail):
        assert fold_seed_onward(fold_seed(base, *head), *tail) == whole_string_fold(
            base, *head, *tail
        )

    @settings(max_examples=100, deadline=None)
    @given(base=_BASE_SEED, head=st.lists(_LABEL, min_size=1, max_size=3))
    def test_per_seed_index_continuation(self, base, head):
        # As a campaign point folds its labels once and then each index.
        folded = fold_seed(base, *head)
        assert [fold_seed_onward(folded, index) for index in range(12)] == [
            fold_seed(base, *head, index) for index in range(12)
        ]

    def test_empty_labels(self):
        assert fold_seed_onward(fold_seed(9, ""), "") == fold_seed(9, "", "")
        assert fold_seed(2**64 + 5) == 2**64 + 5  # nothing folded, nothing masked
        assert fold_seed_onward(-3) == -3

    def test_pinned_values(self):
        # Folded before the fold was split in two.
        assert fold_seed(-5, "a", "") == 9223367036921776112
        assert fold_seed(2**64 + 3, "\u00fc\u00f1", 7) == 8089430481754649317


class TestNumpyIntegerKeys:
    """A numpy integer scalar or 0-d key wraps silently, as an int key does."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key", [
        np.int64(5), np.int64(-9), np.int64(-(2**63)), np.int32(7), np.int32(-3),
        np.uint64(2**64 - 1), np.uint64(12), np.asarray(11), np.asarray(-4),
        np.asarray(2**63, dtype=np.uint64),
    ], ids=repr)
    def test_scalar_keys_equal_the_scalar_hash(self, key):
        expected = hash_to_unit_interval(20050610, int(key))
        assert hash_to_unit_interval_array(20050610, key) == expected
        assert hash_to_unit_interval_array(20050610, 3, key) == hash_to_unit_interval(
            20050610, 3, int(key)
        )
        assert hash_to_unit_interval_array(20050610, key, -1) == hash_to_unit_interval(
            20050610, int(key), -1
        )
        assert hash_finish_array(hash_prefix_array(20050610), key) == expected
        stage = hash_prefix_array(20050610, np.arange(3))
        assert hash_finish_array(stage, key).tolist() == [
            hash_to_unit_interval(20050610, node, int(key)) for node in range(3)
        ]

    @pytest.mark.filterwarnings("error")
    def test_int_key_after_a_0d_prefix(self):
        assert hash_finish_array(hash_prefix_array(1), 5) == hash_to_unit_interval(1, 5)
