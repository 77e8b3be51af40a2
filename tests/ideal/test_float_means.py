"""Float means equal the builtin ``sum`` without boxing every value.

``CampaignResult`` means must be what ``sum(values.tolist())`` gives on
the running interpreter.  Before CPython 3.12 that ``sum`` is a plain
left-to-right loop, which ``_sum_left_to_right`` computes with numpy;
from 3.12 on ``_builtin_sum`` calls the builtin itself.  The active
branch is checked against the builtin here, and the numpy branch against
a stdlib emulation of its loop on every interpreter.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import PBBFParams
from repro.ideal.simulator import IdealSimulator, _builtin_sum, _mean, _sum_left_to_right
from repro.net.topology import GridTopology


def loop_left_to_right(values):
    """CPython 3.10-3.11 ``sum`` over floats: ``0 + x0``, then ``+ x``."""
    total = 0.0
    for x in values:
        total = total + x
    return total


def same(a, b):
    """Equal to the bit, -0.0 apart from 0.0; any NaN equals any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
MAGNITUDES = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(-1.0, 1.0),
    st.integers(-300, 300),
)
VALUES = st.lists(st.one_of(FLOATS, MAGNITUDES), max_size=60)

EDGE_CASES = [
    [],
    [0.7],
    [-0.0],
    [-0.0, -0.0],
    [0.0, -0.0],
    [math.inf],
    [math.inf, -math.inf],
    [math.inf, 1.0],
    [math.nan],
    [1.0, math.nan, 2.0],
    [1e308, 1e308],
    [1e308, 1e308, -1e308],
    [1e16, 1.0, -1e16],
    [0.1] * 10,
    [1e-300, 1e300, -1e300, 5e-324],
    [3.0, 1e-17, 1e-17, 1e-17, -3.0],
]


class TestBuiltinSum:
    @pytest.mark.parametrize("values", EDGE_CASES)
    def test_edge_cases(self, values):
        array = np.array(values, dtype=np.float64)
        assert same(_builtin_sum(array), float(sum(array.tolist())))
        assert same(_sum_left_to_right(array), loop_left_to_right(values))

    @settings(max_examples=400, deadline=None)
    @given(values=VALUES)
    def test_equals_builtin_sum(self, values):
        array = np.array(values, dtype=np.float64)
        assert same(_builtin_sum(array), float(sum(array.tolist())))

    @settings(max_examples=400, deadline=None)
    @given(values=VALUES)
    def test_left_to_right_equals_its_loop(self, values):
        array = np.array(values, dtype=np.float64)
        assert same(_sum_left_to_right(array), loop_left_to_right(values))

    def test_returns_python_floats(self):
        assert type(_sum_left_to_right(np.array([0.5, 0.25]))) is float


class TestMean:
    def test_empty_is_none(self):
        assert _mean(np.array([])) is None

    @pytest.mark.parametrize("values", [v for v in EDGE_CASES if v])
    def test_builtin_sum_over_length(self, values):
        array = np.array(values, dtype=np.float64)
        assert same(_mean(array), sum(array.tolist()) / len(values))

    def test_campaign_means_equal_the_boxed_sums(self):
        # The boxed formulas: the builtin sum over .tolist().
        result = IdealSimulator(
            GridTopology(12), PBBFParams(0.5, 0.4), seed=3
        ).run_campaign(9)
        relayed = result.hops > 0
        latency = result.receive_times - result.t_generated[:, None]
        per_hop = (latency[relayed] / result.hops[relayed]).tolist()
        assert result.mean_per_hop_latency() == sum(per_hop) / len(per_hop)
        n_reached = np.count_nonzero(result.hops >= 0, axis=1)
        coverage = (n_reached / result.hops.shape[1]).tolist()
        assert result.mean_coverage() == sum(coverage) / len(coverage)
        nodes = result.nodes_at_distance(4)
        reached = result.hops[:, nodes] >= 0
        at_four = (result.receive_times[:, nodes] - result.t_generated[:, None])[reached]
        expected = sum(at_four.tolist()) / len(at_four)
        assert result.mean_latency_at_distance(4) == expected
