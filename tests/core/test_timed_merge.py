"""Unit tests for the fleet watermark merge helper."""

import math

import pytest

from repro.core.timed import merged_watermark


class TestMergedWatermark:
    def test_empty_is_minus_inf(self):
        assert merged_watermark([]) == -math.inf

    def test_all_none_is_minus_inf(self):
        assert merged_watermark([None, None]) == -math.inf

    def test_single_shard_is_its_frontier(self):
        assert merged_watermark([42.0]) == 42.0

    def test_minimum_over_live_shards(self):
        assert merged_watermark([10.0, 3.0, 99.0]) == 3.0

    def test_stale_shard_holds_the_fleet_back(self):
        # One straggler pins the merged watermark no matter how far the
        # rest of the fleet has read.
        frontiers = [1e9, 1e9, 7.0, 1e9]
        assert merged_watermark(frontiers) == 7.0

    def test_none_shards_are_excluded(self):
        assert merged_watermark([None, 12.0, None]) == 12.0

    def test_drained_shard_reports_plus_inf(self):
        # A drained shard cannot hold anything back; all-drained fleets
        # have watermark +inf (everything seals).
        assert merged_watermark([math.inf, 5.0]) == 5.0
        assert merged_watermark([math.inf, math.inf]) == math.inf

    def test_nan_frontier_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            merged_watermark([1.0, math.nan])
