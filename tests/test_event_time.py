"""Event-time streaming: envelopes, watermarks, late arrivals, two-stack.

The engine promises: (1) pane assignment is driven by the *event*
clock, so out-of-order arrival within the allowed lateness lands every
report in its true window; (2) the watermark seals panes exactly when
``max event time − allowed_lateness`` passes their end, and a report
for a sealed pane is counted late — never silently dropped and never
absorbed; (3) every window estimate is bit-identical to the one-shot
batch over the reports absorbed into that window.
"""

import math

import numpy as np
import pytest

from repro.core import (
    PureAccumulator,
    TimedReports,
    batch_length,
    make_oracle,
    slice_report_batch,
)
from repro.core.budget import BudgetExceededError, PrivacyLedger
from repro.core.mechanism import HashedReports
from repro.protocol import (
    EventTimeCollector,
    WindowSpec,
    run_distributed_collection,
    stream_collection,
)
from repro.systems.microsoft import OneBitMean


def _privatized(oracle, n, *, d=8, seed=3):
    gen = np.random.default_rng(seed)
    values = gen.integers(0, d, n)
    return values, oracle.privatize(values, rng=int(seed) + 1)


class TestTimedReports:
    def test_envelope_validates_alignment(self):
        with pytest.raises(ValueError):
            TimedReports(np.array([1.0, 2.0]), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            TimedReports(np.array([[1.0]]), np.zeros((1, 4)))
        with pytest.raises(ValueError):
            TimedReports(np.array([np.nan]), np.zeros((1, 4)))

    def test_select_keeps_alignment(self):
        reports = HashedReports(
            seeds=np.arange(5, dtype=np.uint64), values=np.arange(5) % 3
        )
        timed = TimedReports(np.linspace(0, 1, 5), reports)
        sub = timed.select(np.array([True, False, True, False, True]))
        assert len(sub) == 3
        assert np.array_equal(sub.reports.seeds, [0, 2, 4])
        assert np.array_equal(sub.timestamps, [0.0, 0.5, 1.0])

    def test_slice_report_batch_handles_tuples_and_arrays(self):
        cohorts = np.arange(6)
        bits = np.arange(12).reshape(6, 2)
        sel = np.array([0, 2, 5])
        sliced = slice_report_batch((cohorts, bits), sel)
        assert isinstance(sliced, tuple)
        assert np.array_equal(sliced[0], [0, 2, 5])
        assert np.array_equal(sliced[1], bits[sel])
        assert batch_length((cohorts, bits)) == 6
        assert batch_length(np.zeros((4, 2))) == 4


class TestEventWindowSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSpec.event_tumbling(0.0)
        with pytest.raises(ValueError):
            WindowSpec.event_tumbling(2.0, allowed_lateness=-1.0)
        with pytest.raises(ValueError):
            WindowSpec.event_sliding(4.0, 1.5)  # 1.5 does not tile 4.0
        with pytest.raises(ValueError):
            WindowSpec.event_sliding(4.0, math.inf)  # NaN pane arithmetic
        with pytest.raises(ValueError):
            WindowSpec.event_tumbling(math.inf)
        with pytest.raises(ValueError):
            WindowSpec("event_tumbling", 2.0, 1.0)  # stride on tumbling
        with pytest.raises(ValueError):
            WindowSpec("tumbling", 10, allowed_lateness=1.0)  # count-time

    def test_geometry(self):
        spec = WindowSpec.event_sliding(4.0, 1.0, origin=10.0)
        assert spec.is_event_time and not spec.is_gapped
        assert spec.num_panes == 4
        assert spec.pane_span == 1.0
        assert spec.pane_bounds(2) == (12.0, 13.0)
        assert spec.window_bounds(5) == (12.0, 16.0)
        gapped = WindowSpec.event_sliding(1.0, 5.0)
        assert gapped.is_gapped and gapped.num_panes == 1
        assert gapped.window_bounds(2) == (10.0, 11.0)
        tumbling = WindowSpec.event_tumbling(2.0)
        assert tumbling.pane_span == 2.0
        assert tumbling.window_bounds(3) == (6.0, 8.0)

    def test_collectors_reject_wrong_spec_kind(self):
        # One collector serves both clocks; what stays refused is a
        # spec/clock mismatch: count windows need a size (their pane
        # cadence), read arrival ordinals rather than caller timestamps,
        # and event windows need timestamps.
        oracle = make_oracle("DE", 4, 1.0)
        with pytest.raises(ValueError, match="need a size"):
            WindowSpec("tumbling")
        with pytest.raises(ValueError, match="need a size"):
            WindowSpec("cumulative")
        with pytest.raises(ValueError, match="only apply to event-time"):
            stream_collection(
                oracle,
                np.arange(4),
                window=WindowSpec.tumbling(2),
                timestamps=np.arange(4.0),
            )
        with pytest.raises(ValueError, match="need timestamps"):
            stream_collection(
                oracle, np.arange(4), window=WindowSpec.event_tumbling(1.0)
            )
        with pytest.raises(TypeError):
            EventTimeCollector(oracle, WindowSpec.tumbling(10)).absorb(
                oracle.privatize(np.arange(4), rng=1)
            )


class TestEventTimeWindows:
    def test_shuffled_arrival_windows_equal_batches(self, slice_reports):
        oracle = make_oracle("OLH", 8, 1.4)
        n = 900
        _, reports = _privatized(oracle, n)
        ts = np.random.default_rng(5).uniform(0, 9, n)
        perm = np.random.default_rng(6).permutation(n)
        collector = EventTimeCollector(
            oracle, WindowSpec.event_tumbling(3.0, allowed_lateness=100.0)
        )
        for start in range(0, n, 128):
            idx = perm[start : start + 128]
            collector.absorb(TimedReports(ts[idx], slice_reports(reports, idx)))
        result = collector.finish()
        assert result.late_reports == 0
        assert result.absorbed_reports == n
        assert len(result) == 3
        for snap in result:
            mask = (ts >= snap.window_start) & (ts < snap.window_end)
            batch = (
                oracle.accumulator()
                .absorb(slice_reports(reports, mask))
                .finalize()
            )
            assert snap.window_users == int(mask.sum())
            assert np.array_equal(snap.window_estimates, batch)

    def test_event_sliding_overlap(self, slice_reports):
        oracle = make_oracle("OUE", 8, 1.2)
        n = 600
        _, reports = _privatized(oracle, n, seed=9)
        ts = np.sort(np.random.default_rng(10).uniform(0, 6, n))
        result = stream_collection(
            oracle,
            np.random.default_rng(9).integers(0, 8, n),
            window=WindowSpec.event_sliding(2.0, 1.0),
            timestamps=ts,
            chunk_size=100,
            rng=10,
        )
        # One window per pane; each spans (up to) two panes of data.
        assert [s.window_index for s in result] == list(range(len(result)))
        for snap in result:
            assert snap.window_end - snap.window_start == pytest.approx(2.0)
        assert result.absorbed_reports == n

    def test_event_window_bit_identity_via_driver(self, slice_reports):
        # The driver privatizes chunk by chunk; re-privatizing with the
        # same seed reproduces the reports, so windows can be checked
        # against batches over identical randomness.
        oracle = make_oracle("HR", 8, 1.3)
        n = 500
        values = np.random.default_rng(11).integers(0, 8, n)
        ts = np.random.default_rng(12).uniform(0, 5, n)
        result = stream_collection(
            oracle,
            values,
            window=WindowSpec.event_tumbling(1.0, allowed_lateness=10.0),
            timestamps=ts,
            chunk_size=n,  # one chunk → one privatize call
            rng=13,
        )
        reports = oracle.privatize(values, rng=np.random.default_rng(13))
        for snap in result:
            mask = (ts >= snap.window_start) & (ts < snap.window_end)
            batch = (
                oracle.accumulator()
                .absorb(slice_reports(reports, mask))
                .finalize()
            )
            assert np.array_equal(snap.window_estimates, batch)

    def test_gapped_event_windows_sample_each_period(self, slice_reports):
        oracle = make_oracle("DE", 6, 1.0)
        n = 400
        _, reports = _privatized(oracle, n, d=6, seed=20)
        # Period 4.0, window 1.0: only the first quarter of each period
        # lands in a window; the rest joins the cumulative view only.
        ts = np.random.default_rng(21).uniform(0, 8, n)
        collector = EventTimeCollector(
            oracle, WindowSpec.event_sliding(1.0, 4.0, allowed_lateness=10.0)
        )
        collector.absorb(TimedReports(ts, reports))
        result = collector.finish()
        assert result.absorbed_reports == n
        assert result.late_reports == 0
        in_window_total = 0
        for snap in result:
            mask = (ts >= snap.window_start) & (ts < snap.window_end)
            assert snap.window_end - snap.window_start == pytest.approx(1.0)
            assert snap.window_users == int(mask.sum())
            in_window_total += snap.window_users
        assert 0 < in_window_total < n
        # Cumulative still covers everything.
        assert result[-1].total_users == n
        whole = oracle.accumulator().absorb(reports).finalize()
        assert np.array_equal(result[-1].cumulative_estimates, whole)


class TestWatermark:
    def _collector(self, lateness, span=1.0, oracle=None):
        oracle = oracle or make_oracle("DE", 4, 1.0)
        return oracle, EventTimeCollector(
            oracle, WindowSpec.event_tumbling(span, allowed_lateness=lateness)
        )

    def _batch(self, oracle, ts):
        ts = np.asarray(ts, dtype=np.float64)
        reports = oracle.privatize(
            np.zeros(ts.shape[0], dtype=np.int64), rng=1
        )
        return TimedReports(ts, reports)

    def test_zero_lateness_seals_on_advance(self):
        oracle, col = self._collector(0.0)
        col.absorb(self._batch(oracle, [0.2, 0.8]))
        assert col.late_reports == 0
        col.absorb(self._batch(oracle, [1.5]))  # watermark → 1.5: pane 0 sealed
        col.absorb(self._batch(oracle, [0.9]))  # pane 0 is sealed → late
        result = col.finish()
        assert result.late_reports == 1
        assert result.absorbed_reports == 3
        assert [s.window_users for s in result] == [2, 1]

    def test_lateness_keeps_pane_open(self):
        oracle, col = self._collector(1.0)
        col.absorb(self._batch(oracle, [0.2, 0.8]))
        col.absorb(self._batch(oracle, [1.5]))  # watermark 0.5 < pane-0 end
        col.absorb(self._batch(oracle, [0.9]))  # still open → absorbed
        result = col.finish()
        assert result.late_reports == 0
        assert [s.window_users for s in result] == [3, 1]

    def test_report_older_than_every_open_pane_is_counted_late(self):
        oracle, col = self._collector(0.0)
        col.absorb(self._batch(oracle, [5.1]))
        col.absorb(self._batch(oracle, [5.2, 0.3]))  # 0.3: pane 0 long sealed
        result = col.finish()
        assert result.late_reports == 1
        assert result.absorbed_reports == 2
        # The late report shows up in the snapshots' running count.
        assert result[-1].late_reports == 1

    def test_report_newer_than_every_open_pane_seals_them(self):
        oracle, col = self._collector(0.0)
        col.absorb(self._batch(oracle, [0.5]))
        assert col.snapshots == []
        col.absorb(self._batch(oracle, [10.5]))  # far future: pane 0 seals now
        assert [s.window_index for s in col.snapshots][0] == 0
        assert col.snapshots[0].window_users == 1

    def test_duplicate_timestamps_at_window_boundary(self):
        # Half-open panes: every t == 2.0 report belongs to [2, 4), and
        # duplicates travel together no matter how arrival splits them.
        oracle, col = self._collector(0.0, span=2.0)
        col.absorb(self._batch(oracle, [1.0, 2.0, 2.0]))
        col.absorb(self._batch(oracle, [2.0, 3.9]))
        result = col.finish()
        assert result.late_reports == 0
        assert [s.window_users for s in result] == [1, 4]
        assert result[0].window_end == pytest.approx(2.0)
        assert result[1].window_start == pytest.approx(2.0)

    def test_empty_windows_are_emitted_between_data(self):
        oracle, col = self._collector(0.0)
        col.absorb(self._batch(oracle, [0.5]))
        col.absorb(self._batch(oracle, [2.5]))  # pane 1 is dead air
        result = col.finish()
        assert [s.window_index for s in result] == [0, 1, 2]
        empty = result[1]
        assert empty.window_users == 0
        assert empty.window_estimates is None
        assert empty.total_users == 2  # cumulative view unaffected

    def test_empty_windows_finalize_mechanisms_that_reject_n0(self):
        # 1BitMean's finalize raises at n=0; an empty pane must emit a
        # None-estimate window instead of crashing the stream.
        mech = OneBitMean(100.0, 1.0)
        col = EventTimeCollector(
            mech, WindowSpec.event_tumbling(1.0, allowed_lateness=0.0)
        )
        bits = mech.privatize(
            np.random.default_rng(30).uniform(0, 100, 10), rng=31
        )
        col.absorb(TimedReports(np.full(5, 0.5), bits[:5]))
        col.absorb(TimedReports(np.full(5, 2.5), bits[5:]))
        result = col.finish()
        assert result[1].window_estimates is None
        assert result[0].window_users == result[2].window_users == 5

    def test_dead_air_leap_never_seals_past_the_watermark(self):
        # Regression: a far-future report leaps the frontier over dead
        # air, but panes beyond the watermark are still open for late
        # data — a report ahead of the watermark must be absorbed, not
        # counted late.
        oracle, col = self._collector(10.0)
        col.absorb(self._batch(oracle, [0.5]))
        col.absorb(self._batch(oracle, [100.5]))  # watermark 90.5
        col.absorb(self._batch(oracle, [95.0]))  # ahead of the watermark
        assert col.late_reports == 0
        col.absorb(self._batch(oracle, [89.0]))  # behind it: late
        result = col.finish()
        assert result.late_reports == 1
        assert result.absorbed_reports == 3
        assert {s.window_index for s in result if s.window_users} == {0, 95, 100}

    @pytest.mark.parametrize("lateness", [0.0, 1.0])
    def test_dead_air_leap_caps_at_the_pane_holding_the_watermark(self, lateness):
        # The watermark t lies one ulp below -3.6, in pane -37 =
        # [-3.7, -3.6).  A bare floor put t in pane -36, and the leap
        # over dead air, capped by the same floor, sealed pane -37 while
        # the watermark was still inside it, so -3.65 was counted late.
        # With lateness 1 the newest report's pane lies beyond the
        # watermark's, so the cap alone decides where the leap stops.
        t = math.nextafter(-3.6, -math.inf)
        oracle, col = self._collector(lateness, span=0.1)
        assert col.spec.pane_index(np.array([t])).tolist() == [-37]
        for ts in (-10.0, t + lateness, -3.65):
            col.absorb(self._batch(oracle, [ts]))
        assert col.watermark == t
        assert col.late_reports == 0
        result = col.finish()
        assert result.absorbed_reports == 3

    def test_seal_cascade_merges_linearly_in_panes(self, monkeypatch):
        # finish() seals every open pane in one cascade.  Sealing moves
        # a pane but adds no report, so the cumulative view is merged
        # once for the cascade, not once per sealed pane (~P²/2 merges).
        merges = 0
        merge = PureAccumulator.merge

        def counted(self, other):
            nonlocal merges
            merges += 1
            return merge(self, other)

        panes = 240
        oracle = make_oracle("OLH", 16, 1.0)
        col = EventTimeCollector(
            oracle, WindowSpec.event_tumbling(1.0, allowed_lateness=panes)
        )
        ts = np.random.default_rng(5).uniform(0, panes, 20_000)
        col.absorb(self._batch(oracle, ts))
        assert col.pane_count == panes
        monkeypatch.setattr(PureAccumulator, "merge", counted)
        result = col.finish()
        assert len(result) == panes
        assert merges <= 4 * panes
        assert result[-1].total_users == ts.size

    def test_long_dead_air_is_compressed_not_enumerated(self):
        oracle, col = self._collector(0.0)
        col.absorb(self._batch(oracle, [0.5]))
        col.absorb(self._batch(oracle, [10_000_000.5]))
        result = col.finish()
        # Pane 0, one window of silence, then the far-future pane — the
        # millions of identical empty windows in between are elided.
        assert len(result) <= 4
        assert result[0].window_users == 1
        assert result[-1].window_users == 1
        assert result.absorbed_reports == 2

    def test_out_of_range_pane_index_is_rejected_not_wrapped(self):
        # A timestamp whose pane index exceeds int64 must raise, not
        # silently wrap (a wrapped index derails the sealing frontier
        # into an unbounded empty-window loop).
        oracle, col = self._collector(0.0)
        with pytest.raises(ValueError, match="pane index"):
            col.absorb(self._batch(oracle, [1e19, 0.5]))
        assert col.total_users == 0  # rejected before any routing

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["pos", "neg"])
    @pytest.mark.parametrize("path", ["collector", "service"])
    def test_pane_index_limit_is_shared(self, path, sign):
        # The collector and the service map timestamps to panes through
        # the same WindowSpec.pane_index: a pane index of exactly ±2^62
        # is refused on both paths, the largest float below it accepted.
        from repro.protocol import ShardFolder

        oracle = make_oracle("DE", 4, 1.0)
        spec = WindowSpec.event_tumbling(1.0)

        def offer(ts):
            batch = TimedReports(
                np.array([ts]), oracle.privatize(np.array([1]), rng=2)
            )
            if path == "collector":
                EventTimeCollector(oracle, spec).absorb(batch)
            else:
                ShardFolder(oracle, worker_id=0, window=spec).offer("e0", batch)

        with pytest.raises(ValueError, match="pane index"):
            offer(sign * 2.0**62)
        offer(sign * np.nextafter(2.0**62, 0.0))

    def test_nan_timestamps_rejected_without_phantom_charges(self):
        oracle = make_oracle("OLH", 8, 1.0)
        ledger = PrivacyLedger(epsilon_cap=5.0)
        with pytest.raises(ValueError, match="finite"):
            stream_collection(
                oracle,
                np.random.default_rng(56).integers(0, 8, 4),
                window=WindowSpec.event_tumbling(1.0),
                timestamps=np.array([0.1, 0.2, np.nan, 0.3]),
                rng=57,
                ledger=ledger,
            )
        assert len(ledger) == 0  # no phantom pane spends
        col = EventTimeCollector(oracle, WindowSpec.event_tumbling(1.0), ledger=ledger)
        with pytest.raises(ValueError, match="finite"):
            col.charge_for(np.array([np.nan]))
        assert len(ledger) == 0
        col.charge_for(3.0)  # scalar input charges pane 3 cleanly
        assert len(ledger) == 1

    def test_finish_is_idempotent_and_closes_absorption(self):
        oracle, col = self._collector(0.0)
        col.absorb(self._batch(oracle, [0.1]))
        first = col.finish()
        assert len(col.finish()) == len(first)
        with pytest.raises(ValueError):
            col.absorb(self._batch(oracle, [0.2]))

    def test_absorb_requires_envelope(self):
        oracle, col = self._collector(0.0)
        with pytest.raises(TypeError):
            col.absorb(oracle.privatize(np.zeros(3, dtype=np.int64), rng=1))


class TestGapOnlyStreams:
    def test_gap_only_stream_still_emits_windows(self):
        # Sampling spec where every report lands in a gap: the periods'
        # (empty) windows are still emitted and the cumulative view
        # surfaces the gap reports.
        oracle = make_oracle("DE", 4, 1.0)
        spec = WindowSpec.event_sliding(0.5, 2.0, allowed_lateness=0.0)
        reports = oracle.privatize(np.zeros(3, dtype=np.int64), rng=1)
        col = EventTimeCollector(oracle, spec)
        col.absorb(TimedReports(np.array([0.7, 0.9, 2.6]), reports))
        result = col.finish()
        assert result.absorbed_reports == 3 and result.late_reports == 0
        assert len(result) >= 1
        for snap in result:
            assert snap.window_users == 0  # windows sample only [start, start+size)
        assert result[-1].total_users == 3
        whole = oracle.accumulator().absorb(reports).finalize()
        assert np.array_equal(result[-1].cumulative_estimates, whole)


class TestEventTimeAccounting:
    def test_disjoint_users_parallel_per_event_window(self):
        oracle = make_oracle("OLH", 8, 1.25)
        n = 300
        values = np.random.default_rng(40).integers(0, 8, n)
        ts = np.sort(np.random.default_rng(41).uniform(0, 3, n))
        result = stream_collection(
            oracle,
            values,
            window=WindowSpec.event_tumbling(1.0),
            timestamps=ts,
            rng=42,
            user_model="disjoint_users",
        )
        # Parallel composition across event-time windows: worst window.
        assert math.isclose(result.ledger.total_epsilon, 1.25)
        assert len(result.ledger) == 3
        # Spends are keyed by event-time identity, not arrival ordinal.
        assert {s.group for s in result.ledger.spends} == {
            "window-0[0,1)", "window-1[1,2)", "window-2[2,3)"
        }

    def test_envelope_charges_a_new_pane_between_charged_panes(self):
        # The first envelope charges panes 0 and 2; the second spans
        # panes 0..2, so only its interior pane 1 is new, and it must be
        # charged even though both ends of the span already are.
        oracle = make_oracle("OLH", 8, 1.0)
        col = EventTimeCollector(
            oracle,
            WindowSpec.event_tumbling(1.0, allowed_lateness=10.0),
            user_model="disjoint_users",
        )
        reports = oracle.privatize(np.arange(5), rng=60)
        first = slice_report_batch(reports, slice(0, 2))
        col.absorb(TimedReports(np.array([0.5, 2.5]), first))
        assert len(col.ledger) == 2
        second = slice_report_batch(reports, slice(2, 5))
        col.absorb(TimedReports(np.array([0.6, 1.5, 2.6]), second))
        assert {s.group for s in col.ledger.spends} == {
            "window-0[0,1)", "window-1[1,2)", "window-2[2,3)"
        }

    def test_disjoint_groups_distinct_at_epoch_timestamps(self):
        # Regression: %g bound formatting alone collides adjacent
        # windows at epoch-second magnitudes; the pane index keeps the
        # parallel groups (and hence the eps total) honest.
        oracle = make_oracle("OLH", 8, 1.0)
        epoch = 1.72e9
        ts = epoch + np.arange(8, dtype=np.float64) * 3600.0
        result = stream_collection(
            oracle,
            np.random.default_rng(58).integers(0, 8, 8),
            window=WindowSpec.event_tumbling(3600.0),
            timestamps=ts,
            rng=59,
            user_model="disjoint_users",
        )
        assert len({s.group for s in result.ledger.spends}) == 8
        assert math.isclose(result.ledger.total_epsilon, 1.0)

    def test_same_users_fresh_composes_sequentially(self):
        oracle = make_oracle("OLH", 8, 1.0)
        n = 300
        ts = np.sort(np.random.default_rng(43).uniform(0, 3, n))
        result = stream_collection(
            oracle,
            np.random.default_rng(44).integers(0, 8, n),
            window=WindowSpec.event_tumbling(1.0),
            timestamps=ts,
            rng=45,
        )
        assert math.isclose(result.ledger.total_epsilon, 3.0)

    def test_capped_ledger_refuses_whole_envelope(self):
        # An envelope spanning two panes where the second pane's charge
        # breaks the cap: the whole envelope is refused before anything
        # absorbs, so a retry after raising the cap cannot double-count.
        oracle = make_oracle("OLH", 8, 1.0)
        ledger = PrivacyLedger(epsilon_cap=1.5)
        col = EventTimeCollector(
            oracle, WindowSpec.event_tumbling(1.0), ledger=ledger
        )
        reports = oracle.privatize(
            np.random.default_rng(48).integers(0, 8, 2), rng=49
        )
        with pytest.raises(BudgetExceededError):
            col.absorb(TimedReports(np.array([0.5, 1.5]), reports))
        assert col.total_users == 0  # nothing absorbed from the envelope
        assert col.late_reports == 0
        assert col.watermark == -math.inf  # nor was the watermark moved
        assert len(ledger) == 0  # and no spend was recorded for any pane
        # Raising the cap lets the identical envelope through cleanly.
        ledger.epsilon_cap = 2.0
        col.absorb(TimedReports(np.array([0.5, 1.5]), reports))
        assert col.total_users == 2
        assert len(ledger) == 2

    def test_driver_charges_before_privatizing(self):
        # The event driver knows pane identities from the timestamps, so
        # the refused window's clients are never privatized: privatize
        # runs once (window 0) and the second chunk is refused up front.
        calls = []
        inner = make_oracle("OLH", 8, 1.0)

        class _Counting:
            def __getattr__(self, name):
                return getattr(inner, name)

            def privatize(self, values, rng=None):
                calls.append(len(values))
                return inner.privatize(values, rng=rng)

        ledger = PrivacyLedger(epsilon_cap=1.5)
        ts = np.concatenate([np.full(50, 0.5), np.full(50, 1.5)])
        with pytest.raises(BudgetExceededError):
            stream_collection(
                _Counting(),
                np.random.default_rng(54).integers(0, 8, 100),
                window=WindowSpec.event_tumbling(1.0),
                timestamps=ts,
                chunk_size=50,
                rng=55,
                ledger=ledger,
            )
        assert calls == [50]  # window 1's clients never randomized
        assert len(ledger) == 1

    def test_refused_envelope_counts_no_late_reports(self):
        # A refused envelope is refused whole: its late stragglers are
        # not counted either, so a retry cannot double-count them.
        oracle = make_oracle("OLH", 8, 1.0)
        ledger = PrivacyLedger(epsilon_cap=2.5)
        col = EventTimeCollector(
            oracle, WindowSpec.event_tumbling(1.0), ledger=ledger
        )
        reports = oracle.privatize(
            np.random.default_rng(52).integers(0, 8, 4), rng=53
        )
        col.absorb(
            TimedReports(np.array([0.5, 5.5]), slice_report_batch(reports, np.arange(2)))
        )
        # Envelope: one straggler for long-sealed pane 0 + one report
        # opening over-budget pane 7.
        with pytest.raises(BudgetExceededError):
            col.absorb(
                TimedReports(
                    np.array([0.2, 7.5]), slice_report_batch(reports, np.arange(2, 4))
                )
            )
        assert col.late_reports == 0
        ledger.epsilon_cap = 3.5
        col.absorb(
            TimedReports(
                np.array([0.2, 7.5]), slice_report_batch(reports, np.arange(2, 4))
            )
        )
        result = col.finish()
        assert result.late_reports == 1  # counted exactly once, on success
        assert result.absorbed_reports == 3

    def test_capped_ledger_refuses_before_pane_absorbs(self):
        oracle = make_oracle("OLH", 8, 1.0)
        ledger = PrivacyLedger(epsilon_cap=1.5)
        col = EventTimeCollector(
            oracle, WindowSpec.event_tumbling(1.0), ledger=ledger
        )
        reports = oracle.privatize(
            np.random.default_rng(46).integers(0, 8, 20), rng=47
        )
        col.absorb(TimedReports(np.full(10, 0.5), slice_report_batch(reports, np.arange(10))))
        with pytest.raises(BudgetExceededError):
            col.absorb(
                TimedReports(
                    np.full(10, 1.5), slice_report_batch(reports, np.arange(10, 20))
                )
            )
        assert len(ledger) == 1
        assert col.total_users == 10  # the refused pane absorbed nothing


class TestShardedTimestamps:
    def test_misaligned_timestamps_rejected(self):
        oracle = make_oracle("DE", 4, 1.0)
        with pytest.raises(ValueError, match="align"):
            run_distributed_collection(
                oracle, np.arange(4), num_ingest=2, timestamps=np.arange(3.0)
            )

    def test_driver_validation(self):
        oracle = make_oracle("DE", 4, 1.0)
        with pytest.raises(ValueError):
            stream_collection(
                oracle,
                np.arange(4),
                window=WindowSpec.event_tumbling(1.0),  # no timestamps
            )
        with pytest.raises(ValueError):
            stream_collection(
                oracle,
                np.arange(4),
                window_size=2,
                timestamps=np.arange(4.0),  # count windows take no timestamps
            )
