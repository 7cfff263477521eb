"""Streaming/windowed collection: the evolving-data shape.

The collector snapshots live accumulators, which is only sound because
finalize is pure and merge never mutates its argument.  These tests pin
the count-time window algebra (tumbling + sliding + gapped +
cumulative on the arrival-ordinal clock), the equality of the final
cumulative snapshot with the one-shot batch estimate, the snapshots'
non-destructiveness (emitting a window must not disturb the stream),
and the privacy accounting threaded through every window.
"""

import math

import numpy as np
import pytest

from repro.core import ORACLE_REGISTRY, OptimalLocalHashing, make_oracle
from repro.core.budget import BudgetExceededError, PrivacyLedger
from repro.core.timed import TimedReports, batch_length
from repro.protocol import (
    EventTimeCollector,
    WindowSpec,
    run_sharded_collection,
    stream_collection,
)
from repro.systems.microsoft import OneBitMean, RepeatedCollector
from repro.systems.rappor import RapporAggregator, RapporParams, privatize_population


def _feed(collector, reports):
    """Hand ``reports`` to a count-time collector as its next arrivals.

    A count window is an event window on the arrival-ordinal clock:
    each report's timestamp is its 0-based position in the stream.
    """
    start = collector.total_users + collector.late_reports
    ordinals = np.arange(start, start + batch_length(reports), dtype=np.float64)
    return collector.absorb(TimedReports(ordinals, reports))


class TestStreamingCollector:
    """The one collector on count-time specs (the arrival-ordinal clock)."""

    def test_snapshot_is_repeatable_and_non_destructive(self):
        oracle = OptimalLocalHashing(16, 1.5)
        gen = np.random.default_rng(1)
        chunk_a = oracle.privatize(gen.integers(0, 16, 500), rng=gen)
        chunk_b = oracle.privatize(gen.integers(0, 16, 500), rng=gen)
        col = EventTimeCollector(oracle, WindowSpec.tumbling(500))
        _feed(col, chunk_a)  # its last arrival seals window 0
        s1 = col.snapshots[0]
        s2 = col.snapshots[0]
        assert np.array_equal(s1.cumulative_estimates, s2.cumulative_estimates)
        assert np.array_equal(s1.window_estimates, s2.window_estimates)
        # Sealing did not disturb the stream: absorbing more afterwards
        # lands exactly where an unsnapshotted accumulator would.
        _feed(col, chunk_b)
        expected = oracle.accumulator().absorb(chunk_a).absorb(chunk_b).finalize()
        assert col.total_users == 1000
        assert np.array_equal(col.snapshots[-1].cumulative_estimates, expected)

    def test_roll_closes_tumbling_windows(self):
        oracle = make_oracle("DE", 8, 1.0)
        col = EventTimeCollector(oracle, WindowSpec.tumbling(300))
        gen = np.random.default_rng(3)
        first = oracle.privatize(gen.integers(0, 8, 300), rng=gen)
        second = oracle.privatize(gen.integers(0, 8, 200), rng=gen)
        (snap0,) = _feed(col, first).snapshots  # sealed on its last arrival
        assert snap0.window_index == 0
        assert snap0.window_users == 300
        assert (snap0.window_start, snap0.window_end) == (0.0, 300.0)
        _feed(col, second)
        assert len(col.snapshots) == 1  # window 1 is still filling
        snap1 = col.finish()[-1]
        assert snap1.window_index == 1
        assert snap1.window_users == 200
        assert snap1.total_users == 500
        # Tumbling estimates cover only their window's reports.
        assert np.array_equal(
            snap1.window_estimates, oracle.estimate_counts(second)
        )

    def test_empty_stream_snapshot_is_graceful(self):
        # Polling a just-started stream must not crash, even for
        # mechanisms whose finalize rejects n=0 (1BitMean).
        for factory in (lambda: make_oracle("DE", 8, 1.0),
                        lambda: OneBitMean(100.0, 1.0)):
            col = EventTimeCollector(factory(), WindowSpec.tumbling(10))
            assert col.total_users == 0
            assert col.snapshots == []
            result = col.finish()
            assert len(result) == 0
            assert result.total_reports == 0

    @pytest.mark.parametrize("name", sorted(ORACLE_REGISTRY))
    def test_final_cumulative_snapshot_equals_one_shot_batch(
        self, name, slice_reports
    ):
        oracle = make_oracle(name, 8, 1.2)
        values = np.random.default_rng(7).integers(0, 8, size=900)
        reports = oracle.privatize(values, rng=8)
        whole = oracle.estimate_counts(reports)
        col = EventTimeCollector(oracle, WindowSpec.tumbling(225))
        order = np.arange(900)
        for start in range(0, 900, 225):
            mask = (order >= start) & (order < start + 225)
            _feed(col, slice_reports(reports, mask))
        final = col.finish()[-1]
        assert final.total_users == 900
        # Bitwise for every oracle — SHE's accumulator sums exactly.
        assert np.array_equal(final.cumulative_estimates, whole)

    def test_works_with_non_frequency_mechanisms(self):
        # Anything with an accumulator() streams — Microsoft's 1BitMean
        # is the evolving-telemetry case in the flesh.
        mech = OneBitMean(100.0, 1.0)
        xs = np.random.default_rng(9).uniform(0, 100, size=600)
        bits = mech.privatize(xs, rng=10)
        col = EventTimeCollector(mech, WindowSpec.tumbling(300))
        _feed(col, bits[:300])
        _feed(col, bits[300:])
        final = col.finish()[-1]
        assert final.total_users == 600
        assert float(final.cumulative_estimates[0]) == mech.estimate_mean(bits)


class TestStreamCollectionDriver:
    def test_window_schedule_and_coverage(self):
        oracle = make_oracle("OLH", 16, 1.5)
        values = np.random.default_rng(11).integers(0, 16, size=2600)
        snaps = stream_collection(
            oracle, values, window_size=1000, chunk_size=300, rng=12
        )
        assert [s.window_users for s in snaps] == [1000, 1000, 600]
        assert [s.window_index for s in snaps] == [0, 1, 2]
        assert snaps[-1].total_users == 2600
        assert all(s.snapshot_seconds >= 0.0 for s in snaps)

    def test_estimates_land_near_truth(self):
        oracle = make_oracle("DE", 8, 2.0)
        values = np.arange(8).repeat(500)
        snaps = stream_collection(
            oracle, values, window_size=2000, chunk_size=512, rng=13
        )
        sd = oracle.count_stddev(4000, f=1 / 8)
        assert np.all(
            np.abs(snaps[-1].cumulative_estimates - 500) < 6 * sd
        )

    def test_validation(self):
        oracle = make_oracle("DE", 4, 1.0)
        with pytest.raises(ValueError):
            stream_collection(oracle, np.arange(4), window_size=0)
        with pytest.raises(ValueError):
            stream_collection(oracle, np.zeros((2, 2)), window_size=2)
        with pytest.raises(ValueError):
            stream_collection(oracle, np.arange(4))  # no window at all
        with pytest.raises(ValueError):
            stream_collection(
                oracle,
                np.arange(4),
                window_size=2,
                window=WindowSpec.tumbling(2),  # both is ambiguous
            )

    def test_result_is_sequence_with_ledger(self):
        oracle = make_oracle("DE", 8, 1.0)
        result = stream_collection(
            oracle, np.arange(8).repeat(50), window_size=100, rng=5
        )
        assert len(result) == 4
        assert result[-1].total_users == 400
        assert [s.window_index for s in result] == [0, 1, 2, 3]
        assert isinstance(result.ledger, PrivacyLedger)
        assert len(result.ledger) == 4  # one fresh release per window


class TestWindowSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            WindowSpec("hopping", 10)

    def test_sliding_needs_size_and_stride(self):
        with pytest.raises(ValueError):
            WindowSpec("sliding", 10)
        with pytest.raises(ValueError):
            WindowSpec.sliding(10, 3)  # stride must tile the window

    def test_gapped_sliding_is_supported(self):
        spec = WindowSpec.sliding(10, 40)  # sampling/decimated windows
        assert spec.is_gapped
        assert spec.num_panes == 1
        assert spec.pane_size == 40

    def test_stride_rejected_off_sliding(self):
        with pytest.raises(ValueError):
            WindowSpec("tumbling", 10, 5)

    def test_geometry(self):
        assert WindowSpec.tumbling(100).num_panes == 1
        assert WindowSpec.tumbling(100).pane_size == 100
        assert WindowSpec.sliding(300, 100).num_panes == 3
        assert WindowSpec.sliding(300, 100).pane_size == 100
        assert WindowSpec.cumulative(50).num_panes == 1


class TestSlidingWindows:
    def test_driver_schedule(self):
        oracle = make_oracle("OLH", 16, 1.5)
        values = np.random.default_rng(21).integers(0, 16, size=1100)
        result = stream_collection(
            oracle,
            values,
            window=WindowSpec.sliding(400, 200),
            chunk_size=128,
            rng=22,
        )
        # One snapshot per stride; windows grow to full size then slide.
        assert [s.window_users for s in result] == [200, 400, 400, 400, 400, 300]
        assert all(s.pane_count <= 2 for s in result)
        assert result[-1].total_users == 1100

    def test_cumulative_window_is_stream_so_far(self):
        oracle = make_oracle("DE", 8, 1.0)
        result = stream_collection(
            oracle,
            np.arange(8).repeat(40),
            window=WindowSpec.cumulative(80),
            rng=23,
        )
        for snap in result:
            assert snap.window_users == snap.total_users
            assert np.array_equal(snap.window_estimates, snap.cumulative_estimates)


class TestPrivacyAccounting:
    def test_same_users_fresh_composes_sequentially(self):
        oracle = make_oracle("OLH", 8, 1.25)
        result = stream_collection(
            oracle,
            np.random.default_rng(31).integers(0, 8, 600),
            window_size=200,
            rng=32,
            user_model="same_users",
        )
        assert math.isclose(result.ledger.total_epsilon, 3 * 1.25)
        # The snapshot trajectory exposes the running spend.
        assert [round(s.total_epsilon, 6) for s in result] == [1.25, 2.5, 3.75]

    def test_disjoint_users_compose_in_parallel(self):
        oracle = make_oracle("OLH", 8, 1.25)
        result = stream_collection(
            oracle,
            np.random.default_rng(33).integers(0, 8, 600),
            window_size=200,
            rng=34,
            user_model="disjoint_users",
        )
        assert math.isclose(result.ledger.total_epsilon, 1.25)
        assert len(result.ledger) == 3  # audit trail keeps every window

    def test_memoized_release_charged_once_per_stream(self):
        # RAPPOR declares a one-time ε∞ release: streaming any number of
        # windows over the same population charges it exactly once.
        params = RapporParams(num_bits=16, num_hashes=2, num_cohorts=2)
        aggregator = RapporAggregator(params, 5)
        cohorts, bits = privatize_population(
            params, np.random.default_rng(35).integers(0, 10, 300), 5, rng=36
        )
        col = EventTimeCollector(aggregator, WindowSpec.tumbling(100))
        for w in range(3):
            sel = slice(w * 100, (w + 1) * 100)
            _feed(col, (cohorts[sel], bits[sel]))
        assert len(col.snapshots) == 3
        assert len(col.ledger) == 1
        assert math.isclose(col.ledger.total_epsilon, params.epsilon_permanent)

    def test_capped_ledger_raises_mid_stream(self):
        # Fresh-mode repeated windows over the same users: the third
        # window would break the cap and must be refused before any of
        # its reports are absorbed.
        oracle = make_oracle("OLH", 8, 1.0)
        ledger = PrivacyLedger(epsilon_cap=2.5)
        with pytest.raises(BudgetExceededError):
            stream_collection(
                oracle,
                np.random.default_rng(37).integers(0, 8, 800),
                window_size=200,
                rng=38,
                ledger=ledger,
            )
        # Two windows fit; the stream died at the third.
        assert len(ledger) == 2
        assert math.isclose(ledger.total_epsilon, 2.0)

    def test_repeated_collector_fresh_mode_hits_cap(self):
        collector = RepeatedCollector(100.0, epsilon=1.0, mode="fresh")
        traj = np.random.default_rng(39).uniform(0, 100, size=(50, 5))
        ledger = PrivacyLedger(epsilon_cap=3.0)
        with pytest.raises(BudgetExceededError):
            collector.run(traj, rng=40, ledger=ledger)
        assert len(ledger) == 3  # rounds 0-2 collected, round 3 refused

    def test_repeated_collector_memoized_fits_any_horizon(self):
        collector = RepeatedCollector(100.0, epsilon=1.0, mode="memoized_op")
        traj = np.random.default_rng(41).uniform(0, 100, size=(50, 12))
        ledger = PrivacyLedger(epsilon_cap=1.0)
        run = collector.run(traj, rng=42, ledger=ledger)
        assert run.ledger is ledger
        assert math.isclose(run.total_epsilon, 1.0)
        assert len(run.rounds) == 12

    def test_sharded_collection_returns_populated_ledger(self):
        oracle = make_oracle("OUE", 8, 1.5)
        stats = run_sharded_collection(
            oracle,
            np.random.default_rng(43).integers(0, 8, 400),
            num_shards=2,
            rng=44,
        )
        assert stats.ledger is not None
        assert math.isclose(stats.ledger.total_epsilon, 1.5)

    def test_onebit_stream_is_accounted(self):
        mech = OneBitMean(100.0, 1.0)
        bits = mech.privatize(
            np.random.default_rng(45).uniform(0, 100, 300), rng=46
        )
        col = EventTimeCollector(mech, WindowSpec.tumbling(150))
        _feed(col, bits[:150])
        _feed(col, bits[150:])
        assert len(col.snapshots) == 2
        assert math.isclose(col.ledger.total_epsilon, 2.0)

    def test_user_model_validation(self):
        with pytest.raises(ValueError):
            EventTimeCollector(
                make_oracle("DE", 4, 1.0),
                WindowSpec.tumbling(10),
                user_model="strangers",
            )

    def test_independent_streams_sharing_a_ledger_each_pay(self):
        # One-time charges are scoped per release: two collectors (two
        # independent memoized releases) on one ledger must charge twice.
        params = RapporParams(num_bits=16, num_hashes=2, num_cohorts=2)
        aggregator = RapporAggregator(params, 5)
        cohorts, bits = privatize_population(
            params, np.random.default_rng(47).integers(0, 10, 200), 5, rng=48
        )
        shared = PrivacyLedger()
        for _ in range(2):
            col = EventTimeCollector(
                aggregator, WindowSpec.tumbling(200), ledger=shared
            )
            _feed(col, (cohorts, bits))
            _feed(col, (cohorts, bits))  # replay within stream: free
        assert len(shared) == 2
        assert math.isclose(shared.total_epsilon, 2 * params.epsilon_permanent)

    def test_repeated_memoized_runs_sharing_a_ledger_each_pay(self):
        # Each run draws fresh memo bits — an independent release; a
        # shared capped ledger must refuse the second, not wave it
        # through as a replay.
        collector = RepeatedCollector(100.0, epsilon=1.0, mode="memoized")
        traj = np.random.default_rng(49).uniform(0, 100, size=(40, 3))
        shared = PrivacyLedger(epsilon_cap=1.5)
        collector.run(traj, rng=50, ledger=shared)
        with pytest.raises(BudgetExceededError):
            collector.run(traj, rng=51, ledger=shared)
        assert math.isclose(shared.total_epsilon, 1.0)

    def test_repeated_sharded_collections_each_charge(self):
        # Every call privatizes fresh randomness: two collections on one
        # ledger are two releases even for a one-time-declaring oracle.
        from repro.core.budget import SpendDeclaration

        class _MemoizedOracle:
            def __init__(self):
                self._inner = make_oracle("DE", 8, 1.5)

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def privacy_spend(self):
                return SpendDeclaration(
                    epsilon=1.5, scope="one_time", mechanism="MemoDE"
                )

        oracle = _MemoizedOracle()
        values = np.random.default_rng(52).integers(0, 8, 60)
        shared = PrivacyLedger()
        for _ in range(2):
            run_sharded_collection(
                oracle, values, num_shards=2, chunk_size=30, rng=53, ledger=shared
            )
        assert len(shared) == 2
        assert math.isclose(shared.total_epsilon, 3.0)

    def test_rappor_clients_sharing_a_ledger_each_pay(self):
        from repro.systems.rappor.client import RapporClient

        params = RapporParams(num_bits=16, num_hashes=2, num_cohorts=2)
        shared = PrivacyLedger()
        for cohort in (0, 1):
            client = RapporClient(params, cohort, 9, rng=cohort, ledger=shared)
            client.report(3)
            client.report(3)  # same value, same device: memoized, free
        assert len(shared) == 2
        assert math.isclose(shared.total_epsilon, 2 * params.epsilon_permanent)


class TestGappedWindows:
    def test_driver_samples_each_period(self):
        oracle = make_oracle("OLH", 16, 1.5)
        values = np.random.default_rng(60).integers(0, 16, size=1000)
        result = stream_collection(
            oracle,
            values,
            window=WindowSpec.sliding(50, 200),  # sample 50 of every 200
            chunk_size=64,
            rng=61,
        )
        assert [s.window_users for s in result] == [50] * 5
        # The gap users still reach the cumulative view.
        assert result[-1].total_users == 1000
        assert result.absorbed_reports == 1000

    def test_gapped_cumulative_equals_batch(self):
        # Window/gap splitting must not change what was collected: the
        # final cumulative estimate equals the one-shot batch over the
        # same reports (same rng stream; chunk boundaries differ, which
        # the exact accumulator algebra makes invisible).
        oracle = make_oracle("DE", 8, 1.2)
        values = np.random.default_rng(62).integers(0, 8, size=600)
        result = stream_collection(
            oracle,
            values,
            window=WindowSpec.sliding(30, 120),
            chunk_size=45,  # straddles the window/gap boundary
            rng=63,
        )
        assert result[-1].total_users == 600
        assert [s.window_users for s in result] == [30] * 5

    def test_gapped_window_charges_once_per_period(self):
        oracle = make_oracle("OLH", 8, 1.0)
        result = stream_collection(
            oracle,
            np.random.default_rng(64).integers(0, 8, 600),
            window=WindowSpec.sliding(100, 300),
            rng=65,
        )
        # Two periods: the gap reports ride on their period's charge.
        assert len(result.ledger) == 2
        assert math.isclose(result.ledger.total_epsilon, 2.0)


class TestPaneStores:
    def test_two_stack_snapshot_merges_constant_components(self):
        # Whatever the pane count, a two-stack window view is built from
        # at most two sealed-pane components (+ the open pane).
        from repro.protocol.streaming import TwoStackPaneStore

        oracle = make_oracle("OUE", 8, 1.0)
        two_stack = TwoStackPaneStore(oracle.accumulator)
        for seed in range(17):
            reports = oracle.privatize(np.arange(8).repeat(3), rng=seed)
            two_stack.push(oracle.accumulator().absorb(reports))
        assert len(two_stack.window_components()) <= 2


class TestAdvancedComposition:
    def test_trajectories_basic_vs_advanced(self):
        # Many small-ε windows: the advanced bound's √k growth beats the
        # linear basic sum (that's what it is for); with only a few
        # windows the slack term makes it worse — both directions pinned.
        oracle = make_oracle("OLH", 8, 0.05)
        values = np.random.default_rng(80).integers(0, 8, 2000)
        basic = stream_collection(
            oracle, values, window_size=20, rng=81, composition="basic"
        )
        advanced = stream_collection(
            oracle, values, window_size=20, rng=81, composition="advanced"
        )
        assert advanced.composition == "advanced"
        # Identical spends recorded either way — composition is the lens.
        assert len(basic.ledger) == len(advanced.ledger) == 100
        k = np.arange(1, 101)
        basic_traj = np.array([s.total_epsilon for s in basic])
        adv_traj = np.array([s.total_epsilon for s in advanced])
        assert np.allclose(basic_traj, 0.05 * k)
        # Advanced loses while k is small, wins once k is large.
        assert adv_traj[0] > basic_traj[0]
        assert adv_traj[-1] < basic_traj[-1]
        # And matches the ledger's own advanced total at stream end.
        eps_adv, _ = advanced.ledger.total_advanced(1e-9)
        assert math.isclose(adv_traj[-1], eps_adv)

    def test_advanced_cap_refuses_before_absorbing(self):
        # 10 windows at ε=0.5 cost 5.0 under basic composition but more
        # under the advanced bound at this slack — the advanced stream
        # must die earlier than the basic one against the same cap.
        oracle = make_oracle("OLH", 8, 0.5)
        values = np.random.default_rng(82).integers(0, 8, 1000)
        cap = 4.0
        basic_ledger = PrivacyLedger(epsilon_cap=cap)
        with pytest.raises(BudgetExceededError):
            stream_collection(
                oracle, values, window_size=100, rng=83, ledger=basic_ledger
            )
        advanced_ledger = PrivacyLedger(epsilon_cap=cap)
        with pytest.raises(BudgetExceededError):
            stream_collection(
                oracle,
                values,
                window_size=100,
                rng=83,
                ledger=advanced_ledger,
                composition="advanced",
            )
        assert len(advanced_ledger) < len(basic_ledger)
        # Nothing was recorded for the refused advanced window.
        eps_adv, _ = advanced_ledger.total_advanced(1e-9)
        assert eps_adv <= cap + 1e-9

    def test_advanced_cap_admits_streams_basic_would_refuse(self):
        # The whole point of the advanced option: many small-eps windows
        # whose basic sum breaks the cap but whose DRV bound fits run to
        # completion under composition="advanced".
        oracle = make_oracle("OLH", 8, 0.05)
        values = np.random.default_rng(88).integers(0, 8, 2000)
        cap = 4.0
        with pytest.raises(BudgetExceededError):
            stream_collection(
                oracle, values, window_size=20, rng=89,
                ledger=PrivacyLedger(epsilon_cap=cap),
            )
        ledger = PrivacyLedger(epsilon_cap=cap)
        result = stream_collection(
            oracle, values, window_size=20, rng=89,
            ledger=ledger, composition="advanced",
        )
        assert len(result) == 100  # all windows collected
        eps_adv, _ = ledger.total_advanced(1e-9)
        assert eps_adv <= cap
        # The basic total exceeds the cap — only the advanced lens fits.
        assert ledger.total_epsilon > cap

    def test_composition_validation(self):
        with pytest.raises(ValueError):
            EventTimeCollector(
                make_oracle("DE", 4, 1.0), WindowSpec.tumbling(10), composition="rdp"
            )
        with pytest.raises(ValueError):
            EventTimeCollector(
                make_oracle("DE", 4, 1.0), WindowSpec.tumbling(10), delta_slack=0.0
            )

    def test_advanced_cap_applies_to_one_time_declarations(self):
        # A one-time release whose *advanced* total exceeds the cap must
        # be refused before charging — the first charge records a spend
        # like any other, and only free replays bypass the check.
        from repro.core.budget import SpendDeclaration

        class _MemoOracle:
            def __init__(self):
                self._inner = make_oracle("DE", 8, 1.0)

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def privacy_spend(self):
                return SpendDeclaration(
                    epsilon=1.0, scope="one_time", mechanism="MemoDE"
                )

        from repro.core.budget import PrivacySpend

        oracle = _MemoOracle()
        eps_adv, _ = PrivacyLedger(
            spends=[PrivacySpend(epsilon=1.0)]
        ).total_advanced(1e-9)
        assert eps_adv > 2.0  # the slack term dominates at k=1
        ledger = PrivacyLedger(epsilon_cap=2.0)
        with pytest.raises(BudgetExceededError):
            stream_collection(
                oracle,
                np.random.default_rng(84).integers(0, 8, 100),
                window_size=50,
                rng=85,
                ledger=ledger,
                composition="advanced",
            )
        assert len(ledger) == 0  # refused before anything was recorded

    def test_advanced_one_time_replays_stay_free(self):
        # Once charged, replays of the memoized release record nothing
        # and must not re-trip the advanced cap.
        params = RapporParams(num_bits=16, num_hashes=2, num_cohorts=2)
        aggregator = RapporAggregator(params, 5)
        cohorts, bits = privatize_population(
            params, np.random.default_rng(86).integers(0, 10, 300), 5, rng=87
        )
        from repro.core.budget import PrivacySpend

        eps_adv, _ = PrivacyLedger(
            spends=[PrivacySpend(epsilon=params.epsilon_permanent)]
        ).total_advanced(1e-9)
        ledger = PrivacyLedger(epsilon_cap=eps_adv + 0.1)
        col = EventTimeCollector(
            aggregator,
            WindowSpec.tumbling(100),
            ledger=ledger,
            composition="advanced",
        )
        for w in range(3):
            sel = slice(w * 100, (w + 1) * 100)
            _feed(col, (cohorts[sel], bits[sel]))
        assert len(col.snapshots) == 3
        assert len(ledger) == 1  # charged once; replays free
