"""Unit tests for the data-driven window machinery.

Covers the seams one layer at a time: `WindowSpec` validation names
the offending field; the session collector's charge/absorb lifecycle
stays atomic and commitment-consistent; and the session geometry's
open-pane bookkeeping (sessions, starts and open panes kept aligned)
survives hundreds of shuffled opens, extents and bridges.  End-to-end
session semantics live in `tests/property/test_session_windows.py`.
"""

import math

import numpy as np
import pytest

from repro.core import TimedReports
from repro.core.budget import BudgetExceededError, PrivacyLedger
from repro.core.estimation import make_oracle
from repro.protocol import EventTimeCollector, WindowSpec


class TestWindowSpecValidation:
    """Every bad duration fails fast, with the field named."""

    def test_session_rejects_nonpositive_gap(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="gap"):
                WindowSpec.session(bad)

    def test_session_rejects_nonfinite_gap(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="gap"):
                WindowSpec.session(bad)

    def test_session_requires_gap(self):
        with pytest.raises(ValueError, match="gap"):
            WindowSpec("session")

    def test_session_rejects_size_and_stride(self):
        with pytest.raises(ValueError, match="size"):
            WindowSpec("session", size=5.0, gap=1.0)
        with pytest.raises(ValueError, match="stride"):
            WindowSpec("session", stride=5.0, gap=1.0)

    def test_gap_only_applies_to_sessions(self):
        for kind in ("tumbling", "cumulative", "event_tumbling"):
            with pytest.raises(ValueError, match="gap"):
                WindowSpec(kind, size=4, gap=1.0)

    def test_event_windows_reject_nonpositive_size(self):
        for bad in (0.0, -2.0, math.inf):
            with pytest.raises(ValueError, match="size"):
                WindowSpec.event_tumbling(bad)

    def test_event_sliding_rejects_nonpositive_stride(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="stride"):
                WindowSpec.event_sliding(4.0, bad)

    def test_missing_event_size_names_the_field(self):
        with pytest.raises(ValueError, match="size"):
            WindowSpec("event_tumbling")
        with pytest.raises(ValueError, match="stride"):
            WindowSpec("event_sliding", size=4.0)

    def test_negative_lateness_rejected_everywhere(self):
        with pytest.raises(ValueError, match="allowed_lateness"):
            WindowSpec.event_tumbling(1.0, allowed_lateness=-0.5)
        with pytest.raises(ValueError, match="allowed_lateness"):
            WindowSpec.session(1.0, allowed_lateness=-0.5)
        with pytest.raises(ValueError, match="allowed_lateness"):
            WindowSpec.session(1.0, allowed_lateness=math.inf)

    def test_nonfinite_origin_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            WindowSpec.event_tumbling(1.0, origin=math.nan)
        with pytest.raises(ValueError, match="origin"):
            WindowSpec.session(1.0, origin=math.inf)

    def test_session_geometry_properties(self):
        spec = WindowSpec.session(2.5, allowed_lateness=1.0)
        assert spec.is_event_time
        assert spec.is_data_driven
        assert spec.num_panes == 1
        assert spec.pane_span is None
        with pytest.raises(ValueError, match="data"):
            spec.pane_bounds(0)

    def test_fixed_kinds_are_not_data_driven(self):
        assert not WindowSpec.event_tumbling(1.0).is_data_driven
        assert not WindowSpec.tumbling(10).is_data_driven


class TestSessionCollectorLifecycle:
    def _collector(self, **kwargs):
        oracle = make_oracle("OLH", 8, 1.0)
        reports = oracle.privatize(
            np.random.default_rng(90).integers(0, 8, 16), rng=91
        )
        spec = WindowSpec.session(5.0, allowed_lateness=kwargs.pop("lateness", 0.0))
        return oracle, reports, EventTimeCollector(oracle, spec, **kwargs)

    def test_charge_for_is_a_commitment(self, slice_reports):
        # charge_for opens (and charges) the session before any report
        # is absorbed; the reports that then arrive at those times do
        # not charge again.
        oracle, reports, col = self._collector(user_model="disjoint_users")
        col.charge_for(np.array([1.0, 2.0]))
        assert col.pane_count == 1
        assert len(col.ledger) == 1
        assert col.total_users == 0
        col.absorb(
            TimedReports(np.array([1.0, 2.0]), slice_reports(reports, [0, 1]))
        )
        assert len(col.ledger) == 1  # still the one provisional charge
        assert col.total_users == 2

    def test_charge_for_empty_session_still_emits(self, slice_reports):
        # A committed session nobody reported into seals as an empty
        # window: charged, emitted with no estimate, never dropped.
        oracle, reports, col = self._collector(user_model="disjoint_users")
        col.charge_for(np.array([1.0]))
        col.absorb(
            TimedReports(np.array([100.0]), slice_reports(reports, [0]))
        )
        result = col.finish()
        assert len(result) == 2
        empty, live = result.snapshots
        assert (empty.window_start, empty.window_end) == (1.0, 6.0)
        assert empty.window_users == 0
        assert empty.window_estimates is None
        assert live.window_users == 1
        assert len(result.ledger) == 2

    def test_charge_for_behind_horizon_charges_nothing(self, slice_reports):
        oracle, reports, col = self._collector()
        col.absorb(TimedReports(np.array([0.0]), slice_reports(reports, [0])))
        col.absorb(TimedReports(np.array([50.0]), slice_reports(reports, [1])))
        charged = len(col.ledger)
        col.charge_for(np.array([1.0]))  # behind the sealed horizon
        assert len(col.ledger) == charged
        assert col.pane_count == 1

    def test_capped_ledger_refuses_whole_session_envelope(self, slice_reports):
        # An envelope opening two sessions where the second charge
        # breaks the cap is refused whole: no session opens, nothing
        # absorbs, no late count, and a retry after raising the cap
        # cannot double-count.
        oracle, reports, col = self._collector(
            ledger=PrivacyLedger(epsilon_cap=1.5), lateness=1.0
        )
        envelope = TimedReports(
            np.array([0.0, 100.0]), slice_reports(reports, [0, 1])
        )
        with pytest.raises(BudgetExceededError):
            col.absorb(envelope)
        assert col.pane_count == 0
        assert col.total_users == 0
        assert col.late_reports == 0
        assert col.watermark == -math.inf
        assert len(col.ledger) == 0
        col.ledger.epsilon_cap = 2.0
        col.absorb(envelope)
        # The retry lands cleanly; its watermark then seals the older
        # of the two sessions it opened.
        assert col.pane_count == 1
        assert len(col.snapshots) == 1
        assert col.total_users == 2
        assert len(col.ledger) == 2

    def test_refused_session_envelope_rolls_back_merge_plans(
        self, slice_reports
    ):
        # One envelope carrying a bridge *and* an over-budget new
        # session: the whole plan must roll back, leaving both open
        # sessions unmerged and their charges untouched.
        oracle, reports, col = self._collector(
            ledger=PrivacyLedger(epsilon_cap=2.5), lateness=50.0
        )
        col.absorb(
            TimedReports(np.array([0.0]), slice_reports(reports, [0]))
        )
        col.absorb(
            TimedReports(np.array([8.0]), slice_reports(reports, [1]))
        )
        assert col.pane_count == 2
        envelope = TimedReports(
            np.array([4.0, 200.0]), slice_reports(reports, [2, 3])
        )
        with pytest.raises(BudgetExceededError):
            col.absorb(envelope)
        assert col.pane_count == 2  # the bridge merge did not apply
        assert col.coalesced_panes == 0
        assert col.total_users == 2
        assert len(col.ledger) == 2
        col.ledger.epsilon_cap = None
        col.absorb(envelope)
        assert col.coalesced_panes == 1
        assert col.total_users == 4
        # The merged session then seals under the advanced watermark.
        assert col.pane_count == 1
        (snap,) = col.snapshots
        assert (snap.window_start, snap.window_end) == (0.0, 13.0)
        assert snap.window_users == 3

    def test_same_users_session_spends_are_ungrouped(self, slice_reports):
        oracle, reports, col = self._collector(lateness=0.0)
        col.absorb(TimedReports(np.array([0.0]), slice_reports(reports, [0])))
        col.absorb(TimedReports(np.array([50.0]), slice_reports(reports, [1])))
        result = col.finish()
        assert len(result) == 2
        assert [s.group for s in result.ledger.spends] == [None, None]
        assert math.isclose(
            result.ledger.total_epsilon, 2 * oracle.privacy_spend().epsilon
        )

    def test_disjoint_users_groups_carry_final_identities(self, slice_reports):
        oracle, reports, col = self._collector(
            lateness=0.0, user_model="disjoint_users"
        )
        col.absorb(TimedReports(np.array([0.0]), slice_reports(reports, [0])))
        col.absorb(TimedReports(np.array([50.0]), slice_reports(reports, [1])))
        result = col.finish()
        groups = sorted(s.group for s in result.ledger.spends)
        assert groups == ["session-0[0,5)", "session-1[50,55)"]
        assert math.isclose(
            result.ledger.total_epsilon, oracle.privacy_spend().epsilon
        )


class TestManyOpenSessions:
    """Regression for the O(S²) open-session bookkeeping.

    The sweep used to locate sessions with ``list.index`` and a linear
    ``_insert_position`` scan; with hundreds of concurrent open
    sessions that made every envelope O(S²).  The bisect structure
    keeps a ``_starts`` mirror that must stay strictly increasing and,
    with the open ``_panes``, aligned with ``_sessions`` under
    out-of-order opens, extent updates and merges — checked here at
    every stage.
    """

    GAP = 2.0
    SPACING = 3.0  # 1.5 x gap: sessions stay pairwise > gap apart
    S = 240  # concurrent open sessions

    def _check_alignment(self, collector):
        geometry = collector._geometry
        starts = [s.start for s in geometry._sessions]
        assert geometry._starts == starts
        assert len(geometry._panes) == len(starts)
        assert all(a < b for a, b in zip(starts, starts[1:]))

    def test_shuffled_opens_extends_and_merges(self, slice_reports):
        oracle = make_oracle("OUE", 4, 1.0)
        S, gap = self.S, self.GAP
        opens = self.SPACING * np.arange(S, dtype=np.float64)
        extends = opens + 0.5
        bridges = opens[0::2] + 1.5  # merge each even session into its successor
        ts = np.concatenate([opens, extends, bridges])
        n = ts.size
        reports = oracle.privatize(
            np.random.default_rng(7).integers(0, 4, n), rng=8
        )
        spec = WindowSpec.session(gap, allowed_lateness=1e9)
        collector = EventTimeCollector(oracle, spec)
        gen = np.random.default_rng(9)

        # Round 1: opens arrive shuffled — bisect inserts land mid-list.
        for i in gen.permutation(S):
            collector.absorb(TimedReports(ts[[i]], slice_reports(reports, [i])))
        assert collector.pane_count == S
        self._check_alignment(collector)

        # Round 2: shuffled extent updates against S open sessions.
        for i in gen.permutation(np.arange(S, 2 * S)):
            collector.absorb(TimedReports(ts[[i]], slice_reports(reports, [i])))
        assert collector.pane_count == S
        self._check_alignment(collector)

        # Round 3: bridges merge every even session with its successor.
        for i in gen.permutation(np.arange(2 * S, n)):
            collector.absorb(TimedReports(ts[[i]], slice_reports(reports, [i])))
        assert collector.pane_count == S // 2
        assert collector.coalesced_panes == S // 2
        self._check_alignment(collector)

        result = collector.finish()
        assert result.absorbed_reports == n
        assert result.late_reports == 0
        assert len(result) == S // 2
        for k, snap in enumerate(sorted(result, key=lambda s: s.window_start)):
            start = opens[2 * k]
            assert snap.window_start == start
            assert snap.window_end == start + self.SPACING + 0.5 + gap
            assert snap.window_users == 5
