"""Property tests for the windowing engine's correctness invariants.

Promises the pane-store design makes, checked for every registered
core oracle *and* every system stack:

* **window = batch**: each tumbling/sliding window's finalized estimate
  is bit-identical to the one-shot batch estimate over exactly that
  window's reports, for any pane geometry.  SHE included — its
  accumulator sums exactly, so merge grouping cannot move a single bit.  The reports are privatized
  once and sliced, so the comparison is over identical randomness.
* **event-time window = batch**: with timestamped reports arriving
  *shuffled*, every event-time window's estimate is bit-identical to
  the batch over the reports whose timestamps fall in that window, and
  every report is accounted (absorbed or late).
* **bounded memory**: on count-time specs the collector never holds
  more than ``WindowSpec.num_panes`` pane accumulators (store + open
  pane), no matter how many windows the stream has sealed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TimedReports
from repro.core.estimation import ORACLE_REGISTRY, make_oracle
from repro.protocol import EventTimeCollector, WindowSpec
from repro.systems.apple import CountMeanSketch, HadamardCountMeanSketch
from repro.systems.apple.cms import CmsReports, HcmsReports
from repro.systems.microsoft import DBitFlip, OneBitMean
from repro.systems.microsoft.dbitflip import DBitFlipReports
from repro.systems.rappor import RapporAggregator, RapporParams, privatize_population


def _assert_windows_equal_batches(oracle, reports, slicer, n, spec):
    """Drive ``reports`` through a collector pane by pane; compare every
    window snapshot against the one-shot batch over that window's users.

    Count windows run on the arrival-ordinal clock: each pane's reports
    arrive stamped with their stream positions, and the pane's window
    is emitted as soon as its last report is absorbed (the final,
    possibly short, pane at ``finish``)."""
    order = np.arange(n)
    stride = spec.pane_size
    collector = EventTimeCollector(oracle, spec)
    pane_starts = list(range(0, n, stride))
    for k, start in enumerate(pane_starts):
        end = min(start + stride, n)
        mask = (order >= start) & (order < end)
        collector.absorb(
            TimedReports(order[mask].astype(np.float64), slicer(reports, mask))
        )
        if end == n:
            collector.finish()
        snap = collector.snapshots[k]

        # The live window spans the last num_panes panes ending at `end`.
        win_start = pane_starts[max(0, k - spec.num_panes + 1)]
        window_mask = (order >= win_start) & (order < end)
        batch = (
            oracle.accumulator().absorb(slicer(reports, window_mask)).finalize()
        )
        assert snap.window_users == int(window_mask.sum())
        assert np.array_equal(snap.window_estimates, batch)

        # Pane-store memory bound: store + open pane never exceeds num_panes.
        assert snap.pane_count <= spec.num_panes
        assert collector.pane_count <= spec.num_panes

    # Stream end: the cumulative view equals the batch over everything.
    whole = oracle.accumulator().absorb(reports).finalize()
    final = collector.finish()[-1]
    assert final.total_users == n
    assert np.array_equal(final.cumulative_estimates, whole)


def _assert_event_windows_equal_batches(
    oracle, reports, slicer, n, spec, *, seed, chunk=96
):
    """Shuffle arrival, stream through the event-time engine, and compare
    every emitted window against the batch over its event interval."""
    gen = np.random.default_rng(seed)
    ts = gen.uniform(0.0, 8.0, n)
    arrival = gen.permutation(n)
    collector = EventTimeCollector(oracle, spec)
    for start in range(0, n, chunk):
        idx = arrival[start : start + chunk]
        collector.absorb(TimedReports(ts[idx], slicer(reports, idx)))
    result = collector.finish()
    assert result.absorbed_reports + result.late_reports == n
    assert result.late_reports == 0  # lateness covers the whole shuffle
    covered = 0
    for snap in result:
        mask = (ts >= snap.window_start) & (ts < snap.window_end)
        batch = oracle.accumulator().absorb(slicer(reports, mask)).finalize()
        assert snap.window_users == int(mask.sum())
        if snap.window_users:
            assert np.array_equal(snap.window_estimates, batch)
        else:
            assert snap.window_estimates is None
        if spec.kind == "event_tumbling":
            covered += snap.window_users
    if spec.kind == "event_tumbling":
        assert covered == n  # tumbling windows partition the event clock
    final = result[-1]
    whole = oracle.accumulator().absorb(reports).finalize()
    assert final.total_users == n
    assert np.array_equal(final.cumulative_estimates, whole)


@pytest.mark.parametrize("name", sorted(ORACLE_REGISTRY))
@given(
    panes=st.integers(1, 4),
    stride=st.sampled_from([40, 80, 120]),
)
@settings(max_examples=6, deadline=None)
def test_core_oracle_windows_equal_batches(name, slice_reports, panes, stride):
    oracle = make_oracle(name, 9, 1.4)
    n = 480
    values = np.random.default_rng(31).integers(0, 9, size=n)
    reports = oracle.privatize(values, rng=32)
    spec = (
        WindowSpec.tumbling(stride)
        if panes == 1
        else WindowSpec.sliding(panes * stride, stride)
    )
    _assert_windows_equal_batches(oracle, reports, slice_reports, n, spec)


@pytest.mark.parametrize("name", sorted(ORACLE_REGISTRY))
@pytest.mark.parametrize(
    "spec",
    [
        WindowSpec.event_tumbling(2.0, allowed_lateness=16.0),
        WindowSpec.event_sliding(4.0, 2.0, allowed_lateness=16.0),
        WindowSpec.event_sliding(1.0, 4.0, allowed_lateness=16.0),
    ],
    ids=["event-tumbling", "event-sliding", "event-gapped"],
)
def test_core_oracle_event_windows_equal_batches(name, slice_reports, spec):
    oracle = make_oracle(name, 9, 1.4)
    n = 480
    values = np.random.default_rng(33).integers(0, 9, size=n)
    reports = oracle.privatize(values, rng=34)
    _assert_event_windows_equal_batches(
        oracle, reports, slice_reports, n, spec, seed=35
    )


def _system_cases():
    """(label, mechanism, report batch, n, slicer) per system stack."""
    gen = np.random.default_rng(202)

    cms = CountMeanSketch(300, 2.0, k=4, m=64, master_seed=3)
    cms_reports = cms.privatize(gen.integers(0, 300, 600), rng=4)

    hcms = HadamardCountMeanSketch(300, 2.0, k=4, m=64, master_seed=3)
    hcms_reports = hcms.privatize(gen.integers(0, 300, 600), rng=5)

    params = RapporParams(num_bits=32, num_hashes=2, num_cohorts=4)
    rappor = RapporAggregator(params, 6)
    cohorts, bits = privatize_population(
        params, gen.integers(0, 20, 600), 6, rng=7
    )

    db = DBitFlip(num_buckets=24, d=6, epsilon=1.0)
    db_reports = db.privatize(gen.integers(0, 24, 600), rng=8)

    ob = OneBitMean(50.0, 1.0)
    ob_bits = ob.privatize(gen.uniform(0, 50, 600), rng=9)

    return [
        (
            "cms",
            cms,
            cms_reports,
            600,
            lambda r, m: CmsReports(hash_indices=r.hash_indices[m], rows=r.rows[m]),
        ),
        (
            "hcms",
            hcms,
            hcms_reports,
            600,
            lambda r, m: HcmsReports(
                hash_indices=r.hash_indices[m], coords=r.coords[m], bits=r.bits[m]
            ),
        ),
        (
            "rappor",
            rappor,
            (cohorts, bits),
            600,
            lambda r, m: (r[0][m], r[1][m]),
        ),
        (
            "dbitflip",
            db,
            db_reports,
            600,
            lambda r, m: DBitFlipReports(
                bucket_indices=r.bucket_indices[m], bits=r.bits[m]
            ),
        ),
        ("onebit", ob, ob_bits, 600, lambda r, m: r[m]),
    ]


_SYSTEM_CASES = _system_cases()


@pytest.mark.parametrize(
    "label,mechanism,reports,n,slicer",
    _SYSTEM_CASES,
    ids=[c[0] for c in _SYSTEM_CASES],
)
@pytest.mark.parametrize(
    "spec",
    [
        WindowSpec.tumbling(150),
        WindowSpec.sliding(300, 100),
        WindowSpec.sliding(200, 50),
    ],
    ids=["tumbling", "sliding-3x100", "sliding-4x50"],
)
def test_system_stack_windows_equal_batches(
    label, mechanism, reports, n, slicer, spec
):
    _assert_windows_equal_batches(mechanism, reports, slicer, n, spec)


@pytest.mark.parametrize(
    "label,mechanism,reports,n,slicer",
    _SYSTEM_CASES,
    ids=[c[0] for c in _SYSTEM_CASES],
)
@pytest.mark.parametrize(
    "spec",
    [
        WindowSpec.event_tumbling(2.0, allowed_lateness=16.0),
        WindowSpec.event_sliding(4.0, 2.0, allowed_lateness=16.0),
    ],
    ids=["event-tumbling", "event-sliding"],
)
def test_system_stack_event_windows_equal_batches(
    label, mechanism, reports, n, slicer, spec
):
    _assert_event_windows_equal_batches(
        mechanism, reports, slicer, n, spec, seed=sum(map(ord, label))
    )


@given(panes=st.integers(2, 6), rolls=st.integers(8, 24))
@settings(max_examples=10, deadline=None)
def test_pane_store_never_exceeds_capacity(panes, rolls):
    # Structural bound, independent of workload: after any number of
    # sealed panes the store holds at most num_panes accumulators.
    oracle = make_oracle("OUE", 8, 1.0)
    spec = WindowSpec.sliding(panes * 10, 10)
    col = EventTimeCollector(oracle, spec)
    gen = np.random.default_rng(panes * 1000 + rolls)
    for k in range(rolls):
        ordinals = np.arange(10 * k, 10 * (k + 1), dtype=np.float64)
        col.absorb(
            TimedReports(
                ordinals, oracle.privatize(gen.integers(0, 8, 10), rng=gen)
            )
        )
        assert len(col.snapshots) == k + 1  # the pane sealed
        assert col.pane_count <= spec.num_panes
