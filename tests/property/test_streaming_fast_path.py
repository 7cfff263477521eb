"""Property tests for the streaming fast path.

The vectorized session sweep and the stream driver's coalescing of
arrival slices are *pure* performance work: every estimate, extent,
coalesce count, late count and ledger identity must be reproducible
from the slow reference implementations they replaced.  Checked here:

* **vectorized == reference**: the numpy gap-clustering sweep
  (`_SessionPaneGeometry._clusters`) produces bit-identical results to
  the per-report reference walk (`_reference_clusters`) — sealed
  windows (serials, extents, users, estimates), coalesce counts,
  straggler/late accounting and disjoint-users ledger groups — over
  shuffled bursty arrivals, for every registered core oracle and every
  system stack.
* **driver == one fold per slice**: `stream_collection` folds
  consecutive arrival slices as one envelope only while the watermark
  they bring cannot change how a report is judged nor seal a pane, so
  it equals the collector fed one slice at a time — snapshots, serials,
  late counts, coalesced panes and ledger entries, bitwise — on event,
  session and count streams with stragglers, at the float boundary of
  a pane end, and when a capped ledger refuses a window while slices
  wait unfolded.
* **coalesced service fold == unbatched**: `ShardFolder.offer_batch`
  folding several delivery envelopes at once yields the same combiner
  result as per-envelope `offer`, with duplicate-delivery dedup
  preserved across coalesced batches.
"""

import numpy as np
import pytest

from repro.core import BudgetExceededError, PrivacyLedger, TimedReports
from repro.core.estimation import ORACLE_REGISTRY, make_oracle
from repro.core.timed import slice_report_batch
from repro.protocol import (
    CombinerCore,
    EventTimeCollector,
    ShardFolder,
    WindowSpec,
    stream_collection,
)
from repro.protocol import streaming
from repro.protocol.streaming import _arrival_slices

from test_count_windows_golden import _ledger
from test_event_windows_golden import _stream as _record
from test_session_windows import _bursty_times
from test_windowing import _SYSTEM_CASES


def _stream(oracle, reports, slicer, ts, arrival, spec, *, chunk, reference,
            **kwargs):
    collector = EventTimeCollector(oracle, spec, **kwargs)
    if reference:
        collector._geometry.use_reference_sweep = True
    for start in range(0, arrival.size, chunk):
        idx = arrival[start : start + chunk]
        collector.absorb(TimedReports(ts[idx], slicer(reports, idx)))
    return collector, collector.finish()


def _assert_bit_identical(a_pair, b_pair):
    """Everything the engine emits, bitwise — serials included."""
    (ca, a), (cb, b) = a_pair, b_pair
    assert len(a) == len(b)
    assert a.absorbed_reports == b.absorbed_reports
    assert a.late_reports == b.late_reports
    assert a.coalesced_panes == b.coalesced_panes
    for x, y in zip(a, b):
        assert x.window_index == y.window_index
        assert (x.window_start, x.window_end) == (y.window_start, y.window_end)
        assert x.window_users == y.window_users
        assert x.total_users == y.total_users
        assert x.late_reports == y.late_reports
        assert np.array_equal(x.window_estimates, y.window_estimates)
        assert np.array_equal(x.cumulative_estimates, y.cumulative_estimates)
    assert [s.group for s in ca.ledger.spends] == [
        s.group for s in cb.ledger.spends
    ]
    assert ca.ledger.total_epsilon == cb.ledger.total_epsilon


def _run_both_sweeps(oracle, reports, slicer, n, *, gap, seed, **kwargs):
    ts, gen = _bursty_times(n, gap=gap, bursts=5, seed=seed)
    arrival = gen.permutation(n)
    spec = WindowSpec.session(gap, allowed_lateness=1e6)
    fast = _stream(
        oracle, reports, slicer, ts, arrival, spec,
        chunk=7, reference=False, **kwargs,
    )
    slow = _stream(
        oracle, reports, slicer, ts, arrival, spec,
        chunk=7, reference=True, **kwargs,
    )
    assert fast[1].coalesced_panes > 0  # the merge path genuinely ran
    _assert_bit_identical(fast, slow)
    return fast[1]


@pytest.mark.parametrize("name", sorted(ORACLE_REGISTRY))
def test_vectorized_sweep_matches_reference_core_oracles(name, slice_reports):
    oracle = make_oracle(name, 9, 1.4)
    n = 360
    values = np.random.default_rng(90).integers(0, 9, size=n)
    reports = oracle.privatize(values, rng=91)
    result = _run_both_sweeps(
        oracle, reports, slice_reports, n,
        gap=2.0, seed=92, user_model="disjoint_users",
    )
    assert result.absorbed_reports == n


@pytest.mark.parametrize(
    "label,mechanism,reports,n,slicer",
    _SYSTEM_CASES,
    ids=[c[0] for c in _SYSTEM_CASES],
)
def test_vectorized_sweep_matches_reference_system_stacks(
    label, mechanism, reports, n, slicer
):
    _run_both_sweeps(
        mechanism, reports, slicer, n, gap=2.0, seed=sum(map(ord, label))
    )


def test_vectorized_sweep_matches_reference_with_stragglers(slice_reports):
    # Zero lateness seals aggressively; stragglers behind the sealed
    # horizon must be counted late identically in both sweeps.
    oracle = make_oracle("OUE", 6, 1.0)
    on_time = np.repeat([0.0, 50.0, 100.0, 150.0], 15)
    stragglers = np.array([1.0, 2.0, 51.0, 101.0])
    ts = np.concatenate([on_time, stragglers])
    n = ts.size
    reports = oracle.privatize(
        np.random.default_rng(93).integers(0, 6, n), rng=94
    )
    spec = WindowSpec.session(5.0, allowed_lateness=0.0)
    arrival = np.arange(n)
    fast = _stream(
        oracle, reports, slice_reports, ts, arrival, spec,
        chunk=15, reference=False,
    )
    slow = _stream(
        oracle, reports, slice_reports, ts, arrival, spec,
        chunk=15, reference=True,
    )
    assert fast[1].late_reports == 4
    assert fast[1].absorbed_reports + fast[1].late_reports == n
    _assert_bit_identical(fast, slow)


def _one_fold_per_slice(oracle, values, spec, ts, *, chunk, rng, **kwargs):
    """`stream_collection`'s steps, with every arrival slice folded alone."""
    collector = EventTimeCollector(oracle, spec, **kwargs)
    gen = np.random.default_rng(rng)
    for a, b in _arrival_slices(spec, ts.shape[0], chunk):
        collector.charge_for(ts[a:b])
        reports = oracle.privatize(values[a:b], rng=gen)
        collector.absorb(TimedReports(ts[a:b], reports))
    return collector.finish()


def _counting_folds(monkeypatch):
    """Record the rows of every envelope any collector folds from now on."""
    folds: list[int] = []
    absorb = EventTimeCollector.absorb

    def counted(self, timed):
        folds.append(len(timed))
        return absorb(self, timed)

    monkeypatch.setattr(EventTimeCollector, "absorb", counted)
    return folds


def _stragglers(gen, n):
    """Event times on [0, 40) in arrival order, a fifth delayed by < 8."""
    ts = np.sort(gen.uniform(0.0, 40.0, n))
    delay = np.where(gen.random(n) < 0.2, gen.uniform(0.0, 8.0, n), 0.0)
    return ts[np.argsort(ts + delay, kind="stable")]


def _jittered_arrival(gen, n):
    """Event times on [0, 40) in arrival order, jittered by < 1.5."""
    ts = np.sort(gen.uniform(0.0, 40.0, n))
    return ts[np.argsort(ts + gen.uniform(0.0, 1.5, n), kind="stable")]


def _bridging_bursts(gen, n):
    """Four bursts of event times, arrival shuffled across all of them."""
    ts, _ = _bursty_times(n, gap=2.0, bursts=4, seed=int(gen.integers(1 << 30)))
    return ts[gen.permutation(n)]


def _straggling_bursts(gen, n):
    """Five bursts, shuffled in each; one report in twenty is 25 late."""
    burst = np.arange(n) % 5
    ts = burst * 10.0 + gen.uniform(0.0, 3.0, n)
    due = burst * 10.0 + gen.uniform(0.0, 3.0, n)
    due[gen.random(n) < 0.05] += 25.0
    return ts[np.argsort(due, kind="stable")]


#: name → (spec, oracle name, event times in arrival order — ``None``
#: for a count spec's ordinals — and the paths the stream takes).
_DRIVER_STREAMS = {
    "event_tumbling/jittered": (
        WindowSpec.event_tumbling(10.0, allowed_lateness=2.0), "OLH",
        _jittered_arrival, set(),
    ),
    "event_tumbling/skewed": (
        WindowSpec.event_tumbling(10.0, allowed_lateness=2.0), "DE",
        _stragglers, {"late"},
    ),
    "event_sliding/overlapping": (
        WindowSpec.event_sliding(8.0, 2.0, allowed_lateness=1.0), "OUE",
        _stragglers, {"late"},
    ),
    "event_sliding/gapped": (
        WindowSpec.event_sliding(2.0, 5.0, allowed_lateness=1.0), "HR",
        _stragglers, {"late"},
    ),
    "session/bridges": (
        WindowSpec.session(2.0, allowed_lateness=1e6), "OLH",
        _bridging_bursts, {"bridge"},
    ),
    "session/stragglers": (
        WindowSpec.session(0.3, allowed_lateness=2.0), "SHE",
        _straggling_bursts, {"late", "bridge"},
    ),
    "tumbling": (WindowSpec.tumbling(50), "OLH", None, set()),
    "sliding": (WindowSpec.sliding(100, 25), "BLH", None, set()),
    "gapped": (WindowSpec.sliding(30, 80), "SUE", None, set()),
    "cumulative": (WindowSpec.cumulative(60), "DE", None, set()),
}


@pytest.mark.parametrize("chunk", [1, 7, 13])
@pytest.mark.parametrize("stream", sorted(_DRIVER_STREAMS))
def test_driver_matches_one_fold_per_slice(stream, chunk, monkeypatch):
    spec, oracle_name, arrival_times, paths = _DRIVER_STREAMS[stream]
    n = 400
    gen = np.random.default_rng(sum(map(ord, stream)))
    ts = (
        np.arange(n, dtype=np.float64)
        if arrival_times is None
        else arrival_times(gen, n)
    )
    values = gen.integers(0, 8, n)
    oracle = make_oracle(oracle_name, 8, 1.2)
    model = "disjoint_users" if chunk == 7 else "same_users"
    reference = _one_fold_per_slice(
        oracle, values, spec, ts, chunk=chunk, rng=107, user_model=model
    )
    # The equality is only a guard where the stream takes these paths.
    assert len(reference) > 1  # panes sealed mid-stream
    assert (reference.late_reports > 0) == ("late" in paths)
    assert (reference.coalesced_panes > 0) == ("bridge" in paths)
    folds = _counting_folds(monkeypatch)
    driven = stream_collection(
        oracle,
        values,
        window=spec,
        timestamps=None if arrival_times is None else ts,
        chunk_size=chunk,
        rng=107,
        user_model=model,
    )
    assert _record(driven) == _record(reference)
    slices = len(list(_arrival_slices(spec, n, chunk)))
    assert len(folds) < slices  # slices really were joined


@pytest.mark.parametrize("chunk", [7, 25])
def test_driver_holds_at_most_the_row_budget_unfolded(chunk, monkeypatch):
    # Sessions that never seal before the end join every slice; a row
    # budget of 20 caps each fold at 20 rows, or one slice when a slice
    # is larger, and moves no output.
    spec, oracle_name, arrival_times, _ = _DRIVER_STREAMS["session/bridges"]
    gen = np.random.default_rng(110)
    ts = arrival_times(gen, 300)
    values = gen.integers(0, 8, 300)
    oracle = make_oracle(oracle_name, 8, 1.2)
    reference = _one_fold_per_slice(oracle, values, spec, ts, chunk=chunk, rng=111)
    monkeypatch.setattr(streaming, "_COALESCE_ROWS", 20)
    folds = _counting_folds(monkeypatch)
    driven = stream_collection(
        oracle, values, window=spec, timestamps=ts, chunk_size=chunk, rng=111
    )
    assert _record(driven) == _record(reference)
    assert max(folds) == max(20 // chunk * chunk, chunk)


def test_driver_judges_a_straggler_like_one_fold_per_slice():
    # 3.2 arrives after the watermark passed pane 3, before any pane
    # has sealed: it is late, and panes 3 and 4 never open.  Judged
    # against the watermark from before 5.5 was folded, it would be
    # absorbed and windows 3 to 6 emitted.
    oracle = make_oracle("OLH", 8, 1.0)
    spec = WindowSpec.event_tumbling(1.0)
    values, ts = np.array([1, 2, 3, 4]), np.array([5.5, 3.2, 5.7, 6.4])
    result = stream_collection(
        oracle, values, window=spec, timestamps=ts, chunk_size=1, rng=3
    )
    assert result.late_reports == 1
    assert [s.window_index for s in result] == [5, 6]
    reference = _one_fold_per_slice(oracle, values, spec, ts, chunk=1, rng=3)
    assert _record(result) == _record(reference)


def test_pane_end_one_ulp_above_the_watermark():
    # With span 0.1 the end of pane -37 is -3.6, and a watermark one
    # ulp below it divides to exactly -36.0: a floor rule would check
    # the end -3.5 and miss -3.6.  The report at -3.6 moves the
    # watermark onto pane -37's end, so the one at -3.65 is late.
    oracle = make_oracle("OLH", 8, 1.0)
    spec = WindowSpec.event_tumbling(0.1)
    end = spec.origin + (-37 + 1) * spec.pane_span
    below = np.nextafter(end, -np.inf)
    assert below / spec.pane_span == -36.0
    geometry = EventTimeCollector(oracle, spec)._geometry
    assert not geometry.quiet_between(below, end)
    assert geometry.quiet_between(below, below)
    assert not geometry.quiet_between(-np.inf, below)
    values, ts = np.array([1, 2, 3]), np.array([below, end, -3.65])
    result = stream_collection(
        oracle, values, window=spec, timestamps=ts, chunk_size=1, rng=4
    )
    assert result.late_reports == 1
    reference = _one_fold_per_slice(oracle, values, spec, ts, chunk=1, rng=4)
    assert _record(result) == _record(reference)
    # A watermark 1e300 below the data: with span 1 consecutive pane
    # ends collapse onto it (stepping one pane at a time would take
    # ~1e284 steps), and with span 1e-10 its pane overflows; either way
    # the driver folds at once.
    for span in (1.0, 1e-10):
        far = WindowSpec.event_tumbling(span, allowed_lateness=1e300)
        assert not EventTimeCollector(oracle, far)._geometry.quiet_between(
            -1e300, -1e300
        )
        result = stream_collection(
            oracle, values, window=far, timestamps=ts, chunk_size=1, rng=4
        )
        reference = _one_fold_per_slice(oracle, values, far, ts, chunk=1, rng=4)
        assert _record(result) == _record(reference)


class _RecordingOracle:
    """An oracle that records the size of every slice it privatizes."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.accumulator = oracle.accumulator
        self.privacy_spend = oracle.privacy_spend
        self.privatized: list[int] = []

    def privatize(self, values, rng=None):
        self.privatized.append(len(values))
        return self._oracle.privatize(values, rng=rng)


def test_driver_refuses_the_slice_one_fold_per_slice_refuses(monkeypatch):
    # In-order event times with zero lateness: the slices inside a pane
    # wait unfolded, and the first slice of the next pane is charged
    # while they wait.  A cap that admits three windows refuses pane 3.
    gen = np.random.default_rng(108)
    n, chunk, epsilon = 120, 4, 0.5
    ts = np.sort(gen.uniform(0.0, 6.0, n))
    values = gen.integers(0, 8, n)
    spec = WindowSpec.event_tumbling(1.0)

    def refused_run(drive):
        oracle = _RecordingOracle(make_oracle("OLH", 8, epsilon))
        ledger = PrivacyLedger(epsilon_cap=3 * epsilon)
        with pytest.raises(BudgetExceededError):
            drive(oracle, ledger)
        return oracle.privatized, ledger

    ref_slices, ref_ledger = refused_run(
        lambda oracle, ledger: _one_fold_per_slice(
            oracle, values, spec, ts, chunk=chunk, rng=109, ledger=ledger
        )
    )
    folds = _counting_folds(monkeypatch)
    slices, ledger = refused_run(
        lambda oracle, ledger: stream_collection(
            oracle, values, window=spec, timestamps=ts, chunk_size=chunk,
            rng=109, ledger=ledger,
        )
    )
    refused = int(np.flatnonzero(ts >= 3.0)[0]) // chunk * chunk
    assert sum(slices) == sum(ref_slices) == refused  # never privatized
    assert slices == ref_slices
    assert sum(folds) < refused  # slices were waiting unfolded
    assert _ledger(ledger) == _ledger(ref_ledger)
    assert (ledger.total_epsilon, ledger.total_delta) == (
        ref_ledger.total_epsilon, ref_ledger.total_delta,
    )
    assert len(ledger) == 3


def _chunk_envelopes(reports, n, chunk):
    return [
        (f"e{i}", slice_report_batch(reports, np.arange(s, min(s + chunk, n))))
        for i, s in enumerate(range(0, n, chunk))
    ]


@pytest.mark.parametrize("batch_size", [1, 3, 7, 100])
def test_service_offer_batch_matches_per_envelope(batch_size):
    # The folder coalescing several envelopes (including redeliveries
    # *inside* a coalesced batch) must reach the same combiner result
    # as per-envelope folding, with every duplicate still dropped.
    oracle = make_oracle("OUE", 9, 1.3)
    n = 180
    gen = np.random.default_rng(99)
    reports = oracle.privatize(gen.integers(0, 9, n), rng=100)
    envelopes = _chunk_envelopes(reports, n, 12)
    # each envelope delivered 1-3 times, duplicates interleaved
    deliveries = []
    for eid, payload in envelopes:
        for _ in range(int(gen.integers(1, 4))):
            deliveries.append((eid, payload))
    deliveries = [deliveries[i] for i in gen.permutation(len(deliveries))]

    def run(size):
        folder = ShardFolder(oracle, worker_id=0)
        core = CombinerCore(oracle, num_workers=1)
        core.register(0)
        flags_seen = []
        for start in range(0, len(deliveries), size):
            items = deliveries[start : start + size]
            ship, flags = folder.offer_batch(items)
            flags_seen.extend(flags)
            if ship is not None:
                core.receive(ship)
                core.receive(ship)  # ship-level redelivery too
        core.drain(0)
        return folder, core.result(), flags_seen

    folder_a, once, flags_a = run(1)
    folder_b, coalesced, flags_b = run(batch_size)
    assert flags_a == flags_b  # per-envelope ack flags identical
    assert folder_a.duplicates == folder_b.duplicates
    assert folder_b.envelopes == len(envelopes)
    assert np.array_equal(once.estimated_counts, coalesced.estimated_counts)
    assert coalesced.absorbed_reports == n
    assert np.array_equal(
        coalesced.estimated_counts,
        oracle.accumulator().absorb(reports).finalize(),
    )


def test_service_offer_batch_windowed_pane_split():
    # Timed envelopes coalesce across pane boundaries: the batch's pane
    # split must land every report in the same pane as per-envelope
    # folding, and the sealed fleet-wide windows must be bit-identical.
    oracle = make_oracle("DE", 6, 1.1)
    n = 160
    gen = np.random.default_rng(101)
    ts = np.sort(gen.uniform(0.0, 40.0, n))  # in-order: nothing is late
    reports = oracle.privatize(gen.integers(0, 6, n), rng=102)
    window = WindowSpec.event_tumbling(10.0, allowed_lateness=0.0)
    envelopes = [
        (
            f"e{i}",
            TimedReports(
                ts[s : s + 8], slice_report_batch(reports, np.arange(s, min(s + 8, n)))
            ),
        )
        for i, s in enumerate(range(0, n, 8))
    ]

    def run(size):
        folder = ShardFolder(oracle, worker_id=0, window=window)
        core = CombinerCore(oracle, num_workers=1, window=window)
        core.register(0)
        for start in range(0, len(envelopes), size):
            ship, _ = folder.offer_batch(envelopes[start : start + size])
            if ship is not None:
                core.receive(ship)
        core.drain(0)
        return core.result()

    once = run(1)
    coalesced = run(5)
    assert len(once.windows) == len(coalesced.windows)
    for a, b in zip(once.windows, coalesced.windows):
        assert (a.pane, a.start, a.end, a.users) == (b.pane, b.start, b.end, b.users)
        assert np.array_equal(a.estimated_counts, b.estimated_counts)
    assert np.array_equal(once.estimated_counts, coalesced.estimated_counts)
    assert coalesced.late_reports == 0
    assert coalesced.absorbed_reports == n
