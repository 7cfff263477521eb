"""Tests for the multi-machine collection service (transport + daemons).

The pure cores (ShardFolder, CombinerCore) are exercised directly —
dedup, pane folding, merged watermarks, sealing, lateness — and the
asyncio daemons are driven over real loopback TCP, including the
process backend with an abrupt (SIGKILL) worker restart.  The load-
bearing assertion throughout: the service's estimates are bit-identical
to the single-host ``run_sharded_collection`` over the same privatized
reports, no matter how delivery was duplicated or interrupted.
"""

import json
import math
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import make_oracle
from repro.core.timed import (
    TimedReports,
    batch_length,
    concat_timed_reports,
    slice_report_batch,
)
from repro.protocol import (
    CombinerCore,
    FaultPlan,
    ServiceError,
    ShardFolder,
    WindowSpec,
    WorkerFault,
    run_distributed_collection,
    run_sharded_collection,
)
from repro.protocol.transport import (
    decode_checkpoint,
    decode_message,
    encode_checkpoint,
    encode_message,
    pack_report_batch,
    pack_timed_reports,
    unpack_report_batch,
    unpack_timed_reports,
)


# -- transport codec ---------------------------------------------------------


def test_message_round_trip_with_arrays():
    header = {"type": "ship", "frontier": math.inf, "pane": None}
    arrays = {
        "a": np.arange(12, dtype=np.int64).reshape(3, 4),
        "b": np.frombuffer(b"\x01\x02\x03", dtype=np.uint8),
    }
    out_header, out_arrays = decode_message(encode_message(header, arrays))
    assert out_header["type"] == "ship"
    assert out_header["frontier"] == math.inf  # ±inf survives the wire
    assert out_header["pane"] is None
    assert np.array_equal(out_arrays["a"], arrays["a"])
    assert out_arrays["a"].dtype == np.int64
    assert out_arrays["b"].tobytes() == b"\x01\x02\x03"


def test_message_decode_rejects_malformed():
    payload = encode_message({"type": "x"}, {"a": np.arange(4)})
    with pytest.raises(ValueError, match="trailing bytes"):
        decode_message(payload + b"z")
    with pytest.raises(ValueError, match="truncated"):
        decode_message(payload[:-5])
    with pytest.raises(ValueError):
        decode_message(b"\x02")
    # Each manifest is refused at its shape, before any element count:
    # [-1] would move the read offset back so "b" decodes from the
    # header's own tail, and 100 or oversized dimensions would make the
    # count a big-integer product.
    for shape in ([-1], [2] * 100, [2**63]):
        manifest = [
            {"name": "a", "dtype": "<i8", "shape": shape},
            {"name": "b", "dtype": "|u1", "shape": [8]},
        ]
        h = json.dumps({"arrays": manifest}).encode("utf-8")
        with pytest.raises(ValueError, match="shape"):
            decode_message(struct.pack("<I", len(h)) + h)


def _report_batches():
    gen = np.random.default_rng(5)
    from repro.systems.apple import CountMeanSketch, HadamardCountMeanSketch
    from repro.systems.microsoft import DBitFlip
    from repro.systems.rappor import RapporParams, privatize_population

    olh = make_oracle("OLH", 8, 1.1).privatize(gen.integers(0, 8, 40), rng=1)
    oue = make_oracle("OUE", 8, 1.1).privatize(gen.integers(0, 8, 40), rng=2)
    cms = CountMeanSketch(50, 2.0, k=3, m=32, master_seed=1).privatize(
        gen.integers(0, 50, 40), rng=3
    )
    hcms = HadamardCountMeanSketch(50, 2.0, k=3, m=32, master_seed=1).privatize(
        gen.integers(0, 50, 40), rng=4
    )
    rappor = privatize_population(
        RapporParams(num_bits=16, num_hashes=2, num_cohorts=4),
        gen.integers(0, 10, 40),
        10,
        rng=5,
    )
    dbf = DBitFlip(num_buckets=12, d=4, epsilon=1.0).privatize(
        gen.integers(0, 12, 40), rng=6
    )
    return [
        ("olh-hashed", olh),
        ("oue-matrix", oue),
        ("cms", cms),
        ("hcms", hcms),
        ("rappor-tuple", rappor),
        ("dbitflip", dbf),
    ]


_BATCHES = _report_batches()


@pytest.mark.parametrize(
    "label,reports", _BATCHES, ids=[b[0] for b in _BATCHES]
)
def test_report_batches_cross_the_wire(label, reports):
    tag, arrays = pack_report_batch(reports)
    rebuilt = unpack_report_batch(
        tag, {k: v.copy() for k, v in arrays.items()}
    )
    assert type(rebuilt) is type(reports)
    _, again = pack_report_batch(rebuilt)
    for name, arr in arrays.items():
        assert np.array_equal(again[name], arr)


def test_timed_envelope_crosses_the_wire():
    reports = make_oracle("OLH", 8, 1.1).privatize(np.arange(8), rng=1)
    timed = TimedReports(
        timestamps=np.linspace(0.0, 7.0, 8), reports=reports
    )
    header, arrays = pack_timed_reports(timed)
    header = {**header, "type": "reports", "envelope": "e0"}
    out = unpack_timed_reports(*decode_message(encode_message(header, arrays)))
    assert isinstance(out, TimedReports)
    assert np.array_equal(out.timestamps, timed.timestamps)
    assert np.array_equal(out.reports.seeds, reports.seeds)


def test_unknown_batch_tag_rejected():
    with pytest.raises(ValueError, match="unknown report batch tag"):
        unpack_report_batch("EvilPickle", {})


# -- pure cores --------------------------------------------------------------


def _envelopes(oracle, values, chunk, rng=1):
    """(envelope_id, report batch) chunks of one privatized population."""
    reports = oracle.privatize(values, rng=rng)
    return [
        (f"e{i}", slice_report_batch(reports, np.arange(s, min(s + chunk, len(values)))))
        for i, s in enumerate(range(0, len(values), chunk))
    ], reports


def test_folder_dedups_and_ships_fresh_accumulators():
    oracle = make_oracle("OUE", 6, 1.0)
    envelopes, reports = _envelopes(oracle, np.arange(60) % 6, 20)
    folder = ShardFolder(oracle, worker_id=0)
    ships = [folder.offer(eid, batch) for eid, batch in envelopes]
    assert all(s is not None for s in ships)
    assert folder.offer("e1", envelopes[1][1]) is None  # redelivery dropped
    assert folder.duplicates == 1
    assert folder.envelopes == 3
    assert folder.reports == 60
    # Each ship's row unstacks back to exactly its chunk's fold.
    total = oracle.accumulator()
    for ship in ships:
        assert len(ship.n) == 1
        assert ship.pane_indices is None  # unwindowed
        (part,) = oracle.accumulator().unstack_rows(ship.rows, ship.n)
        total.merge(part)
    assert np.array_equal(total.finalize(), oracle.estimate_counts(reports))


def test_folder_splits_envelopes_into_event_panes():
    oracle = make_oracle("DE", 4, 1.0)
    window = WindowSpec.event_tumbling(10.0)
    ts = np.array([5.0, 25.0, 7.0, 15.0, 3.0])
    reports = oracle.privatize(np.arange(5) % 4, rng=1)
    folder = ShardFolder(oracle, window=window)
    ship = folder.offer("e0", TimedReports(timestamps=ts, reports=reports))
    parts = oracle.accumulator().unstack_rows(ship.rows, ship.n)
    panes = {p: part.n_absorbed for p, part in zip(ship.pane_indices.tolist(), parts)}
    assert panes == {0: 3, 1: 1, 2: 1}
    assert ship.frontier == 25.0
    assert folder.frontier == 25.0


def test_folder_judges_lateness_against_its_own_watermark():
    # Each envelope is judged against the folder's frontier before it,
    # minus the lateness, as one collector per shard judges its stream.
    # An envelope behind that watermark ships no partials, only its late
    # count; a fresh folder, with no watermark yet, absorbs it.
    oracle = make_oracle("DE", 4, 1.0)
    window = WindowSpec.event_tumbling(1.0, allowed_lateness=0.25)
    mk = lambda ts: TimedReports(
        np.asarray(ts, float), oracle.privatize(np.arange(len(ts)) % 4, rng=1)
    )
    folder = ShardFolder(oracle, window=window)
    ship, _ = folder.offer_batch(
        [("a", mk([0.5, 3.5])), ("b", mk([0.9, 3.0, 3.6, 4.2]))]
    )
    # "a" has no watermark to trail; "b" trails 3.5 - 0.25, which pane 0
    # (ending at 1.0) is behind.
    assert ship.sections == (("a", 2), ("b", 2))
    assert ship.late == (0, 1)
    assert ship.pane_indices.tolist() == [0, 3, 3, 4]
    assert ship.n.tolist() == [1, 1, 2, 1]
    behind = folder.offer("c", mk([1.0, 2.0]))  # panes end at 2 and 3 <= 3.95
    assert behind.sections == (("c", 0),) and behind.late == (2,)
    assert behind.n.shape == (0,) and behind.pane_indices.shape == (0,)
    assert behind.frontier == 4.2
    fresh = ShardFolder(oracle, window=window).offer("c", mk([1.0, 2.0]))
    assert fresh.late == (0,) and fresh.pane_indices.tolist() == [1, 2]
    # The combiner adds each fresh section's late count.
    core = CombinerCore(oracle, num_workers=1, window=window)
    core.register(0)
    core.receive(ship)
    core.receive(behind)
    result = core_result_after_drain(core)
    assert (result.absorbed_reports, result.late_reports) == (5, 3)
    assert [w.pane for w in result.windows] == [0, 3, 4]


def test_folder_rejects_raw_batches_when_windowed():
    oracle = make_oracle("DE", 4, 1.0)
    folder = ShardFolder(oracle, window=WindowSpec.event_tumbling(10.0))
    with pytest.raises(ValueError, match="timed envelopes"):
        folder.offer("e0", oracle.privatize(np.arange(4), rng=1))


def test_combiner_dedups_redelivered_ships():
    oracle = make_oracle("OLH", 6, 1.0)
    envelopes, reports = _envelopes(oracle, np.arange(60) % 6, 15)
    folder = ShardFolder(oracle, worker_id=0)
    core = CombinerCore(oracle, num_workers=1)
    core.register(0)
    ships = [folder.offer(eid, batch) for eid, batch in envelopes]
    for ship in ships:
        assert core.receive(ship) is True
    # Redeliver every ship (worker restart refolding acked envelopes).
    for ship in ships:
        assert core.receive(ship) is False
    assert core.duplicates == len(ships)
    result = core_result_after_drain(core)
    assert result.absorbed_reports == 60
    assert np.array_equal(
        result.estimated_counts, oracle.estimate_counts(reports)
    )


def core_result_after_drain(core):
    for w in range(core.num_workers):
        core.drain(w)
    return core.result()


def test_combiner_dedups_members_across_regrouped_batches():
    # The restart hazard: a worker ships a coalesced batch, dies before
    # acking every member envelope to its client, and the respawned
    # worker (empty fold state) refolds the unacked subset into a
    # differently-grouped batch with a new joined key.  The combiner
    # must recognize the members individually — exactly-once merge is
    # per member envelope, not per batch grouping.
    oracle = make_oracle("OUE", 6, 1.0)
    envelopes, reports = _envelopes(oracle, np.arange(60) % 6, 20)  # e0..e2
    core = CombinerCore(oracle, num_workers=1)
    core.register(0)
    folder = ShardFolder(oracle, worker_id=0)
    ship, _ = folder.offer_batch(envelopes)
    assert ship.envelope_ids == ("e0", "e1", "e2")
    assert core.receive(ship) is True
    # Respawned worker: fresh dedup state, client resends the unacked tail.
    restarted = ShardFolder(oracle, worker_id=0)
    reship, _ = restarted.offer_batch(envelopes[1:])
    assert reship is not None
    assert reship.envelope_id != ship.envelope_id  # new grouping, new key
    assert core.receive(reship) is False  # every member already merged
    assert core.duplicates == 2
    result = core_result_after_drain(core)
    assert result.absorbed_reports == 60  # nothing merged twice
    assert np.array_equal(
        result.estimated_counts, oracle.estimate_counts(reports)
    )


def test_combiner_merges_only_fresh_members_of_regrouped_batch():
    # Partial overlap: the regrouped redelivery mixes an already-merged
    # envelope with genuinely fresh ones.  Only the fresh members merge.
    oracle = make_oracle("OUE", 6, 1.0)
    envelopes, reports = _envelopes(oracle, np.arange(80) % 6, 20)  # e0..e3
    core = CombinerCore(oracle, num_workers=1)
    core.register(0)
    folder = ShardFolder(oracle, worker_id=0)
    first, _ = folder.offer_batch(envelopes[:2])
    assert core.receive(first) is True
    restarted = ShardFolder(oracle, worker_id=0)
    mixed, _ = restarted.offer_batch(envelopes[1:])  # e1 old, e2/e3 fresh
    assert core.receive(mixed) is True  # some members were fresh
    assert core.duplicates == 1
    result = core_result_after_drain(core)
    assert result.absorbed_reports == 80  # e1 counted exactly once
    assert np.array_equal(
        result.estimated_counts, oracle.estimate_counts(reports)
    )


def test_coalesced_ship_sections_round_trip_the_wire():
    from repro.protocol.service import _ship_from_message, _ship_to_message

    oracle = make_oracle("DE", 4, 1.0)
    window = WindowSpec.event_tumbling(10.0)
    folder = ShardFolder(oracle, window=window)
    mk = lambda ts: TimedReports(
        np.asarray(ts, float),
        oracle.privatize(np.arange(len(ts)) % 4, rng=1),
    )
    ship, _ = folder.offer_batch([("a", mk([5.0, 25.0])), ("b", mk([7.0, 15.0]))])
    assert [eid for eid, _ in ship.sections] == ["a", "b"]
    header, arrays = _ship_to_message(ship)
    rebuilt = _ship_from_message(*decode_message(encode_message(header, arrays)))
    _assert_same_ship(rebuilt, ship)


def _assert_same_ship(got, want):
    """Field-by-field ship equality (the arrays make ``==`` unusable)."""
    for field in ("worker_id", "envelope_id", "frontier", "num_reports",
                  "sections", "late", "kind", "config"):
        assert getattr(got, field) == getattr(want, field), field
    assert got.n.dtype == np.int64 and np.array_equal(got.n, want.n)
    if want.pane_indices is None:
        assert got.pane_indices is None
    else:
        assert got.pane_indices.dtype == np.int64
        assert np.array_equal(got.pane_indices, want.pane_indices)
    assert set(got.rows) == set(want.rows)
    for name, rows in want.rows.items():
        assert got.rows[name].dtype == rows.dtype
        assert np.array_equal(got.rows[name], rows)
        assert not got.rows[name].flags.writeable


def _wire_round_trip(ship):
    from repro.protocol.service import _ship_from_message, _ship_to_message

    header, arrays = _ship_to_message(ship)
    return _ship_from_message(*decode_message(encode_message(header, arrays)))


def test_ship_rows_round_trip_empty_unwindowed_and_negative_panes():
    oracle = make_oracle("OLH", 8, 1.1)
    reports = oracle.privatize(np.arange(6) % 8, rng=3)
    empty = slice_report_batch(reports, np.arange(0))
    # An empty envelope still ships a section, with no partials.
    window = WindowSpec.event_tumbling(2.0)
    folder = ShardFolder(oracle, window=window)
    ship, _ = folder.offer_batch(
        [("e", TimedReports(np.zeros(0), empty)),
         ("f", TimedReports(np.array([-7.0, -0.5, 1.0, -7.5, 3.0, -0.1]), reports))]
    )
    assert ship.sections == (("e", 0), ("f", 4))
    assert ship.pane_indices.tolist() == [-4, -1, 0, 1]  # pane order
    assert ship.n.tolist() == [2, 2, 1, 1]
    _assert_same_ship(_wire_round_trip(ship), ship)
    only_empty, _ = folder.offer_batch([("g", TimedReports(np.zeros(0), empty))])
    assert only_empty.sections == (("g", 0),) and only_empty.n.shape == (0,)
    assert only_empty.rows["state"].shape == (0, 8)
    _assert_same_ship(_wire_round_trip(only_empty), only_empty)
    # Unwindowed: one partial per envelope and no pane vector.
    flat = ShardFolder(oracle)
    ship, _ = flat.offer_batch([("a", reports), ("b", empty)])
    assert ship.sections == (("a", 1), ("b", 0)) and ship.pane_indices is None
    _assert_same_ship(_wire_round_trip(ship), ship)
    # Negative panes merge and seal like any other on the combiner.
    core = CombinerCore(oracle, num_workers=1, window=window)
    core.register(0)
    core.receive(_wire_round_trip(ShardFolder(oracle, window=window).offer(
        "h", TimedReports(np.array([-7.0, -0.5, -0.6]), slice_report_batch(reports, np.arange(3)))
    )))
    result = core_result_after_drain(core)
    assert [w.pane for w in result.windows] == [-4, -1]
    assert result.absorbed_reports == 3


def test_malformed_ship_changes_nothing_then_intact_ship_merges():
    # All or nothing: a ship failing validation on a later section must
    # not merge its earlier sections or mark any member id seen.
    oracle = make_oracle("OLH", 16, 1.0)
    envelopes, reports = _envelopes(oracle, np.arange(40) % 16, 20)  # e0, e1
    ship, _ = ShardFolder(oracle, worker_id=0).offer_batch(envelopes)
    other = ShardFolder(make_oracle("OLH", 16, 2.0), worker_id=0).offer_batch(envelopes)[0]
    negative = ship.n.copy()
    negative[1] = -3
    core = CombinerCore(oracle, num_workers=1)
    core.register(0)
    before = core.to_checkpoint()
    for bad in (
        replace(ship, n=ship.n[:1]),  # short n vector
        replace(ship, n=negative),
        replace(ship, late=ship.late[:1]),  # a late count short
        replace(ship, config=other.config),  # foreign fingerprint
    ):
        with pytest.raises(ValueError):
            core.receive(bad)
        assert core.to_checkpoint() == before
    assert core.receive(ship) is True
    result = core_result_after_drain(core)
    assert (result.absorbed_reports, result.late_reports, result.lost_reports) == (40, 0, 0)
    assert result.duplicate_envelopes == 0
    assert np.array_equal(result.estimated_counts, oracle.estimate_counts(reports))


def test_refused_mixed_batch_counts_nothing_and_stays_retryable():
    # A mixed timed/raw batch is refused whole: the duplicate counter
    # must not keep the pre-validation flags, and every offered id —
    # including the flagged ones — must remain retryable.
    oracle = make_oracle("OUE", 6, 1.0)
    envelopes, _ = _envelopes(oracle, np.arange(40) % 6, 20)  # e0, e1
    timed = TimedReports(np.zeros(20), envelopes[1][1])
    folder = ShardFolder(oracle, worker_id=0)
    assert folder.offer("e0", envelopes[0][1]) is not None
    with pytest.raises(ValueError, match="cannot coalesce"):
        folder.offer_batch(
            [("e0", envelopes[0][1]), ("t0", timed), ("e1", envelopes[1][1])]
        )
    assert folder.duplicates == 0  # the refused batch counted nothing
    assert folder.envelopes == 1
    ship, flags = folder.offer_batch([("e1", envelopes[1][1])])
    assert ship is not None and flags == [False]  # e1 was still retryable


def test_combiner_requires_registration_and_matching_config():
    oracle = make_oracle("OLH", 6, 1.0)
    other = make_oracle("OLH", 6, 2.0)
    folder = ShardFolder(oracle, worker_id=0)
    ship = folder.offer("e0", oracle.privatize(np.arange(6), rng=1))
    core = CombinerCore(oracle, num_workers=1)
    with pytest.raises(ServiceError, match="register"):
        core.receive(ship)
    # Config-fingerprint mismatch: a partial from a differently
    # configured fleet is refused, not merged.
    mismatched = CombinerCore(other, num_workers=1)
    mismatched.register(0)
    with pytest.raises(ValueError):
        mismatched.receive(ship)


def test_merged_watermark_and_sealing_across_workers():
    oracle = make_oracle("DE", 4, 1.0)
    window = WindowSpec.event_tumbling(10.0)
    core = CombinerCore(oracle, num_workers=2, window=window)
    core.register(0)
    core.register(1)

    def timed_ship(worker, eid, ts):
        folder = ShardFolder(oracle, worker, window=window)
        # Rebuild worker-local dedup state per ship for test simplicity.
        reports = oracle.privatize(np.arange(len(ts)) % 4, rng=hash(eid) % 100)
        return folder.offer(eid, TimedReports(np.asarray(ts, float), reports))

    # Worker 0 races ahead; worker 1 has not spoken -> nothing seals.
    core.receive(timed_ship(0, "a", [5.0, 35.0]))
    assert core.merged_frontier == -math.inf
    assert not core.sealed_windows
    # Worker 1 reaches 12.0 -> fleet watermark 12.0 -> pane 0 seals.
    core.receive(timed_ship(1, "b", [8.0, 12.0]))
    assert core.merged_frontier == 12.0
    assert [w.pane for w in core.sealed_windows] == [0]
    assert core.sealed_windows[0].users == 2  # ts 5.0 and 8.0
    # A straggler for the sealed pane counts late, never merges.
    core.receive(timed_ship(0, "c", [2.0]))
    assert core.late == 1
    assert core.absorbed == 4
    # Drain both -> +inf frontiers -> the remaining pane seals.
    core.drain(0)
    core.drain(1)
    result = core.result()
    assert [w.pane for w in result.windows] == [0, 1, 3]
    assert result.absorbed_reports + result.late_reports == 5
    assert sum(w.users for w in result.windows) == result.absorbed_reports


def test_straggler_for_a_never_opened_pane_is_late():
    """A pane the watermark passed while it held no data is sealed too.

    Merging the straggler would seal pane 1 after pane 2; the collector
    counts the same report late, so the combiner must as well.
    """
    oracle = make_oracle("DE", 4, 1.0)
    window = WindowSpec.event_tumbling(1.0)
    core = CombinerCore(oracle, num_workers=2, window=window)
    core.register(0)
    core.register(1)

    def ship(worker, eid, ts):
        reports = oracle.privatize(np.arange(len(ts)) % 4, rng=len(eid))
        folder = ShardFolder(oracle, worker, window=window)
        return folder.offer(eid, TimedReports(np.asarray(ts, float), reports))

    core.receive(ship(1, "a", [5.5]))
    core.receive(ship(0, "b", [0.5, 2.5, 4.5]))
    assert [w.pane for w in core.sealed_windows] == [0, 2]
    # Checkpoints hold the sealed-through index; one listing every
    # sealed pane, as older combiners wrote, restores to the same rule.
    header, arrays = decode_checkpoint(core.to_checkpoint())
    assert header["sealed"] == [2]
    header["sealed"] = [0, 2]
    core = CombinerCore.from_checkpoint(
        oracle, encode_checkpoint(header, arrays), window=window
    )
    core.receive(ship(1, "c", [1.2]))
    assert core.late == 1
    core.drain(0)
    core.drain(1)
    result = core.result()
    assert [w.pane for w in result.windows] == [0, 2, 4, 5]
    assert result.late_reports == 1
    assert result.absorbed_reports + result.late_reports == 5


def test_restarted_worker_cannot_regress_the_watermark():
    oracle = make_oracle("DE", 4, 1.0)
    window = WindowSpec.event_tumbling(10.0)
    core = CombinerCore(oracle, num_workers=2, window=window)
    core.register(0)
    core.register(1)
    f0 = ShardFolder(oracle, 0, window=window)
    f1 = ShardFolder(oracle, 1, window=window)
    mk = lambda f, eid, ts: f.offer(
        eid,
        TimedReports(
            np.asarray(ts, float),
            oracle.privatize(np.arange(len(ts)) % 4, rng=1),
        ),
    )
    core.receive(mk(f0, "a", [25.0]))
    core.receive(mk(f1, "b", [31.0]))
    assert core.merged_frontier == 25.0
    # Worker 0 restarts: its fresh folder's frontier restarts low, but
    # the combiner keeps the max per worker — no regression.
    f0b = ShardFolder(oracle, 0, window=window)
    core.receive(mk(f0b, "c", [4.0]))
    assert core.merged_frontier == 25.0


def test_restarted_daemon_resumes_at_the_recorded_frontier():
    # The combiner answers register with the frontier it recorded for
    # the worker, and a restarted daemon's folder resumes there: an
    # envelope its client resends is judged as the worker before it
    # would have judged it, not as the first envelope of a new stream.
    import asyncio

    from repro.protocol import CombinerDaemon, IngestDaemon, feed_envelopes

    oracle = make_oracle("DE", 4, 1.0)
    window = WindowSpec.event_tumbling(1.0, allowed_lateness=0.25)
    mk = lambda ts: TimedReports(
        np.asarray(ts, float), oracle.privatize(np.arange(len(ts)) % 4, rng=2)
    )

    async def main():
        combiner = CombinerDaemon(oracle, 1, window=window)
        await combiner.start()
        # The worker before the restart folded e0 and the combiner merged it.
        combiner.core.register(0)
        combiner.core.receive(
            ShardFolder(oracle, 0, window=window).offer("e0", mk([2.5, 5.5]))
        )
        restarted = IngestDaemon(oracle, 0, combiner.address, window=window)
        try:
            await restarted.start()
            frontier = restarted.folder.frontier
            await feed_envelopes(restarted.address, [("e1", mk([5.0, 4.9, 6.1]))])
            await asyncio.wait_for(restarted.run(), 30)
        finally:
            await restarted.close()
            await combiner.close()
        return frontier, combiner.core

    frontier, core = asyncio.run(main())
    assert frontier == 5.5
    # 4.9 lies in pane 4, which ends at 5.0 <= 5.5 - 0.25.
    assert (core.absorbed, core.late) == (4, 1)


def test_refused_batch_closes_its_connection():
    # A batch the folder refuses (a report value equal to g) ends its
    # handler: the handler must still close the connection, so a client
    # at the default ack_timeout sees the link die, retries and gives up
    # instead of waiting for acks forever.
    import asyncio
    import time

    from repro.core import HashedReports
    from repro.protocol import (
        CombinerDaemon,
        IngestDaemon,
        RetryPolicy,
        feed_envelopes,
    )

    oracle = make_oracle("OLH", 10, 1.5)
    values = np.arange(50) % 10
    good = oracle.privatize(values, rng=1)
    bad_values = oracle.privatize(values, rng=2).values.copy()
    bad_values[7] = oracle.g
    bad = HashedReports(oracle.privatize(values, rng=2).seeds, bad_values)
    envelopes = [
        ("good-0", good),
        ("bad", bad),
        ("good-1", oracle.privatize(values, rng=3)),
    ]

    async def main():
        combiner = CombinerDaemon(oracle, 1)
        await combiner.start()
        daemon = IngestDaemon(oracle, 0, combiner.address)
        try:
            await daemon.start()
            started = time.monotonic()
            with pytest.raises(
                ServiceError, match="consecutive connection failures"
            ):
                await asyncio.wait_for(
                    feed_envelopes(
                        daemon.address,
                        envelopes,
                        retry=RetryPolicy(attempts=2, base_delay=0.01),
                    ),
                    30,
                )
            return time.monotonic() - started
        finally:
            await daemon.close()
            await combiner.close()

    assert asyncio.run(main()) < 10.0


def _feed_scripted_worker(hello: dict, ack: dict | None, envelopes):
    """Run ``feed_envelopes`` against a scripted worker and return its
    result.  The worker says ``hello``; given an ``ack``, it reads every
    envelope and answers with that one frame; it acks an eof and waits
    for the client to hang up.  The exchange must end within seconds."""
    import asyncio
    import contextlib

    from repro.core.serialization import TruncatedFrameError
    from repro.protocol import feed_envelopes
    from repro.protocol.transport import read_message, write_message

    async def serve(reader, writer):
        try:
            write_message(writer, hello)
            await writer.drain()
            if ack is not None:
                for _ in envelopes:
                    await read_message(reader)
                write_message(writer, ack)
                await writer.drain()
            while (message := await read_message(reader)) is not None:
                if message[0].get("type") == "eof":
                    write_message(writer, {"type": "eof_ack"})
                    await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, TruncatedFrameError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    async def main():
        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        try:
            address = server.sockets[0].getsockname()[:2]
            return await asyncio.wait_for(feed_envelopes(address, envelopes), 5)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


_TWO_ENVELOPES = [("e0", np.arange(3)), ("e1", np.arange(3))]


def test_client_matches_a_batch_ack_fifo():
    ack = {"type": "ack", "envelopes": ["e0", "e1"], "duplicates": [False, True]}
    stats = _feed_scripted_worker(
        {"type": "hello", "credits": 2}, ack, _TWO_ENVELOPES
    )
    assert (stats["sent"], stats["delivered"], stats["duplicate_acks"]) == (2, 2, 1)


@pytest.mark.parametrize("credits", [0, -2, 2.5, "8", None])
def test_client_refuses_a_hello_without_positive_int_credits(credits):
    # With credits 0 the client used to send nothing and then wait for
    # an ack forever; a non-integer raised a bare ValueError.
    with pytest.raises(ServiceError, match="'credits'"):
        _feed_scripted_worker(
            {"type": "hello", "credits": credits}, None, _TWO_ENVELOPES
        )


@pytest.mark.parametrize(
    "ids,flags,match",
    [
        (["e0", "e1"], [False], "'duplicates'"),
        ("e0", False, "must be lists"),
        (["e0", "e1", "e2"], [False] * 3, "only 2 envelopes are in flight"),
        (["e1", "e0"], [False, False], "names 'e1', not the oldest in-flight"),
    ],
    ids=["flags-short", "not-lists", "more-than-in-flight", "out-of-order"],
)
def test_client_refuses_a_malformed_batch_ack(ids, flags, match):
    ack = {"type": "ack", "envelopes": ids, "duplicates": flags}
    with pytest.raises(ServiceError, match=match):
        _feed_scripted_worker({"type": "hello", "credits": 2}, ack, _TWO_ENVELOPES)


def test_combiner_result_requires_full_drain():
    oracle = make_oracle("DE", 4, 1.0)
    core = CombinerCore(oracle, num_workers=2)
    core.register(0)
    core.drain(0)
    with pytest.raises(ServiceError, match="have not drained"):
        core.result()


# -- loopback service (real sockets) -----------------------------------------


def test_inline_loopback_bit_identical_with_duplicates():
    oracle = make_oracle("OLH", 12, 1.2)
    vals = np.random.default_rng(3).integers(0, 12, size=1200)
    base = run_sharded_collection(
        oracle, vals, num_shards=3, chunk_size=150, rng=17
    )
    svc = run_distributed_collection(
        oracle,
        vals,
        num_ingest=3,
        chunk_size=150,
        rng=17,
        backend="inline",
        faults=FaultPlan(seed=2, duplicate_every=2),
    )
    assert np.array_equal(base.estimated_counts, svc.estimated_counts)
    assert svc.absorbed_reports == 1200
    assert svc.late_reports == 0
    # The duplicates were delivered and dropped at the workers.
    assert sum(w.duplicate_envelopes for w in svc.workers) > 0
    assert svc.ledger is not None and svc.ledger.total_epsilon > 0


def test_run_builds_no_repr_of_its_result(monkeypatch):
    # On Python 3.11 and 3.12, asyncio.run's teardown formats the repr
    # of its SIGINT handler, which holds the main task; a task whose
    # result was the ServiceResult built the whole result's repr there.
    # reprlib swallows the error, so the calls are counted.
    from repro.protocol.service import ServiceResult

    calls = []

    def _refuse_repr(self):
        calls.append(self)
        raise AssertionError("ServiceResult repr built")

    monkeypatch.setattr(ServiceResult, "__repr__", _refuse_repr)
    oracle = make_oracle("OLH", 8, 1.0)
    vals = np.random.default_rng(8).integers(0, 8, size=600)
    svc = run_distributed_collection(
        oracle, vals, num_ingest=2, chunk_size=100, rng=9, backend="inline"
    )
    assert svc.absorbed_reports == 600
    assert calls == []


def test_inline_loopback_windowed_lateness_accounting():
    rng = np.random.default_rng(9)
    n = 1500
    oracle = make_oracle("OUE", 8, 1.0)
    ts = rng.uniform(0.0, 5 * 60.0, size=n)
    delay = rng.exponential(30.0, size=n) * (rng.random(n) < 0.25)
    arrival = np.argsort(ts + delay, kind="stable")
    svc = run_distributed_collection(
        oracle,
        rng.integers(0, 8, size=n)[arrival],
        num_ingest=3,
        chunk_size=100,
        rng=5,
        timestamps=ts[arrival],
        window=WindowSpec.event_tumbling(60.0, allowed_lateness=10.0),
        placement="round_robin",
        backend="inline",
    )
    assert svc.absorbed_reports + svc.late_reports == n
    assert svc.late_reports > 0  # the injected stragglers were accounted
    assert svc.windows  # panes sealed fleet-wide
    assert sum(w.users for w in svc.windows) == svc.absorbed_reports
    assert svc.merged_frontier == math.inf  # fully drained
    panes = [w.pane for w in svc.windows]
    assert panes == sorted(panes)


@pytest.mark.parametrize("name", ["OLH", "OUE", "HR", "DE"])
def test_windowed_loopback_rows_match_the_batch_per_pane(name):
    # Sorted event times plus disorder inside the lateness: most
    # 100-report envelopes span two panes, so every ship carries
    # several stacked rows, and none of them is late.
    from repro.protocol.service import _privatize_envelopes

    oracle = make_oracle(name, 12, 1.2)
    n, chunk, seed = 1200, 100, 43
    gen = np.random.default_rng(47)
    vals = gen.integers(0, 12, size=n)
    ts = np.sort(gen.uniform(0.0, 60.0, size=n)) + gen.uniform(0.0, 2.0, size=n)
    window = WindowSpec.event_tumbling(5.0, allowed_lateness=3.0)
    base = run_sharded_collection(
        oracle, vals, num_shards=2, chunk_size=chunk, rng=seed
    )
    svc = run_distributed_collection(
        oracle,
        vals,
        num_ingest=2,
        chunk_size=chunk,
        rng=seed,
        timestamps=ts,
        window=window,
        placement="contiguous",
        backend="inline",
    )
    assert np.array_equal(base.estimated_counts, svc.estimated_counts)
    assert (svc.absorbed_reports, svc.late_reports) == (n, 0)
    # Rebuild each pane's reports from the orchestrator's envelopes.
    gens = np.random.default_rng(seed).spawn(2)
    envelopes = [
        payload
        for w, (shard_vals, shard_ts) in enumerate(
            zip(np.array_split(vals, 2), np.array_split(ts, 2))
        )
        for _, payload in _privatize_envelopes(
            oracle, w, shard_vals, shard_ts, chunk, gens[w]
        )
    ]
    spans = [np.unique(window.pane_index(e.timestamps)).size for e in envelopes]
    assert max(spans) >= 2
    panes = sorted({p for e in envelopes for p in window.pane_index(e.timestamps)})
    assert [w.pane for w in svc.windows] == panes
    for sealed in svc.windows:
        members = [
            e.select(window.pane_index(e.timestamps) == sealed.pane)
            for e in envelopes
        ]
        batch = concat_timed_reports([m for m in members if len(m)]).reports
        assert sealed.users == batch_length(batch)
        assert np.array_equal(
            sealed.estimated_counts, oracle.estimate_counts(batch)
        ), sealed.pane


def test_process_backend_survives_worker_restart():
    # The acceptance demo: real worker processes, one SIGKILLed
    # mid-stream and respawned, duplicates injected — estimates must be
    # bit-identical to the single-host pipeline.
    oracle = make_oracle("OLH", 10, 1.2)
    vals = np.random.default_rng(4).integers(0, 10, size=800)
    base = run_sharded_collection(
        oracle, vals, num_shards=2, chunk_size=100, rng=23
    )
    svc = run_distributed_collection(
        oracle,
        vals,
        num_ingest=2,
        chunk_size=100,
        rng=23,
        backend="process",
        faults=FaultPlan(
            seed=4,
            duplicate_every=3,
            worker_faults=(WorkerFault(worker=1, after_envelopes=2, kind="restart"),),
        ),
    )
    assert np.array_equal(base.estimated_counts, svc.estimated_counts)
    assert svc.absorbed_reports == 800
    assert svc.backend == "process"


def test_windowed_process_run_with_faults_equals_the_crash_free_inline_run(
    tmp_path,
):
    # A windowed run is a function of its inputs.  Real worker processes,
    # one SIGKILLed and respawned mid-stream, duplicate delivery and a
    # combiner crash-restore give the crash-free inline run's estimates,
    # sealed windows and late count, and those equal one collector per
    # shard fed that shard's envelopes in client order.
    from repro.protocol import EventTimeCollector
    from repro.protocol.service import _privatize_envelopes

    gen = np.random.default_rng(12)
    n, chunk, seed = 2400, 100, 41
    oracle = make_oracle("OLH", 8, 1.2)
    events = gen.uniform(0.0, 12.0, size=n)
    delay = gen.exponential(1.5, size=n) * (gen.random(n) < 0.1)
    arrival = np.argsort(events + delay, kind="stable")
    vals, ts = gen.integers(0, 8, size=n)[arrival], events[arrival]
    window = WindowSpec.event_tumbling(1.0, allowed_lateness=0.25)
    common = dict(
        num_ingest=2, chunk_size=chunk, rng=seed, timestamps=ts, window=window,
        placement="round_robin",
    )
    clean = run_distributed_collection(oracle, vals, backend="inline", **common)
    chaotic = run_distributed_collection(
        oracle,
        vals,
        backend="process",
        credit_window=2,
        checkpoint_path=str(tmp_path / "combiner.ckpt"),
        checkpoint_every_ships=1,
        faults=FaultPlan(
            seed=5,
            duplicate_every=3,
            crash_combiner_at_ships=(4,),
            worker_faults=(WorkerFault(worker=1, after_envelopes=5, kind="restart"),),
        ),
        **common,
    )
    assert chaotic.combiner_restarts == 1
    assert sum(w.duplicate_envelopes for w in chaotic.workers) > 0
    assert clean.late_reports > 0
    for run in (clean, chaotic):
        assert run.absorbed_reports + run.late_reports == n
    assert (chaotic.absorbed_reports, chaotic.late_reports) == (
        clean.absorbed_reports, clean.late_reports
    )
    assert np.array_equal(chaotic.estimated_counts, clean.estimated_counts)
    assert [(w.pane, w.users) for w in chaotic.windows] == [
        (w.pane, w.users) for w in clean.windows
    ]
    for got, want in zip(chaotic.windows, clean.windows):
        assert np.array_equal(got.estimated_counts, want.estimated_counts)
    gens = np.random.default_rng(seed).spawn(2)
    late, users = 0, {}
    for w in range(2):
        collector = EventTimeCollector(oracle, window, user_model="disjoint_users")
        for _, timed in _privatize_envelopes(
            oracle, w, vals[w::2], ts[w::2], chunk, gens[w]
        ):
            collector.absorb(timed)
        result = collector.finish()
        late += result.late_reports
        for snap in result.snapshots:
            pane = snap.window_index
            users[pane] = users.get(pane, 0) + snap.window_users
    assert clean.late_reports == late
    assert [(w.pane, w.users) for w in clean.windows] == [
        (p, u) for p, u in sorted(users.items()) if u
    ]


def test_orchestrator_validation():
    oracle = make_oracle("DE", 4, 1.0)
    vals = np.arange(8) % 4
    with pytest.raises(ValueError, match="backend"):
        run_distributed_collection(oracle, vals, backend="carrier-pigeon")
    with pytest.raises(ValueError, match="process"):
        run_distributed_collection(
            oracle,
            vals,
            backend="inline",
            faults=FaultPlan(
                worker_faults=(WorkerFault(worker=0, after_envelopes=1, kind="restart"),)
            ),
        )
    with pytest.raises(ValueError, match="lease_timeout"):
        run_distributed_collection(
            oracle,
            vals,
            backend="inline",
            faults=FaultPlan(
                worker_faults=(WorkerFault(worker=0, after_envelopes=1, kind="kill"),)
            ),
        )
    with pytest.raises(ValueError, match="checkpoint_path"):
        run_distributed_collection(
            oracle, vals, faults=FaultPlan(crash_combiner_at_ships=(1,))
        )
    with pytest.raises(ValueError, match="timestamps"):
        run_distributed_collection(
            oracle, vals, window=WindowSpec.event_tumbling(10.0)
        )
    with pytest.raises(ValueError, match="num_ingest"):
        run_distributed_collection(oracle, vals, num_ingest=9)


# -- fault tolerance over real sockets ---------------------------------------


def test_combiner_crash_restore_bit_identical(tmp_path):
    # The tentpole demo: the combiner is killed between receiving a
    # ship and acking it, a successor restores the checkpoint on the
    # same port, workers reship at-risk + unacked payloads — and the
    # estimates are bit-identical to the crash-free single-host run.
    oracle = make_oracle("OLH", 10, 1.2)
    vals = np.random.default_rng(6).integers(0, 10, size=900)
    base = run_sharded_collection(
        oracle, vals, num_shards=2, chunk_size=90, rng=31
    )
    svc = run_distributed_collection(
        oracle,
        vals,
        num_ingest=2,
        chunk_size=90,
        rng=31,
        backend="inline",
        # One envelope per ship, so the run ships often enough to crash.
        credit_window=1,
        faults=FaultPlan(seed=8, crash_combiner_at_ships=(3,)),
        checkpoint_path=str(tmp_path / "combiner.ckpt"),
    )
    assert svc.combiner_restarts == 1
    assert svc.checkpoints > 0 and svc.checkpoint_bytes > 0
    assert svc.recovery_seconds > 0
    assert np.array_equal(base.estimated_counts, svc.estimated_counts)
    assert svc.absorbed_reports == 900 and not svc.degraded


def test_combiner_double_crash_with_loose_cadence(tmp_path):
    # Two crashes in one round at a loose checkpoint cadence: each
    # successor restores an older snapshot and the at-risk reshipment
    # covers the gap — still bit-identical.
    oracle = make_oracle("OUE", 8, 1.1)
    vals = np.random.default_rng(8).integers(0, 8, size=800)
    base = run_sharded_collection(
        oracle, vals, num_shards=2, chunk_size=80, rng=13
    )
    svc = run_distributed_collection(
        oracle,
        vals,
        num_ingest=2,
        chunk_size=80,
        rng=13,
        backend="inline",
        credit_window=1,  # one envelope per ship: both crashes fire
        faults=FaultPlan(seed=1, crash_combiner_at_ships=(2, 3)),
        checkpoint_path=str(tmp_path / "combiner.ckpt"),
        checkpoint_every_ships=3,
    )
    assert svc.combiner_restarts == 2
    assert np.array_equal(base.estimated_counts, svc.estimated_counts)


def test_dead_worker_evicted_with_exact_loss_accounting():
    # A worker SIGKILLed mid-stream goes silent; the combiner's lease
    # sweep evicts it so the merged watermark and drain can complete,
    # and every one of its reports is accounted: shipped ones absorbed,
    # undelivered ones lost — never silently dropped.
    oracle = make_oracle("OLH", 10, 1.2)
    n = 600
    vals = np.random.default_rng(14).integers(0, 10, size=n)
    svc = run_distributed_collection(
        oracle,
        vals,
        num_ingest=2,
        chunk_size=60,
        rng=19,
        backend="inline",
        lease_timeout=0.5,
        faults=FaultPlan(
            seed=2,
            worker_faults=(WorkerFault(worker=1, after_envelopes=2, kind="kill"),),
        ),
    )
    assert svc.degraded and svc.evicted_workers == (1,)
    assert svc.lost_reports > 0
    assert svc.absorbed_reports + svc.late_reports + svc.lost_reports == n
    assert svc.merged_frontier == math.inf  # the watermark was unblocked
    notes = svc.ledger.notes
    assert any("evicted worker 1" in note for note in notes)
    assert any("degraded round" in note for note in notes)


def test_partitioned_worker_heals_and_recovers_bit_identical():
    # A partition long enough to expire the lease: the worker is
    # evicted, then heals when the link returns and reships everything
    # outstanding — no data loss, bit-identical estimates, but the
    # round is still honestly marked degraded.
    oracle = make_oracle("OUE", 8, 1.1)
    vals = np.random.default_rng(21).integers(0, 8, size=600)
    base = run_sharded_collection(
        oracle, vals, num_shards=2, chunk_size=60, rng=29
    )
    svc = run_distributed_collection(
        oracle,
        vals,
        num_ingest=2,
        chunk_size=60,
        rng=29,
        backend="inline",
        lease_timeout=0.3,
        faults=FaultPlan(
            seed=6,
            worker_faults=(
                WorkerFault(
                    worker=0,
                    after_envelopes=2,
                    kind="partition",
                    partition_seconds=1.2,
                ),
            ),
        ),
    )
    assert svc.degraded and svc.evicted_workers == (0,)
    assert svc.lost_reports == 0 and svc.absorbed_reports == 600
    assert np.array_equal(base.estimated_counts, svc.estimated_counts)


def test_dropped_and_delayed_frames_recovered_by_retransmit():
    # Transport chaos (drops recovered by the ack-timeout retransmit,
    # delays, duplicates) must be bit-invisible.
    oracle = make_oracle("OLH", 10, 1.2)
    vals = np.random.default_rng(33).integers(0, 10, size=600)
    base = run_sharded_collection(
        oracle, vals, num_shards=2, chunk_size=60, rng=37
    )
    svc = run_distributed_collection(
        oracle,
        vals,
        num_ingest=2,
        chunk_size=60,
        rng=37,
        backend="inline",
        faults=FaultPlan(
            seed=12,
            drop_rate=0.25,
            duplicate_rate=0.2,
            delay_rate=0.1,
            delay_seconds=0.01,
            ack_timeout=0.4,
        ),
    )
    assert np.array_equal(base.estimated_counts, svc.estimated_counts)
    assert svc.absorbed_reports == 600 and not svc.degraded


def test_unwindowed_checkpoint_holds_each_partial_once():
    # An unwindowed combiner merges its partials into the running total
    # alone, so its checkpoint carries one accumulator payload.  A
    # checkpoint in the older layout — an unwindowed pane entry that
    # duplicates the total — restores to the same state.
    oracle = make_oracle("OLH", 64, 1.0)
    envelopes, reports = _envelopes(oracle, np.arange(1280) % 64, 256)
    folder = ShardFolder(oracle, worker_id=0)
    core = CombinerCore(oracle, num_workers=1)
    core.register(0)
    for eid, batch in envelopes:
        core.receive(folder.offer(eid, batch))
    blob = core.to_checkpoint()
    header, arrays = decode_checkpoint(blob)
    assert header["panes"] == []
    assert sorted(arrays) == ["total"]
    header["panes"] = [[None, "pane0"]]
    arrays["pane0"] = arrays["total"]
    restored = CombinerCore.from_checkpoint(
        oracle, encode_checkpoint(header, arrays)
    )
    assert restored.to_checkpoint() == blob
    result = core_result_after_drain(restored)
    assert result.absorbed_reports == 1280
    assert np.array_equal(
        result.estimated_counts, oracle.estimate_counts(reports)
    )


def test_checkpoint_rejects_mismatched_configuration(tmp_path):
    # A checkpoint written by one fleet shape must not silently restore
    # into another: worker-count and window fingerprints are enforced.
    from repro.protocol.transport import CheckpointError

    oracle = make_oracle("DE", 6, 1.0)
    core = CombinerCore(oracle, num_workers=2)
    blob = core.to_checkpoint()
    restored = CombinerCore.from_checkpoint(oracle, blob)
    assert restored.num_workers == 2
    with pytest.raises(CheckpointError, match="window"):
        CombinerCore.from_checkpoint(
            oracle, blob, window=WindowSpec.event_tumbling(5.0)
        )
    with pytest.raises(CheckpointError):
        CombinerCore.from_checkpoint(oracle, b"not a checkpoint")
