"""Model-based test of the service cores: two folders and one combiner.

A hypothesis state machine drives two :class:`ShardFolder` workers and
one :class:`CombinerCore` at logical time, windowed by
``event_tumbling(1, lateness 0.25)``, through the interleavings the
scenario tests cannot enumerate: coalesced batches of 1–8 envelopes
with ~10% stragglers, client duplicates, reships of merged ships,
checkpoint and restore (with redelivery overlap), heartbeats, lease
expiry, and worker restarts that refold the client's unacked tail.

After every step:

* ``absorbed + late`` equals the reports of the distinct envelopes the
  combiner received;
* sealed panes are unique and increasing;
* sealed plus open window users equal ``absorbed``;
* with leases off, the late count and every sealed window equal one
  :class:`EventTimeCollector` per shard (``disjoint_users``, fed that
  shard's envelopes in client order), a per-pane batch fold of the
  reports those collectors absorbed, and a never-restored twin core.

Lease eviction is the declared exception to the reference: a worker
that heals after its lease expired ships partials for panes the fleet
sealed without it, and the combiner counts them late.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import TimedReports, make_oracle
from repro.core.timed import slice_report_batch
from repro.protocol import CombinerCore, EventTimeCollector, ShardFolder, WindowSpec

WINDOW = WindowSpec.event_tumbling(1.0, allowed_lateness=0.25)
ORACLE = make_oracle("OLH", 8, 1.2)
WORKERS = 2
LEASE = 10.0

workers = st.integers(0, WORKERS - 1)


class ServiceCores(RuleBasedStateMachine):
    """Two ingest folders, one combiner core, and the reference model."""

    @initialize(leases=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def start(self, leases, seed):
        self.leases = leases
        self.gen = np.random.default_rng(seed)
        self.pace = self.gen.uniform(0.1, 0.6, size=WORKERS)
        self.now = 0.0
        self.core = self._fresh_core()
        self.twin = self._fresh_core()
        self.folders = [ShardFolder(ORACLE, w, window=WINDOW) for w in range(WORKERS)]
        self.clock = [0.0] * WORKERS
        self.sent = [[] for _ in range(WORKERS)]  # fresh ids, client order
        self.payloads = {}
        self.outbox = [[] for _ in range(WORKERS)]  # folded, not delivered
        self.delivered = [[] for _ in range(WORKERS)]
        self.received = set()
        self.received_rows = 0
        self.log = []  # combiner messages since the last checkpoint
        for w in range(WORKERS):
            self._send("register", w)
        self.checkpoint()
        # The reference: one collector per shard, plus the on-time
        # reports of each pane folded as one batch.
        self.collectors = [
            EventTimeCollector(ORACLE, WINDOW, user_model="disjoint_users")
            for _ in range(WORKERS)
        ]
        self.model_frontier = [None] * WORKERS
        self.model_late = 0
        self.model_panes = {}
        self.checked = 0

    def _fresh_core(self):
        lease = LEASE if self.leases else None
        return CombinerCore(
            ORACLE, WORKERS, window=WINDOW, lease_timeout=lease, now=self.now
        )

    # -- plumbing -------------------------------------------------------------

    def _apply(self, core, message):
        kind, worker, arg = message
        if kind == "register":
            return core.register(worker, now=self.now)
        if kind == "ship":
            return core.receive(arg, now=self.now)
        return core.heartbeat(worker, arg, now=self.now)

    def _send(self, kind, worker, arg=None):
        """One combiner message, to the core and its never-restored twin."""
        message = (kind, worker, arg)
        self._apply(self.twin, message)
        self.log.append(message)
        return self._apply(self.core, message)

    def _envelope(self, worker):
        gen = self.gen
        size = int(gen.integers(0, 13))
        self.clock[worker] += gen.exponential(self.pace[worker])
        ts = self.clock[worker] + gen.uniform(-0.3, 0.3, size=size)
        stragglers = gen.random(size) < 0.1
        ts[stragglers] -= gen.uniform(0.5, 3.0, size=int(stragglers.sum()))
        reports = slice_report_batch(
            ORACLE.privatize(gen.integers(0, 8, size=size + 1), rng=gen),
            np.arange(size),
        )
        eid = f"w{worker}:{len(self.sent[worker])}"
        self.sent[worker].append(eid)
        self.payloads[eid] = TimedReports(ts, reports)
        return eid

    def _first_receipt(self, worker, eid):
        """Account an envelope the combiner merges for the first time."""
        timed = self.payloads[eid]
        self.received.add(eid)
        self.received_rows += len(timed)
        self.collectors[worker].absorb(timed)
        if not len(timed):
            return
        frontier = self.model_frontier[worker]
        panes = WINDOW.pane_index(timed.timestamps)
        on_time = np.ones(len(timed), dtype=bool)
        if frontier is not None:
            mark = frontier - WINDOW.allowed_lateness
            on_time = np.array([WINDOW.pane_bounds(int(p))[1] > mark for p in panes])
        self.model_late += int((~on_time).sum())
        for pane in np.unique(panes[on_time]).tolist():
            acc = self.model_panes.setdefault(pane, ORACLE.accumulator())
            acc.absorb(slice_report_batch(timed.reports, on_time & (panes == pane)))
        high = float(timed.timestamps.max())
        self.model_frontier[worker] = high if frontier is None else max(frontier, high)

    def _deliver(self, worker, ship):
        for eid in ship.envelope_ids:
            if eid not in self.received:
                self._first_receipt(worker, eid)
        self.delivered[worker].append(ship)
        self._send("ship", worker, ship)

    # -- rules ----------------------------------------------------------------

    @rule(worker=workers, count=st.integers(1, 8), dups=st.integers(0, 2))
    def fold(self, worker, count, dups):
        """A coalesced batch: fresh envelopes plus client duplicates."""
        old = self.sent[worker][:]
        items = [self._envelope(worker) for _ in range(count)]
        for _ in range(min(dups, len(old))):
            items.insert(
                int(self.gen.integers(0, len(items) + 1)),
                old[int(self.gen.integers(0, len(old)))],
            )
        ship, flags = self.folders[worker].offer_batch(
            [(eid, self.payloads[eid]) for eid in items]
        )
        assert len(flags) == len(items)
        if ship is not None:
            self.outbox[worker].append(ship)

    @rule(worker=workers)
    def deliver(self, worker):
        if self.outbox[worker]:
            self._deliver(worker, self.outbox[worker].pop(0))

    @rule(worker=workers, back=st.integers(1, 3))
    def reship(self, worker, back):
        """A reconnect resends a ship the combiner already merged."""
        done = self.delivered[worker]
        if done:
            self._send("ship", worker, done[-min(back, len(done))])

    @rule(worker=workers)
    def heartbeat(self, worker):
        # An idle worker's frontier covers only shipped envelopes.
        if not self.outbox[worker]:
            self._send("heartbeat", worker, self.folders[worker].frontier)

    @rule()
    def checkpoint(self):
        self.blob = self.core.to_checkpoint()
        # Redelivery overlap: the last ships the checkpoint covers.
        self.overlap = [m for m in self.log if m[0] == "ship"][-2:]
        self.log = []

    @rule()
    def restore(self):
        """A combiner crash: restore, then the fleet resends and renews."""
        self.core = CombinerCore.from_checkpoint(
            ORACLE,
            self.blob,
            window=WINDOW,
            lease_timeout=LEASE if self.leases else None,
            now=self.now,
        )
        for message in [*self.overlap, *self.log]:
            self._apply(self.core, message)

    @precondition(lambda self: self.leases)
    @rule(worker=workers)
    def expire(self, worker):
        """``worker`` falls silent past its lease; the other stays live."""
        self.now += LEASE + 1.0
        other = 1 - worker
        if self.outbox[other]:
            self._deliver(other, self.outbox[other].pop(0))
        else:
            self._send("heartbeat", other, self.folders[other].frontier)
        self.twin.check_leases(self.now)
        if self.core.check_leases(self.now):
            self.checkpoint()  # the daemon checkpoints every eviction

    @rule(worker=workers, back=st.integers(0, 3))
    def restart(self, worker, back):
        """The worker dies with its outbox; the client resends its tail."""
        self.outbox[worker] = []
        folder = ShardFolder(ORACLE, worker, window=WINDOW)
        folder.resume(self._send("register", worker))
        self.folders[worker] = folder
        sent = self.sent[worker]
        first = next(
            (i for i, eid in enumerate(sent) if eid not in self.received), len(sent)
        )
        tail = sent[max(0, first - back):]
        if tail:
            ship, _ = folder.offer_batch([(eid, self.payloads[eid]) for eid in tail])
            if ship is not None:
                self.outbox[worker].append(ship)

    # -- invariants -----------------------------------------------------------

    @invariant()
    def every_report_accounted(self):
        assert self.core.absorbed + self.core.late == self.received_rows

    @invariant()
    def sealed_panes_unique_and_increasing(self):
        panes = [w.pane for w in self.core.sealed_windows]
        assert panes == sorted(set(panes))

    @invariant()
    def window_users_cover_absorbed(self):
        sealed = sum(w.users for w in self.core.sealed_windows)
        held = sum(acc.n_absorbed for acc in self.core._panes.values())
        assert sealed + held == self.core.absorbed

    @invariant()
    def equals_the_reference(self):
        if self.leases:
            return
        core, twin = self.core, self.twin
        collected = sum(c.late_reports for c in self.collectors)
        assert core.late == twin.late == self.model_late == collected
        assert core.absorbed == twin.absorbed
        windows, twins = core.sealed_windows, twin.sealed_windows
        assert len(windows) == len(twins)
        users = {}
        for collector in self.collectors:
            for snap in collector.snapshots:
                users[snap.window_index] = (
                    users.get(snap.window_index, 0) + snap.window_users
                )
        for sealed, other in zip(windows[self.checked:], twins[self.checked:]):
            assert (sealed.pane, sealed.users, sealed.merged_frontier) == (
                other.pane, other.users, other.merged_frontier
            )
            assert np.array_equal(sealed.estimated_counts, other.estimated_counts)
            assert sealed.users == users[sealed.pane]
            assert np.array_equal(
                sealed.estimated_counts, self.model_panes[sealed.pane].finalize()
            )
        self.checked = len(windows)

    def teardown(self):
        """Deliver what is left, drain the fleet, and check once more."""
        if not hasattr(self, "core"):
            return
        for w in range(WORKERS):
            while self.outbox[w]:
                self._deliver(w, self.outbox[w].pop(0))
        for core in (self.core, self.twin):
            for w in range(WORKERS):
                core.drain(w, now=self.now)
        for collector in self.collectors:
            collector.finish()
        self.every_report_accounted()
        self.sealed_panes_unique_and_increasing()
        self.window_users_cover_absorbed()
        self.equals_the_reference()
        if not self.leases:
            assert [w.pane for w in self.core.sealed_windows] == sorted(
                p for p, acc in self.model_panes.items() if acc.n_absorbed
            )


ServiceCores.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServiceCores = ServiceCores.TestCase


def _member(gen, oracle, kind, windowed):
    """One envelope: empty, all behind the watermark, across panes, or
    far ahead, raising the frontier the members after it are judged by."""
    drawn = int(gen.integers(1, 30))
    size = {"empty": 0, "late": 5}.get(kind, drawn)
    reports = slice_report_batch(
        oracle.privatize(gen.integers(0, 8, size=size + 1), rng=gen),
        np.arange(size),
    )
    if not windowed:
        return reports
    low, high = {"late": (0.0, 5.0), "ahead": (20.0, 30.0)}.get(kind, (8.0, 14.0))
    return TimedReports(gen.uniform(low, high, size=size), reports)


@pytest.mark.parametrize("name", ["OLH", "OUE", "HR"])
@pytest.mark.parametrize("windowed", [True, False], ids=["windowed", "unwindowed"])
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(
        st.sampled_from(["empty", "late", "panes", "ahead"]), min_size=1, max_size=6
    ),
)
@settings(max_examples=15, deadline=None)
def test_one_batch_folds_like_one_offer_per_member(name, windowed, seed, kinds):
    """One ``offer_batch`` over k members equals k single-member offers.

    Rows, ``n``, panes, sections, late counts and frontier are byte-equal,
    so the one keyed fold per batch changes nothing the combiner sees.
    """
    oracle = make_oracle(name, 8, 1.2)
    gen = np.random.default_rng(seed)
    window = WINDOW if windowed else None
    prime = _member(gen, oracle, "panes", windowed)
    members = [(f"m{i}", _member(gen, oracle, k, windowed)) for i, k in enumerate(kinds)]
    batched, single = (ShardFolder(oracle, window=window) for _ in range(2))
    for folder in (batched, single):
        folder.offer("prime", prime)  # a watermark near 14 - 0.25
    ship, _ = batched.offer_batch(members)
    ships = [single.offer(eid, payload) for eid, payload in members]
    assert ship.sections == sum((s.sections for s in ships), ())
    assert ship.late == sum((s.late for s in ships), ())
    assert ship.frontier == ships[-1].frontier
    assert ship.num_reports == sum(s.num_reports for s in ships)
    assert ship.n.tobytes() == np.concatenate([s.n for s in ships]).tobytes()
    if windowed:
        assert ship.pane_indices.tobytes() == np.concatenate(
            [s.pane_indices for s in ships]
        ).tobytes()
        assert all(late == 5 for late, k in zip(ship.late, kinds) if k == "late")
    else:
        assert ship.pane_indices is None and not any(ship.late)
    assert set(ship.rows) == set(ships[0].rows)
    for key, rows in ship.rows.items():
        assert rows.dtype == ships[0].rows[key].dtype
        assert rows.tobytes() == np.concatenate([s.rows[key] for s in ships]).tobytes()
