"""Outside-in per-layer trace: spans around the public calls of each layer.

A :class:`Tracer` wraps the public methods and module functions listed in
:func:`layer_targets` for one traced run, then puts the originals back.
Each wrapped call records a span ``(layer, start, end, parent)`` on the
calling thread and bumps the layer's counters.  A layer's self time is
its spans' duration minus the part covered by their child spans.

Every workload's blocking path runs on one thread (the serial backend,
the inline event loop, or the stream loop), so the self times of all
spans plus ``trace.other_s`` (traced wall minus the time covered by
top-level spans) add up to the traced wall.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

#: Layers whose self time is reported, as a share of the traced wall.
LAYERS = (
    "core.privatize",
    "core.absorb",
    "core.merge",
    "core.finalize",
    "core.wire",
    "core.ledger",
    "transport.encode",
    "transport.decode",
    "service.fold",
    "service.combine",
    "service.checkpoint",
    "streaming.collect",
    "simulation",
    "heavyhitters",
)

#: Counters recorded at the wrapped calls (0 where a workload never calls).
COUNTERS = (
    "core.privatize.calls",
    "core.absorb.calls",
    "core.absorb.rows",
    "core.wire.bytes",
    "core.ledger.calls",
    "transport.frames",
    "transport.bytes",
    "service.fold.batches",
    "service.ships",
    "service.checkpoints",
    "service.checkpoint.bytes",
    "streaming.envelopes",
    "streaming.windows",
    "heavyhitters.candidates",
)

#: Largest allowed gap between (self times + other) and the traced wall.
SUM_TOLERANCE = 0.01

_MISSING = object()


def _calls(key):
    def count(counts, args, result):
        counts[key] += 1

    return count


def _absorb(counts, args, result):
    counts["core.absorb.calls"] += 1
    counts["core.absorb.rows"] += len(args[1])


def _wire_out(counts, args, result):
    counts["core.wire.bytes"] += len(result)


def _wire_in(counts, args, result):
    counts["core.wire.bytes"] += len(args[1])


def _frame(counts, args, result):
    counts["transport.frames"] += 1
    counts["transport.bytes"] += len(result)


def _checkpoint(counts, args, result):
    counts["service.checkpoints"] += 1
    counts["service.checkpoint.bytes"] += len(result)


def _windows(counts, args, result):
    counts["streaming.windows"] = len(result)


def _candidates(counts, args, result):
    counts["heavyhitters.candidates"] += len(args[2])


def layer_targets() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, layer, counter)`` for every wrapped public call."""
    import repro.heavyhitters.pem as pem
    import repro.protocol.transport as transport
    from repro.core import (
        Accumulator,
        OptimalLocalHashing,
        PrivacyLedger,
        PureAccumulator,
    )
    from repro.protocol import CombinerCore, EventTimeCollector, ShardFolder

    return [
        (OptimalLocalHashing, "privatize", "core.privatize", _calls("core.privatize.calls")),
        (PureAccumulator, "absorb", "core.absorb", _absorb),
        (PureAccumulator, "merge", "core.merge", None),
        (PureAccumulator, "finalize", "core.finalize", None),
        (Accumulator, "to_bytes", "core.wire", _wire_out),
        (Accumulator, "from_bytes", "core.wire", _wire_in),
        (PrivacyLedger, "charge", "core.ledger", _calls("core.ledger.calls")),
        (transport, "encode_message", "transport.encode", _frame),
        (transport, "decode_message", "transport.decode", None),
        (ShardFolder, "offer_batch", "service.fold", _calls("service.fold.batches")),
        (CombinerCore, "receive", "service.combine", _calls("service.ships")),
        (CombinerCore, "to_checkpoint", "service.checkpoint", _checkpoint),
        (EventTimeCollector, "absorb", "streaming.collect", _calls("streaming.envelopes")),
        (EventTimeCollector, "finish", "streaming.collect", _windows),
        (pem, "collect_group", "heavyhitters", _candidates),
    ]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.thread = threading.get_ident()
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.offthread_calls = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, counter=None):
        """``fn`` recording a span (and its counters) on the traced thread."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock, ident, thread = time.perf_counter, threading.get_ident, self.thread

        def traced(*args, **kwargs):
            if ident() != thread:
                self.offthread_calls += 1
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, layer: str, counter=None) -> None:
        """Replace ``owner.attr`` with its traced form until :meth:`restore`."""
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self.wrap(layer, getattr(owner, attr), counter))

    def install(self, workload) -> None:
        for owner, attr, layer, counter in layer_targets():
            self.patch(owner, attr, layer, counter)
        if workload.span is not None:
            self.patch(workload, "entry", workload.span)

    def restore(self) -> None:
        """Put back every original attribute, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)  # the class inherited it
            else:
                setattr(owner, attr, original)

    def dump(self) -> dict:
        """The run's spans in a JSON-able form (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "run_id": self.run_id,
            "thread": self.thread,
            "fields": ["layer", "start_s", "end_s", "parent"],
            "spans": [
                [layer, start - origin, end - origin, parent]
                for layer, start, end, parent in self.spans
            ],
        }


def self_times(spans) -> tuple[dict[str, float], float]:
    """Per-layer self time and the time covered by top-level spans.

    ``spans`` are ``(layer, start, end, parent index)`` on one thread; a
    span's self time is its duration minus its children's durations.
    """
    covered = [0.0] * len(spans)
    top = 0.0
    for layer, start, end, parent in spans:
        if parent < 0:
            top += end - start
        else:
            covered[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    for (layer, start, end, _parent), child in zip(spans, covered):
        own[layer] += end - start - child
    return dict(own), top


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """One traced run's per-layer metrics; checks they add up to ``wall``."""
    own, top = self_times(tracer.spans)
    other = wall - top
    # Self times telescope, so the sum holds whenever the spans nest; a
    # negative part shows spans that overlap or outlive the timed call.
    parts = list(own.values()) + [other]
    if abs(sum(parts) - wall) > SUM_TOLERANCE * wall or min(parts) < -SUM_TOLERANCE * wall:
        raise AssertionError(
            f"layer self times {own} and other {other:.6f}s do not "
            f"partition the traced wall {wall:.6f}s"
        )
    unknown = set(own) - set(LAYERS)
    if unknown:
        raise AssertionError(f"spans of unlisted layers {sorted(unknown)}")
    metrics = {f"{layer}.share": own.get(layer, 0.0) / wall for layer in LAYERS}
    metrics["trace.other.share"] = other / wall
    metrics.update({key: float(tracer.counts.get(key, 0.0)) for key in COUNTERS})
    rows = metrics.pop("core.absorb.rows")
    metrics["core.absorb.rows_per_call"] = rows / max(metrics["core.absorb.calls"], 1)
    metrics["trace.spans"] = float(len(tracer.spans))
    return metrics
