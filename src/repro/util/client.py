"""The client thread: privatize steps run one ahead of the aggregator.

Decoding a chunk fans out over the kernel tile pool and releases the
GIL, so the next chunk can be privatized meanwhile.  The serial batch
pipeline runs every shard's chunks through :func:`_privatize_ahead`,
and the PEM heavy-hitter protocol every group's chunks.
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import islice

import numpy as np


def _chunks(values: np.ndarray, chunk_size: int) -> list[np.ndarray]:
    """``values`` cut, in order, into chunks of at most ``chunk_size``."""
    return [
        values[start : start + chunk_size]
        for start in range(0, values.shape[0], chunk_size)
    ]


@contextmanager
def _privatize_ahead(batches: Iterator, count: int) -> Iterator[Iterator]:
    """Take ``count`` items from ``batches`` on one client thread, one ahead.

    Each step of ``batches`` (typically a generator) privatizes at most
    one chunk of users.  Only the client thread advances it, one step at
    a time, so every generator it draws from sees the draws the inline
    loop ``islice(batches, count)`` makes.  The context yields an
    iterator over the ``count`` items, in order: item ``i + 1`` is made
    while the caller holds item ``i``, and item ``i + 2`` only when the
    caller asks for item ``i + 1``, so a caller that drops each item
    before asking for the next keeps at most two chunks' reports alive.
    Fewer than two items are made inline, when asked for, with no thread.

    An error raised by ``batches`` is raised by the iterator, once the
    client is idle.  An error the caller raises inside the context waits
    for the running step to end.  Either way the client thread has
    stopped before the error leaves the context.
    """
    if count < 2:
        yield islice(batches, count)
        return
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-client") as client:

        def results() -> Iterator:
            ahead = client.submit(next, batches)
            for _ in range(count - 1):
                done = ahead.result()
                ahead = client.submit(next, batches)
                yield done
                del done  # the caller holds the only reference it needs
            yield ahead.result()

        yield results()
