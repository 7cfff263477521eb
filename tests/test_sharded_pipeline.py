"""The sharded collection pipeline and report-size accounting.

`run_sharded_collection` is the deployment-shaped entry point: chunked
privatization, per-shard accumulators, one merge into a *fresh*
accumulator, one finalize.  These tests pin its determinism (worker
schedule and executor backend must not matter), the non-destructive
merge (shard accumulators stay untouched — the PR 2 aliasing
regression), its bounded-memory chunking, its bookkeeping, and the
`report_bytes` classification fix.
"""

import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import weakref

import numpy as np
import pytest

import repro
from repro.core import (
    DirectEncoding,
    OptimalLocalHashing,
    OptimalUnaryEncoding,
    make_oracle,
)
from repro.protocol import report_bytes, run_collection, run_sharded_collection


class TestShardedCollection:
    def test_matches_population_statistics(self):
        oracle = DirectEncoding(16, 2.0)
        values = np.arange(16).repeat(500)
        stats = run_sharded_collection(
            oracle, values, num_shards=4, chunk_size=1000, rng=1
        )
        assert stats.num_users == 8000
        assert stats.estimated_counts.shape == (16,)
        sd = oracle.count_stddev(8000, f=1 / 16)
        assert np.all(np.abs(stats.estimated_counts - 500) < 6 * sd)

    def test_worker_schedule_does_not_change_results(self):
        oracle = OptimalLocalHashing(32, 1.5)
        values = np.random.default_rng(2).integers(0, 32, size=6000)
        seq = run_sharded_collection(
            oracle, values, num_shards=5, chunk_size=700, workers=None, rng=3
        )
        pooled = run_sharded_collection(
            oracle, values, num_shards=5, chunk_size=700, workers=4, rng=3
        )
        assert np.array_equal(seq.estimated_counts, pooled.estimated_counts)

    def test_chunking_is_bounded_and_counted(self):
        oracle = DirectEncoding(8, 1.0)
        values = np.arange(8).repeat(400)  # 3200 users
        stats = run_sharded_collection(
            oracle, values, num_shards=2, chunk_size=300, rng=4
        )
        assert stats.num_shards == 2
        assert len(stats.shards) == 2
        for shard in stats.shards:
            assert shard.num_users == 1600
            # ceil(1600 / 300) chunks — the memory bound really applies
            assert shard.num_chunks == 6
            assert shard.encode_seconds >= 0.0
            assert shard.decode_seconds >= 0.0
        assert stats.encode_seconds == sum(
            s.encode_seconds for s in stats.shards
        )
        assert stats.total_bytes == 8.0 * 3200  # int64 DE reports

    def test_single_shard_single_chunk_matches_run_collection_shape(self):
        oracle = OptimalUnaryEncoding(8, 1.0)
        values = np.arange(8).repeat(100)
        one = run_collection(oracle, values, rng=5)
        sharded = run_sharded_collection(
            oracle, values, num_shards=1, chunk_size=10_000, rng=5
        )
        assert one.estimated_counts.shape == sharded.estimated_counts.shape
        assert sharded.shards[0].bytes_per_report == one.bytes_per_report
        assert sharded.users_per_second > 0

    def test_uneven_shards_cover_everyone(self):
        oracle = DirectEncoding(4, 1.0)
        values = np.arange(4).repeat(25)  # 100 users, 3 shards → 34/33/33
        stats = run_sharded_collection(
            oracle, values, num_shards=3, chunk_size=10, rng=6
        )
        assert [s.num_users for s in stats.shards] == [34, 33, 33]
        assert sum(s.num_users for s in stats.shards) == 100

    def test_validation(self):
        oracle = DirectEncoding(4, 1.0)
        values = np.arange(4).repeat(5)
        with pytest.raises(ValueError):
            run_sharded_collection(oracle, values, num_shards=0)
        with pytest.raises(ValueError):
            run_sharded_collection(oracle, values, chunk_size=0)
        with pytest.raises(ValueError):
            run_sharded_collection(oracle, values, num_shards=21)
        with pytest.raises(ValueError):
            run_sharded_collection(oracle, np.zeros((2, 2)), num_shards=1)
        with pytest.raises(ValueError):
            run_sharded_collection(oracle, values, backend="gpu")
        with pytest.raises(ValueError, match="unknown backend"):
            run_sharded_collection(oracle, values, backend="process")

    @pytest.mark.parametrize("name", ["DE", "OUE", "SHE", "OLH", "HR"])
    def test_every_core_oracle_runs_through_the_pipeline(self, name):
        oracle = make_oracle(name, 8, 1.0)
        values = np.arange(8).repeat(50)
        stats = run_sharded_collection(
            oracle, values, num_shards=3, chunk_size=64, workers=2, rng=7
        )
        assert stats.estimated_counts.shape == (8,)
        assert abs(stats.estimated_counts.sum() - 400) < 400


class _TrackingOracle(DirectEncoding):
    """DE that records every accumulator it hands out."""

    def __init__(self, domain_size, epsilon):
        super().__init__(domain_size, epsilon)
        self.created = []

    def accumulator(self, candidates=None):
        acc = super().accumulator(candidates)
        self.created.append(acc)
        return acc


class TestNonDestructiveMerge:
    def test_regression_shard_accumulators_are_not_mutated_by_the_merge(self):
        # The PR 1 pipeline merged every shard into shard 0's accumulator
        # in place, silently inflating its state to the whole population.
        # The merge must go into a fresh accumulator instead: every
        # shard's accumulator keeps exactly its own shard's reports.
        oracle = _TrackingOracle(8, 1.5)
        values = np.arange(8).repeat(30)  # 240 users, 3 shards of 80
        stats = run_sharded_collection(
            oracle, values, num_shards=3, chunk_size=50, rng=11
        )
        # 3 shard accumulators + 1 fresh merge target.
        assert len(oracle.created) == 4
        shard_accs = oracle.created[:3]
        assert [acc.n_absorbed for acc in shard_accs] == [80, 80, 80]
        # The shard accumulators still merge to the published estimate —
        # they were read, not consumed.
        remerged = oracle.accumulator()
        for acc in shard_accs:
            remerged.merge(acc)
        assert np.array_equal(remerged.finalize(), stats.estimated_counts)

    def test_single_shard_stats_are_not_the_whole_population_twice(self):
        # With one shard the old code finalized the shard accumulator
        # directly; the fresh-merge path must give the same numbers.
        oracle = _TrackingOracle(4, 1.0)
        values = np.arange(4).repeat(25)
        stats = run_sharded_collection(
            oracle, values, num_shards=1, chunk_size=40, rng=3
        )
        assert oracle.created[0].n_absorbed == 100
        assert np.array_equal(
            oracle.created[0].finalize(), stats.estimated_counts
        )


class TestExecutorBackends:
    def test_process_backend_after_the_kernel_pool_started(self):
        """Forked children must not queue tiles to the parent's pool.

        The parent's serial run starts the kernel tile pool (65,536
        reports × 64 candidates is past the inline threshold); a child
        forked after it inherits the pool object but none of its threads,
        and must collect the same estimates.  Runs in a subprocess of its
        own session so a hang is killed with every child it forked.
        """
        script = textwrap.dedent(
            """
            import multiprocessing
            import numpy as np
            from repro.core import make_oracle
            from repro.protocol import run_sharded_collection
            oracle = make_oracle("OLH", 64, 1.0)
            values = np.random.default_rng(0).integers(0, 64, size=200_000)

            def collect(_):
                return run_sharded_collection(
                    oracle, values, num_shards=2, chunk_size=65_536,
                    backend="serial", rng=3,
                ).estimated_counts

            parent = collect(None)
            with multiprocessing.get_context("fork").Pool(2) as pool:
                children = pool.map(collect, range(2))
            for counts in children:
                assert np.array_equal(counts, parent)
            """
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            REPRO_KERNEL_THREADS="2",
            PYTHONPATH=src if not path else src + os.pathsep + path,
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("a forked child hung once the kernel pool had started")
        assert proc.returncode == 0, err

    def test_thread_backend_matches_serial(self):
        oracle = OptimalLocalHashing(16, 1.2)
        values = np.random.default_rng(5).integers(0, 16, size=2000)
        serial = run_sharded_collection(
            oracle, values, num_shards=4, chunk_size=300, backend="serial", rng=8
        )
        threaded = run_sharded_collection(
            oracle, values, num_shards=4, chunk_size=300, backend="thread",
            workers=4, rng=8,
        )
        assert np.array_equal(
            threaded.estimated_counts, serial.estimated_counts
        )

    def test_backend_none_keeps_historical_workers_semantics(self):
        oracle = DirectEncoding(8, 1.0)
        values = np.arange(8).repeat(20)
        assert run_sharded_collection(oracle, values, rng=1).backend == "serial"
        assert (
            run_sharded_collection(oracle, values, workers=1, rng=1).backend
            == "serial"
        )
        assert (
            run_sharded_collection(oracle, values, workers=3, rng=1).backend
            == "thread"
        )


class TestReportBytes:
    def test_uint8_bit_matrix_counts_bits(self):
        bits = (np.random.default_rng(1).random((50, 64)) < 0.5).astype(np.uint8)
        assert report_bytes(bits, 50) == 8.0  # 64 bits = 8 bytes

    def test_all_zero_uint8_matrix_still_counts_bits(self):
        assert report_bytes(np.zeros((10, 16), dtype=np.uint8), 10) == 2.0

    def test_regression_zero_one_int64_matrix_is_not_a_bit_matrix(self):
        # int64 payloads are transmitted at full width even when the
        # sampled values happen to all be 0/1 — dtype decides, and the
        # check must not materialize a unique pass over the batch.
        arr = np.zeros((100, 8), dtype=np.int64)
        arr[0, 0] = 1
        assert report_bytes(arr, 100) == 64.0
        assert report_bytes(np.zeros((100, 8), dtype=np.int64), 100) == 64.0

    def test_uint8_with_larger_values_counts_full_bytes(self):
        arr = np.full((10, 4), 3, dtype=np.uint8)
        assert report_bytes(arr, 10) == 4.0

    def test_float_matrix_counts_full_width(self):
        assert report_bytes(np.zeros((5, 4), dtype=np.float64), 5) == 32.0


class _FailingOLH(OptimalLocalHashing):
    """OLH whose ``privatize`` raises on its ``fail_at``-th call."""

    def __init__(self, domain_size, epsilon, fail_at=3):
        super().__init__(domain_size, epsilon)
        self.calls = 0
        self.fail_at = fail_at

    def privatize(self, values, rng=None):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError(f"client failed on chunk {self.fail_at}")
        return super().privatize(values, rng=rng)


def _client_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-client")]


class _AliveTrackingOLH(OptimalLocalHashing):
    """OLH that counts its report batches still alive at each privatize."""

    def __init__(self, domain_size, epsilon):
        super().__init__(domain_size, epsilon)
        self.batches = []
        self.alive = []
        self.threads = []
        # Thread objects, not idents: a later thread may reuse an ident.
        self.workers = []

    def privatize(self, values, rng=None):
        reports = super().privatize(values, rng=rng)
        self.batches.append(weakref.ref(reports))
        self.alive.append(sum(ref() is not None for ref in self.batches))
        self.threads.append(threading.get_ident())
        self.workers.append(threading.current_thread())
        return reports


class TestClientAhead:
    """The serial backend privatizes the next chunk on a client thread."""

    def test_privatize_error_propagates_and_stops_the_client(self):
        oracle = _FailingOLH(16, 1.0)
        values = np.arange(16).repeat(50)  # one shard of 8 chunks
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 3"):
            run_sharded_collection(
                oracle, values, num_shards=1, chunk_size=100,
                backend="serial", rng=2,
            )
        assert oracle.calls == 3  # the client stopped at the failure
        assert threading.active_count() == before

    def test_at_most_two_chunks_of_reports_are_alive(self):
        oracle = _AliveTrackingOLH(16, 1.0)
        values = np.random.default_rng(4).integers(0, 16, size=2400)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads finely
        try:
            stats = run_sharded_collection(
                oracle, values, num_shards=2, chunk_size=100, backend="serial",
                rng=5,
            )
        finally:
            sys.setswitchinterval(interval)
        assert [s.num_chunks for s in stats.shards] == [12, 12]
        assert len(oracle.alive) == 24
        assert max(oracle.alive) <= 2
        assert threading.get_ident() not in oracle.threads
        # The client thread draws from each shard's generator in chunk
        # order, so the estimates are the thread backend's.
        threaded = run_sharded_collection(
            OptimalLocalHashing(16, 1.0), values, num_shards=2, chunk_size=100,
            backend="thread", workers=2, rng=5,
        )
        assert np.array_equal(stats.estimated_counts, threaded.estimated_counts)

    def test_error_in_a_later_shard_stops_the_client(self):
        """Shard 1's first chunk fails while shard 0's last one is absorbed."""
        oracle = _FailingOLH(16, 1.0, fail_at=4)
        values = np.arange(16).repeat(36)  # two shards of three chunks
        with pytest.raises(RuntimeError, match="chunk 4"):
            run_sharded_collection(
                oracle, values, num_shards=2, chunk_size=96,
                backend="serial", rng=2,
            )
        assert oracle.calls == 4
        assert _client_threads() == []

    def test_one_chunk_shard_starts_no_thread(self):
        oracle = _AliveTrackingOLH(16, 1.0)
        values = np.arange(16).repeat(10)
        before = threading.active_count()
        stats = run_sharded_collection(
            oracle, values, num_shards=1, chunk_size=1000, backend="serial", rng=6
        )
        assert [s.num_chunks for s in stats.shards] == [1]
        assert oracle.threads == [threading.get_ident()]
        assert threading.active_count() == before

    def test_shards_share_one_client_pipeline(self):
        """Every shard's chunks run on one client thread, in round order."""
        oracle = _AliveTrackingOLH(16, 1.0)
        values = np.random.default_rng(6).integers(0, 16, size=500)
        before = threading.active_count()
        stats = run_sharded_collection(
            oracle, values, num_shards=3, chunk_size=100, backend="serial", rng=7
        )
        assert [s.num_chunks for s in stats.shards] == [2, 2, 2]
        assert len(set(oracle.workers)) == 1
        assert threading.get_ident() not in oracle.threads
        assert threading.active_count() == before
        # Two one-chunk shards are a round of two chunks: the client runs it.
        pair = _AliveTrackingOLH(16, 1.0)
        run_sharded_collection(
            pair, values[:160], num_shards=2, chunk_size=1000,
            backend="serial", rng=6,
        )
        assert len(pair.threads) == 2 and threading.get_ident() not in pair.threads
        threaded = run_sharded_collection(
            OptimalLocalHashing(16, 1.0), values, num_shards=3, chunk_size=100,
            backend="thread", workers=3, rng=7,
        )
        assert np.array_equal(stats.estimated_counts, threaded.estimated_counts)
