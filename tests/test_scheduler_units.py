"""Scheduler internals: allocation order, reinjection clipping, batch
bookkeeping, trailing-edge identification."""

import pytest

from repro.mptcp.api import connect, listen
from repro.mptcp.connection import MPTCPConfig
from repro.mptcp.scheduler import Batch, TxMapping
from repro.net.packet import Endpoint

from conftest import make_multipath, random_payload


def live_connection(net, client, server, config=None):
    holder = {}
    listen(server, 80, config=config, on_accept=lambda c: holder.update(s=c))
    conn = connect(client, Endpoint("10.9.0.1", 80), config=config)
    net.run(until=1.0)
    return conn, holder["s"]


class TestAllocation:
    def test_allocations_are_contiguous_per_pull_burst(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(100_000))
        net.run(until=net.now + 0.05)
        # Mappings recorded by the scheduler for the initial subflow
        # form contiguous runs (the §4.3 batching property).
        initial = conn.subflows[0]
        ranges = [
            (m.start, m.end)
            for m in conn.scheduler.inflight
            if m.subflow is initial and not m.reinjection
        ]
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert s2 >= e1  # never overlapping, never backwards

    def test_allocation_respects_rwnd_limit(self):
        config = MPTCPConfig(rcv_buf=30_000, snd_buf=500_000)
        net, client, server = make_multipath()
        conn, server_conn = live_connection(net, client, server, config)
        # Don't read on the server: the window will pin data_nxt.
        server_conn.on_data = None
        conn.send(random_payload(200_000))
        net.run(until=5.0)
        assert conn.data_nxt <= conn.rwnd_limit() + 1448

    def test_data_nxt_monotonic(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        seen = []

        original = conn.scheduler.allocate

        def watched(subflow, max_bytes):
            seen.append(conn.data_nxt)
            return original(subflow, max_bytes)

        conn.scheduler.allocate = watched
        conn.send(random_payload(150_000))
        net.run(until=3.0)
        assert seen == sorted(seen)

    def test_reinjection_served_before_new_data(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(200_000))
        net.run(until=net.now + 0.2)
        scheduler = conn.scheduler
        scheduler._queue_reinjection(conn.data_una, conn.data_una + 1448)
        pulled = scheduler.allocate(conn.subflows[0], 1448)
        assert pulled is not None
        payload, length, options = pulled
        mapping = scheduler.inflight[-1]
        assert mapping.reinjection
        assert mapping.start == conn.data_una

    def test_reinjection_clipped_by_data_una(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(100_000))
        net.run(until=net.now + 0.1)
        scheduler = conn.scheduler
        # Queue a stale range entirely below data_una after it advances.
        scheduler._queue_reinjection(0, 10)
        net.run(until=2.0)
        assert conn.data_una > 10
        pulled = scheduler._allocate_reinjection(conn.subflows[0], 1448)
        assert pulled is None  # fully clipped, queue drained
        assert not scheduler.reinject_queue

    def test_duplicate_reinjection_ranges_not_queued(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        scheduler = conn.scheduler
        scheduler._queue_reinjection(100, 200)
        scheduler._queue_reinjection(120, 180)  # subsumed
        assert len(scheduler.reinject_queue) == 1


class TestBatches:
    def test_batch_remaining(self):
        batch = Batch(cursor=100, end=400)
        assert batch.remaining == 300
        batch.cursor = 400
        assert batch.remaining == 0

    def test_batch_capped_by_config(self):
        config = MPTCPConfig(batch_segments=2)
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server, config)
        conn.send(random_payload(200_000))
        net.run(until=net.now + 0.05)
        for batch in conn.scheduler.batches.values():
            assert batch.end - batch.cursor <= 2 * 1448 + 1448

    def test_failed_subflow_batch_requeued(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(300_000))
        net.run(until=net.now + 0.3)
        join = next(s for s in conn.subflows if s.kind == "join")
        had_batch = join.subflow_id in conn.scheduler.batches
        join.mark_failed("test")
        assert join.subflow_id not in conn.scheduler.batches
        if had_batch:
            assert conn.scheduler.reinject_queue or True


class TestTrailingEdge:
    def test_trailing_edge_mapping_covers_data_una(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(200_000))
        net.run(until=net.now + 0.05)
        mapping = conn.scheduler._trailing_edge_mapping()
        assert mapping is not None
        assert mapping.start <= conn.data_una < mapping.end

    def test_mappings_pruned_on_data_ack(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(100_000))
        net.run(until=5.0)
        assert conn.data_una >= 100_000
        assert all(m.end > conn.data_una for m in conn.scheduler.inflight)

    def test_tx_inflight_accounting(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(50_000))
        net.run(until=net.now + 0.05)
        inflight = conn.scheduler.tx_inflight_bytes()
        assert 0 < inflight <= 50_000 * 2  # reinjection can double-count
