"""The four benchmark workloads, each one repeat of fixed work.

A workload function takes ``(seed, size, probe)`` and returns a
:class:`Outcome`.  The worker's probe marks the end of set-up at the
first ``Network.run``; the ring, whose federation never calls it, calls
``probe.setup_done()`` when its builder returns.
:func:`guard_production_path` checks every network before and after it
runs: event recycling must be live and no ``on_send`` / ``on_receive``
/ ``post_event`` hook may be attached.

Every fingerprint is a pure function of ``(workload, seed, size)``:
simulated statistics are fixed points that a speed-only change must
leave identical.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.bulk import BulkReceiverApp, BulkSenderApp
from repro.apps.http import HTTPLoadGenerator, HTTPServerApp
from repro.experiments.common import (
    THREEG,
    WIFI,
    build_multipath_network,
    mptcp_variant_config,
)
from repro.experiments.shard_bench import BENCH_PAYLOAD_BYTES, build_ring, collect_tallies
from repro.mptcp.api import connect as mptcp_connect
from repro.mptcp.api import listen as mptcp_listen
from repro.mptcp.connection import MPTCPConfig
from repro.net.network import Network
from repro.net.packet import Endpoint
from repro.sim.engine import events_run_total
from repro.sim.federation import Federation
from repro.stats.metrics import GoodputMeter

# Per-size parameters.  "full" is what the benchmark measures; "tiny"
# keeps the benchmark's own tests fast.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "bulk_wifi3g": {
        "full": {"duration": 12.0},
        "tiny": {"duration": 1.5},
    },
    "http_mptcp_10k": {
        "full": {"duration": 1.2, "clients": 100},
        "tiny": {"duration": 0.2, "clients": 10},
    },
    "study_internet2021": {
        "full": {"paths": 400},
        "tiny": {"paths": 12},
    },
    "ring_2shard": {
        "full": {"clusters": 8, "local": 218, "cross": 32},
        "tiny": {"clusters": 4, "local": 6, "cross": 2},
    },
}

BUFFER_BYTES = 500 * 1024
HTTP_FILE_BYTES = 10 * 1024
HTTP_LINK_RATE = 40e6  # the Fig. 11 topology, 2 x 40 Mb/s
HTTP_LINK_DELAY = 0.002
RING_SHARDS = 2
RING_HORIZON_S = 5.0


@dataclass
class Outcome:
    """What one repeat of a workload produced."""

    work: float  # units of useful work (MB, requests, paths, connections)
    attempted: int  # operations attempted
    failed: int  # operations failed (requests, connections, checks)
    fingerprint: dict  # deterministic outputs, compared exactly
    errors: list[str] = field(default_factory=list)  # invariant violations
    events: int = 0  # simulator events executed
    extra: dict = field(default_factory=dict)  # per-workload facts for the trace


def digest(value: Any) -> str:
    """A short stable digest of a JSON-able value."""
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(canonical.encode('utf-8')):08x}"


def guard_production_path(net: Network) -> list[str]:
    """Errors if the run would not measure the production datapath."""
    errors = []
    group = net._shards
    sims = group.sims if group is not None else [net.sim]
    for index, sim in enumerate(sims):
        if not sim.pooling_active:
            errors.append(f"event recycling inactive on simulator {index}")
        if sim.post_event is not None:
            errors.append(f"post_event hook attached on simulator {index}")
    for host in net.hosts.values():
        if host.on_send or host.on_receive:
            errors.append(f"segment hook attached on host {host.name}")
    return errors


def bulk_wifi3g(seed: int, size: str, probe) -> Outcome:
    """One 2-subflow MPTCP download over WiFi + 3G, DSS checksums on."""
    duration = SIZES["bulk_wifi3g"][size]["duration"]
    config = mptcp_variant_config("m12", BUFFER_BYTES, checksum=True)
    net, client, server = build_multipath_network([WIFI, THREEG], seed=seed)
    meter = GoodputMeter(net.sim)
    receivers: list[BulkReceiverApp] = []

    def on_accept(conn) -> None:
        receivers.append(BulkReceiverApp(conn, meter, verify=True))

    mptcp_listen(server, 80, config=config, on_accept=on_accept)
    conn = mptcp_connect(client, Endpoint("10.99.0.1", 80), config=config)
    sender = BulkSenderApp(conn, total_bytes=None)
    before = events_run_total()
    net.run(until=duration)
    events = events_run_total() - before
    errors = guard_production_path(net)
    received = receivers[0].received if receivers else 0
    corrupt = receivers[0].corrupt if receivers else True
    if corrupt:
        errors.append("bulk stream content mismatch")
    if received <= 0:
        errors.append("bulk transfer delivered nothing")
    if received > sender.sent:
        errors.append(f"received {received} B but only {sender.sent} B were sent")
    return Outcome(
        work=received / 1e6,
        attempted=1,
        failed=1 if corrupt or received <= 0 else 0,
        fingerprint={"events": events, "received": received},
        errors=errors,
        events=events,
    )


def http_mptcp_10k(seed: int, size: str, probe) -> Outcome:
    """Closed loop of ``clients`` fetching 10 KB files over MPTCP."""
    params = SIZES["http_mptcp_10k"][size]
    net = Network(seed=seed)
    client = net.add_host("client", "10.0.0.1", "10.1.0.1")
    server = net.add_host("server", "10.99.0.1", "10.99.1.1")
    for client_ip, server_ip in (("10.0.0.1", "10.99.0.1"), ("10.1.0.1", "10.99.1.1")):
        net.connect(
            client.interface(client_ip),
            server.interface(server_ip),
            rate_bps=HTTP_LINK_RATE,
            delay=HTTP_LINK_DELAY,
        )
    config = MPTCPConfig(checksum=False)
    app = HTTPServerApp()
    mptcp_listen(server, 80, config=config, on_accept=app.on_accept)

    def open_transport():
        return probe.opened(mptcp_connect(client, Endpoint("10.99.0.1", 80), config=config))

    generator = HTTPLoadGenerator(net.sim, open_transport, HTTP_FILE_BYTES, params["clients"])
    generator.start()
    before = events_run_total()
    net.run(until=params["duration"])
    events = events_run_total() - before
    errors = guard_production_path(net)
    latencies = sorted(generator.latencies)
    quantiles = {
        f"p{q}": round(latencies[min(len(latencies) - 1, len(latencies) * q // 100)], 9)
        for q in (50, 95, 99)
    } if latencies else {}
    if generator.completed == 0:
        errors.append("no HTTP request completed")
    if generator.failed:
        errors.append(f"{generator.failed} HTTP requests failed")
    return Outcome(
        work=float(generator.completed),
        attempted=generator.completed + generator.failed,
        failed=generator.failed,
        fingerprint={
            "completed": generator.completed,
            "failed": generator.failed,
            "latency_s": quantiles,
        },
        errors=errors,
        events=events,
    )


def study_internet2021(seed: int, size: str, probe) -> Outcome:
    """The generative middlebox study, serial, result cache off."""
    from repro.study.scale import counter_digest, run_scale_study

    paths = SIZES["study_internet2021"][size]["paths"]
    before = events_run_total()
    report, bench = run_scale_study(
        "internet2021", paths, seed=seed, include_strawman=False, workers=1
    )
    events = events_run_total() - before
    errors = []
    hits = bench["sample_sweep"]["cache_hits"] + bench["sim_sweep"]["cache_hits"]
    if hits:
        errors.append(f"result cache served {hits} points")
    outcomes = report["outcomes"]
    completed = outcomes["mptcp_completed"]["count"]
    if outcomes["tcp_completed"]["count"] != paths:
        errors.append("plain TCP failed on some sampled path")
    if bench["microsims"] != report["population"]["distinct_signatures"]:
        errors.append("microsim count differs from distinct signatures")
    return Outcome(
        work=float(paths),
        attempted=paths,
        failed=paths - completed,
        fingerprint={
            "counter_digest": counter_digest(report),
            "distinct_signatures": report["population"]["distinct_signatures"],
        },
        errors=errors,
        events=events,
        extra={"microsims": bench["microsims"], "cache_hits": hits},
    )


def ring_2shard(seed: int, size: str, probe) -> Outcome:
    """The shard-bench plain-TCP ring through a 2-process federation."""
    params = SIZES["ring_2shard"][size]
    connections = params["clusters"] * (params["local"] + params["cross"])
    guard: list[str] = []

    def build(net: Network) -> None:
        build_ring(net, params["clusters"], params["local"], params["cross"], BENCH_PAYLOAD_BYTES)
        guard.extend(guard_production_path(net))
        probe.setup_done()

    def collect(net: Network, shard: int) -> tuple:
        report = probe.shard_report(net, shard, RING_HORIZON_S)
        return collect_tallies(net, shard), report, guard_production_path(net)

    result = Federation(build, shards=RING_SHARDS, seed=seed, collect=collect).run(
        until=RING_HORIZON_S
    )
    rows = sorted(row for value in result.shard_values for row in value[0])
    errors = guard + [error for value in result.shard_values for error in value[2]]
    if result.mode != "processes":
        errors.append(f"federation ran in {result.mode} mode, not processes")
    if len(rows) != connections:
        errors.append(f"{len(rows)} of {connections} ring connections accepted")
    short = sum(1 for row in rows if row[3] != BENCH_PAYLOAD_BYTES)
    undelivered = connections - len(rows) + short
    if short:
        errors.append(f"{short} ring connections delivered the wrong byte count")
    return Outcome(
        work=float(connections - undelivered),
        attempted=connections,
        failed=undelivered,
        fingerprint={"tallies": digest(rows), "connections": len(rows)},
        errors=errors,
        events=result.events,
        extra={
            "windows": result.windows,
            "shard_reports": [value[1] for value in result.shard_values],
        },
    )


WORKLOADS: dict[str, Callable[[int, str, Any], Outcome]] = {
    "bulk_wifi3g": bulk_wifi3g,
    "http_mptcp_10k": http_mptcp_10k,
    "study_internet2021": study_internet2021,
    "ring_2shard": ring_2shard,
}
