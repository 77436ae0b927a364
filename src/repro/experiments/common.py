"""Shared topology builders and runners for the figure reproductions.

The canonical mobile scenario of §4.2 is built here once and reused by
Figs. 4, 5 and 7:

* "WiFi": 8 Mb/s, 20 ms base RTT, 80 ms of buffering (80 KB),
* "3G":   2 Mb/s, 150 ms base RTT, 2 s of buffering (500 KB).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.apps.bulk import BulkReceiverApp, BulkSenderApp
from repro.mptcp.api import connect as mptcp_connect
from repro.mptcp.api import listen as mptcp_listen
from repro.mptcp.connection import MPTCPConfig, MPTCPConnection
from repro.net.link import buffer_bytes_for
from repro.net.network import Network
from repro.net.packet import Endpoint
from repro.stats.metrics import GoodputMeter, MemorySampler
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPConfig, TCPSocket


@dataclass
class PathSpec:
    """One emulated path."""

    rate_bps: float
    rtt: float  # base (propagation) round-trip time
    buffer_seconds: Optional[float] = None  # drain time of the queue
    buffer_bytes: Optional[int] = None
    loss: float = 0.0
    name: str = "path"

    def queue_bytes(self) -> int:
        if self.buffer_bytes is not None:
            return self.buffer_bytes
        seconds = self.buffer_seconds if self.buffer_seconds is not None else 0.1
        return buffer_bytes_for(self.rate_bps, seconds)


WIFI = PathSpec(rate_bps=8e6, rtt=0.020, buffer_seconds=0.080, name="wifi")
THREEG = PathSpec(rate_bps=2e6, rtt=0.150, buffer_seconds=2.0, name="3g")
# §4.2.1's "extremely poor performance such as when mobile devices have
# very weak signal": slow, deep-buffered AND radio-lossy — so a loss
# costs a multi-second retransmission over the 2 s network buffer.
LOSSY_3G = PathSpec(
    rate_bps=50e3, rtt=0.150, buffer_seconds=2.0, loss=0.08, name="slow-3g"
)


@dataclass
class ExperimentResult:
    """Rows of named values; what every experiment returns."""

    name: str
    rows: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def add(self, **values) -> None:
        self.rows.append(values)

    def series(self, x: str, y: str, **filters) -> list[tuple]:
        points: list[dict] = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in filters.items()):
                points.append((row[x], row[y]))
        return points

    def column(self, key: str, **filters) -> list:
        return [value for _, value in self.series(key, key, **filters)]

    def format_table(self, columns: Optional[Sequence[str]] = None) -> str:
        if not self.rows:
            return f"[{self.name}] (no rows)"
        columns = list(columns or self.rows[0].keys())
        widths = {
            column: max(len(column), *(len(_fmt(row.get(column))) for row in self.rows))
            for column in columns
        }
        lines = [f"== {self.name} =="]
        lines.append("  ".join(column.ljust(widths[column]) for column in columns))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns)
            )
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


# ----------------------------------------------------------------------
# Topology / run helpers
# ----------------------------------------------------------------------
def build_multipath_network(
    paths: Sequence[PathSpec], seed: int = 1
) -> tuple[Network, object, object]:
    """A client with one interface per path, a single-address server."""
    net = Network(seed=seed)
    client_ips = [f"10.{i}.0.1" for i in range(len(paths))]
    client = net.add_host("client", *client_ips)
    server = net.add_host("server", "10.99.0.1")
    for ip, spec in zip(client_ips, paths):
        net.connect(
            client.interface(ip),
            server.interface("10.99.0.1"),
            rate_bps=spec.rate_bps,
            delay=spec.rtt / 2,
            queue_bytes=spec.queue_bytes(),
            loss=spec.loss,
            name=spec.name,
        )
    return net, client, server


def mptcp_variant_config(
    variant: str,
    buffer_bytes: int,
    checksum: bool = False,
    ooo_algorithm: str = "allshortcuts",
    mss: int = 1448,
) -> MPTCPConfig:
    """Named §4.2 variants:

    * ``regular``  — no receive-buffer mechanisms,
    * ``m1``       — opportunistic retransmission,
    * ``m12``      — + penalization,
    * ``m123``     — + buffer autotuning,
    * ``m1234``    — + cwnd capping.
    """
    tcp = TCPConfig(mss=mss, snd_buf=buffer_bytes, rcv_buf=buffer_bytes)
    config = MPTCPConfig(
        tcp=tcp,
        checksum=checksum,
        snd_buf=buffer_bytes,
        rcv_buf=buffer_bytes,
        enable_m1=False,
        enable_m2=False,
        autotune=False,
        capping=False,
        ooo_algorithm=ooo_algorithm,
    )
    if variant in ("m1", "m12", "m123", "m1234"):
        config.enable_m1 = True
    if variant in ("m12", "m123", "m1234"):
        config.enable_m2 = True
    if variant in ("m123", "m1234"):
        config.autotune = True
    if variant == "m1234":
        config.capping = True
    if variant not in ("regular", "m1", "m12", "m123", "m1234"):
        raise ValueError(f"unknown variant {variant!r}")
    return config


@dataclass
class RunOutcome:
    goodput_bps: float = 0.0
    throughput_bps: float = 0.0  # wire payload incl. retransmissions
    received: int = 0
    duration: float = 0.0
    tx_memory_avg: float = 0.0
    rx_memory_avg: float = 0.0
    connection: Optional[object] = None
    receiver_connection: Optional[object] = None
    network: Optional[Network] = None


def run_mptcp_bulk(
    paths: Sequence[PathSpec],
    config: MPTCPConfig,
    duration: float,
    seed: int = 1,
    warmup: float = 2.0,
    sample_memory: bool = False,
) -> RunOutcome:
    """Long download over MPTCP; goodput measured after ``warmup``."""
    net, client, server = build_multipath_network(paths, seed=seed)
    meter = GoodputMeter(net.sim)
    state: dict = {}

    def on_accept(conn):
        state["server_conn"] = conn

        def on_data(c):
            data = c.read()
            if net.now >= warmup:
                meter.add(len(data))
            state["received"] = state.get("received", 0) + len(data)

        conn.on_data = on_data
        conn.on_eof = lambda c: c.close()

    mptcp_listen(server, 80, config=config, on_accept=on_accept)
    conn = mptcp_connect(client, Endpoint("10.99.0.1", 80), config=config)
    BulkSenderApp(conn, total_bytes=None)  # unbounded
    net.sim.schedule(warmup, meter.start)

    samplers: list = []
    if sample_memory:
        net.sim.schedule(
            warmup,
            lambda: samplers.extend(
                [
                    MemorySampler(net.sim, conn.tx_memory_bytes, interval=0.05),
                    MemorySampler(
                        net.sim,
                        lambda: state["server_conn"].rx_memory_bytes()
                        if "server_conn" in state
                        else 0,
                        interval=0.05,
                    ),
                ]
            ),
        )
    net.run(until=duration)
    meter.finish()
    wire_payload = sum(p.link_fwd.stats.payload_bytes_sent for p in net.paths)
    outcome = RunOutcome(
        goodput_bps=meter.rate_bps(),
        throughput_bps=wire_payload * 8 / max(1e-9, duration - warmup) if duration > warmup else 0,
        received=state.get("received", 0),
        duration=duration,
        connection=conn,
        receiver_connection=state.get("server_conn"),
        network=net,
    )
    if samplers:
        outcome.tx_memory_avg = samplers[0].average()
        outcome.rx_memory_avg = samplers[1].average()
    return outcome


def run_tcp_bulk(
    path: PathSpec,
    buffer_bytes: int,
    duration: float,
    seed: int = 1,
    warmup: float = 2.0,
    sample_memory: bool = False,
    mss: int = 1448,
    autotune: bool = False,
) -> RunOutcome:
    """Long download over plain TCP on a single path (the baselines)."""
    net, client, server = build_multipath_network([path], seed=seed)
    meter = GoodputMeter(net.sim)
    config = TCPConfig(
        mss=mss, snd_buf=buffer_bytes, rcv_buf=buffer_bytes, autotune=autotune
    )
    state: dict = {}

    def on_accept(sock):
        state["server_sock"] = sock

        def on_data(s):
            data = s.read()
            if net.now >= warmup:
                meter.add(len(data))
            state["received"] = state.get("received", 0) + len(data)

        sock.on_data = on_data
        sock.on_eof = lambda s: s.close()

    Listener(server, 80, config=config, on_accept=on_accept)
    sock = TCPSocket(client, config=config)
    BulkSenderApp(sock, total_bytes=None)
    sock.connect(Endpoint("10.99.0.1", 80))
    net.sim.schedule(warmup, meter.start)
    samplers: list = []
    if sample_memory:
        net.sim.schedule(
            warmup,
            lambda: samplers.extend(
                [
                    MemorySampler(net.sim, sock.tx_memory_bytes, interval=0.05),
                    MemorySampler(
                        net.sim,
                        lambda: state["server_sock"].rx_memory_bytes()
                        if "server_sock" in state
                        else 0,
                        interval=0.05,
                    ),
                ]
            ),
        )
    net.run(until=duration)
    meter.finish()
    outcome = RunOutcome(
        goodput_bps=meter.rate_bps(),
        received=state.get("received", 0),
        duration=duration,
        connection=sock,
        receiver_connection=state.get("server_sock"),
        network=net,
    )
    if samplers:
        outcome.tx_memory_avg = samplers[0].average()
        outcome.rx_memory_avg = samplers[1].average()
    return outcome
