"""Determinism: a run is a pure function of its seed.

This is what makes every number in EXPERIMENTS.md reproducible and
every bug report replayable: same seed → byte-identical packet trace.
"""

import warnings

import pytest

from repro.check import InvariantOracle
from repro.net.trace import PacketTrace

from conftest import make_multipath, make_tcp_pair, mptcp_transfer, random_payload, tcp_transfer


def trace_signature(trace: PacketTrace) -> list[tuple]:
    return [
        (
            round(record.time, 9),
            record.path_name,
            record.direction,
            record.segment.seq,
            record.segment.ack,
            record.segment.flags,
            len(record.segment.payload),
        )
        for record in trace.records
    ]


def run_tcp_once(seed: int):
    net, client, server = make_tcp_pair(seed=seed, loss=0.02)
    trace = PacketTrace.attach_all(net)
    payload = random_payload(120_000, seed=1)
    result = tcp_transfer(net, client, server, payload, duration=60)
    return trace_signature(trace), bytes(result.received)


def run_mptcp_once(seed: int, oracle: bool = False):
    net, client, server = make_multipath(seed=seed)
    if oracle and net.sim.post_event is None:  # REPRO_ORACLE=1 attached one
        InvariantOracle.attach(net)
    trace = PacketTrace.attach_all(net)
    payload = random_payload(120_000, seed=1)
    result = mptcp_transfer(net, client, server, payload, duration=60)
    return trace_signature(trace), bytes(result.received), net.sim.events_run


class TestDeterminism:
    def test_tcp_identical_across_runs(self):
        first = run_tcp_once(seed=11)
        second = run_tcp_once(seed=11)
        assert first == second

    def test_tcp_seed_changes_trace(self):
        a, _ = run_tcp_once(seed=11)
        b, _ = run_tcp_once(seed=12)
        assert a != b  # ISNs, loss pattern differ

    def test_mptcp_identical_across_runs(self):
        first = run_mptcp_once(seed=21)
        second = run_mptcp_once(seed=21)
        assert first == second

    def test_mptcp_identical_with_oracle_attached(self):
        """The oracle observes the production run loop: attaching its
        post_event hook changes neither the executed events nor the
        delivered bytes, and says nothing while doing so."""
        plain = run_mptcp_once(seed=21)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            observed = run_mptcp_once(seed=21, oracle=True)
        assert [str(w.message) for w in caught] == []
        assert observed == plain

    def test_mptcp_seed_changes_keys(self):
        net1, c1, s1 = make_multipath(seed=31)
        net2, c2, s2 = make_multipath(seed=32)
        from repro.mptcp.api import connect, listen
        from repro.net.packet import Endpoint

        listen(s1, 80)
        listen(s2, 80)
        conn1 = connect(c1, Endpoint("10.9.0.1", 80))
        conn2 = connect(c2, Endpoint("10.9.0.1", 80))
        assert conn1.local_key != conn2.local_key

    def test_experiment_result_stable(self):
        """A whole experiment harness reproduces exactly."""
        from repro.experiments.fig9 import run_fig9

        a = run_fig9(buffers_kb=(100,), duration=6.0)
        b = run_fig9(buffers_kb=(100,), duration=6.0)
        assert a.rows == b.rows

    def test_study_outcomes_stable(self):
        from repro.study import run_study, synthesize_population

        profiles = synthesize_population(port80=False)[:4]
        a = run_study(profiles, include_strawman=False)
        b = run_study(profiles, include_strawman=False)
        assert [(o.tcp_ok, o.mptcp_ok, o.mptcp_fallback) for o in a.outcomes] == [
            (o.tcp_ok, o.mptcp_ok, o.mptcp_fallback) for o in b.outcomes
        ]
