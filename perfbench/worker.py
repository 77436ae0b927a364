"""One repeat of one workload, in a fresh process.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py --workload bulk_wifi3g --seed 1 --mode plain

``--mode plain`` runs the program with no instrumentation (only a guard
around ``Network.run`` marks the end of set-up and checks that no hook
is attached), ``spans`` adds the class-level span wrappers of
:mod:`layertrace`, and ``calls`` counts Python calls per package with
cProfile.  The last line of standard output is one JSON record of the
repeat.
"""

from __future__ import annotations

import heapq
import time


def calibrate(steps: int = 60_000) -> float:
    """Seconds this host takes right now for a fixed pure-Python loop of
    heap, dict and attribute work that uses no repro code.  Taken just
    before and just after the workload, it tells how fast the shared
    host was running while the workload ran."""

    class Cell:
        __slots__ = ("value",)

        def __init__(self) -> None:
            self.value = 0

    heap: list = []
    table: dict = {}
    cell = Cell()
    begun = time.perf_counter()
    for step in range(steps):
        heapq.heappush(heap, ((step * 7919) % 1009, step))
        if len(heap) > 64:
            heapq.heappop(heap)
        cell.value += step & 7
        key = step & 1023
        table[key] = table.get(key, 0) + cell.value
    return time.perf_counter() - begun


HOST_BEFORE_S = calibrate()
STARTED = time.perf_counter()  # set-up is timed from here, before any repro import

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Probe:
    """Marks the end of set-up and carries the optional instrumentation.

    ``setup_done`` is called by the ring's federation builder or by the
    guard around ``Network.run``, whichever comes first.
    """

    def __init__(self, tracer=None, counter=None):
        self.tracer = tracer
        self.counter = counter
        self.setup_at: float | None = None
        self.cpu_at_setup = 0.0
        self.errors: list[str] = []

    def setup_done(self) -> None:
        if self.setup_at is not None:
            return
        self.setup_at = time.perf_counter()
        self.cpu_at_setup = _cpu_seconds(resource.RUSAGE_SELF)
        if self.counter is not None:
            self.counter.start()

    def opened(self, transport):
        if self.tracer is not None:
            return self.tracer.opened(transport)
        return transport

    def shard_report(self, net, shard: int, horizon: float) -> dict | None:
        """Summary of a forked shard worker's own share of the run."""
        from layertrace import link_totals

        if self.tracer is not None:
            summary = self.tracer.summary()
            summary["links"] = link_totals(net, net._shards.sims[shard], horizon)
            return summary
        if self.counter is not None:
            return self.counter.summary()
        return None

    def install(self) -> None:
        """Guard every ``Network.run`` and mark set-up at the first."""
        from repro.net.network import Network
        from workloads import guard_production_path

        run = Network.__dict__["run"]
        probe = self

        @functools.wraps(run)
        def guarded_run(net, *args, **kwargs):
            probe.setup_done()
            probe.errors.extend(guard_production_path(net))
            return run(net, *args, **kwargs)

        Network.run = guarded_run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--mode", default="plain", choices=("plain", "spans", "calls"))
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--spans-out", default="", help="write every span to this TSV file")
    args = parser.parse_args(argv)

    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    tracer = counter = None
    if args.mode == "spans":
        from layertrace import SpanTracer

        tracer = SpanTracer(run_id=args.run_id)
        tracer.install()
    elif args.mode == "calls":
        from layertrace import CallCounter

        counter = CallCounter()
    probe = Probe(tracer, counter)
    probe.install()

    outcome = WORKLOADS[args.workload](args.seed, args.size, probe)
    finished = time.perf_counter()
    host_after_s = calibrate()
    if probe.setup_at is None:
        raise RuntimeError("workload never reached its run phase")
    cpu = (
        _cpu_seconds(resource.RUSAGE_SELF)
        - probe.cpu_at_setup
        + _cpu_seconds(resource.RUSAGE_CHILDREN)
    )
    summary = None
    if tracer is not None:
        summary = tracer.summary()
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    elif counter is not None:
        summary = counter.summary()
    shard_reports = outcome.extra.pop("shard_reports", [])
    if summary is not None:
        from layertrace import merge_summary

        for report in shard_reports:
            merge_summary(summary, report)
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "mode": args.mode,
        "params": SIZES[args.workload][args.size],
        "setup_s": probe.setup_at - STARTED,
        "run_s": finished - probe.setup_at,
        "host_s": (HOST_BEFORE_S + host_after_s) / 2,
        "cpu_s": cpu,
        "peak_rss_mb": rss_kb / 1024.0,
        "work": outcome.work,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "events": outcome.events,
        "fingerprint": outcome.fingerprint,
        "errors": outcome.errors + probe.errors,
        "extra": outcome.extra,
        "summary": summary,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
