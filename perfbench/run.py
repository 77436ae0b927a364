"""The repository benchmark: one workload, measured end to end or traced.

Usage::

    python3 perfbench/run.py --workload bulk_wifi3g --seed 1 --seconds 20 --trace 0

Every repeat runs in a fresh worker process (``worker.py``) so no repeat
inherits another's heap, caches or JIT-free warm state.  ``--trace 0``
repeats the untraced program until ``--seconds`` have passed and
reports the end-to-end metrics as medians over the repeats; ``--trace
1`` alternates untraced and span-traced repeats, then runs the
call-counting pass twice, and reports the per-layer metrics.  Outputs
are checked before any metric is printed; the last line of standard
output is one JSON object, and the exit code is non-zero when a check
failed.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPANS_DIR = os.path.join(HERE, ".spans")

DEFINITION = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 1
MIN_REPEATS = 3
BUDGET_S = 170.0  # every run must end well within 180 s
WORKER_TIMEOUT_S = 150.0
# Host-speed scaling of the timed metrics (see README.md): times are
# multiplied by (REFERENCE_HOST_S / host loop time) ** HOST_EXPONENT,
# where the host loop is worker.calibrate() timed around every repeat.
REFERENCE_HOST_S = 0.05
HOST_EXPONENT = 0.5

# The MPTCP set-up entry points whose self time is mptcp.handshake_s.
HANDSHAKE = (
    "MPTCPConnection.__init__",
    "Subflow._process_peer_syn_options",
    "Subflow._process_peer_synack_options",
    "TokenTable.generate_unique_key",
)

# What each workload's unit of work is, for the human-readable lines.
WORK_UNITS = {
    "bulk_wifi3g": "simulated MB delivered to the app",
    "http_mptcp_10k": "completed HTTP requests",
    "study_internet2021": "sampled paths",
    "ring_2shard": "fully delivered connections",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (not an output mismatch)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE"] = "0"  # a warm result cache would turn the study into a disk read
    env["REPRO_WORKERS"] = "1"
    env.pop("REPRO_SHARDS", None)
    env.pop("REPRO_CACHE_DIR", None)
    return env


def run_worker(args: argparse.Namespace, mode: str, run_id: int, spans_out: str = "") -> dict:
    command = [
        sys.executable,
        WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--mode", mode,
        "--run-id", str(run_id),
    ]
    if spans_out:
        command += ["--spans-out", spans_out]
    # Its own session, so a timeout can stop the ring's shard workers too.
    worker = subprocess.Popen(
        command,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = worker.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise BenchmarkError(f"{mode} repeat {run_id} timed out") from error
    if worker.returncode != 0:
        raise BenchmarkError(
            f"{mode} repeat {run_id} exited with {worker.returncode}:\n{stderr.strip()}"
        )
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} repeat {run_id} printed no record")
    return json.loads(lines[-1])


def repeat(
    args: argparse.Namespace, modes: tuple[str, ...], started: float, first_cycle: int = 0
) -> dict[str, list]:
    """Cycle through ``modes`` until ``--seconds`` have passed (at least
    MIN_REPEATS cycles in all, counting ``first_cycle`` already run),
    never starting a cycle that could overrun the budget.  Returns the
    records per mode."""
    records: dict[str, list] = {mode: [] for mode in modes}
    cycle_s = 0.0
    cycles = first_cycle
    while True:
        elapsed = time.perf_counter() - started
        if cycles >= MIN_REPEATS and elapsed >= args.seconds:
            break
        if cycle_s and elapsed + 2 * cycle_s > BUDGET_S:
            break
        begun = time.perf_counter()
        for mode in modes:
            spans_out = ""
            if mode == "spans":
                spans_out = os.path.join(SPANS_DIR, f"{args.workload}.tsv")
            records[mode].append(run_worker(args, mode, cycles, spans_out))
        cycle_s = max(cycle_s, time.perf_counter() - begun)
        cycles += 1
    return records


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check_outputs(args: argparse.Namespace, records: list[dict]) -> tuple[int, int, list[str]]:
    """Checks every output; returns (checks made, checks failed, messages)."""
    messages = []
    checks = 0
    for record in records:
        checks += 1
        for error in dict.fromkeys(record["errors"]):
            messages.append(f"{record['mode']} repeat: {error}")
    failed_records = sum(1 for record in records if record["errors"])
    first = records[0]["fingerprint"]
    checks += 1
    mismatched = [r for r in records if r["fingerprint"] != first]
    if mismatched:
        messages.append(
            f"{len(mismatched)} repeat(s) produced another fingerprint than the first: "
            f"{mismatched[0]['fingerprint']} != {first}"
        )
    failed = failed_records + (1 if mismatched else 0)
    if args.seed == DEFAULT_SEED:
        expected = load_reference().get(args.size, {}).get(args.workload)
        if expected is not None:
            checks += 1
            if expected != first:
                failed += 1
                messages.append(f"fingerprint {first} differs from the reference {expected}")
    return checks, failed, messages


def end_to_end(plain: list[dict], host_scaled: bool) -> dict:
    scale = 1.0
    if host_scaled:
        scale = (REFERENCE_HOST_S / median([r["host_s"] for r in plain])) ** HOST_EXPONENT
    return {
        "work_per_s": median([r["work"] / r["run_s"] for r in plain]) / scale,
        "cpu_s": median([r["cpu_s"] for r in plain]) * scale,
        "setup_s": median([r["setup_s"] for r in plain]) * scale,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }


def _quantile_ms(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(plain: list[dict], spans: list[dict], calls: list[dict]) -> dict:
    """Per-layer metrics: times are medians over the span-traced repeats,
    counts come from the (exactly repeating) call-counting pass."""
    counted = calls[0]["summary"]
    function_calls = counted["function_calls"]
    events = calls[0]["events"]
    layer_calls = counted["calls"]
    summaries = [r["summary"] for r in spans]
    stats = summaries[0]["stats"]
    links = summaries[0]["links"]
    extra = plain[0]["extra"]

    def span_median(pick) -> float:
        return median([pick(summary) for summary in summaries])

    def self_s(layer: str) -> float:
        return span_median(lambda s: s["self_s"][layer])

    def inclusive(*names: str) -> float:
        return span_median(lambda s: sum(s["span_inclusive_s"].get(n, 0.0) for n in names))

    def span_self(*names: str) -> float:
        return span_median(lambda s: sum(s["span_self_s"].get(n, 0.0) for n in names))

    def calls_of(*keys: str) -> int:
        return sum(function_calls.get(key, 0) for key in keys)

    def per_event(layer: str) -> float:
        return layer_calls[layer] / events if events else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    plain_run_s = median([r["run_s"] for r in plain])
    microsims = extra.get("microsims", 0)
    microsim_runs = summaries[0]["microsim_s"] if microsims else []
    windows = extra.get("windows", 0)
    hits = stats.get("OOOStats.shortcut_hits", 0)
    misses = stats.get("OOOStats.shortcut_misses", 0)
    return {
        "sim.events": events,
        "sim.events_per_s": events / plain_run_s,
        "sim.self_s": self_s("sim"),
        "sim.timer_ops": calls_of(
            "sim/engine.py:Timer.start", "sim/engine.py:Timer.restart", "sim/engine.py:Timer.stop"
        ),
        "sim.calls_per_event": per_event("sim"),
        "net.self_s": self_s("net"),
        "net.segments": calls_of("net/node.py:Host.send"),
        "net.segments_allocated": calls_of("net/packet.py:Segment.__init__"),
        "net.queue_drops": links["drops"],
        "net.link_busy_ratio": ratio(links["busy_s"], links["elapsed_s"]),
        "net.calls_per_event": per_event("net"),
        "tcp.self_s": self_s("tcp"),
        "tcp.segments_in": calls_of(
            "tcp/socket.py:TCPSocket.segment_arrives", "tcp/listener.py:Listener.segment_arrives"
        ),
        "tcp.retransmissions": stats.get("SocketStats.retransmissions", 0),
        "tcp.timeouts": stats.get("SocketStats.timeouts", 0),
        "tcp.useful_ratio": ratio(
            stats.get("SocketStats.bytes_delivered", 0), stats.get("SocketStats.bytes_sent", 0)
        ),
        "tcp.calls_per_event": per_event("tcp"),
        "mptcp.checksum_s": inclusive("dss_checksum"),
        "mptcp.checksum_bytes": stats.get("MPTCPStats.checksum_bytes_tx", 0)
        + stats.get("MPTCPStats.checksum_bytes_rx", 0),
        "mptcp.handshake_s": span_self(*HANDSHAKE),
        "mptcp.keys_generated": calls_of("mptcp/keys.py:TokenTable.generate_unique_key"),
        "mptcp.fallbacks": stats.get("MPTCPStats.fallbacks", 0),
        "mptcp.self_s": self_s("mptcp"),
        "mptcp.ooo_ops": stats.get("OOOStats.ops", 0),
        "mptcp.ooo_hit_rate": ratio(hits, hits + misses),
        "mptcp.reinjected_bytes": stats.get("SchedulerStats.reinjected_bytes", 0),
        "mptcp.calls_per_event": per_event("mptcp"),
        "middlebox.self_s": self_s("middlebox"),
        "middlebox.segments": sum(
            count
            for key, count in function_calls.items()
            if key.startswith("middlebox/") and key.endswith(".process")
        ),
        "middlebox.calls_per_event": per_event("middlebox"),
        "apps.self_s": self_s("apps"),
        "apps.calls_per_event": per_event("apps"),
        "study.build_s": span_self("_evaluate_signature"),
        "study.sample_s": inclusive("_sample_batch"),
        "study.fold_s": span_self("run_scale_study"),
        "study.microsims": microsims,
        "study.microsim_ms_p50": _quantile_ms(microsim_runs, 0.50),
        "study.microsim_ms_p95": _quantile_ms(microsim_runs, 0.95),
        "runner.sweep_s": inclusive("run_parallel"),
        "runner.cache_hits": extra.get("cache_hits", 0),
        "federation.windows": windows,
        "federation.events_per_window": ratio(events, windows),
        "federation.wire_msgs": summaries[0]["span_counts"].get("Segment.to_wire", 0),
        "federation.wire_s": inclusive("Segment.to_wire", "segment_from_wire"),
        "trace.overhead_ratio": median([r["run_s"] for r in spans]) / plain_run_s,
    }


def counters_repeat(calls: list[dict]) -> bool:
    """The call-counting pass is deterministic: both runs must agree."""
    first = calls[0]
    return all(
        r["summary"]["calls"] == first["summary"]["calls"]
        and r["summary"]["function_calls"] == first["summary"]["function_calls"]
        and r["events"] == first["events"]
        for r in calls[1:]
    )


def main(argv: list[str] | None = None) -> int:
    with open(DEFINITION, encoding="utf-8") as fh:
        definition = json.load(fh)
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in definition["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--size",
        default="full",
        choices=("full", "tiny"),
        help="tiny: for the benchmark's own tests",
    )
    parser.add_argument(
        "--update-reference",
        action="store_true",
        help="store this run's fingerprint as the reference for the default seed",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro package under {ROOT}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        if args.trace:
            # One traced pair first, then both counting runs, so the
            # remaining pairs fill whatever is left of --seconds.
            records = {mode: [run_worker(args, mode, 0)] for mode in ("plain", "spans")}
            records["calls"] = [run_worker(args, "calls", run_id) for run_id in range(2)]
            for mode, more in repeat(args, ("plain", "spans"), started, first_cycle=1).items():
                records[mode] += more
        else:
            records = repeat(args, ("plain",), started)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    everything = [record for mode_records in records.values() for record in mode_records]
    checks, failed_checks, messages = check_outputs(args, everything)
    if args.trace:
        checks += 1
        if not counters_repeat(records["calls"]):
            failed_checks += 1
            messages.append("call counts differ between the two counting runs")

    plain = records["plain"]
    attempted = sum(r["attempted"] for r in plain) + checks
    failed = sum(r["failed"] for r in plain) + failed_checks
    if args.update_reference:
        if args.seed != DEFAULT_SEED or messages:
            print("error: the reference is taken from a clean default-seed run", file=sys.stderr)
            return 2
        reference = load_reference()
        reference.setdefault(args.size, {})[args.workload] = plain[0]["fingerprint"]
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=2, sort_keys=True)
            fh.write("\n")

    first = plain[0]
    print(
        f"workload {args.workload} seed {args.seed} size {args.size} "
        f"params {json.dumps(first['params'], sort_keys=True)}"
    )
    print(f"work unit: {WORK_UNITS[args.workload]}")
    for mode, mode_records in records.items():
        for index, record in enumerate(mode_records):
            print(
                f"  {mode} repeat {index}: setup {record['setup_s']:.3f} s, "
                f"run {record['run_s']:.3f} s, cpu {record['cpu_s']:.3f} s, "
                f"rss {record['peak_rss_mb']:.1f} MB, events {record['events']}, "
                f"host loop {1000 * record['host_s']:.1f} ms; "
                f"python {record['python']}, cpu_count {record['cpu_count']}, "
                f"loadavg {' '.join(f'{v:.2f}' for v in record['loadavg'])}"
            )
    print(f"fingerprint: {json.dumps(first['fingerprint'], sort_keys=True)}")
    for message in messages:
        print(f"CHECK FAILED: {message}")
    print(f"failed_ratio: {failed / attempted:.6f} ({failed} of {attempted} operations)")

    if args.trace:
        metrics = per_layer(plain, records["spans"], records["calls"])
        units = {m["name"]: m["unit"] for m in definition["per_layer"]}
    else:
        metrics = end_to_end(plain, host_scaled=True)
        raw = end_to_end(plain, host_scaled=False)
        print(f"unscaled: {json.dumps(raw, sort_keys=True)}")
        units = {m["name"]: m["unit"] for m in definition["end_to_end"]}
    if set(metrics) != set(units):
        mismatch = sorted(set(metrics) ^ set(units))
        print(f"error: metrics {mismatch} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not messages else 1


if __name__ == "__main__":
    raise SystemExit(main())
