"""Per-layer instrumentation from outside the program.

Two independent passes, each in its own process:

* :class:`SpanTracer` wraps the public entry points of every layer at
  class (or module) level and records one span per call -- name id,
  start, end, parent span -- in flat in-memory lists.  A layer's self
  time is the duration of its spans minus the part their child spans
  cover.  It also keeps the counter objects the layers already maintain
  (``SocketStats``, ``MPTCPStats``, ...) by wrapping their constructors.
  Nothing is attached as an ``on_send``/``on_receive``/``post_event``
  hook: those switch Event and Segment recycling off, so the traced run
  would execute a different program.
* :class:`CallCounter` runs ``cProfile`` over the run phase and counts
  Python calls per package.  Call counts repeat exactly from run to run,
  so they are the noise-free per-layer signal; cProfile's own cost
  distorts timings, which is why it never shares a process with spans.

Both produce mergeable summaries (plain dicts of sums and lists), so a
forked shard worker can return its own and the parent adds them up.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import os
import time
from array import array
from typing import Any, Callable, Optional

LAYERS = ("sim", "net", "tcp", "mptcp", "middlebox", "apps", "study", "runner")

# (module, owner class or None for a module function, attribute, layer).
ENTRY_POINTS: tuple[tuple[str, Optional[str], str, str], ...] = (
    ("repro.net.network", "Network", "run", "sim"),
    ("repro.sim.shard", "ShardGroup", "run_worker_window", "sim"),
    ("repro.net.node", "Host", "send", "net"),
    ("repro.net.node", "Host", "deliver", "net"),
    ("repro.net.link", "Link", "send", "net"),
    ("repro.net.link", "Link", "_tx_done", "net"),
    ("repro.net.path", "Path", "send", "net"),
    ("repro.net.packet", "Segment", "to_wire", "net"),
    ("repro.net.packet", None, "segment_from_wire", "net"),
    ("repro.tcp.socket", "TCPSocket", "segment_arrives", "tcp"),
    ("repro.tcp.socket", "TCPSocket", "_on_rto", "tcp"),
    ("repro.tcp.socket", "TCPSocket", "_on_delack_timeout", "tcp"),
    ("repro.tcp.socket", "TCPSocket", "_on_persist_timeout", "tcp"),
    ("repro.tcp.socket", "TCPSocket", "_on_time_wait_expired", "tcp"),
    ("repro.tcp.socket", "TCPSocket", "_autotune_tick", "tcp"),
    ("repro.tcp.listener", "Listener", "segment_arrives", "tcp"),
    ("repro.mptcp.connection", "MPTCPConnection", "__init__", "mptcp"),
    ("repro.mptcp.connection", "MPTCPConnection", "allocate", "mptcp"),
    ("repro.mptcp.connection", "MPTCPConnection", "deliver_chunk", "mptcp"),
    ("repro.mptcp.connection", "MPTCPConnection", "on_data_ack", "mptcp"),
    ("repro.mptcp.connection", "MPTCPConnection", "_on_data_rto", "mptcp"),
    ("repro.mptcp.connection", "MPTCPConnection", "_autotune_tick", "mptcp"),
    ("repro.mptcp.subflow", "Subflow", "_process_peer_syn_options", "mptcp"),
    ("repro.mptcp.subflow", "Subflow", "_process_peer_synack_options", "mptcp"),
    ("repro.mptcp.keys", "TokenTable", "generate_unique_key", "mptcp"),
    ("repro.mptcp.checksum", None, "dss_checksum", "mptcp"),
    ("repro.mptcp.connection", None, "dss_checksum", "mptcp"),
    ("repro.apps.bulk", "BulkSenderApp", "_pump", "apps"),
    ("repro.apps.bulk", "BulkReceiverApp", "_drain", "apps"),
    ("repro.apps.http", "HTTPServerApp", "on_accept", "apps"),
    ("repro.apps.http", "_ServerConnection", "_on_data", "apps"),
    ("repro.apps.http", "HTTPLoadGenerator", "_launch", "apps"),
    ("repro.study.scale", None, "run_scale_study", "study"),
    ("repro.study.scale", None, "_sample_batch", "study"),
    ("repro.study.scale", None, "_evaluate_signature", "study"),
    ("repro.experiments.runner", None, "run_parallel", "runner"),
)

# Client-side HTTP callbacks are closures set per connection by
# HTTPLoadGenerator._launch; they are wrapped on the transport it opened.
HTTP_CLIENT_CALLBACKS = ("on_established", "on_data", "on_eof", "on_error")

MIDDLEBOX_MODULES = (
    "repro.middlebox.alg",
    "repro.middlebox.jitter",
    "repro.middlebox.nat",
    "repro.middlebox.proxy",
    "repro.middlebox.rewriter",
    "repro.middlebox.segmenter",
    "repro.middlebox.stripper",
)

# Counter objects the layers keep; their constructors are wrapped so
# the tracer can sum them after the run.
STATS_CLASSES = (
    ("repro.tcp.socket", "SocketStats"),
    ("repro.mptcp.connection", "MPTCPStats"),
    ("repro.mptcp.scheduler", "SchedulerStats"),
    ("repro.mptcp.ooo", "OOOStats"),
)


def _resolve(module: str, owner: Optional[str]) -> Any:
    target = importlib.import_module(module)
    return getattr(target, owner) if owner else target


def empty_summary() -> dict:
    return {
        "self_s": {layer: 0.0 for layer in LAYERS},
        "span_self_s": {},
        "span_inclusive_s": {},
        "span_counts": {},
        "microsim_s": [],
        "stats": {},
        "links": {"busy_s": 0.0, "elapsed_s": 0.0, "drops": 0},
        "calls": {layer: 0 for layer in LAYERS},
        "function_calls": {},
    }


def merge_summary(into: dict, other: dict) -> dict:
    """Add ``other`` into ``into`` (both from :func:`empty_summary`)."""
    for key in (
        "self_s", "span_self_s", "span_inclusive_s", "span_counts", "stats", "links", "calls",
        "function_calls",
    ):
        for name, value in other[key].items():
            into[key][name] = into[key].get(name, 0) + value
    into["microsim_s"].extend(other["microsim_s"])
    return into


def link_totals(net: Any, sim: Any, elapsed: float) -> dict:
    """Busy time, elapsed link time and queue drops of the links that
    ``sim`` drives (every link of ``net`` when ``sim`` is None)."""
    totals = {"busy_s": 0.0, "elapsed_s": 0.0, "drops": 0}
    for path in net.paths:
        for link in (path.link_fwd, path.link_rev):
            if sim is not None and link.sim is not sim:
                continue
            totals["busy_s"] += link.stats.busy_time
            totals["elapsed_s"] += elapsed
            totals["drops"] += link.stats.packets_dropped_queue
    return totals


class SpanTracer:
    """Class-level span wrappers around every layer's entry points."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self.layer_of: list[str] = []
        # Flat typed arrays, not lists: the simulator runs a full garbage
        # collection after every Network.run, and the collector walks
        # every element of a list but never looks inside an array.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.current = -1
        self.stats: dict[str, list] = {}
        self.links = {"busy_s": 0.0, "elapsed_s": 0.0, "drops": 0}
        self._pending_transport: Any = None

    # -- installation ---------------------------------------------------
    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def span(self, fn: Callable, name_id: int) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        names = self.span_name
        starts = self.span_start
        ends = self.span_end
        parents = self.span_parent
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(tracer.current)
            ends.append(0.0)
            tracer.current = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                tracer.current = parents[index]

        return traced

    def install(self) -> None:
        from repro.net.path import PathElement

        ids: dict[str, int] = {}
        for module, owner_name, attr, layer in ENTRY_POINTS:
            owner = _resolve(module, owner_name)
            name = f"{owner_name}.{attr}" if owner_name else attr
            if name not in ids:
                ids[name] = self._name_id(name, layer)
            wrapped = self.span(owner.__dict__[attr], ids[name])
            if name == "HTTPLoadGenerator._launch":
                wrapped = self._wrap_http_client(wrapped)
            if name == "Network.run":
                wrapped = self._with_link_totals(wrapped)
            setattr(owner, attr, wrapped)
        for module in MIDDLEBOX_MODULES:
            classes = inspect.getmembers(importlib.import_module(module), inspect.isclass)
            for cls_name, cls in classes:
                own = cls.__module__ == module and "process" in cls.__dict__
                if own and issubclass(cls, PathElement):
                    name = f"{cls_name}.process"
                    traced = self.span(cls.__dict__["process"], self._name_id(name, "middlebox"))
                    setattr(cls, "process", traced)
        for module, cls_name in STATS_CLASSES:
            self._capture(_resolve(module, cls_name))
        self._client_ids = {
            attr: self._name_id(f"HTTPLoadGenerator.{attr}", "apps")
            for attr in HTTP_CLIENT_CALLBACKS
        }

    def _capture(self, cls: type) -> None:
        instances = self.stats.setdefault(cls.__name__, [])
        init = cls.__dict__["__init__"]

        @functools.wraps(init)
        def capturing(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        setattr(cls, "__init__", capturing)

    def _wrap_http_client(self, launch: Callable) -> Callable:
        tracer = self

        @functools.wraps(launch)
        def launch_and_wrap(*args, **kwargs):
            tracer._pending_transport = None
            result = launch(*args, **kwargs)
            transport = tracer._pending_transport
            if transport is not None:
                for attr, name_id in tracer._client_ids.items():
                    callback = getattr(transport, attr, None)
                    if callback is not None:
                        setattr(transport, attr, tracer.span(callback, name_id))
            return result

        return launch_and_wrap

    def _with_link_totals(self, run: Callable) -> Callable:
        links = self.links

        @functools.wraps(run)
        def run_and_count(net, *args, **kwargs):
            result = run(net, *args, **kwargs)
            for key, value in link_totals(net, None, net.now).items():
                links[key] += value
            return result

        return run_and_count

    def opened(self, transport: Any) -> Any:
        """Called by the HTTP workload for every transport it opens."""
        self._pending_transport = transport
        return transport

    # -- summary --------------------------------------------------------
    def summary(self) -> dict:
        out = empty_summary()
        names = self.span_name
        starts = self.span_start
        ends = self.span_end
        parents = self.span_parent
        count = len(names)
        child = [0.0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        self_by_name = [0.0] * len(self.names)
        incl_by_name = [0.0] * len(self.names)
        count_by_name = [0] * len(self.names)
        run_id = self.names.index("Network.run")
        for index in range(count):
            name = names[index]
            duration = ends[index] - starts[index]
            self_by_name[name] += duration - child[index]
            incl_by_name[name] += duration
            count_by_name[name] += 1
            if name == run_id:
                out["microsim_s"].append(duration)
        for name_id, name in enumerate(self.names):
            out["self_s"][self.layer_of[name_id]] += self_by_name[name_id]
            for key, value in (
                ("span_self_s", self_by_name[name_id]),
                ("span_inclusive_s", incl_by_name[name_id]),
                ("span_counts", count_by_name[name_id]),
            ):
                out[key][name] = out[key].get(name, 0) + value
        stats = out["stats"]
        for cls_name, instances in self.stats.items():
            for obj in instances:
                for field_name, value in vars(obj).items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        key = f"{cls_name}.{field_name}"
                        stats[key] = stats.get(key, 0) + value
        for key, value in self.links.items():
            out["links"][key] += value
        return out

    def write_spans(self, path: str) -> None:
        """Dump every span as ``name start end parent run`` lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\trun\n")
            names = self.names
            for index, name_id in enumerate(self.span_name):
                fh.write(
                    f"{names[name_id]}\t{self.span_start[index]:.9f}\t"
                    f"{self.span_end[index]:.9f}\t{self.span_parent[index]}\t{self.run_id}\n"
                )


def _layer_of(rel: str) -> Optional[str]:
    """The layer of a file given relative to the repro package."""
    package = rel.split("/", 1)[0]
    if package == "experiments":
        return "runner" if rel == "experiments/runner.py" else None
    return package if package in LAYERS else None


class CallCounter:
    """Python calls per package over the run phase, via cProfile."""

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()

    def start(self) -> None:
        self.profiler.enable()

    def summary(self) -> dict:
        """Stop counting and summarise: calls per layer, and calls per
        ``file:qualname`` for the functions the benchmark reports."""
        self.profiler.disable()
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        out = empty_summary()
        for entry in self.profiler.getstats():
            code = entry.code
            if isinstance(code, str) or not code.co_filename.startswith(root):
                continue  # a builtin, or code outside the program
            rel = code.co_filename[len(root):].replace(os.sep, "/")
            layer = _layer_of(rel)
            if layer is None:
                continue
            out["calls"][layer] += entry.callcount
            key = f"{rel}:{code.co_qualname}"
            out["function_calls"][key] = out["function_calls"].get(key, 0) + entry.callcount
        return out
