"""Span tracer that wraps each layer's public functions from outside.

The benchmark never edits the program to trace it.  While a traced
pass runs, :func:`install` replaces the functions it lists on their
classes (or modules) with wrappers that record one span per call, and
:meth:`Tracer.unpatch` restores the originals afterwards.

A span is ``(name, start, end, self, parent, span id, request id)``.
The parent and request id come from a context variable, so a span
opened in a task that an actor spilled to (``NodeProcess._kick``)
still points at the request that caused it.  Spans stay in memory and
are written out when the run ends; aggregates per name are kept for
every call even after the in-memory span cap is reached.

Self time is measured against the *execution* stack, not the logical
parent: a synchronous span's self time is its duration minus the time
of the wrapped calls nested inside it, and a coroutine span counts
only the steps in which it actually ran (time it spent suspended is
nobody's), minus the nested wrapped calls of those steps.  On one
thread the self times of all spans therefore add up to at most the
traced wall time, and the remainder is time spent outside every
wrapped function: the event loop, socket callbacks and the garbage
collector.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
from collections import defaultdict
from time import perf_counter

#: (span id, request id) of the span the running code belongs to
_CURRENT = contextvars.ContextVar("perfbench_span", default=(0, 0))

#: spans kept in memory per run; aggregates cover every call beyond it
SPAN_CAP = 100_000

#: layer of each span name prefix (the module a wrapped function is in)
LAYERS = ("netsim", "proximity", "core", "overlay", "softstate", "runtime", "loadgen")

#: ``trace.coverage`` should reach this on each workload; the live
#: workloads leave the event loop and the socket callbacks unwrapped
COVERAGE_TOLERANCE = {
    "sim_build": 0.95,
    "live_lookup": 0.80,
    "live_churn": 0.75,
    "live_tcp": 0.55,
}


class Tracer:
    """Records spans for wrapped functions; see the module docstring."""

    def __init__(self, span_cap: int = SPAN_CAP):
        #: name -> [calls, self seconds, one number a hook keeps]
        self.stats: dict = {}
        #: (execution parent name, child name) -> calls
        self.pairs: dict = defaultdict(int)
        self.spans: list = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        # child-time accumulators of the wrapped calls now executing
        self._stack: list = []
        self._ids = itertools.count(1)
        self._patches: list = []

    def stat(self, name: str) -> list:
        found = self.stats.get(name)
        if found is None:
            found = self.stats[name] = [0, 0.0, 0.0]
        return found

    def _finish(self, name, stat, start, end, own, parent, span_id, request):
        stat[0] += 1
        stat[1] += own
        if len(self.spans) < self.span_cap:
            self.spans.append((name, start, end, own, parent, span_id, request))
        else:
            self.spans_dropped += 1

    # -- wrappers ----------------------------------------------------------

    def wrap_sync(self, fn, name: str, pre=None, post=None):
        stat = self.stat(name)
        stack = self._stack
        pairs = self.pairs
        ids = self._ids
        finish = self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, request = _CURRENT.get()
            span_id = next(ids)
            token = _CURRENT.set((span_id, request))
            frame = [0.0, name]
            stack.append(frame)
            if pre is not None:
                pre(stat, args)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                _CURRENT.reset(token)
                took = end - start
                if stack:
                    outer = stack[-1]
                    outer[0] += took
                    pairs[(outer[1], name)] += 1
                finish(name, stat, start, end, took - frame[0], parent, span_id, request)
            if post is not None:
                post(stat, result)
            return result

        return traced

    def wrap_async(self, fn, name: str, pre=None, root: bool = False):
        """Wrap a coroutine function; ``root`` spans start a new request id."""
        stat = self.stat(name)
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if pre is not None:
                pre(stat, args)
            return await _Steps(tracer, name, stat, fn(*args, **kwargs), root)

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, is_async: bool = False, **hooks):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrap = self.wrap_async if is_async else self.wrap_sync
        setattr(owner, attr, wrap(original, name, **hooks))
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        stat = self.stats.get(name)
        return 0.0 if stat is None else stat[1]

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return 0 if stat is None else stat[0]

    def layer_seconds(self) -> dict:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            totals[name.split(".", 1)[0]] += stat[1]
        return totals

    def write_spans(self, path) -> None:
        """Write the kept spans as tab-separated text (times in seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tself\tparent\tspan\trequest\n")
            for name, start, end, own, parent, span_id, request in self.spans:
                out.write(
                    f"{name}\t{start:.9f}\t{end:.9f}\t{own:.9f}\t"
                    f"{parent}\t{span_id}\t{request}\n"
                )


class SelectorIdle:
    """Wall time an event loop spends blocked in its selector, while installed.

    A traced pass's busy time is its wall time minus this: an open-loop
    pass leaves the loop idle between arrivals, and idle time belongs
    to no layer.  Wraps the selector object of an asyncio selector loop.
    """

    def __init__(self, loop):
        self.seconds = 0.0
        self._selector = loop._selector
        select = self._selector.select

        def timed_select(timeout=None):
            start = perf_counter()
            try:
                return select(timeout)
            finally:
                self.seconds += perf_counter() - start

        self._selector.select = timed_select

    def restore(self) -> None:
        del self._selector.select


class _Steps:
    """Awaitable that times each step of one coroutine as one span."""

    __slots__ = ("tracer", "name", "stat", "coro", "root")

    def __init__(self, tracer, name, stat, coro, root):
        self.tracer = tracer
        self.name = name
        self.stat = stat
        self.coro = coro
        self.root = root

    def __await__(self):
        tracer = self.tracer
        name = self.name
        stack = tracer._stack
        pairs = tracer.pairs
        parent, request = _CURRENT.get()
        span_id = next(tracer._ids)
        if self.root:
            request = span_id
        token = _CURRENT.set((span_id, request))
        inner = self.coro.__await__()
        busy = nested = 0.0
        start = end = None
        value = error = None
        try:
            while True:
                frame = [0.0, name]
                stack.append(frame)
                began = perf_counter()
                if start is None:
                    start = began
                try:
                    if error is None:
                        yielded = inner.send(value)
                    else:
                        yielded = inner.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end = perf_counter()
                    stack.pop()
                    took = end - began
                    busy += took
                    nested += frame[0]
                    if stack:
                        outer = stack[-1]
                        outer[0] += took
                        pairs[(outer[1], name)] += 1
                try:
                    value = yield yielded
                    error = None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # delivered into the coroutine
                    value, error = None, exc
        finally:
            try:
                _CURRENT.reset(token)
            except ValueError:  # closed from another context
                pass
            tracer._finish(
                name, self.stat, start, end, busy - nested, parent, span_id, request
            )


# -- the catalog of wrapped functions ---------------------------------------


# DistanceOracle.cache_info() reports only the cache's size, so the hit
# hooks look a source up in its row cache before the call runs


def _row_hit(stat, args):
    stat[2] += int(args[1]) in args[0]._rows


def _rows_hit(stat, args):
    # a bulk call counts as a hit when every source row is cached
    cached = args[0]._rows
    stat[2] += all(int(source) in cached for source in args[1])


def _distance_hit(stat, args):
    oracle, u, v = args
    stat[2] += u == v or int(u) in oracle._rows


def _route_hops(stat, result):
    stat[2] += result.hops


def _lookup_widened(stat, result):
    stat[2] += result.widened > 0


def _mailbox_depth(stat, args):
    depth = args[0].mailbox_depth
    if depth > stat[2]:
        stat[2] = depth


def install(tracer: Tracer) -> None:
    """Wrap the functions each layer's metrics are read from."""
    from repro.core.builder import TopologyAwareOverlay
    from repro.netsim.distance import DistanceOracle
    from repro.netsim.network import Network
    from repro.overlay.can import CanOverlay
    from repro.overlay.ecan import EcanOverlay
    from repro.proximity.landmarks import LandmarkSpace
    from repro.runtime import transport as transport_module
    from repro.runtime.cluster import Cluster, RoutingView
    from repro.runtime.node import NodeProcess
    from repro.runtime.wire import FrameDecoder
    from repro.softstate.neighbor_selection import SoftStateNeighborPolicy
    from repro.softstate.store import SoftStateStore

    patch = tracer.patch
    patch(Network, "rtt", "netsim.rtt")
    patch(DistanceOracle, "row", "netsim.oracle", pre=_row_hit)
    patch(DistanceOracle, "rows", "netsim.oracle", pre=_rows_hit)
    patch(DistanceOracle, "distance", "netsim.oracle", pre=_distance_hit)
    patch(LandmarkSpace, "measure", "proximity.measure")
    patch(TopologyAwareOverlay, "build", "core.build")
    patch(TopologyAwareOverlay, "add_node", "core.add_node")
    patch(TopologyAwareOverlay, "measure_stretch", "core.measure_stretch")
    patch(TopologyAwareOverlay, "route_between", "core.route_between")
    patch(CanOverlay, "join", "overlay.can_join")
    patch(EcanOverlay, "build_table", "overlay.build_table")
    patch(EcanOverlay, "route", "overlay.route", post=_route_hops)
    patch(RoutingView, "next_hop", "overlay.next_hop")
    patch(SoftStateStore, "publish", "softstate.publish")
    patch(SoftStateStore, "lookup", "softstate.lookup", post=_lookup_widened)
    patch(SoftStateNeighborPolicy, "select", "softstate.select")
    # the transports call the codec through their own module's names
    patch(transport_module, "roundtrip_payload", "runtime.codec")
    patch(transport_module, "encode_frame", "runtime.codec")
    patch(FrameDecoder, "feed", "runtime.codec.decode")
    for transport in (transport_module.LoopbackTransport, transport_module.TcpTransport):
        patch(transport, "send", "runtime.transport.send", is_async=True)
    patch(NodeProcess, "on_frame", "runtime.node.on_frame", is_async=True, pre=_mailbox_depth)
    # the mailbox drain loop is private, but it is where an ingress
    # frame's dispatch runs; without it that time would go unattributed
    patch(NodeProcess, "_drain", "runtime.node.drain", is_async=True)
    patch(NodeProcess, "request", "runtime.node.request", is_async=True)
    patch(Cluster, "admit", "runtime.cluster.admit")
    for attr in ("lookup", "lookup_map", "publish", "restart", "leave"):
        patch(Cluster, attr, "runtime.cluster.rpc", is_async=True)


# -- per-layer metrics --------------------------------------------------------

#: name -> unit of every per-layer metric a traced run reports
PER_LAYER_UNITS = {
    "netsim.rtt.calls": "count",
    "netsim.rtt.self_ms": "ms",
    "netsim.oracle.self_ms": "ms",
    "netsim.oracle.hit_ratio": "ratio",
    "proximity.measure.calls": "count",
    "proximity.measure.self_ms": "ms",
    "core.add_node.self_ms": "ms",
    "core.route_between.self_ms": "ms",
    "overlay.can_join.self_ms": "ms",
    "overlay.build_table.calls": "count",
    "overlay.build_table.self_ms": "ms",
    "overlay.route.calls": "count",
    "overlay.route.self_ms": "ms",
    "overlay.route.hops_mean": "hops",
    "overlay.next_hop.calls": "count",
    "overlay.next_hop.self_us": "us/call",
    "softstate.publish.calls": "count",
    "softstate.publish.self_ms": "ms",
    "softstate.select.calls": "count",
    "softstate.select.self_ms": "ms",
    "softstate.select.probes_per_call": "1/call",
    "softstate.lookup.calls": "count",
    "softstate.lookup.self_ms": "ms",
    "softstate.lookup.widened_ratio": "ratio",
    "runtime.codec.frames": "count",
    "runtime.codec.self_us": "us/frame",
    "runtime.transport.send.self_us": "us/call",
    "runtime.transport.frames_per_op": "1/op",
    "runtime.transport.dropped": "count",
    "runtime.node.on_frame.self_us": "us/call",
    "runtime.node.drain.self_us": "us/call",
    "runtime.node.mailbox_depth_max": "count",
    "runtime.node.request.self_us": "us/call",
    "runtime.cluster.rpc.self_us": "us/call",
    "runtime.retries": "count",
    "runtime.cluster.admit.self_ms": "ms",
    "runtime.overload.shed": "count",
    "runtime.overload.busy_retries": "count",
    "runtime.overload.breaker_fastfails": "count",
    "loadgen.p99_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.wall_ms": "ms",
    **{f"layer.{layer}.self_ms": "ms" for layer in LAYERS},
    **{f"layer.{layer}.share": "ratio" for layer in LAYERS},
}


def _per_call(total_s: float, calls: int, scale: float) -> float:
    return total_s * scale / calls if calls else 0.0


def per_layer_metrics(tracer: Tracer, wall_s: float, busy_s: float, extra: dict) -> dict:
    """Every per-layer metric of one traced pass, as ``name -> value``.

    Shares are of the traced wall time ``wall_s``; coverage is of the
    busy part of it, ``busy_s`` (see :class:`SelectorIdle`).
    ``extra`` carries what the workload measured itself: the counters
    read from the program (``runtime.*`` transport and overload
    numbers), the driver's own percentiles and ``trace.overhead_ratio``.
    """
    ms = lambda name: tracer.self_seconds(name) * 1e3  # noqa: E731
    calls = tracer.calls
    empty = [0, 0.0, 0.0]
    oracle = tracer.stats.get("netsim.oracle", empty)
    route = tracer.stats.get("overlay.route", empty)
    lookup = tracer.stats.get("softstate.lookup", empty)
    frames = calls("runtime.codec")
    codec_s = tracer.self_seconds("runtime.codec") + tracer.self_seconds(
        "runtime.codec.decode"
    )
    metrics = {
        "netsim.rtt.calls": calls("netsim.rtt"),
        "netsim.rtt.self_ms": ms("netsim.rtt"),
        "netsim.oracle.self_ms": ms("netsim.oracle"),
        "netsim.oracle.hit_ratio": oracle[2] / oracle[0] if oracle[0] else 0.0,
        "proximity.measure.calls": calls("proximity.measure"),
        "proximity.measure.self_ms": ms("proximity.measure"),
        "core.add_node.self_ms": ms("core.add_node"),
        "core.route_between.self_ms": ms("core.route_between"),
        "overlay.can_join.self_ms": ms("overlay.can_join"),
        "overlay.build_table.calls": calls("overlay.build_table"),
        "overlay.build_table.self_ms": ms("overlay.build_table"),
        "overlay.route.calls": route[0],
        "overlay.route.self_ms": ms("overlay.route"),
        "overlay.route.hops_mean": route[2] / route[0] if route[0] else 0.0,
        "overlay.next_hop.calls": calls("overlay.next_hop"),
        "overlay.next_hop.self_us": _per_call(
            tracer.self_seconds("overlay.next_hop"), calls("overlay.next_hop"), 1e6
        ),
        "softstate.publish.calls": calls("softstate.publish"),
        "softstate.publish.self_ms": ms("softstate.publish"),
        "softstate.select.calls": calls("softstate.select"),
        "softstate.select.self_ms": ms("softstate.select"),
        "softstate.select.probes_per_call": (
            tracer.pairs[("softstate.select", "netsim.rtt")] / calls("softstate.select")
            if calls("softstate.select")
            else 0.0
        ),
        "softstate.lookup.calls": lookup[0],
        "softstate.lookup.self_ms": ms("softstate.lookup"),
        "softstate.lookup.widened_ratio": lookup[2] / lookup[0] if lookup[0] else 0.0,
        "runtime.codec.frames": frames,
        "runtime.codec.self_us": _per_call(codec_s, frames, 1e6),
        "runtime.node.mailbox_depth_max": tracer.stats.get(
            "runtime.node.on_frame", empty
        )[2],
        "runtime.cluster.admit.self_ms": ms("runtime.cluster.admit"),
    }
    for name in (
        "runtime.transport.send",
        "runtime.node.on_frame",
        "runtime.node.drain",
        "runtime.node.request",
        "runtime.cluster.rpc",
    ):
        metrics[f"{name}.self_us"] = _per_call(
            tracer.self_seconds(name), calls(name), 1e6
        )
    layers = tracer.layer_seconds()
    for layer, seconds in layers.items():
        metrics[f"layer.{layer}.self_ms"] = seconds * 1e3
        metrics[f"layer.{layer}.share"] = seconds / wall_s if wall_s > 0 else 0.0
    metrics["trace.coverage"] = sum(layers.values()) / busy_s if busy_s > 0 else 0.0
    metrics["trace.wall_ms"] = wall_s * 1e3
    metrics.update(extra)
    missing = set(PER_LAYER_UNITS) - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: float(metrics[name]) for name in PER_LAYER_UNITS}
