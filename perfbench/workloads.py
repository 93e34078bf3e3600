"""The four benchmark workloads.

Each workload is ``run(seed, seconds, traced) -> Outcome``.  Every
workload runs on one fixed deployment -- the transit-stub topology and
the overlay membership both come from :data:`DEPLOYMENT_SEED` -- and
the run's seed draws the workload's inputs: the route pairs of the
simulator, the lookup streams and the churn schedule of the live
cluster.  The program sees only those inputs.

With ``traced`` false the outcome carries the end-to-end metrics.
With ``traced`` true the measured work is split into an untraced half
and a traced half, and the outcome carries the per-layer metrics of
the traced half plus the tracing overhead: the traced half's CPU time
per operation over the untraced half's.  Every
run checks the program's outputs; ``README.md`` lists the checks.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import time
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.builder import TopologyAwareOverlay
from repro.core.config import NetworkParams, OverlayParams, make_network
from repro.core.recovery import check_invariants
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.softstate.maps import Region
from repro.workloads.generator import poisson_arrivals, uniform_points, zipf_points

import layers

#: seed of the topology and of the overlay membership in every workload
DEPLOYMENT_SEED = 0
#: topology scale of every workload (84 physical nodes, transit-stub)
TOPO_SCALE = 0.25
#: members of the simulated overlay grown by ``sim_build``
SIM_NODES = 1024
#: member pairs routed by the sim's routing phase (stretch samples)
STRETCH_SAMPLES = 16384
#: builds per sim pass at most: each join and route is timed by its
#: fastest repetition, and a fastest-of-k falls as k grows
SIM_REPEATS = 3
#: extra set-ups timed per sim run; ``setup_s`` is the median of their
#: CPU times (a live run times the boot of each of its segments)
SIM_SETUPS = 5
#: closed-loop lookups run after each boot and counted as set-up
WARMUP_LOOKUPS = 2000
#: closed-loop latency percentiles are medians over windows of this
#: many seconds: short enough that one stall spoils few windows, long
#: enough that each window holds 1000 requests
CLOSED_WINDOW_S = 0.25
#: each live run is this many segments, each on a freshly booted cluster
LIVE_SEGMENTS = 8

LIVE = {
    # name: (transport, nodes, requests in flight in the closed loop
    # and in every warm-up)
    "live_lookup": ("loopback", 64, 64),
    "live_churn": ("loopback", 64, 64),
    "live_tcp": ("tcp", 16, 32),
}
#: open-loop read rate of live_churn (reads/s) and its share of map reads
CHURN_READ_RATE = 1000.0
CHURN_MAP_SHARE = 0.25
#: live_churn runs one write every this many seconds: JOIN, leave, publish
CHURN_WRITE_PERIOD = 0.060


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: descriptions of failed correctness checks (empty = correct)
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: workload parameters and diagnostics recorded with the result
    params: dict = field(default_factory=dict)
    #: tracer of the traced half, for writing spans
    tracer: object = None

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _cpu_per_op(cpu_s: float, ops: int) -> float:
    return cpu_s / max(ops, 1)


def _traced_metrics(tracer, wall_s, busy_s, overhead, extra) -> dict:
    values = layers.per_layer_metrics(
        tracer, wall_s, busy_s, {"trace.overhead_ratio": overhead, **extra}
    )
    spans = sum(stat[0] for stat in tracer.stats.values())
    return {
        name: Metric(value, layers.PER_LAYER_UNITS[name], spans)
        for name, value in values.items()
    }


def _check_stretch(stretch, out: Outcome) -> None:
    out.check(
        len(stretch) > 0
        and bool(np.all(np.isfinite(stretch)))
        and float(np.min(stretch)) >= 1.0 - 1e-6,
        "a stretch is not finite or below 1",
    )


def _check_invariants(overlay, out: Outcome) -> None:
    try:
        check_invariants(overlay)
    except AssertionError as exc:
        out.check(False, f"check_invariants: {exc}")


# -- sim_build ---------------------------------------------------------------


def _sim_setup():
    began = time.process_time()
    network = make_network(NetworkParams(topo_scale=TOPO_SCALE, seed=DEPLOYMENT_SEED))
    overlay = TopologyAwareOverlay(
        network, OverlayParams(num_nodes=SIM_NODES, seed=DEPLOYMENT_SEED)
    )
    return overlay, time.process_time() - began


def _sim_pass(seed: int, seconds: float, out: Outcome, setups: list,
              tracer=None) -> dict:
    """Up to :data:`SIM_REPEATS` build-and-route iterations within ``seconds``.

    At least one iteration runs; another starts only while time is left.

    With a ``tracer``, only the timed build and routing phases run
    traced; set-up and the correctness checks run untraced.
    """
    tally = {"build_cpu": [], "routing_cpu": [], "wall_s": [], "join_ms": [],
             "route_ms": [], "failed": 0, "stretch": None, "ops": []}
    began = perf_counter()
    while not tally["build_cpu"] or (
        len(tally["build_cpu"]) < SIM_REPEATS and perf_counter() - began < seconds
    ):
        gc.collect()  # the previous iteration's overlay, outside the timing
        overlay, setup_s = _sim_setup()
        setups.append(setup_s)
        if tracer is not None:
            layers.install(tracer)
        join_ms, route_ms = [], []
        add_node = overlay.add_node
        route_between = overlay.route_between

        def timed_add_node(*args, **kwargs):
            start = perf_counter()
            node_id = add_node(*args, **kwargs)
            join_ms.append((perf_counter() - start) * 1e3)
            return node_id

        def timed_route_between(*args, **kwargs):
            start = perf_counter()
            result, stretch = route_between(*args, **kwargs)
            route_ms.append((perf_counter() - start) * 1e3)
            tally["failed"] += not result.success
            return result, stretch

        overlay.add_node = timed_add_node
        overlay.route_between = timed_route_between
        try:
            start, cpu = perf_counter(), time.process_time()
            overlay.build(SIM_NODES)
            built = time.process_time()
            stretch = overlay.measure_stretch(
                samples=STRETCH_SAMPLES, rng=np.random.default_rng([seed, 1])
            )
            tally["routing_cpu"].append(time.process_time() - built)
            tally["build_cpu"].append(built - cpu)
            tally["wall_s"].append(perf_counter() - start)
        finally:
            if tracer is not None:
                tracer.unpatch()
            del overlay.add_node, overlay.route_between
        tally["ops"].append(SIM_NODES + len(route_ms))
        tally["join_ms"].append(join_ms)
        tally["route_ms"].append(route_ms)

        out.check(len(overlay) == SIM_NODES, f"overlay has {len(overlay)} members")
        _check_invariants(overlay, out)
        out.check(len(stretch) == STRETCH_SAMPLES, f"{len(stretch)} stretch samples")
        _check_stretch(stretch, out)
        if tally["stretch"] is None:
            tally["stretch"] = stretch
        else:  # same deployment, same seed: the same overlay and routes
            out.check(
                np.array_equal(stretch, tally["stretch"])
                and len(route_ms) == len(tally["route_ms"][0]),
                "routes or stretch differ between builds of one seed",
            )
    return tally


def run_sim_build(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome(params={"topo_scale": TOPO_SCALE, "nodes": SIM_NODES,
                          "routes": STRETCH_SAMPLES,
                          "deployment_seed": DEPLOYMENT_SEED})
    setups = [_sim_setup()[1] for _ in range(SIM_SETUPS)]
    if traced:
        plain = _sim_pass(seed, seconds / 2, out, setups)
        tracer = layers.Tracer()
        tally = _sim_pass(seed, seconds / 2, out, setups, tracer)
        passes = [plain, tally]
        # the traced wall time is the timed build and routing phases;
        # the set-ups and correctness checks between them are left out
        wall = sum(tally["wall_s"])
        # against the last untraced iteration: the first one in a
        # process runs with cold module-level caches
        cpu = [b + r for b, r in zip(tally["build_cpu"], tally["routing_cpu"])]
        overhead = _cpu_per_op(sum(cpu), sum(tally["ops"])) / _cpu_per_op(
            plain["build_cpu"][-1] + plain["routing_cpu"][-1], plain["ops"][-1]
        )
        out.metrics = _traced_metrics(tracer, wall, wall, overhead, _no_runtime_counters())
        out.tracer = tracer
    else:
        tally = _sim_pass(seed, seconds, out, setups)
        passes = [tally]
    for t in passes:
        out.attempted += sum(t["ops"])
        out.failed += t["failed"]
    out.params["builds"] = [len(t["build_cpu"]) for t in passes]
    if traced:
        return out
    # every iteration repeats the same joins and routes, so each one is
    # timed by its fastest repetition: interference from outside the
    # process only ever adds time
    builds = len(tally["join_ms"])
    join_ms = np.min(np.array(tally["join_ms"]), axis=0)
    route_ms = np.min(np.array(tally["route_ms"]), axis=0)
    joins, routes = len(join_ms), len(route_ms)
    join_s, route_s = join_ms.sum() / 1e3, route_ms.sum() / 1e3
    out.metrics = {
        "setup_s": Metric(_median(setups), "s", len(setups)),
        "joins_per_s": Metric(joins / join_s, "1/s", builds * joins),
        "join_p50_ms": Metric(_percentile(join_ms, 50), "ms", builds * joins),
        "routes_per_s": Metric(routes / route_s, "1/s", builds * routes),
        "ops_per_s": Metric((joins + routes) / (join_s + route_s), "1/s",
                            builds * (joins + routes)),
        "p50_ms": Metric(_percentile(route_ms, 50), "ms", builds * routes),
        "p90_ms": Metric(_percentile(route_ms, 90), "ms", builds * routes),
        "p99_ms": Metric(_percentile(route_ms, 99), "ms", builds * routes),
        "stretch_mean": Metric(
            float(np.mean(tally["stretch"])), "ratio", len(tally["stretch"])
        ),
        "success_ratio": Metric(1.0 - out.failed / out.attempted, "ratio", out.attempted),
    }
    return out


def _no_runtime_counters() -> dict:
    return {
        "runtime.transport.frames_per_op": 0.0,
        "runtime.transport.dropped": 0,
        "runtime.retries": 0,
        "runtime.overload.shed": 0,
        "runtime.overload.busy_retries": 0,
        "runtime.overload.breaker_fastfails": 0,
        "loadgen.p99_ms": 0.0,
        "loadgen.late_p99_ms": 0.0,
    }


# -- live clusters -------------------------------------------------------------


def _cluster_config(name: str) -> ClusterConfig:
    transport, nodes, _ = LIVE[name]
    return ClusterConfig(
        nodes=nodes,
        network=NetworkParams(topo_scale=TOPO_SCALE, seed=DEPLOYMENT_SEED),
        overlay=OverlayParams(num_nodes=nodes, seed=DEPLOYMENT_SEED),
        transport=transport,
        wire_encoding="packed",
    )


class LookupStream:
    """Request ``i`` -> (source member, uniform key), drawn in order from the seed."""

    CHUNK = 4096

    def __init__(self, seed: int, tag: int, members: list, dims: int):
        self.rng = np.random.default_rng([seed, tag])
        self.members = members
        self.dims = dims
        self.sources: list = []
        self.keys: list = []

    def request(self, index: int) -> tuple:
        while index >= len(self.sources):
            picks = self.rng.integers(0, len(self.members), size=self.CHUNK)
            self.sources.extend(self.members[int(p)] for p in picks)
            points = uniform_points(self.CHUNK, self.dims, self.rng)
            self.keys.extend(tuple(row) for row in points.tolist())
        return self.sources[index], self.keys[index]


class Windows:
    """Request latencies bucketed into windows of ``width`` seconds of a pass."""

    def __init__(self, seconds: float, width: float):
        self.width = width
        self.latency_ms = [[] for _ in range(max(1, int(seconds / width)))]

    def add(self, offset_s: float, latency_ms: float) -> None:
        """One request ``offset_s`` into the pass (past the last window: dropped)."""
        index = int(offset_s / self.width)
        if 0 <= index < len(self.latency_ms):
            self.latency_ms[index].append(latency_ms)


def _window_percentile(tallies: list, q: float) -> float:
    """Median over every window of the passes of each window's ``q``-th percentile."""
    return _median([
        _percentile(window, q)
        for tally in tallies
        for window in tally["windows"].latency_ms
        if window
    ])


async def _closed_loop(cluster, stream, indices, concurrency: int, seconds: float,
                       issue_wrap=None) -> dict:
    """``concurrency`` workers issue lookups back to back for ``seconds``.

    Request numbers come from ``indices``, shared by the passes of a
    run, so no two passes issue the same request.
    """
    windows = Windows(seconds, CLOSED_WINDOW_S)
    tally = {"windows": windows, "latency_ms": [], "owners": {}, "attempted": 0,
             "failed": 0, "writes_done": 0, "errors": []}
    start = perf_counter()
    deadline = start + seconds

    async def issue(index: int) -> None:
        source, key = stream.request(index)
        began = perf_counter()
        try:
            reply = await cluster.lookup(source, key)
        except Exception as exc:  # counted, reported with its type
            tally["failed"] += 1
            if len(tally["errors"]) < 8:
                tally["errors"].append(repr(exc))
            return
        done = perf_counter()
        latency_ms = (done - began) * 1e3
        tally["latency_ms"].append(latency_ms)
        windows.add(done - start, latency_ms)
        tally["owners"][index] = reply["owner"]

    if issue_wrap is not None:
        issue = issue_wrap(issue)

    async def worker() -> None:
        while perf_counter() < deadline:
            tally["attempted"] += 1
            await issue(next(indices))

    cpu = time.process_time()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    tally["wall_s"] = perf_counter() - start
    tally["cpu"] = time.process_time() - cpu
    return tally


def _check_owners(cluster, sim, stream, tally: dict, out: Outcome) -> None:
    """Every lookup owner must match the simulator replaying the same inputs."""
    out.check(sorted(sim.node_ids) == sorted(cluster.node_ids),
              "reference simulator membership differs")
    mismatches = 0
    for index, owner in tally["owners"].items():
        source, key = stream.request(index)
        result = sim.ecan.route(source, key, category="parity_check")
        mismatches += not result.success or result.owner != owner
    out.check(mismatches == 0, f"{mismatches} lookup owners differ from the simulator")


class ChurnSchedule:
    """Open-loop reads and periodic writes for one pass, drawn from the seed."""

    def __init__(self, seed: int, tag: int, seconds: float, dims: int):
        rng = np.random.default_rng([seed, tag])
        expected = CHURN_READ_RATE * seconds
        arrivals = poisson_arrivals(
            CHURN_READ_RATE, int(expected + 10 * expected**0.5 + 64), rng
        )
        self.arrivals = arrivals[arrivals < seconds].tolist()
        count = len(self.arrivals)
        self.is_map = (rng.random(count) < CHURN_MAP_SHARE).tolist()
        self.keys = [tuple(row) for row in zipf_points(count, dims, rng).tolist()]
        # map reads ask for one of the level-1 regions (quadrants)
        self.cells = [tuple(row) for row in rng.integers(0, 2, size=(count, dims)).tolist()]
        self.source_draws = rng.random(count).tolist()
        self.writes = [
            k * CHURN_WRITE_PERIOD
            for k in range(1, int(seconds / CHURN_WRITE_PERIOD) + 1)
            if k * CHURN_WRITE_PERIOD < seconds
        ]
        self.write_rng = np.random.default_rng([seed, tag, 1])
        self.seconds = seconds


async def _churn_pass(cluster, schedule: ChurnSchedule, out: Outcome,
                      issue_wrap=None) -> dict:
    can = cluster.overlay.ecan.can
    store = cluster.overlay.store
    # one window per pass: a pass holds about 1900 reads, so its p99
    # has 19 reads beyond it
    windows = Windows(schedule.seconds, schedule.seconds)
    tally = {"windows": windows, "latency_ms": [], "late_ms": [], "join_ms": [],
             "departed": [], "attempted": 0, "failed": 0, "writes_done": 0,
             "raced": 0, "errors": []}
    start = perf_counter()

    def failed(exc: Exception) -> None:
        tally["failed"] += 1
        if len(tally["errors"]) < 8:
            tally["errors"].append(repr(exc))

    async def read(index: int) -> None:
        at = schedule.arrivals[index]
        due = start + at
        tally["late_ms"].append((perf_counter() - due) * 1e3)
        members = cluster.node_ids
        source = members[int(schedule.source_draws[index] * len(members))]
        is_map = schedule.is_map[index]
        if is_map:
            region = Region(1, schedule.cells[index])
            point = store.position_of(store.registry[source], region)
        else:
            point = schedule.keys[index]
        version = can.zone_version
        owner_at_issue = can.owner_of_point(point)
        tally["attempted"] += 1
        try:
            if is_map:
                reply = await cluster.lookup_map(source, region)
            else:
                reply = await cluster.lookup(source, point)
        except Exception as exc:  # graceful-leave races; counted
            failed(exc)
            return
        latency_ms = (perf_counter() - due) * 1e3
        tally["latency_ms"].append(latency_ms)
        windows.add(at, latency_ms)
        owner = reply["owner"]
        if owner != can.owner_of_point(point):
            # a join or leave landed while the reply was in flight: the
            # owner must then be the one from before that change
            if can.zone_version != version and owner == owner_at_issue:
                tally["raced"] += 1
            else:
                out.check(False, f"read {index}: owner {owner} does not own the key")
        if is_map:
            out.check(reply.get("served_by") == owner,
                      f"map read {index} served by {reply.get('served_by')}, not {owner}")

    if issue_wrap is not None:
        read = issue_wrap(read)

    async def reader() -> None:
        # only unfinished reads are referenced, so finished ones do not
        # pile up for the garbage collector to scan inside the window
        pending = set()
        loop = asyncio.get_running_loop()
        for index, at in enumerate(schedule.arrivals):
            delay = start + at - perf_counter()
            if delay > 0.0:
                await asyncio.sleep(delay)
            task = loop.create_task(read(index))
            pending.add(task)
            task.add_done_callback(pending.discard)
        while pending:
            await asyncio.gather(*list(pending))

    async def writer() -> None:
        rng = schedule.write_rng
        joined = []
        for k, at in enumerate(schedule.writes):
            delay = start + at - perf_counter()
            if delay > 0.0:
                await asyncio.sleep(delay)
            tally["attempted"] += 1
            began = perf_counter()
            try:
                if k % 3 == 0:
                    joined.append(await cluster.restart())
                    tally["join_ms"].append((perf_counter() - began) * 1e3)
                elif k % 3 == 1:
                    node_id = joined.pop(int(rng.integers(len(joined))))
                    tally["departed"].append(node_id)
                    await cluster.leave(node_id)
                else:
                    members = cluster.node_ids
                    await cluster.publish(members[int(rng.integers(len(members)))])
            except Exception as exc:
                failed(exc)
            else:
                tally["writes_done"] += 1

    cpu = time.process_time()
    await asyncio.gather(reader(), writer())
    tally["wall_s"] = perf_counter() - start
    tally["cpu"] = time.process_time() - cpu
    return tally


def _check_end_state(overlay, departed: set, out: Outcome) -> int:
    """Check the overlay after churn; returns the stale expressway entries.

    A graceful leave repairs other members' expressway entries lazily
    (``EcanOverlay.leave``), so after any leave -- in the simulator as
    well -- ``check_invariants`` finds entries naming the departed node
    until a route trips over them.  Every such entry must name a node
    this run made leave; they are then evicted with the program's own
    eager repair (``EcanOverlay.invalidate_member``) and
    ``check_invariants`` must hold over the whole stack.
    """
    ecan = overlay.ecan
    members = ecan.can.nodes
    stale = [
        entry
        for node_id in members
        for row in ecan.table_of(node_id).values()
        for entry in row.values()
        if entry not in members
    ]
    out.check(
        set(stale) <= departed,
        f"expressway entries name non-members that never left: {set(stale) - departed}",
    )
    for node_id in sorted(set(stale)):
        ecan.invalidate_member(node_id)
    _check_invariants(overlay, out)
    return len(stale)


async def _boot(config: ClusterConfig, concurrency: int):
    """Boot a cluster over wire JOINs and warm it up; returns timings."""
    admits = []
    began = time.process_time()
    cluster = Cluster(config)
    admit = cluster.admit

    def timed_admit(*args, **kwargs):
        admits.append(time.process_time())
        return admit(*args, **kwargs)

    cluster.admit = timed_admit
    try:
        await cluster.start()
    finally:
        del cluster.admit
    warm = LookupStream(DEPLOYMENT_SEED, 0, cluster.node_ids, cluster.routing.dims)
    count = itertools.count()

    async def warmer():
        while (index := next(count)) < WARMUP_LOOKUPS:
            source, key = warm.request(index)
            await cluster.lookup(source, key)

    await asyncio.gather(*(warmer() for _ in range(concurrency)))
    setup_cpu = time.process_time() - began
    # the first admit is the local seed node; each wire JOIN after it
    # costs the CPU time from the previous admit (joins run one at a time)
    join_ms = [(b - a) * 1e3 for a, b in zip(admits[1:], admits[2:])]
    return cluster, {"setup_cpu": setup_cpu, "join_ms": join_ms}


def _boot_metrics(boots: list) -> dict:
    """Set-up time, and the wire JOINs of the boots.

    Every boot replays the same joins, so each join is timed by its
    median over the boots.  The joins are timed in CPU time, which the
    host's preemption does not stretch; what is left is the host's
    speed, which drifts over the run, and a median follows the typical
    speed where a fastest-of-k would follow the fastest moment.
    """
    join_ms = np.median(np.array([boot["join_ms"] for boot in boots]), axis=0)
    samples = len(boots) * len(join_ms)
    return {
        "setup_s": Metric(_median([boot["setup_cpu"] for boot in boots]), "s", len(boots)),
        "joins_per_s": Metric(len(join_ms) / (join_ms.sum() / 1e3), "1/s", samples),
        "boot_join_p50_ms": Metric(_percentile(join_ms, 50), "ms", samples),
    }


def _counter_snapshot(cluster) -> dict:
    snapshot = dict(cluster.transport.counters())
    snapshot.update(cluster.overload_counters())
    snapshot["retries"] = cluster.retry_counters()["retries"] + sum(
        actor.retries for actor in cluster.actors.values()
    )
    return snapshot


#: the program's counters a traced pass reports, as deltas over the pass
COUNTERS = ("sent", "dropped", "retries", "shed", "busy_retries", "breaker_fastfails")


async def _run_pass(cluster, run_pass, tracer=None) -> dict:
    """Run ``run_pass(issue_wrap)``; with a ``tracer``, with every layer wrapped.

    A traced pass's tally also gets ``busy_s`` (its wall time minus the
    event loop's idle time) and the deltas of the program's
    :data:`COUNTERS` over the pass.
    """
    if tracer is None:
        return await run_pass(None)
    before = _counter_snapshot(cluster)
    idle = layers.SelectorIdle(asyncio.get_running_loop())
    layers.install(tracer)
    try:
        tally = await run_pass(
            lambda fn: tracer.wrap_async(fn, "loadgen.issue", root=True)
        )
    finally:
        tracer.unpatch()
        idle.restore()
    tally["busy_s"] = tally["wall_s"] - idle.seconds
    after = _counter_snapshot(cluster)
    tally["counters"] = {key: after[key] - before[key] for key in COUNTERS}
    return tally


def _live_stretch(overlay) -> list:
    """The paper's stretch over every ordered pair of live members.

    A live overlay has few enough members to route every pair, so the
    mean carries no sampling noise.
    """
    members = overlay.node_ids
    return [
        value
        for src in members
        for dst in members
        if src != dst and (value := overlay.route_between(src, dst)[1]) is not None
    ]


async def _run_live(name: str, seed: int, seconds: float, traced: bool) -> Outcome:
    """Run a live workload as :data:`LIVE_SEGMENTS` segments.

    Each segment boots a fresh cluster of the deployment (a timed
    set-up), measures it for its share of ``seconds`` and checks it.
    Spreading the boots over the run keeps their join timings from all
    landing in one stretch of the host's speed.  A traced run traces
    the second half of the segments.
    """
    transport, nodes, concurrency = LIVE[name]
    churn = name == "live_churn"
    out = Outcome(params={"topo_scale": TOPO_SCALE, "nodes": nodes,
                          "transport": transport, "encoding": "packed",
                          "deployment_seed": DEPLOYMENT_SEED,
                          "segments": LIVE_SEGMENTS})
    if churn:
        out.params.update(loop="open", read_rate=CHURN_READ_RATE,
                          map_share=CHURN_MAP_SHARE,
                          write_period_s=CHURN_WRITE_PERIOD, stale_entries=0)
    else:
        out.params.update(loop="closed", concurrency=concurrency)
    config = _cluster_config(name)
    length = seconds / LIVE_SEGMENTS
    tracer = layers.Tracer() if traced else None
    boots, plain, traced_passes, stretch = [], [], [], []
    indices = itertools.count()
    stream = sim = None
    for k in range(LIVE_SEGMENTS):
        # every boot starts from a collected heap, so none of them pays
        # for collecting the clusters stopped before it
        gc.collect()
        cluster, boot = await _boot(config, concurrency)
        boots.append(boot)
        # keep the set-up heap out of the full collections in the window
        gc.freeze()
        try:
            if churn:
                schedule = ChurnSchedule(seed, k, length, cluster.routing.dims)

                def run_pass(wrap):
                    return _churn_pass(cluster, schedule, out, wrap)
            else:
                if stream is None:
                    stream = LookupStream(seed, 1, cluster.node_ids, cluster.routing.dims)

                def run_pass(wrap):
                    return _closed_loop(cluster, stream, indices, concurrency, length, wrap)

            traced_segment = traced and k >= LIVE_SEGMENTS // 2
            tally = await _run_pass(cluster, run_pass, tracer if traced_segment else None)
            (traced_passes if traced_segment else plain).append(tally)
            if churn:
                out.params["stale_entries"] += _check_end_state(
                    cluster.overlay, set(tally["departed"]), out
                )
            else:
                if sim is None:
                    sim = cluster.build_reference_sim()
                _check_owners(cluster, sim, stream, tally, out)
            if not traced and (churn or k == 0):
                stretch.extend(_live_stretch(cluster.overlay))
        finally:
            await cluster.stop()
            gc.unfreeze()
    passes = plain + traced_passes
    for tally in passes:
        out.attempted += tally["attempted"]
        out.failed += tally["failed"]
    out.params["errors"] = [e for tally in passes for e in tally["errors"]][:8]
    if churn:
        out.params["raced_reads"] = sum(tally["raced"] for tally in passes)
    if traced:
        out.metrics = _live_traced_metrics(tracer, plain, traced_passes, churn)
        out.tracer = tracer
        return out
    _check_stretch(stretch, out)
    boot = _boot_metrics(boots)
    if churn:
        join_ms = [ms for tally in plain for ms in tally["join_ms"]]
        join_p50 = Metric(_percentile(join_ms, 50), "ms", len(join_ms))
    else:
        join_p50 = boot["boot_join_p50_ms"]
    reads = sum(len(tally["latency_ms"]) for tally in plain)
    writes = sum(tally["writes_done"] for tally in plain)
    cpu = sum(tally["cpu"] for tally in plain)
    out.metrics = {
        "setup_s": boot["setup_s"],
        "joins_per_s": boot["joins_per_s"],
        "join_p50_ms": join_p50,
        "ops_per_s": Metric((reads + writes) / cpu, "1/s", reads + writes),
        "routes_per_s": Metric(reads / cpu, "1/s", reads),
        "p50_ms": Metric(_window_percentile(plain, 50), "ms", reads),
        "p90_ms": Metric(_window_percentile(plain, 90), "ms", reads),
        "p99_ms": Metric(_window_percentile(plain, 99), "ms", reads),
        "stretch_mean": Metric(float(np.mean(stretch)), "ratio", len(stretch)),
        "success_ratio": Metric(1.0 - out.failed / out.attempted, "ratio", out.attempted),
    }
    return out


def _live_traced_metrics(tracer, plain: list, traced: list, churn: bool) -> dict:
    def cpu_per_op(tallies):
        return _cpu_per_op(sum(t["cpu"] for t in tallies), sum(t["attempted"] for t in tallies))

    ops = sum(t["attempted"] for t in traced)
    counters = {key: sum(t["counters"][key] for t in traced) for key in COUNTERS}
    latency_ms = [ms for t in traced for ms in t["latency_ms"]]
    late_ms = [ms for t in traced for ms in t["late_ms"]] if churn else [0.0]
    extra = {
        "runtime.transport.frames_per_op": counters["sent"] / max(ops, 1),
        "runtime.transport.dropped": counters["dropped"],
        "runtime.retries": counters["retries"],
        "runtime.overload.shed": counters["shed"],
        "runtime.overload.busy_retries": counters["busy_retries"],
        "runtime.overload.breaker_fastfails": counters["breaker_fastfails"],
        "loadgen.p99_ms": _percentile(latency_ms, 99),
        # the closed loops have no schedule to fall behind
        "loadgen.late_p99_ms": _percentile(late_ms, 99),
    }
    return _traced_metrics(
        tracer,
        sum(t["wall_s"] for t in traced),
        sum(t["busy_s"] for t in traced),
        cpu_per_op(traced) / cpu_per_op(plain),
        extra,
    )


def _live(name: str):
    def run(seed: int, seconds: float, traced: bool) -> Outcome:
        return asyncio.run(_run_live(name, seed, seconds, traced))

    return run


WORKLOADS = {"sim_build": run_sim_build, **{name: _live(name) for name in LIVE}}
