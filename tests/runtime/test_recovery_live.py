"""Wire-level SWIM detection + live repair (tentpole coverage).

Every tick here is driven manually (the background task is never
started) so the rounds are deterministic: crash -> silence -> suspect
-> confirm -> takeover, refutation of a wrongly seeded suspicion,
partition shielding with a heal + reconcile, a crashed member
restarting through the wire JOIN path, and the bulk-boot fast path
producing the same membership and zones as the incremental build.
"""

import asyncio
import math

import pytest

from repro.core.config import NetworkParams, OverlayParams
from repro.core.recovery import DetectorParams, check_invariants
from repro.runtime import Cluster, ClusterConfig
from repro.runtime.recovery import RuntimeRecovery
from repro.runtime.wire import MsgType


def run(coroutine):
    return asyncio.run(coroutine)


def make_config(nodes=24, **overrides):
    return ClusterConfig(
        nodes=nodes,
        network=NetworkParams(topo_scale=0.25, seed=3),
        overlay=OverlayParams(num_nodes=nodes, seed=5),
        heartbeat_period=0.05,
        probe_timeout=0.5,
        **overrides,
    )


def make_detector(cluster, suspicion_periods=1):
    """A hand-ticked detector: no background task, short suspicion."""
    return RuntimeRecovery(
        cluster,
        DetectorParams(period=50.0, suspicion_periods=suspicion_periods),
        seed=11,
    )


async def tick_until(recovery, predicate, rounds=12):
    for _ in range(rounds):
        await recovery.tick()
        if predicate():
            return
    raise AssertionError(f"predicate still false after {rounds} detector rounds")


def pick_victim(cluster):
    """A member off the bootstrap's machine (crashes are host-level)."""
    boot_host = int(cluster.bootstrap.host)
    return next(
        n
        for n, actor in sorted(cluster.actors.items())
        if int(actor.host) != boot_host
    )


class TestCrashDetection:
    def test_crash_confirm_takeover_invariants(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                recovery = make_detector(cluster)
                victims = (await cluster.crash(pick_victim(cluster)))["victims"]
                await tick_until(
                    recovery,
                    lambda: set(victims) <= set(recovery.confirmed_dead),
                )
                await recovery.reconcile()
                assert recovery.false_kills == 0
                assert recovery.manager.takeovers >= len(victims)
                nodes = cluster.overlay.ecan.can.nodes
                assert not set(victims) & set(nodes)
                summary = check_invariants(cluster.overlay, recovery)
                # a live lookup still lands after the repair
                survivor = min(cluster.actors)
                result = await cluster.lookup(survivor, (0.3, 0.7))
                assert result["owner"] in cluster.actors
                return summary

        summary = run(scenario())
        assert summary["nodes"] > 0

    def test_answered_probe_refutes_suspicion(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                recovery = make_detector(cluster, suspicion_periods=3)
                innocent = pick_victim(cluster)
                recovery.suspected[innocent] = 2  # wrongly accused, still alive
                await tick_until(
                    recovery, lambda: innocent not in recovery.suspected, rounds=4
                )
                assert recovery.refutations >= 1
                assert recovery.false_kills == 0
                assert innocent not in recovery.confirmed_dead

        run(scenario())


class TestRelayOverTcp:
    def test_relay_probe_answers_while_another_drain_is_suspended(self):
        """A relay heartbeat drained inline off a socket still probes.

        Witness ``a`` is suspended mid-drain, relaying to an endpoint
        that never answers, so witness ``b``'s relay heartbeat is
        drained inline from the TCP receive path; its own probe must
        still go out and come back (``ok`` True).
        """

        async def scenario():
            async with Cluster(make_config(nodes=8, transport="tcp")) as cluster:

                async def silent(frame):
                    pass

                await cluster.transport.bind("sink", silent)
                prober, a, b, target = sorted(cluster.actors)[:4]
                node = cluster.actors[prober]
                stalled = asyncio.ensure_future(node.request(
                    a, MsgType.HEARTBEAT,
                    {"seq": 0, "relay": "sink", "timeout": 1.0},
                    timeout=5.0, retry=False,
                ))
                while not cluster.actors[a]._draining:
                    await asyncio.sleep(0.001)
                reply = await node.request(
                    b, MsgType.HEARTBEAT,
                    {"seq": 1, "relay": target, "timeout": 2.0},
                    timeout=5.0, retry=False,
                )
                return reply, await stalled

        reply, stalled = run(scenario())
        assert reply["ok"] is True
        assert stalled["ok"] is False


class TestPartitionShielding:
    def test_partition_shields_then_heals(self):
        async def scenario():
            async with Cluster(make_config(nodes=32)) as cluster:
                recovery = make_detector(cluster)
                domains = cluster.network.topology.transit_domain
                boot_domain = int(domains[int(cluster.bootstrap.host)])
                severed = next(
                    d for d in sorted(set(int(x) for x in domains)) if d != boot_domain
                )
                before = len(cluster)
                cluster.partition([severed])
                # enough rounds for cross-cut silence to reach the
                # confirm threshold, where the shield must hold it
                await tick_until(
                    recovery, lambda: recovery.shielded_verdicts > 0
                )
                assert recovery.false_kills == 0
                assert not recovery.confirmed_dead
                assert len(cluster) == before  # nobody was killed

                assert cluster.heal_partition() >= 1
                report = await recovery.reconcile()
                assert not recovery.suspected
                assert report["unsuspected"] >= 0
                check_invariants(cluster.overlay, recovery)

        run(scenario())


class TestRestart:
    def test_crashed_member_rejoins_over_the_wire(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                recovery = make_detector(cluster)
                victim = pick_victim(cluster)
                victims = (await cluster.crash(victim))["victims"]
                await tick_until(
                    recovery,
                    lambda: set(victims) <= set(recovery.confirmed_dead),
                )
                await recovery.reconcile()
                rejoined = await cluster.restart(victim)
                assert rejoined in cluster.actors
                assert rejoined in cluster.overlay.ecan.can.nodes
                result = await cluster.lookup(rejoined, (0.5, 0.5))
                assert result["owner"] in cluster.actors
                check_invariants(cluster.overlay, recovery)

        run(scenario())


class TestBulkBoot:
    def test_bulk_boot_matches_incremental_membership_and_zones(self):
        async def scenario():
            async with Cluster(make_config(bulk_boot=True)) as cluster:
                reference = cluster.build_reference_sim()
                live_nodes = cluster.overlay.ecan.can.nodes
                sim_nodes = reference.ecan.can.nodes
                assert set(live_nodes) == set(sim_nodes)
                for node_id, node in live_nodes.items():
                    other = sim_nodes[node_id]
                    assert node.host == other.host
                    assert tuple(node.zone.lo) == tuple(other.zone.lo)
                    assert tuple(node.zone.hi) == tuple(other.zone.hi)
                check_invariants(cluster.overlay)
                # and the booted cluster actually serves traffic
                result = await cluster.lookup(min(cluster.actors), (0.2, 0.8))
                assert result["owner"] in cluster.actors

        run(scenario())
