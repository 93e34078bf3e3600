"""Runtime smoke: 64-node live cluster, lookups, sim parity.

The acceptance scenario for the live asyncio runtime
(``src/repro/runtime/``), run by ``make runtime-smoke`` and CI --
once per payload encoding (JSON and packed):

* boot a 64-node cluster over the loopback transport (or real
  localhost sockets with ``--transport tcp``), every member
  after the seed joining topology-aware *over the wire* (JOIN frames
  through the binary codec);
* drive 1000 open-loop lookups through hop-by-hop ROUTE frames and
  require zero errors;
* replay a seeded lookup+route workload against an independently
  built synchronous simulator with the same (config, seed) and require
  bit-identical owners and route endpoints -- the live runtime must be
  a faithful execution of the model, not an approximation of it.

Running the identical scenario under both encodings pins the packed
struct fast path to the JSON semantics: a packed frame that decoded
to anything but the JSON payload would break parity immediately.

Exits non-zero on any error or parity mismatch.

Usage::

    python scripts/runtime_smoke.py                # 64 nodes, 1000 lookups
    python scripts/runtime_smoke.py --nodes 32 --lookups 200
    python scripts/runtime_smoke.py --encoding packed   # one encoding only
    python scripts/runtime_smoke.py --transport tcp     # over real sockets
"""

from __future__ import annotations

import argparse
import asyncio
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import NetworkParams, OverlayParams  # noqa: E402
from repro.runtime import Cluster, ClusterConfig, run_load  # noqa: E402


async def smoke(
    nodes: int, lookups: int, rate: float, seed: int, encoding: str,
    transport: str,
) -> int:
    config = ClusterConfig(
        nodes=nodes,
        network=NetworkParams(topo_scale=0.25, seed=seed),
        overlay=OverlayParams(num_nodes=nodes, seed=seed),
        transport=transport,
        wire_encoding=encoding,
    )
    async with Cluster(config) as cluster:
        print(
            f"booted {len(cluster)} nodes over {cluster.transport.kind} "
            f"({encoding} frames)"
        )
        print(
            f"overload protection: mailbox cap {config.mailbox_cap} "
            f"({config.shed_policy}-first shed), breaker threshold "
            f"{config.breaker_threshold}, adaptive timeout "
            f"{'on' if config.adaptive_timeout else 'off'}"
        )
        report = await run_load(cluster, rate=rate, count=lookups, seed=seed)
        pct = report.percentiles()
        print(
            f"load: {report.ops} lookups, {report.errors} errors, "
            f"p50 {pct['p50']:.3f} ms, p99 {pct['p99']:.3f} ms, "
            f"{report.achieved_rate:.0f} ops/s achieved "
            f"({report.loop} loop)"
        )
        verdict = await cluster.verify_against_sim(
            lookups=256, routes=64, seed=seed
        )
        print(
            f"parity vs synchronous simulator: "
            f"{verdict['mismatches']}/{verdict['checked']} mismatches"
        )
    failures = []
    if report.errors:
        failures.append(f"{report.errors} lookup errors")
    if report.ops != lookups:
        failures.append(f"drove {report.ops}/{lookups} lookups")
    if not verdict["ok"]:
        failures.append(f"{verdict['mismatches']} parity mismatches")
    if failures:
        print(f"FAIL ({encoding}): " + "; ".join(failures))
        return 1
    print(f"runtime smoke OK ({encoding})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=64)
    parser.add_argument("--lookups", type=int, default=1000)
    parser.add_argument("--rate", type=float, default=2000.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--encoding",
        choices=["json", "packed", "both"],
        default="both",
        help="payload encoding(s) to smoke (default both)",
    )
    parser.add_argument(
        "--transport",
        choices=["loopback", "tcp"],
        default="loopback",
        help="data-plane transport to smoke (default loopback)",
    )
    parser.add_argument(
        "--uvloop",
        action="store_true",
        help="install the uvloop event-loop policy first (hard-fails "
        "if uvloop is not importable: the flag exists so CI can pin "
        "the leg to the loop it thinks it is testing)",
    )
    args = parser.parse_args(argv)
    if args.uvloop:
        import uvloop  # the CI leg must fail loudly, not fall back

        uvloop.install()
        print(f"event loop policy: uvloop {uvloop.__version__}")
    encodings = (
        ("json", "packed") if args.encoding == "both" else (args.encoding,)
    )
    status = 0
    for encoding in encodings:
        status |= asyncio.run(
            smoke(
                args.nodes, args.lookups, args.rate, args.seed, encoding,
                args.transport,
            )
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
