"""FleetStat: run a seeded fleet chaos campaign and report how it held.

CI's fleet-soak job runs this after ``tests/fleet`` and uploads the
output as an artifact: the node-level fault log (kills, partitions,
slow links), every backup promotion, per-stream client outcomes, the
per-node store digests and copier counters, and the verdict of the
zero-lost-acknowledged-writes audit.  A non-zero exit means the fleet
lost an acknowledged write, leaked a page pin, or failed to reproduce
itself under ``--check-determinism``.

Usage::

    PYTHONPATH=src python -m repro.tools.fleetstat [--seed 0]
        [--nodes 4] [--streams 6] [--ops 12] [--events 10]
        [--restart] [--double-crash] [--lossy]
        [--check-determinism] [--json]

Every mode runs the same campaign loop and audit; the flags only pick
the storm controller.  ``--restart`` picks the crash-recovery storm:
every killed node restarts from its disk (or a peer's shipped
checkpoint) and rejoins mid-storm, and the audit additionally requires
every node back alive with recovery (MTTR) counters recorded.
``--double-crash`` arms the simultaneous kill of both owners of one
seeded key.

``--lossy`` picks the silent-failure storm: every link runs the seeded
drop/dup/reorder/corrupt fault plan under the reliable exactly-once
transport and the chaos mix adds lossy bursts and node-local bitflip
storms (with the end-to-end copy CRC armed).  Any campaign whose fleet
has a link plan armed — including one armed from
``COPIER_LINK_FAULT_PLAN`` — reports link-fault, transport and
integrity counter sections.  The audit is unchanged: zero lost
acknowledged writes, zero corrupted bytes served.

``--seed`` defaults to ``COPIER_FLEET_SEED`` (falling back to 0).  The
fleet arms ``COPIER_FAULT_PLAN``/``COPIER_FAULT_SEED`` from the
environment on every node's Copier service, so the soak job can layer
engine-level fault injection under the node-level storm with no extra
flags here.
"""

import argparse
import json
import os
import sys

from repro.fleet.chaos import (fleet_determinism_fingerprint,
                               run_fleet_campaign, run_restart_campaign)


def render(result):
    lines = []
    out = lines.append
    out("fleetstat: seed=%d nodes=%d events=%d kills=%d promotions=%d "
        "rounds=%d" % (result["seed"], result["n_nodes"],
                       len(result["events"]), result["kills"],
                       len(result["promotions"]), result["rounds"]))
    if "restart_log" in result:
        out("  restarts: %d (%d mid-resync, %d disk-wiped), "
            "recoveries=%d mttr=%d cycles" % (
                len(result["restart_log"]),
                sum(1 for _t, _n, d, _w in result["restart_log"] if d),
                sum(1 for _t, _n, _d, w in result["restart_log"] if w),
                result["recoveries"], result["mttr_cycles"]))
        for tick, key, owners in result.get("double_crashes", []):
            out("  tick %-4d double crash of owners %s for key %r"
                % (tick, list(owners), key))
    for tick, kind, target in result["events"]:
        out("  tick %-4d %-14s %s" % (tick, kind, target))
    for view, node_id in result["promotions"]:
        out("  view %-3d promoted around dead node %s" % (view, node_id))
    ops = result["ops"]
    out("  ops: %d submitted, %d acked, %d failed, %d read repairs" % (
        ops["submitted"], ops["acked"], ops["failed"], ops["read_repairs"]))
    for sid, stream in sorted(result["streams"].items()):
        out("  stream %-2d ops=%-3d acked=%-3d failed=%-2d abandoned=%-2d "
            "gets=%d" % (sid, stream["ops_done"], stream["acked"],
                         stream["failed"], stream["abandoned"],
                         stream["gets_checked"]))
    net = result["interconnect"]
    out("  interconnect: %d messages, %d bytes, %d dropped" % (
        net["messages"], net["bytes"], net["dropped"]))
    for line in render_lossy(result):
        out(line)
    for snap in result["nodes"]:
        copier = snap.get("copier") or {}
        out("  node %-3s %-4s keys=%-3d events=%-7d copier_rounds=%s" % (
            snap["node"], "up" if snap["alive"] else "DEAD",
            snap["store"]["keys"], snap["events"],
            copier.get("rounds", "-")))
    out("  audit: %d keys audited, %d lost acked writes, %d pins leaked" % (
        result["audited_keys"], len(result["lost_acked"]),
        result["leaked_pins"]))
    return "\n".join(lines)


def render_lossy(result):
    """Link-fault / transport / integrity report lines (link plan armed).

    Returns ``[]`` when the campaign ran without a link fault plan, so
    lossless reports stay byte-identical.
    """
    if "link_faults" not in result:
        return []
    lines = []
    lf = result["link_faults"]
    lines.append("  link faults: %d dropped, %d corrupted, %d duplicated, "
                 "%d reordered on the wire" % (
                     lf["lossy_dropped"], lf["corruptions"], lf["dups"],
                     lf["reorders"]))
    np = result["netpath"]
    lines.append("  transport: %d frames (+%d retransmits), %d acks, "
                 "%d crc-dropped, %d deduped, %d held, %d unacked" % (
                     np["frames_sent"], np["retransmits"],
                     np["acks_rx"], np["crc_dropped"],
                     np["dups_deduped"], np["reorders_held"],
                     np["unacked"]))
    checks = sum(i["crc_checks"] for i in result["integrity"].values())
    mismatches = sum(i["crc_mismatches"] for i in result["integrity"].values())
    reexec = sum(i["reexec_tasks"] for i in result["integrity"].values())
    poisoned = sum(i["poisoned_tasks"] for i in result["integrity"].values())
    if checks or mismatches:
        lines.append("  integrity: %d e2e crc checks, %d mismatches "
                     "(%d repaired, %d poisoned)" % (
                         checks, mismatches, reexec, poisoned))
    if "lossy_bursts" in result:
        lines.append("  storms: %d lossy bursts, %d bitflip storms" % (
            result["lossy_bursts"], result["bitflip_storms"]))
    return lines


def _jsonable(value):
    if isinstance(value, bytes):
        return value.decode("latin-1")
    if isinstance(value, dict):
        return {_jsonable(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fleetstat", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int,
                        default=int(os.environ.get("COPIER_FLEET_SEED", "0")))
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--streams", type=int, default=6)
    parser.add_argument("--ops", type=int, default=12,
                        help="operations per client stream")
    parser.add_argument("--events", type=int, default=10,
                        help="node-level chaos events to schedule")
    parser.add_argument("--restart", action="store_true",
                        help="run the crash-recovery campaign: killed nodes "
                             "restart from disk and rejoin mid-storm")
    parser.add_argument("--double-crash", action="store_true",
                        help="with --restart: also kill both owners of one "
                             "seeded key simultaneously")
    parser.add_argument("--lossy", action="store_true",
                        help="run the silent-failure campaign: seeded lossy/"
                             "corrupting links under the reliable transport, "
                             "plus bitflip storms with the e2e CRC armed")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run the campaign twice and require identical "
                             "events, promotions, counters and digests")
    parser.add_argument("--json", action="store_true",
                        help="emit the raw result dict as JSON instead of "
                             "the human-readable summary")
    args = parser.parse_args(argv)

    if args.restart and args.lossy:
        parser.error("--lossy is the base campaign only (not --restart)")

    def campaign():
        if args.restart:
            return run_restart_campaign(seed=args.seed, n_nodes=args.nodes,
                                        n_streams=args.streams,
                                        n_ops=args.ops, n_events=args.events,
                                        double_crash=args.double_crash)
        return run_fleet_campaign(seed=args.seed, n_nodes=args.nodes,
                                  n_streams=args.streams, n_ops=args.ops,
                                  n_events=args.events, lossy=args.lossy)

    result = campaign()
    if args.json:
        print(json.dumps(_jsonable(result), indent=2, sort_keys=True))
    else:
        print(render(result))

    failures = list(result["failures"])
    if args.check_determinism:
        rerun = campaign()
        if (fleet_determinism_fingerprint(result)
                != fleet_determinism_fingerprint(rerun)):
            failures.append("fleet campaign is not deterministic for seed %d"
                            % args.seed)
        else:
            print("determinism: re-run reproduced the campaign exactly")

    for failure in failures:
        print("FAIL: %s" % failure)
    if not failures:
        print("OK: zero lost acknowledged writes across %d events "
              "(%d kills) on seed %d"
              % (len(result["events"]), result["kills"], result["seed"]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
