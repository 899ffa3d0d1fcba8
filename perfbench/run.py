"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload copy_window --seed 1 \
        --seconds 25 --trace 0

Episodes of the workload are repeated for ``--seconds``; every read-back
is verified and every machine is audited.  A table of every metric, with
its unit and sample count, goes to standard output, followed by the
determinism fingerprint and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (from alternating untraced and profiled episodes).
Exit status: 0 when every check passed, 1 when a check failed (the JSON
line then says ``"correct": false``), 2 when the run could not start.

See ``perfbench/NOTES.md`` for what each workload is for.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seed kept out of tuning, for checking later claims on fresh inputs.
HELD_OUT_SEED = 7919


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("copy_window", "redis_kv", "fleet_kv",
                                 "serve_socket"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="episode size; tiny is for the self-test")
    parser.add_argument("--corrupt-readback", action="store_true",
                        help="flip a bit of the first value read back "
                             "(self-test: the run must fail)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no source tree at %s" % SRC, file=sys.stderr)
        return 2
    # Environment knobs would change the simulated machine under the
    # pinned workloads (fault plans, fleet sizing, checkpoint period...).
    for knob in [k for k in os.environ if k.startswith("COPIER_")]:
        del os.environ[knob]
    sys.path.insert(0, str(SRC))

    from measure import end_to_end, measure, per_layer
    from workloads import WORKLOADS, Checker

    workload = WORKLOADS[args.workload]
    checker = Checker(corrupt=args.corrupt_readback)
    records, setups = measure(workload, args.seed, args.seconds, args.trace,
                              args.scale, checker)

    problems = []
    for rec in records:
        problems.extend(rec.failures)
    prints = sorted({rec.fingerprint for rec in records})
    if len(prints) > 1:
        problems.append("simulated counters differ between episodes of "
                        "seed %d: %s" % (args.seed, ", ".join(prints)))
    stage_prints = {json.dumps(rec.stages) for rec in records if rec.traced}
    if len(stage_prints) > 1:
        problems.append("stage samples differ between traced episodes")
    correct = not problems and all(rec.ok for rec in records)

    attempted = sum(rec.counters["attempted"] for rec in records)
    failed = sum(rec.counters["failed"] for rec in records)
    if not correct and failed == 0:
        failed = 1   # an audit or determinism failure fails the run's ops

    e2e = end_to_end(records, setups)
    metrics = per_layer(records) if args.trace else e2e
    first = records[0].counters
    n = len(first["latencies"])
    print("workload %s  seed %d  scale %s  episodes %d (%d traced)  "
          "held-out seed %d" % (args.workload, args.seed, args.scale,
                                len(records),
                                sum(r.traced for r in records),
                                HELD_OUT_SEED))
    print("sim latency samples per episode: %d (p99 has %d beyond it)"
          % (n, n - max(1, -(-99 * n // 100))))
    rows = dict(e2e)
    rows["failed_op_ratio"] = (failed / attempted if attempted else 0.0,
                               "ratio")
    if args.trace:
        rows.update(metrics)
    for name, (value, unit) in rows.items():
        print("  %-40s %16.6g  %s" % (name, value, unit))
    print("fingerprint %s" % prints[0])
    for problem in problems[:20]:
        print("FAILED: %s" % problem)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
