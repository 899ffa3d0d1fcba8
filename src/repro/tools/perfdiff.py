"""Compare two ``BENCH_perf.json`` baselines with a tolerance band.

CI's perf-smoke job runs ``repro.bench.perfbaseline`` on the checkout and
diffs it against the committed baseline:

    python -m repro.tools.perfdiff BENCH_perf.json new.json --tolerance 0.25

Exit status is nonzero when any scenario's wall-clock regressed by more
than the tolerance (new > old * (1 + tolerance)).  Wall-clock *wins* and
scenarios present on only one side are reported but never fail the gate
— machines differ, scenarios evolve; only a same-machine slowdown is a
regression signal.

Sim-side drift is flagged as a determinism warning: between two
baselines of the same schema, every recorded key except ``wall_s`` and
the host ``*_per_s`` rates is a simulated number (cycles, bytes, events,
p99 and MTTR cycles, retransmits, CRC drops, request counts), and a
host-side fast path must not move any of them.  Pass ``--strict-sim`` to
turn those warnings into failures (the differential-determinism CI
configuration).
"""

import argparse
import json
import sys


def load(path):
    with open(path) as fh:
        return json.load(fh)


def sim_drift_keys(old, new):
    """The simulated keys — all but ``wall_s`` and the host ``*_per_s``
    rates — whose values differ between two scenario records (a key
    recorded on one side only counts as drift)."""
    return sorted(k for k in set(old) | set(new)
                  if k != "wall_s" and not k.endswith("_per_s")
                  and old.get(k) != new.get(k))


def compare(old, new, tolerance=0.25):
    """Return (rows, regressions, sim_drift) comparing two baselines.

    ``rows`` is a list of dicts (one per scenario, union of both sides);
    ``regressions``/``sim_drift`` list the offending scenario names, and
    each drifted row's ``drift`` names its drifted keys.
    """
    rows = []
    regressions = []
    sim_drift = []
    old_sc = old.get("scenarios", {})
    new_sc = new.get("scenarios", {})
    same_schema = old.get("schema") == new.get("schema")
    for name in sorted(set(old_sc) | set(new_sc)):
        o, n = old_sc.get(name), new_sc.get(name)
        row = {"scenario": name, "old_wall": None, "new_wall": None,
               "speedup": None, "status": "", "drift": []}
        if o is None or n is None:
            row["status"] = "only-old" if n is None else "only-new"
            if o is not None:
                row["old_wall"] = o["wall_s"]
            if n is not None:
                row["new_wall"] = n["wall_s"]
            rows.append(row)
            continue
        row["old_wall"] = o["wall_s"]
        row["new_wall"] = n["wall_s"]
        row["speedup"] = o["wall_s"] / n["wall_s"] if n["wall_s"] else 0.0
        if n["wall_s"] > o["wall_s"] * (1.0 + tolerance):
            row["status"] = "REGRESSION"
            regressions.append(name)
        elif row["speedup"] >= 1.0 + tolerance:
            row["status"] = "faster"
        else:
            row["status"] = "ok"
        if same_schema:
            row["drift"] = sim_drift_keys(o, n)
            if row["drift"]:
                row["status"] += " sim-drift"
                sim_drift.append(name)
        rows.append(row)
    return rows, regressions, sim_drift


def render(rows, tolerance):
    from repro.bench.report import ResultTable

    table = ResultTable(
        "Perf diff (tolerance ±%d%% wall-clock)" % round(tolerance * 100),
        ["scenario", "old wall s", "new wall s", "speedup", "status"])
    for row in rows:
        table.add(row["scenario"],
                  "-" if row["old_wall"] is None else row["old_wall"],
                  "-" if row["new_wall"] is None else row["new_wall"],
                  "-" if row["speedup"] is None else row["speedup"],
                  row["status"])
    return table.render()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Diff two perfbaseline JSON files.")
    parser.add_argument("old", help="committed baseline (BENCH_perf.json)")
    parser.add_argument("new", help="freshly measured baseline")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed wall-clock regression (default 0.25)")
    parser.add_argument("--strict-sim", action="store_true",
                        help="fail on simulated-side drift too")
    args = parser.parse_args(argv)
    old, new = load(args.old), load(args.new)
    rows, regressions, sim_drift = compare(old, new,
                                           tolerance=args.tolerance)
    print(render(rows, args.tolerance))
    if sim_drift:
        print("\nWARNING: simulated-side drift: %s" % "; ".join(
            "%s (%s)" % (row["scenario"], ", ".join(row["drift"]))
            for row in rows if row["drift"]))
    if regressions:
        print("\nFAIL: wall-clock regression beyond %d%%: %s"
              % (round(args.tolerance * 100), ", ".join(regressions)))
        return 1
    if sim_drift and args.strict_sim:
        print("\nFAIL: --strict-sim and simulated-side drift present")
        return 1
    print("\nOK: no wall-clock regression beyond the tolerance band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
