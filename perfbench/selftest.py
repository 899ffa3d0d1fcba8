"""Self-test of the benchmark command at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints every
end-to-end metric of ``BENCHMARK.json`` with its unit, that a traced run
prints every per-layer metric, and that a deliberately corrupted
read-back makes the command exit non-zero with ``"correct": false``.
It also checks that the command refuses to run without the source tree.
Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 170


def bench(args, cwd=ROOT):
    """Run the benchmark command; returns (exit code, stdout lines)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable] + spec["command"][1:] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def expect(condition, message):
    if not condition:
        raise SystemExit("selftest FAILED: " + message)


def check_metrics(lines, declared, what):
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    expect(set(metrics) == set(declared),
           "%s: metrics %s, declared %s" % (what, sorted(metrics),
                                            sorted(declared)))
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in declared:
            table[parts[0]] = parts[2]
    for name, unit in declared.items():
        expect(metrics[name]["unit"] == unit,
               "%s: %s has unit %r, declared %r"
               % (what, name, metrics[name]["unit"], unit))
        expect(table.get(name) == unit,
               "%s: table line for %s with unit %s missing" % (what, name,
                                                                unit))
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    tiny = ["--seed", "3", "--seconds", "0", "--scale", "tiny"]
    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload] + tiny
        code, lines, err = bench(base + ["--trace", "0"])
        expect(code == 0, "%s untraced exit %d: %s" % (workload, code, err))
        result = check_metrics(lines, e2e, workload + " untraced")
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] > 0, workload + ": not correct")

        code, lines, err = bench(base + ["--trace", "1"])
        expect(code == 0, "%s traced exit %d: %s" % (workload, code, err))
        check_metrics(lines, layers, workload + " traced")

        code, lines, _err = bench(base + ["--trace", "0",
                                          "--corrupt-readback"])
        result = json.loads(lines[-1])
        expect(code == 1 and not result["correct"] and result["failed"] >= 1,
               "%s: corrupted read-back was not caught" % workload)
        print("ok  %s" % workload)

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _err = bench(["--workload", "copy_window"] + tiny,
                                  cwd=bare)
        expect(code not in (0, 1) and not lines,
               "run without the source tree exited %d, printed %d lines"
               % (code, len(lines)))
    print("ok  no source tree: refused")
    print("selftest passed")


if __name__ == "__main__":
    main()
