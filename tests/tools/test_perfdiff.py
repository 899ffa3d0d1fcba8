"""perfdiff: the wall-clock band and the strict simulated-key gate."""

import copy
import json

import pytest

from repro.tools import perfdiff

BASE = {
    "schema": 1,
    "scenarios": {
        "fleet_lossy_links": {
            "crc_dropped": 28, "events": 19780, "events_per_s": 61451.2,
            "p99_cycles": 503179, "requests": 96, "retransmits": 136,
            "sim_bytes": 393216, "sim_bytes_per_s": 1221618.2,
            "sim_cycles": 1020000, "wall_s": 0.32,
        },
        "raw_copy_64k": {
            "bytes_per_cycle": 17.468, "events": 5156,
            "events_per_s": 62790.3, "sim_bytes": 3145728,
            "sim_bytes_per_s": 38309000.2, "sim_cycles": 182635,
            "wall_s": 0.082,
        },
    },
}


def _with(scenario, **changes):
    new = copy.deepcopy(BASE)
    new["scenarios"][scenario].update(changes)
    return new


def _run(tmp_path, old, new, *flags):
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return perfdiff.main(paths + list(flags))


def test_identical_baselines_pass_strict(tmp_path):
    assert _run(tmp_path, BASE, BASE, "--strict-sim") == 0


@pytest.mark.parametrize("key, value", [
    ("events", 19781), ("p99_cycles", 503180), ("retransmits", 137),
    ("crc_dropped", 29), ("requests", 95), ("sim_cycles", 1020001),
    ("sim_bytes", 1),
])
def test_every_simulated_key_is_gated(tmp_path, key, value):
    new = _with("fleet_lossy_links", **{key: value})
    _rows, _regressions, drift = perfdiff.compare(BASE, new)
    assert drift == ["fleet_lossy_links"]
    assert _run(tmp_path, BASE, new) == 0          # a warning only
    assert _run(tmp_path, BASE, new, "--strict-sim") == 1


def test_mttr_and_ratio_keys_and_missing_keys_drift():
    new = _with("raw_copy_64k", bytes_per_cycle=17.5, mttr_cycles=400000)
    rows, _regressions, drift = perfdiff.compare(BASE, new)
    assert drift == ["raw_copy_64k"]
    row = next(r for r in rows if r["scenario"] == "raw_copy_64k")
    assert row["drift"] == ["bytes_per_cycle", "mttr_cycles"]


def test_host_rates_and_wall_time_are_not_simulated(tmp_path):
    new = _with("raw_copy_64k", events_per_s=1.0, sim_bytes_per_s=2.0,
                wall_s=0.09)
    _rows, regressions, drift = perfdiff.compare(BASE, new)
    assert drift == [] and regressions == []
    assert _run(tmp_path, BASE, new, "--strict-sim") == 0


def test_wall_clock_regression_fails_beyond_tolerance(tmp_path):
    new = _with("raw_copy_64k", wall_s=0.2)
    _rows, regressions, drift = perfdiff.compare(BASE, new, tolerance=0.25)
    assert regressions == ["raw_copy_64k"] and drift == []
    assert _run(tmp_path, BASE, new) == 1
    assert _run(tmp_path, BASE, new, "--tolerance", "10") == 0


def test_schema_change_and_one_sided_scenarios_do_not_drift():
    new = _with("raw_copy_64k", events=1)
    new["schema"] = 2
    assert perfdiff.compare(BASE, new)[2] == []
    one_sided = copy.deepcopy(BASE)
    del one_sided["scenarios"]["raw_copy_64k"]
    rows, regressions, drift = perfdiff.compare(BASE, one_sided)
    assert drift == [] and regressions == []
    assert [r["status"] for r in rows] == ["ok", "only-old"]
