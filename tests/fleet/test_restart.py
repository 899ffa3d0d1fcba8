"""Node restart-and-rejoin: disk recovery, delta resync, chaos audit.

A killed node comes back from its WAL + checkpoint (or a peer's
shipped checkpoint after disk loss), rejoins the membership view with
a bumped view id, and the checkpoint-aware delta resync restores the
replication invariant — all audited by the same zero-lost-acked-writes
oracle as the kill-only storms, now with the nodes coming *back*.
"""

import pytest

from repro.chaos import fleet_determinism_fingerprint, run_restart_campaign
from repro.fleet.disk import NodeDisk
from repro.fleet.fleet import Fleet
from tests.fleet.conftest import assert_pinned_fingerprint

SEEDS = [1, 2, 5]  # pinned by determinism: each fires kill+restart storms


class _FakeStore:
    """Just enough of KVStore for NodeDisk.take_checkpoint."""

    def __init__(self, entries):
        self.db = {k: None for k in entries}
        self._values = dict(entries)

    def value_bytes(self, key):
        return self._values[key]


def _build_fleet(**kwargs):
    kwargs.setdefault("n_nodes", 4)
    kwargs.setdefault("ckpt_period", 64)
    return Fleet(**kwargs)


def _run_all(fleet, ops):
    fleet.run_ops(ops)
    bad = [op.error for op in ops if op.error is not None]
    assert not bad, bad
    return ops


def _await_declared(fleet, node_id):
    fleet.stepper.run_until(
        lambda: any(n == node_id for _v, n in fleet.promotions))


def _await_recovered(fleet):
    fleet.stepper.run_until(lambda: not fleet.recovering_nodes
                            and not fleet.resyncs_active)


# ------------------------------------------------------------- disk unit


def test_disk_recovery_merges_checkpoint_and_wal_tail():
    disk = NodeDisk(0)
    disk.log(1, b"a", b"old-a")
    disk.log(2, b"b", b"old-b")
    disk.take_checkpoint(_FakeStore({b"a": b"old-a", b"b": b"old-b"}),
                         {b"a": 1, b"b": 2})
    assert disk.ckpt_lsn == 2 and disk.wal == []
    disk.log(3, b"a", b"new-a")   # WAL tail beats the checkpoint
    disk.log(4, b"c", b"new-c")
    entries = disk.recover()
    assert entries[b"a"] == (3, b"new-a")
    assert entries[b"b"] == (2, b"old-b")
    assert entries[b"c"] == (4, b"new-c")
    disk.wipe()
    assert disk.recover() == {}
    snap = disk.snapshot()
    assert snap["checkpoints"] == 1 and snap["recoveries"] == 2
    assert not snap["has_checkpoint"]


# -------------------------------------------------------- restart protocol


def test_restart_recovers_from_disk_and_bumps_view():
    fleet = _build_fleet()
    keys = [b"k%d" % i for i in range(12)]
    _run_all(fleet, [fleet.set(k, b"v0-" + k * 100) for k in keys])
    view_before = fleet.gfd.view_id

    fleet.kill_node(1)
    _await_declared(fleet, 1)
    # Writes landing while the node is down move their shards forward.
    _run_all(fleet, [fleet.set(k, b"v1-" + k * 120) for k in keys[:6]])
    fleet.stepper.run_until(lambda: not fleet.resyncs_active)

    node = fleet.restart_node(1)
    assert node.alive and node.recovering
    assert node.counters["recovered_keys"] > 0      # disk replay worked
    assert fleet.gfd.view_id > view_before + 1      # death + rebirth views
    assert fleet.gfd.rebirths and fleet.gfd.rebirths[-1][1] == 1
    assert fleet.restarts and fleet.restarts[-1][1] == 1
    _await_recovered(fleet)
    assert not node.recovering
    assert node.counters["recoveries"] == 1
    assert node.counters["recovery_cycles"] > 0

    expect = {k: b"v1-" + k * 120 for k in keys[:6]}
    expect.update({k: b"v0-" + k * 100 for k in keys[6:]})
    gets = _run_all(fleet, [fleet.get(k) for k in keys])
    assert all(op.result == expect[k] for k, op in zip(keys, gets))
    assert fleet.leaked_pins() == 0


def test_restart_peer_assist_after_disk_wipe():
    fleet = _build_fleet()
    keys = [b"k%d" % i for i in range(12)]
    _run_all(fleet, [fleet.set(k, b"v0-" + k * 100) for k in keys])

    fleet.kill_node(2)
    _await_declared(fleet, 2)
    fleet.stepper.run_until(lambda: not fleet.resyncs_active)

    node = fleet.nodes[2]
    node.disk.wipe()
    fleet.restart_node(2, peer_assist=True)
    assert len(node.store.db) == 0                  # booted empty
    _await_recovered(fleet)
    # The whole-store checkpoint shipped over the data plane in chunks.
    assert node.counters["ckpt_fetch_keys"] > 0
    assert node.counters["ckpt_fetch_bytes"] > 0
    assert sum(n.counters.get("ckpt_shipped", 0) for n in fleet.nodes) >= 1

    gets = _run_all(fleet, [fleet.get(k) for k in keys])
    assert all(op.result == b"v0-" + k * 100 for k, op in zip(keys, gets))
    assert fleet.leaked_pins() == 0


def test_recovering_primary_never_serves_stale_reads():
    fleet = _build_fleet()
    keys = [b"k%d" % i for i in range(12)]
    _run_all(fleet, [fleet.set(k, b"v0-" + k * 100) for k in keys])

    fleet.kill_node(0)
    _await_declared(fleet, 0)
    # Every key takes a newer acked write while node 0 is down.
    _run_all(fleet, [fleet.set(k, b"v1-" + k * 120) for k in keys])
    fleet.stepper.run_until(lambda: not fleet.resyncs_active)

    fleet.restart_node(0)
    # Read immediately through the recovering node: its disk holds v0
    # for its old shards, but the answer must always be v1.
    gets = _run_all(fleet, [fleet.get(k, gateway=0) for k in keys])
    assert all(op.result == b"v1-" + k * 120 for k, op in zip(keys, gets))
    _await_recovered(fleet)
    assert fleet.leaked_pins() == 0


def test_kill_is_idempotent_and_restart_cycle_repeats():
    fleet = _build_fleet()
    _run_all(fleet, [fleet.set(b"k", b"v" * 512)])
    fleet.kill_node(3)
    assert fleet.kills == [3]
    fleet.kill_node(3)                 # second kill: no-op, no re-append
    assert fleet.kills == [3]
    fleet.nodes[3].kill()              # node-level second kill: no-op too
    assert not fleet.nodes[3].alive

    _await_declared(fleet, 3)
    fleet.restart_node(3)
    assert fleet.nodes[3].alive
    fleet.restart_node(3)              # restart of a live node: no-op
    assert fleet.nodes[3].restarts == 1
    _await_recovered(fleet)

    fleet.kill_node(3)                 # kill → restart → kill is legal
    assert fleet.kills == [3, 3]
    _await_declared(fleet, 3)
    fleet.restart_node(3)
    _await_recovered(fleet)
    assert fleet.nodes[3].restarts == 2
    assert fleet.leaked_pins() == 0


def test_restart_requires_dead_node():
    fleet = _build_fleet(n_nodes=2)
    with pytest.raises(RuntimeError, match="alive"):
        fleet.nodes[0].restart()


# ---------------------------------------------------------- chaos campaign


@pytest.mark.parametrize("seed", SEEDS)
def test_restart_storm_loses_no_acknowledged_writes(seed):
    result = run_restart_campaign(seed=seed)
    assert result["failures"] == []
    assert result["lost_acked"] == []
    assert result["leaked_pins"] == 0
    # The storm really exercised the recovery path for this seed.
    assert result["kills"] >= 1
    assert len(result["restart_log"]) >= result["kills"]
    assert result["recoveries"] >= 1
    assert result["mttr_cycles"] > 0
    # Every node is back and the audit covered every key.
    assert all(snap["alive"] for snap in result["nodes"])
    for stream in result["streams"].values():
        assert stream["ops_done"] == 12


def test_restart_storm_includes_restart_during_resync():
    # Seed 1 (pinned by determinism) restarts a node while the death
    # resyncs from its own declaration are still in flight.
    result = run_restart_campaign(seed=1)
    assert any(during for _t, _n, during, _w in result["restart_log"])
    assert result["failures"] == []


def test_double_crash_of_primary_and_backup_recovers():
    result = run_restart_campaign(seed=1, double_crash=True)
    assert result["double_crashes"], "double crash never fired"
    _tick, _key, owners = result["double_crashes"][0]
    assert len(owners) == 2
    assert result["failures"] == []
    assert result["lost_acked"] == []
    assert result["leaked_pins"] == 0
    assert_pinned_fingerprint(
        result,
        "a55defa521aa19b36554ae6e0123b78db9b1372314e8f1e18b0a8e9ee26ef57f")


def test_restart_campaign_is_deterministic_for_a_seed():
    a = run_restart_campaign(seed=2)
    b = run_restart_campaign(seed=2)
    assert fleet_determinism_fingerprint(a) == fleet_determinism_fingerprint(b)
    assert_pinned_fingerprint(
        a, "308be36e990de039574ace7ca278229e1ae05a7d7a2b363ba655bb6ef783fb62")
    # Seed 2 wipes a disk, so the peer-shipped checkpoint path ran.
    assert any(wiped for _t, _n, _d, wiped in a["restart_log"])
