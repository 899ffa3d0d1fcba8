"""Fleet behavior: cross-node routing, replication, failover, and the
fixed-seed two-run determinism contract (identical promotion order,
shard maps and sim counters — including across a forced primary kill).
"""

import pytest

from repro.fleet import Fleet, MessageTooLarge
from repro.fleet.interconnect import LinkFaultPlan

VALUE = 6000


def _fingerprint(fleet, keys):
    snap = fleet.snapshot()
    return {
        "promotions": snap["promotions"],
        "kills": snap["kills"],
        "shard_map": fleet.shard_map(keys),
        "nodes": snap["nodes"],
        "interconnect": snap["interconnect"],
        "gfd": snap["gfd"],
        "ops": snap["ops"],
        "horizon": snap["horizon"],
    }


def test_cross_node_set_get_roundtrip():
    fleet = Fleet(n_nodes=3)
    keys = [b"x-k%d" % i for i in range(6)]
    values = {key: bytes([i + 1]) * VALUE for i, key in enumerate(keys)}
    # Every op goes through a rotating gateway, so most are forwarded.
    sets = [fleet.set(key, values[key], gateway=i % 3)
            for i, key in enumerate(keys)]
    fleet.run_ops(sets)
    assert all(op.acked for op in sets)
    gets = [fleet.get(key, gateway=(i + 1) % 3)
            for i, key in enumerate(keys)]
    fleet.run_ops(gets)
    for key, op in zip(keys, gets):
        assert op.result == values[key], key
    # Cross-node traffic actually crossed the interconnect.
    assert fleet.interconnect.snapshot()["messages"] > 0
    assert fleet.leaked_pins() == 0


def test_writes_are_replicated_to_the_backup():
    fleet = Fleet(n_nodes=3)
    key = b"repl-key"
    op = fleet.set(key, b"r" * VALUE)
    fleet.run_ops([op])
    assert op.acked
    primary = fleet.ring.primary(key)
    backup = fleet.ring.backup(key)
    assert primary != backup
    for owner in (primary, backup):
        assert fleet.nodes[owner].store.db.get(key) is not None
    for node in fleet.nodes:
        if node.node_id not in (primary, backup):
            assert key not in node.store.db


def _failover_run():
    fleet = Fleet(n_nodes=3)
    keys = [b"f-k%d" % i for i in range(9)]
    values = {key: bytes([i + 17]) * VALUE for i, key in enumerate(keys)}
    sets = [fleet.set(key, values[key], gateway=i % 3)
            for i, key in enumerate(keys)]
    fleet.run_ops(sets)
    assert all(op.acked for op in sets)

    # Kill the primary of the first key; detection must be organic
    # (missed heartbeats), then the backup is promoted.
    victim = fleet.ring.primary(keys[0])
    old_backup = fleet.ring.backup(keys[0])
    fleet.kill_node(victim)
    fleet.stepper.run_until(lambda: fleet.promotions)
    assert fleet.promotions[0] == (1, victim)
    assert fleet.ring.primary(keys[0]) == old_backup
    fleet.stepper.settle(300)  # resync re-replicates to new backups

    # Every key (including the victim's) reads back through live
    # gateways with the acknowledged value.
    live = [node.node_id for node in fleet.live_nodes]
    gets = [fleet.get(key, gateway=live[i % len(live)])
            for i, key in enumerate(keys)]
    fleet.run_ops(gets)
    for key, op in zip(keys, gets):
        assert op.result == values[key], key
    assert fleet.leaked_pins() == 0
    return _fingerprint(fleet, keys)


def test_failover_is_deterministic_across_runs():
    a = _failover_run()
    b = _failover_run()
    assert a == b
    assert len(a["promotions"]) == 1


def test_gateway_death_leaves_op_unsettled_but_fleet_healthy():
    fleet = Fleet(n_nodes=3)
    warm = fleet.set(b"g-k", b"w" * VALUE, gateway=0)
    fleet.run_ops([warm])
    # Submit through gateway 2, then kill it before stepping: the
    # client never gets an ack (connection dropped), but the fleet
    # keeps serving through the survivors.
    orphan = fleet.set(b"g-k2", b"o" * VALUE, gateway=2)
    fleet.kill_node(2)
    fleet.stepper.run_until(lambda: fleet.promotions)
    fleet.stepper.settle(200)
    assert not orphan.done
    probe = fleet.get(b"g-k", gateway=fleet.live_nodes[0].node_id)
    fleet.run_ops([probe])
    assert probe.result == b"w" * VALUE
    assert fleet.leaked_pins() == 0


def test_fleet_validates_quantum_against_link_latency():
    import pytest

    with pytest.raises(ValueError):
        Fleet(n_nodes=2, link_latency_cycles=1_000, quantum=5_000)
    with pytest.raises(ValueError):
        Fleet(n_nodes=0)


def test_snapshot_shape():
    fleet = Fleet(n_nodes=2)
    op = fleet.set(b"s-k", b"s" * 2048)
    fleet.run_ops([op])
    snap = fleet.snapshot()
    assert len(snap["nodes"]) == 2
    assert snap["ops"]["submitted"] == 1
    assert snap["ops"]["acked"] == 1
    assert snap["gfd"]["view_id"] == 0
    assert snap["nodes"][0]["copier"]["rounds"] >= 0


# Largest value one message carries with a 1-byte key: MAX_MSG less the
# 15-byte encode_msg framing, less the 8-byte in-payload version header
# when the lossy link plan arms the reliable transport.
@pytest.mark.parametrize("armed, largest", [(False, 65520), (True, 65512)])
def test_value_too_large_for_one_message_is_rejected_at_submit(
        monkeypatch, armed, largest):
    monkeypatch.delenv("COPIER_LINK_FAULT_PLAN", raising=False)
    fleet = Fleet(n_nodes=2, link_fault_plan=(
        LinkFaultPlan.named("mixed", 1) if armed else None))
    key = b"k"
    fits = fleet.set(key, b"x" * largest)
    fleet.run_ops([fits])
    assert fits.acked
    get = fleet.get(key)
    fleet.run_ops([get])
    assert get.result == b"x" * largest
    submitted = fleet.ops_submitted
    for size in (largest + 1, 64 * 1024):
        with pytest.raises(MessageTooLarge):
            fleet.set(key, b"y" * size)
    assert fleet.ops_submitted == submitted
    assert fleet.leaked_pins() == 0
