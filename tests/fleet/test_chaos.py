"""The node-level chaos campaign: the zero-lost-acked-writes oracle.

Seeded kill/partition/slow storms against a live fleet, audited
against the shadow-model oracle: every acknowledged write must read
back at least as new after the storm heals, no GET may return a value
that was never issued, and no page pin may leak anywhere in the fleet.
The same seed must reproduce the campaign exactly.
"""

import pytest

from repro.chaos import fleet_determinism_fingerprint, run_fleet_campaign
from tests.fleet.conftest import assert_pinned_fingerprint

SEEDS = [0, 1, 2]


@pytest.mark.parametrize("seed", SEEDS)
def test_storm_loses_no_acknowledged_writes(seed):
    result = run_fleet_campaign(seed=seed)
    assert result["failures"] == []
    assert result["lost_acked"] == []
    assert result["leaked_pins"] == 0
    assert len(result["events"]) > 0
    # The streams really ran: every op completed or was abandoned at a
    # dead gateway, and most were acknowledged.
    for stream in result["streams"].values():
        assert stream["ops_done"] == 12
    assert result["ops"]["acked"] > 0


def test_campaign_is_deterministic_for_a_seed():
    a = run_fleet_campaign(seed=0)
    b = run_fleet_campaign(seed=0)
    assert fleet_determinism_fingerprint(a) == fleet_determinism_fingerprint(b)
    assert_pinned_fingerprint(
        a, "5bde852c4eda937d82e8ef25b6015a9ce25fd0bd7a2ba909364cca6ed6b2a94c")


def test_campaign_with_kills_still_promotes_and_audits():
    # Seed 3 is known (and pinned by determinism) to fire a node kill.
    result = run_fleet_campaign(seed=3)
    assert result["failures"] == []
    assert result["kills"] >= 1
    assert len(result["promotions"]) >= result["kills"]
    dead = {node_id for _view, node_id in result["promotions"]}
    killed = [snap for snap in result["nodes"] if not snap["alive"]]
    assert {snap["node"] for snap in killed} <= dead
    assert_pinned_fingerprint(
        result,
        "efa3d3ca309a75ef67c0d40a838a9df7faad50f72133dd8c38841b1ca4dc3ae6")
