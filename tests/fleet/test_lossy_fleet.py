"""Fleet behavior over lossy/corrupting links, and the lossy campaign.

With a :class:`~repro.fleet.interconnect.LinkFaultPlan` armed every
channel runs the reliable exactly-once transport, so the RPC layer's
contract is unchanged: every acked SET is durable and replicated, every
GET returns a value that was actually written.  These tests pin that,
the seeded backoff jitter, and the lossy chaos campaign's oracle plus
its two-run determinism.
"""

import pytest

from repro.fleet import Fleet
from repro.fleet.chaos import (fleet_determinism_fingerprint,
                               run_fleet_campaign)
from repro.fleet.interconnect import LinkFaultPlan
from tests.fleet.conftest import assert_pinned_fingerprint

VALUE = 6000

#: Lossy-campaign fingerprint digests, pinned per seed.
LOSSY_CAMPAIGN_DIGESTS = {
    1: "a7a0e6254e8fa6c0846f9ebaeffec219dc8c51002c9c746b687f462c9bc2eb37",
    2: "b9475d8ca65eb72608032675cde7ee1fbae08a778f5255fe8349de9cfbe18ee7",
}


def _lossy_fleet(seed=4, n_nodes=3):
    return Fleet(n_nodes=n_nodes,
                 link_fault_plan=LinkFaultPlan.named("mixed", seed),
                 backoff_jitter_seed=seed)


def _run_roundtrip(fleet):
    keys = [b"lossy-k%d" % i for i in range(8)]
    values = {key: bytes([i + 1]) * VALUE for i, key in enumerate(keys)}
    sets = [fleet.set(key, values[key], gateway=i % 3)
            for i, key in enumerate(keys)]
    fleet.run_ops(sets)
    gets = [fleet.get(key, gateway=(i + 1) % 3)
            for i, key in enumerate(keys)]
    fleet.run_ops(gets)
    return keys, values, sets, gets


def test_set_get_roundtrip_over_mixed_lossy_links():
    fleet = _lossy_fleet()
    keys, values, sets, gets = _run_roundtrip(fleet)
    assert all(op.acked for op in sets)
    for key, op in zip(keys, gets):
        assert op.result == values[key], key
    assert fleet.leaked_pins() == 0
    # The wire was genuinely hostile and the transport genuinely worked.
    totals = fleet.interconnect.stats()["totals"]
    assert totals["lossy_dropped"] + totals["corruptions"] > 0
    transport = fleet.netpath_stats()
    assert transport["frames_sent"] > 0
    assert transport["retransmits"] > 0


def test_lossy_roundtrip_is_deterministic():
    def fingerprint():
        fleet = _lossy_fleet()
        _keys, _values, sets, gets = _run_roundtrip(fleet)
        snap = fleet.snapshot()
        return {
            "acked": [op.acked for op in sets],
            "results": [op.result for op in gets],
            "nodes": snap["nodes"],
            "interconnect": fleet.interconnect.stats(),
            "netpath": fleet.netpath_stats(),
            "horizon": snap["horizon"],
        }

    assert fingerprint() == fingerprint()


def test_backoff_jitter_is_seeded_and_bounded():
    def delays(seed, n=12):
        fleet = Fleet(n_nodes=2, backoff_jitter_seed=seed)
        out = []
        for attempt in range(1, n + 1):
            timeout = next(fleet._backoff(attempt))
            base = min(25_000 * attempt, 150_000)
            assert base <= timeout.cycles < base + fleet.quantum
            out.append(timeout.cycles)
        return out

    # Same seed reproduces the exact jitter sequence; a different seed
    # desynchronizes it (the point: colliding retries must not re-collide
    # in lock-step forever).
    assert delays(0) == delays(0)
    assert delays(0) != delays(1)


@pytest.mark.parametrize("seed", sorted(LOSSY_CAMPAIGN_DIGESTS))
def test_lossy_campaign_loses_nothing_and_reproduces(seed):
    a = run_fleet_campaign(seed=seed, lossy=True)
    assert a["failures"] == []
    assert a["lost_acked"] == []
    assert a["leaked_pins"] == 0
    # The lossy machinery actually engaged.
    assert "link_faults" in a and "netpath" in a
    assert a["netpath"]["frames_sent"] > 0
    b = run_fleet_campaign(seed=seed, lossy=True)
    assert (fleet_determinism_fingerprint(a)
            == fleet_determinism_fingerprint(b))
    assert_pinned_fingerprint(a, LOSSY_CAMPAIGN_DIGESTS[seed])
