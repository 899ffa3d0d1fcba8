"""Multi-node Copier fleet: sharded simulated machines behind one clock.

Each :class:`~repro.fleet.node.FleetNode` is a full simulated machine
(its own :class:`~repro.kernel.system.System` with a Copier service);
the :class:`~repro.fleet.fleet.Fleet` joins N of them with a modeled
interconnect and round-robins ``Environment.step`` across the nodes so
the whole fleet shares one deterministic virtual clock.  Keys shard
across nodes on a consistent-hash ring, writes replicate primary →
backup before they are acknowledged, and a heartbeat lfd/gfd pair
promotes the backup when a node dies.
"""

from repro.fleet.errors import (FleetError, FleetTimeout, FleetUnavailable,
                                MessageTooLarge, NotOwner, StoreFull)
from repro.fleet.fleet import Fleet, FleetOp, FleetStepper
from repro.fleet.gfd import GlobalFaultDetector
from repro.fleet.interconnect import Interconnect
from repro.fleet.lfd import LocalFaultDetector
from repro.fleet.node import FleetNode
from repro.fleet.sharding import HashRing
from repro.fleet.store import KVStore

__all__ = [
    "Fleet", "FleetError", "FleetNode", "FleetOp", "FleetStepper",
    "FleetTimeout", "FleetUnavailable", "GlobalFaultDetector", "HashRing",
    "Interconnect", "KVStore", "LocalFaultDetector", "MessageTooLarge",
    "NotOwner", "StoreFull",
]
