"""The async serving frontend: asyncio apps over the simulated Copier.

Layering::

    bench/async_load.py      real-socket closed-loop load generator
    serve/frontends.py       RedisSocketServer / MemcachedSocketServer
    serve/fleetfront.py      FleetRedisServer + FleetClock: a fleet as a clock
    serve/facade.py          AsyncCopier — await amemcpy/csync/acancel
    serve/driver.py          SimDriver (steps an Environment or a FleetClock)
                             + AsyncSession + PendingOp
    serve/pacing.py          free / ratio / gate pacing policies
    sim/engine.py            Environment.step() — the cooperative seam
"""

from repro.serve.driver import AsyncSession, PendingOp, ServeStats, SimDriver
from repro.serve.facade import AsyncCopier
from repro.serve.fleetfront import FleetClock, FleetRedisServer
from repro.serve.frontends import (
    MemcachedSocketServer,
    RedisSocketServer,
    encode_hello,
)
from repro.serve.pacing import (
    FreeRunning,
    LockstepGate,
    PacingPolicy,
    PacingSpecError,
    WallClockRatio,
    make_pacing,
)

__all__ = [
    "AsyncCopier",
    "AsyncSession",
    "FleetClock",
    "FleetRedisServer",
    "FreeRunning",
    "LockstepGate",
    "MemcachedSocketServer",
    "PacingPolicy",
    "PacingSpecError",
    "PendingOp",
    "RedisSocketServer",
    "ServeStats",
    "SimDriver",
    "WallClockRatio",
    "encode_hello",
    "make_pacing",
]
