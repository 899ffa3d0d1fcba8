"""Typed errors for the fleet layer."""


class FleetError(Exception):
    """Base class for fleet-level failures."""


class FleetTimeout(FleetError):
    """A cross-node request or replication ack missed its reply window."""


class NotOwner(FleetError):
    """A node was asked to serve a key it does not currently own.

    Raised under the shared membership view when a request races a
    promotion; the gateway re-routes to the current primary and retries.
    """


class FleetUnavailable(FleetError):
    """An operation exhausted its retry budget without an acknowledgment."""


class MessageTooLarge(FleetError):
    """An op's key and value do not fit in one inter-node message.

    Raised by :meth:`~repro.fleet.fleet.Fleet.submit` before the op is
    spawned: the gateway marshals each op into a ``MAX_MSG`` transmit
    buffer, so an oversized value must be refused, not overrun it.
    """


class StoreFull(FleetError):
    """A node's store arena cannot fit another value."""
