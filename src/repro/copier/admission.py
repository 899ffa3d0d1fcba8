"""Admission control for the copy path: queue, shed, or reject (§4.5).

The paper meters *copy length* across cgroups precisely because a
saturated copy path starves clients; queueing studies of cloud server
overload (request cloning under processor sharing, PAPERS.md) show that
admission control and shedding — not deeper queues — preserve tail
latency.  This module is the Copier reproduction's overload valve: every
``submit_copy`` consults the service's :class:`AdmissionController`,
which can

* **admit** the task onto the CSH rings (the normal path),
* **shed** it to a bounded-latency synchronous copy executed in the
  submitter's own context (mirroring the paper's sync escape hatch:
  ``user_memcpy`` semantics, same bytes, no service involvement), or
* **reject** it with a typed :class:`~repro.copier.errors.AdmissionReject`
  so the application can apply its own backpressure.

Built-in policies (select per service, or machine-wide with the
``COPIER_ADMISSION`` environment variable):

* ``"always"`` (default) — admit everything; the pre-overload behaviour.
* ``"queue-depth"`` — shed once a client's outstanding backlog crosses a
  watermark fraction of its ring capacity; optionally reject past a
  second, higher watermark.
* ``"deadline-feasible"`` — admit only work the service can plausibly
  finish: a task whose deadline cannot be met given the client's current
  backlog and the engine's sustained rate is shed immediately (the
  submitter gets the bytes *now*, synchronously, instead of a guaranteed
  deadline miss later), and per-client/per-cgroup token buckets keyed
  off :class:`~repro.copier.sched.CopierScheduler` shares bound each
  client's sustained async admission rate under saturation.

Shedding is only legal when it cannot reorder against in-flight work:
a task whose source or destination overlaps an unfinished earlier task
must flow through the queues so dependency tracking (§4.2) serializes
it.  Lazy tasks are never shed — deferral and absorption are the point
of lazy submission.  All policies admit freely while the client is
unsaturated, so an idle machine behaves exactly as before.
"""

import os
from itertools import chain

#: Admission decisions returned by :meth:`AdmissionPolicy.decide`.
ADMIT = "admit"
SHED = "shed"
REJECT = "reject"

#: Outstanding backlog (bytes) below which every policy admits without
#: further checks — admission control is an overload valve, not a tax on
#: the unloaded path.
DEFAULT_SATURATION_BYTES = 256 * 1024


class TokenBucket:
    """A byte-metered token bucket on the simulated clock."""

    __slots__ = ("env", "rate", "burst", "tokens", "last_refill")

    def __init__(self, env, rate_bytes_per_cycle, burst_bytes):
        if rate_bytes_per_cycle <= 0 or burst_bytes <= 0:
            raise ValueError("token bucket needs positive rate and burst")
        self.env = env
        self.rate = rate_bytes_per_cycle
        self.burst = burst_bytes
        self.tokens = float(burst_bytes)
        self.last_refill = env.now

    def _refill(self):
        now = self.env.now
        if now > self.last_refill:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.last_refill) * self.rate)
            self.last_refill = now

    def peek(self):
        self._refill()
        return self.tokens

    def consume(self, nbytes):
        """Take ``nbytes`` of tokens; False (and no deduction) if short."""
        self._refill()
        if self.tokens >= nbytes:
            self.tokens -= nbytes
            return True
        return False


class AdmissionPolicy:
    """Strategy interface: one decision per submission."""

    name = "policy"

    def decide(self, controller, client, task):
        return ADMIT

    def __repr__(self):
        return "<%s %r>" % (type(self).__name__, self.name)


class AlwaysAdmit(AdmissionPolicy):
    """Admit everything — the pre-overload-protection behaviour."""

    name = "always"


class QueueDepthPolicy(AdmissionPolicy):
    """Shed past a backlog watermark; optionally reject past a higher one.

    Watermarks are fractions of the client's Copy ring capacity measured
    in *tasks outstanding* (pending + still on the rings), the natural
    unit for "is the queue growing without bound".
    """

    name = "queue-depth"

    def __init__(self, shed_watermark=0.5, reject_watermark=None):
        if not 0.0 < shed_watermark <= 1.0:
            raise ValueError("shed_watermark must be in (0, 1]")
        if reject_watermark is not None and reject_watermark < shed_watermark:
            raise ValueError("reject_watermark must be >= shed_watermark")
        self.shed_watermark = shed_watermark
        self.reject_watermark = reject_watermark

    def decide(self, controller, client, task):
        capacity = client.u_queues.copy.capacity
        depth = (len(client.pending) + len(client.u_queues.copy)
                 + len(client.k_queues.copy))
        if (self.reject_watermark is not None
                and depth >= capacity * self.reject_watermark):
            return REJECT
        if depth >= capacity * self.shed_watermark:
            return SHED
        return ADMIT


class DeadlineFeasiblePolicy(AdmissionPolicy):
    """Admit only work the service can plausibly finish on time.

    Feasibility estimate: the client's outstanding bytes plus this task,
    drained at the engine's sustained rate, must land before the task's
    deadline.  Tasks with no deadline are only throttled by the token
    buckets, and only once the client is saturated.
    """

    name = "deadline-feasible"

    def __init__(self, saturation_bytes=DEFAULT_SATURATION_BYTES,
                 headroom=1.0):
        if headroom <= 0:
            raise ValueError("headroom must be positive")
        self.saturation_bytes = saturation_bytes
        self.headroom = headroom

    def decide(self, controller, client, task):
        now = controller.service.env.now
        rate = controller.service_rate()
        if task.deadline is not None:
            backlog = client.outstanding_bytes + task.length
            estimated = now + int(backlog / rate * self.headroom)
            if estimated > task.deadline:
                return SHED
        if client.outstanding_bytes < self.saturation_bytes:
            return ADMIT
        # Saturated: sustained async admission is metered by the share-
        # weighted token buckets (cgroup first, then the client's slice).
        if not controller.cgroup_bucket(client).consume(task.length):
            return SHED
        if not controller.client_bucket(client).consume(task.length):
            return SHED
        return ADMIT


POLICIES = {
    AlwaysAdmit.name: AlwaysAdmit,
    QueueDepthPolicy.name: QueueDepthPolicy,
    DeadlineFeasiblePolicy.name: DeadlineFeasiblePolicy,
}


def make_admission(policy):
    """Build a policy from its registered name (or pass one through)."""
    if policy is None:
        policy = os.environ.get("COPIER_ADMISSION", "").strip() or "always"
    if isinstance(policy, AdmissionPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError("unknown admission policy %r (have: %s)" % (
            policy, ", ".join(sorted(POLICIES)))) from None


class OverloadStats:
    """Counters for every admission/cancellation/deadline decision."""

    __slots__ = ("admitted", "shed_tasks", "shed_bytes", "rejected",
                 "cancelled", "deadline_misses")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class AdmissionController:
    """Per-service admission state: the policy plus its token buckets.

    Bucket rates are keyed off the scheduler's cgroup shares: a cgroup's
    sustained async admission rate is its share-weighted fraction of the
    engine rate, and a client's is its even split of the cgroup's.  The
    burst allowance is deliberately generous (several copy slices) so
    bursty-but-sustainable clients never notice the meter.
    """

    #: Token burst, in multiples of the scheduler's copy slice.
    BURST_SLICES = 64

    def __init__(self, service, policy=None):
        self.service = service
        self.policy = make_admission(policy)
        self.stats = OverloadStats()
        self._client_buckets = {}
        self._cgroup_buckets = {}

    def service_rate(self):
        """Sustained engine drain rate, bytes/cycle (conservative: the
        CPU stream; DMA piggybacking only improves on it)."""
        return self.service.params.avx_bytes_per_cycle

    def _burst_bytes(self):
        return self.BURST_SLICES * self.service.scheduler.copy_slice_bytes

    def cgroup_bucket(self, client):
        scheduler = self.service.scheduler
        group = scheduler._client_group.get(client, scheduler.root_cgroup)
        bucket = self._cgroup_buckets.get(group.name)
        if bucket is None:
            total_shares = sum(g.shares for g in scheduler.cgroups.values())
            rate = self.service_rate() * group.shares / max(1, total_shares)
            bucket = TokenBucket(self.service.env, rate, self._burst_bytes())
            self._cgroup_buckets[group.name] = bucket
        return bucket

    def client_bucket(self, client):
        bucket = self._client_buckets.get(client)
        if bucket is None:
            scheduler = self.service.scheduler
            group = scheduler._client_group.get(client,
                                                scheduler.root_cgroup)
            rate = (self.cgroup_bucket(client).rate
                    / max(1, len(group.clients)))
            bucket = TokenBucket(self.service.env, rate, self._burst_bytes())
            self._client_buckets[client] = bucket
        return bucket

    def forget(self, client):
        """Drop per-client bucket state (client unregistered/moved)."""
        self._client_buckets.pop(client, None)

    def invalidate_cgroups(self):
        """Recompute cgroup rates on the next decision (shares changed)."""
        self._cgroup_buckets.clear()
        self._client_buckets.clear()

    # ------------------------------------------------------------- decision

    def admit(self, client, task):
        """Decide for one task; returns ADMIT / SHED / REJECT.

        Lazy tasks and tasks entangled with in-flight work (shed would
        reorder against dependency tracking) are always admitted.
        """
        decision = self.policy.decide(self, client, task)
        if decision == SHED and not self._sheddable(client, task):
            decision = ADMIT
        if decision == ADMIT:
            self.stats.admitted += 1
        return decision

    def _sheddable(self, client, task):
        """True when executing ``task`` synchronously *now* is safe."""
        if task.lazy:
            return False
        from repro.mem.faults import SegmentationFault

        try:
            task.src.aspace.check_range(task.src.start, task.src.length,
                                        write=False)
            task.dst.aspace.check_range(task.dst.start, task.dst.length,
                                        write=True)
        except SegmentationFault:
            # Let the normal ingest path drop it and signal the process.
            return False
        index = client.task_index
        return all(earlier.is_finished
                   for earlier in chain(index.writers(task.src),
                                        index.writers(task.dst),
                                        index.readers(task.dst)))

    def snapshot(self):
        return dict(self.stats.as_dict(), policy=self.policy.name)
