"""CSH queues: the Copy/Sync/Handler ring buffers (§4.1, §5.1.1).

Each client owns two sets (u-mode for the app, k-mode for kernel services
sharing its context, §4.2.1).  Rings follow the paper's lock-free protocol:
producers *acquire* a slot by fetch-and-add on the head, then publish the
item into it; a slot holding an item is the valid bit, so the consumer (a
Copier thread) only advances the tail past filled slots and empties each
one it takes.  The simulator executes Python atomically between yields, so
the protocol is exercised logically (acquisition order defines task order)
rather than against a hardware memory model — see DESIGN.md deviations.
"""


class QueueFull(Exception):
    pass


class RingQueue:
    """Fixed-capacity ring with acquire/publish semantics."""

    def __init__(self, capacity=1024, name=""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._slots = [None] * capacity  # None: not yet published
        self.head = 0  # total slots acquired (fetch-and-add counter)
        self.tail = 0  # total slots consumed

    def __len__(self):
        return self.head - self.tail

    @property
    def is_empty(self):
        return self.head == self.tail

    @property
    def epoch(self):
        """Times the ring wrapped (barrier bookkeeping).

        Derived from the acquire counter rather than counted imperatively:
        a stateful ``+= 1`` at ``head % capacity == 0`` bumps a capacity-1
        ring on every acquire and drifts from the wrap count the moment a
        future protocol change makes ``head`` move by more than one.
        """
        return self.head // self.capacity

    def acquire(self):
        """Fetch-and-add a slot index; raises :class:`QueueFull` when full."""
        if self.head - self.tail >= self.capacity:
            raise QueueFull(self.name or "ring")
        index = self.head
        self.head += 1
        return index

    def publish(self, index, item):
        """Fill the acquired slot; the item itself is the valid bit, so
        ``None`` cannot be published."""
        if item is None:
            raise ValueError("cannot publish None: it marks an empty slot")
        self._slots[index % self.capacity] = item

    def submit(self, item):
        """acquire + publish in one step; returns the global position."""
        index = self.acquire()
        self.publish(index, item)
        return index

    def pop(self):
        """Consume the item at the tail; None if the ring is empty or the
        tail slot is acquired but not yet published."""
        slots = self._slots
        index = self.tail % self.capacity
        item = slots[index]
        if item is not None:
            slots[index] = None
            self.tail += 1
        return item

    def drain(self):
        """Pop every published item at the tail."""
        items = []
        while True:
            item = self.pop()
            if item is None:
                break
            items.append(item)
        return items


class ClientQueues:
    """One privilege level's CSH queue triple."""

    def __init__(self, capacity=1024, name=""):
        self.copy = RingQueue(capacity, name + "-copy")
        self.sync = RingQueue(capacity, name + "-sync")
        self.handler = RingQueue(capacity, name + "-handler")

    def __repr__(self):
        return "<ClientQueues copy=%d sync=%d handler=%d>" % (
            len(self.copy), len(self.sync), len(self.handler))
