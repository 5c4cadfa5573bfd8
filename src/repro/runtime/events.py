"""A minimal discrete-event engine.

Both machine simulators are built on this queue: events are ``(time, seq,
payload)`` tuples ordered by time with a monotone sequence number breaking
ties, so simulations are fully deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
import math
from itertools import count

from repro.util.errors import SimulationError


class EventQueue:
    """Priority queue of timestamped events with deterministic tie-breaking."""

    def __init__(self):
        self._heap = []
        self._seq = count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Time of the most recently popped event (0.0 initially)."""
        return self._now

    def __len__(self) -> int:
        """Number of pending events."""
        return len(self._heap)

    def __bool__(self) -> bool:
        """Whether any event is pending."""
        return bool(self._heap)

    def push(self, time: float, payload) -> None:
        """Schedule ``payload`` at ``time``.

        Scheduling into the past (before the last popped event) or at a NaN
        time indicates a simulator bug and raises :class:`SimulationError`.
        A NaN would otherwise poison the heap invariant silently — every
        comparison against it is False, so events start popping in arbitrary
        order long after the bad push.
        """
        if math.isnan(time):
            raise SimulationError(
                f"cannot schedule event at NaN time (payload={payload!r})"
            )
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        heapq.heappush(self._heap, (time, next(self._seq), payload))

    def extend(self, items) -> int:
        """Bulk-schedule an iterable of ``(time, payload)`` pairs.

        Sequence numbers are assigned in iteration order and the pop order
        depends only on ``(time, seq)``, so draining the queue afterwards is
        indistinguishable from an equivalent loop of :meth:`push` calls.
        When the batch rivals the pending heap in size, one ``heapify``
        replaces per-item sift-ups; smaller batches fall back to pushes.
        Validation failures reject the whole batch. Returns the batch size.
        """
        batch = []
        for time, payload in items:
            if math.isnan(time):
                raise SimulationError(
                    f"cannot schedule event at NaN time (payload={payload!r})"
                )
            if time < self._now:
                raise SimulationError(
                    f"cannot schedule event at t={time} before current "
                    f"time t={self._now}"
                )
            batch.append((time, next(self._seq), payload))
        if len(batch) >= len(self._heap):
            self._heap.extend(batch)
            heapq.heapify(self._heap)
        else:
            for item in batch:
                heapq.heappush(self._heap, item)
        return len(batch)

    def pop(self):
        """Remove and return the earliest ``(time, payload)``."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        time, _, payload = heapq.heappop(self._heap)
        self._now = time
        return time, payload

    def peek_time(self) -> float:
        """Time of the earliest pending event (inf when empty)."""
        return self._heap[0][0] if self._heap else float("inf")

    def pending_payloads(self):
        """Iterate over the payloads of all pending events (heap order,
        not time-sorted). Lets a simulator ask "can anything still happen?"
        without popping."""
        return (item[2] for item in self._heap)
