"""High-performance typed discrete-event engine.

The seed's :class:`~repro.runtime.events.EventQueue` stores ``(time, seq,
payload)`` tuples in a ``heapq``, where ``payload`` is an ad-hoc Python
tuple allocated per event. This module replaces it on the simulators' hot
path with *typed* events — an int-coded kind, an int agent id, and an
optional object slot for the rare payload-carrying messages:

:class:`HeapEventQueue`
    The same C-implemented ``heapq`` underneath, but holding flat typed
    tuples ``(time, seq, kind, agent, obj)`` — no nested payload tuple per
    event. At the pending-set sizes the machine simulators reach (one
    in-flight event per thread/rank plus in-flight messages, i.e. tens to
    a few thousand), CPython's C heap beats any Python-level structure.
    Events pop sorted by ``(time, seq)`` with ``seq`` the global push
    counter, so equal-time events pop in push order. NaN and past-time
    pushes are rejected exactly like the legacy queue.

Batched dispatch
----------------
:meth:`HeapEventQueue.pop_batch` pops the maximal *consecutive* run of
events sharing the head event's timestamp **and** kind, as one ``(time,
kind, agents, objs)`` slice. Because the run is consecutive in ``(time,
seq)`` order, handling the slice in list order is observably identical to
popping the events one at a time — but it lets the shared-memory
simulator relax every block due at ``t`` through one concatenated gather
+ ``bincount`` instead of n scalar kernel calls. Events pushed *while* a
batch is being handled pop after it, exactly as they would have under
scalar dispatch (their seq is larger).

Jitter streams
--------------
:class:`JitterStream` precomputes an agent's lognormal timing-jitter draws
in chunks. NumPy's ``Generator.lognormal(mean, sigma, size=k)`` consumes
the bit stream exactly like ``k`` scalar calls, so the cached draws are
**bit-identical** to the legacy per-call draws — provided nothing else
draws from the same generator in between. The shared-memory simulator
therefore only enables streams for threads whose delay model is
RNG-free (see :meth:`~repro.runtime.delays.DelayModel.constant_extra`).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.util.errors import SimulationError

__all__ = [
    "HeapEventQueue",
    "JitterStream",
    "NormalStream",
    "PatternJitterStream",
]


class HeapEventQueue:
    """Typed event queue: flat ``(time, seq, kind, agent, obj)`` heap tuples."""

    __slots__ = ("_heap", "_seq", "_now")

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Time of the most recently popped event (0.0 initially)."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, kind: int, agent: int, obj=None) -> None:
        """Schedule a typed event at ``time``.

        NaN times and times before the last popped event raise
        :class:`SimulationError` (same contract as the legacy queue: a NaN
        would silently poison the heap invariant).
        """
        if math.isnan(time):
            raise SimulationError(
                f"cannot schedule event at NaN time (kind={kind}, agent={agent})"
            )
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        heapq.heappush(self._heap, (time, self._seq, kind, agent, obj))
        self._seq += 1

    def pop(self):
        """Remove and return the earliest ``(time, kind, agent, obj)``."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        time, _, kind, agent, obj = heapq.heappop(self._heap)
        self._now = time
        return time, kind, agent, obj

    def pop_batch(self):
        """Pop the maximal consecutive run sharing the head's (time, kind).

        Returns ``(time, kind, agents, objs)`` where ``agents`` and
        ``objs`` are parallel lists in pop order.
        """
        heap = self._heap
        if not heap:
            raise SimulationError("pop from an empty event queue")
        time, _, kind, agent, obj = heapq.heappop(heap)
        self._now = time
        agents = [agent]
        objs = [obj]
        while heap and heap[0][0] == time and heap[0][2] == kind:
            _, _, _, agent, obj = heapq.heappop(heap)
            agents.append(agent)
            objs.append(obj)
        return time, kind, agents, objs

    def peek_time(self) -> float:
        """Time of the earliest pending event (inf when empty)."""
        return self._heap[0][0] if self._heap else float("inf")

    def pending_payloads(self):
        """Iterate ``(kind, agent, obj)`` of all pending events.

        Heap order, not time-sorted — same contract as the legacy queue's
        ``pending_payloads`` (used for "can anything still happen?" checks,
        which are order-independent).
        """
        return ((item[2], item[3], item[4]) for item in self._heap)


def make_event_queue(backend: str = "auto", size_hint: int = 0) -> HeapEventQueue:
    """A :class:`HeapEventQueue`, the engine's one queue backend.

    Kept for scripts that build their queue by name (the ``bench/``
    harness does): ``"auto"`` and ``"heap"`` are accepted and
    ``size_hint`` is ignored.
    """
    if backend not in ("auto", "heap"):
        raise ValueError(f"backend must be 'auto' or 'heap', got {backend!r}")
    return HeapEventQueue()


class JitterStream:
    """Chunked lognormal draws, bit-identical to scalar per-call draws.

    ``rng.lognormal(0.0, sigma, size=k)`` consumes the generator exactly
    like ``k`` scalar ``rng.lognormal(0.0, sigma)`` calls, so refilling a
    buffer in chunks reproduces the legacy draw sequence bit for bit —
    as long as no *other* distribution is drawn from the same generator
    between refills. Callers gate on that (see
    :meth:`~repro.runtime.delays.DelayModel.constant_extra`).
    """

    __slots__ = ("_rng", "_sigma", "_chunk", "_buf", "_i")

    def __init__(self, rng, sigma: float, chunk: int = 512):
        self._rng = rng
        self._sigma = float(sigma)
        self._chunk = int(chunk)
        self._buf = None
        self._i = 0

    def next(self) -> float:
        """The next jitter factor in the agent's draw sequence.

        Returned as a Python float (``tolist`` is exact for float64), so
        downstream duration arithmetic stays in fast scalar floats.
        """
        i = self._i
        buf = self._buf
        if buf is None or i >= self._chunk:
            buf = self._buf = self._rng.lognormal(
                0.0, self._sigma, size=self._chunk
            ).tolist()
            i = 0
        self._i = i + 1
        return buf[i]


class NormalStream:
    """Chunked standard-normal draws for agents that mix jitter sigmas.

    A distributed rank draws machine jitter (sigma ~0.08) and network
    jitter (sigma 0.25) from the *same* generator, so a single-sigma
    :class:`JitterStream` cannot serve it. But NumPy computes
    ``lognormal(0.0, sigma)`` as ``exp(0.0 + sigma * standard_normal())``
    in C-double arithmetic, and ``standard_normal(size=k)`` consumes the
    generator exactly like ``k`` scalar calls — so chunking the *raw
    normals* and applying ``math.exp(sigma * z)`` per call reproduces
    scalar ``lognormal`` draws bit for bit at any per-call sigma
    (``math.exp`` and NumPy's scalar path both call libm's ``exp``).

    The same gating rule as :class:`JitterStream` applies: valid only
    while every draw from the generator between refills goes through the
    stream (see :meth:`~repro.runtime.delays.DelayModel.constant_extra`).
    """

    __slots__ = ("_rng", "_chunk", "_buf", "_i")

    def __init__(self, rng, chunk: int = 512):
        self._rng = rng
        self._chunk = int(chunk)
        self._buf = None
        self._i = 0

    def next(self) -> float:
        """The next standard-normal draw, as a Python float."""
        i = self._i
        buf = self._buf
        if buf is None or i >= self._chunk:
            buf = self._buf = self._rng.standard_normal(self._chunk).tolist()
            i = 0
        self._i = i + 1
        return buf[i]


class PatternJitterStream:
    """Batched lognormal factors for a *fixed per-step sigma pattern*.

    The synchronous distributed sweep draws, from each rank's generator,
    the same sequence every sweep: two machine-jitter lognormals (compute
    and overhead spans) followed by one network-jitter lognormal per
    outgoing message. That fixed pattern lets a whole block of sweeps be
    prefetched at once: draw ``len(pattern) * sweeps`` standard normals in
    one chunk, scale by the tiled sigma pattern (exact — an elementwise
    float multiply is the same operation the scalar path performs), and
    apply ``math.exp`` per element (libm, identical to NumPy's scalar
    ``lognormal`` path). :meth:`next_step` then hands back one sweep's
    factors as a plain list slice.

    Bit-identical to per-call scalar ``rng.lognormal(0.0, sigma_i)`` under
    the same gating rule as :class:`JitterStream`: no other draws may hit
    the generator between refills. Draws prefetched beyond the last
    consumed step are simply discarded with the generator. Refills keep
    the scaled normals raw and ``math.exp`` runs lazily per consumed
    step, so overdrawn tail positions never pay for the (libm, scalar)
    exponential; the chunk size starts small and grows geometrically
    toward ``steps`` to bound even the raw-draw waste on short runs.
    """

    __slots__ = ("_rng", "_pattern", "_width", "_max_steps", "_steps",
                 "_size", "_buf", "_i")

    def __init__(self, rng, sigmas, steps: int = 64):
        self._rng = rng
        self._pattern = np.asarray(sigmas, dtype=np.float64)
        self._width = int(self._pattern.size)
        self._max_steps = max(int(steps), 1)
        self._steps = min(8, self._max_steps)
        self._size = 0
        self._buf = None
        self._i = 0

    def next_step(self) -> list:
        """Factors for one step, in pattern order (a list of floats)."""
        i = self._i
        if i >= self._size:
            steps = self._steps
            if steps < self._max_steps:
                self._steps = min(steps * 4, self._max_steps)
            self._size = steps * self._width
            z = self._rng.standard_normal(self._size)
            self._buf = (
                z.reshape(steps, self._width) * self._pattern
            ).ravel().tolist()
            i = 0
        self._i = i + self._width
        exp = math.exp
        return [exp(v) for v in self._buf[i : i + self._width]]
