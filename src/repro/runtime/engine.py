"""High-performance typed discrete-event engine.

The simulators' hot path runs on *typed* events — an int-coded kind, an
int agent id, and an optional object slot for the rare payload-carrying
messages — rather than an ad-hoc payload tuple allocated per event:

:class:`HeapEventQueue`
    CPython's C-implemented ``heapq`` holding flat typed tuples
    ``(time, seq, kind, agent, obj)`` — no nested payload tuple per
    event. At the pending-set sizes the machine simulators reach (one
    in-flight event per thread/rank plus in-flight messages, i.e. tens to
    a few thousand), CPython's C heap beats any Python-level structure.
    Events pop sorted by ``(time, seq)`` with ``seq`` the global push
    counter, so equal-time events pop in push order. NaN and past-time
    pushes are rejected.

Jitter streams
--------------
Each simulated agent draws its lognormal timing jitter through one stream
over its private generator, so its draw order — the basis of every
bit-identity contract — is written down once:

* :class:`JitterStream` — one sigma per agent (shared-memory threads);
* :class:`PatternJitterStream` — a fixed per-step sigma pattern
  (distributed ranks in the block loop and ``run_sync``), served as
  per-step lists or, for ``run_sync``'s vectorised sweeps, as blocks;
* :class:`NormalStream` — raw normals for the distributed general loop,
  whose draws are irregular (retries, reports, heartbeats, STOP).

All three are **bit-identical** to the scalar per-call draws: NumPy's
array draws consume the bit stream exactly like repeated scalar calls. A
stream may prefetch only while nothing else draws from its generator;
an agent whose delay model draws from the same generator (see
:meth:`~repro.runtime.delays.DelayModel.constant_extra`) gets a stream
that draws one step at a time (``chunk=1`` / ``steps=1``). The two
lognormal streams yield exactly ``1.0`` for a zero sigma without drawing,
so callers never branch on whether a jitter is active.
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
        """Number of pending events."""
        return len(self._heap)

    def __bool__(self) -> bool:
        """Whether any event is pending."""
        return bool(self._heap)

    def push(self, time: float, kind: int, agent: int, obj=None) -> None:
        """Schedule a typed event at ``time``.

        NaN times and times before the last popped event raise
        :class:`SimulationError` (a NaN would silently poison the heap
        invariant).
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

    def pending_payloads(self):
        """Iterate ``(kind, agent, obj)`` of all pending events.

        Heap order, not time-sorted (used for "can anything still happen?"
        checks, which are order-independent).
        """
        return ((item[2], item[3], item[4]) for item in self._heap)


def refuse_legacy_engine(legacy_engine: bool) -> None:
    """Raise ``ValueError`` on a true ``legacy_engine``.

    The pre-engine simulator loops are deleted; the trajectories they
    produced are frozen in ``tests/runtime/engine_digests.json``. The
    keyword stays on both simulators' run methods only because the
    ``bench/`` harness passes ``legacy_engine=False``.
    """
    if legacy_engine:
        raise ValueError(
            "legacy_engine=True is retired: the pre-engine loops are deleted "
            "and their trajectories are frozen in "
            "tests/runtime/engine_digests.json"
        )


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
    """One agent's single-sigma lognormal jitter factors.

    ``rng.lognormal(0.0, sigma, size=k)`` consumes the generator exactly
    like ``k`` scalar ``rng.lognormal(0.0, sigma)`` calls, so refilling a
    buffer in chunks reproduces the scalar draw sequence bit for bit —
    as long as no *other* distribution is drawn from the same generator
    between refills. An agent whose delay model draws from its generator
    (see :meth:`~repro.runtime.delays.DelayModel.constant_extra`) takes
    ``chunk=1``: every refill is then one draw made at the call, which is
    a scalar ``lognormal``. A zero ``sigma`` yields exactly ``1.0`` and
    never touches the generator — the scalar engines make no draw for an
    inactive jitter either, and ``v * 1.0 == v`` — so a caller multiplies
    by the factor unconditionally.
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
            if self._sigma > 0:
                buf = self._rng.lognormal(0.0, self._sigma, size=self._chunk)
                buf = buf.tolist()
            else:
                buf = [1.0] * self._chunk
            self._buf = buf
            i = 0
        self._i = i + 1
        return buf[i]


class NormalStream:
    """Chunked standard-normal draws for the distributed general loop.

    A distributed rank draws machine jitter (sigma ~0.08) and network
    jitter (sigma 0.25) from the *same* generator, and in the general
    loop those draws are irregular — retries, reports, heartbeats and
    STOP messages interleave with them — so neither a single-sigma
    :class:`JitterStream` nor a fixed :class:`PatternJitterStream` can
    serve it. But NumPy computes
    ``lognormal(0.0, sigma)`` as ``exp(0.0 + sigma * standard_normal())``
    in C-double arithmetic, and ``standard_normal(size=k)`` consumes the
    generator exactly like ``k`` scalar calls — so chunking the *raw
    normals* and applying ``math.exp(sigma * z)`` per call reproduces
    scalar ``lognormal`` draws bit for bit at any per-call sigma
    (``math.exp`` and NumPy's scalar path both call libm's ``exp``).

    The same gating rule as :class:`JitterStream` applies: a chunk may
    prefetch only while every draw from the generator between refills
    goes through the stream, so a rank whose delay model draws from its
    generator (see :meth:`~repro.runtime.delays.DelayModel.constant_extra`)
    takes ``chunk=1`` — one normal drawn at each call, as the scalar
    ``lognormal`` would.
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
    """One agent's lognormal jitter factors for a fixed per-step sigma pattern.

    This is the single draw path of the distributed simulator's block
    loop and ``run_sync``. A rank draws, from its own
    generator, the same sequence every step — in the block loop one
    machine-jitter factor for the compute span, one network-jitter factor
    per outgoing put and one machine-jitter factor for the overhead span;
    in ``run_sync`` two machine factors then one network factor per
    message. :meth:`next_step` hands back one step's factors as a list in
    pattern order; :meth:`next_blocks` hands back the next ``steps`` steps
    of a group of streams as one array for vectorised consumers.

    Three rules make every consumer bit-identical to per-call scalar
    ``rng.lognormal(0.0, sigma_i)``:

    * *Zero sigmas draw nothing.* A position whose sigma is zero yields
      exactly ``1.0`` (``math.exp(0.0) == 1.0``) without consuming the
      generator, as the scalar engines skip the draw; since ``v * 1.0 ==
      v``, consumers multiply by every factor unconditionally.
    * *Chunking is invisible.* NumPy computes ``lognormal(0.0, s)`` as
      ``exp(0.0 + s * standard_normal())`` and ``standard_normal(size=k)``
      consumes the generator exactly like ``k`` scalar calls, so the
      stream draws raw normals for many steps at once, scales them by the
      pattern (the same float multiply) and applies ``math.exp`` (libm,
      as NumPy's scalar path). Refills keep the scaled normals and
      ``math.exp`` runs lazily per consumed step, so overdrawn tail
      positions never pay for the exponential; the chunk starts at 8
      steps and grows geometrically toward ``steps`` to bound the raw
      overdraw on short runs. Draws prefetched beyond the last consumed
      step are discarded with the generator, so no other draw may hit it
      between refills.
    * *``steps=1`` does not prefetch.* An agent whose delay model draws
      from the same generator (``DelayModel.constant_extra() is None``)
      refills exactly one step at a time, when the step begins; its delay
      draw follows the step's factors, which is the scalar engines'
      ``[compute, puts..., overhead]`` then ``extra_time`` order.

    Block draws continue the same sequence: a block holds exactly the
    factors that as many :meth:`next_step` calls would have returned,
    consuming any buffered steps first.
    """

    __slots__ = ("_rng", "_pattern", "_nz", "_width", "_max_steps",
                 "_steps", "_size", "_buf", "_i")

    def __init__(self, rng, sigmas, steps: int = 64):
        self._rng = rng
        pattern = np.asarray(sigmas, dtype=np.float64)
        self._width = int(pattern.size)
        # ``_nz`` is None when every position draws (no scatter needed);
        # otherwise it indexes the drawing positions, and ``_pattern``
        # holds only their sigmas.
        self._nz = None
        self._pattern = pattern
        if not all(s > 0 for s in pattern.tolist()):
            self._nz = np.flatnonzero(pattern > 0)
            self._pattern = pattern[self._nz]
        self._max_steps = max(int(steps), 1)
        self._steps = min(8, self._max_steps)
        self._size = 0
        self._buf = None
        self._i = 0

    def _scaled(self, steps: int) -> np.ndarray:
        """Fresh ``sigma * z`` for ``steps`` steps, shape ``(steps, width)``;
        zero-sigma positions hold ``0.0`` and draw nothing."""
        nz = self._nz
        if nz is None:
            z = self._rng.standard_normal(steps * self._width)
            return z.reshape(steps, self._width) * self._pattern
        out = np.zeros((steps, self._width))
        if nz.size:
            z = self._rng.standard_normal(steps * nz.size)
            out[:, nz] = z.reshape(steps, nz.size) * self._pattern
        return out

    def next_step(self) -> list:
        """Factors for one step, in pattern order (a list of floats)."""
        i = self._i
        if i >= self._size:
            steps = self._steps
            if steps < self._max_steps:
                self._steps = min(steps * 4, self._max_steps)
            self._size = steps * self._width
            self._buf = self._scaled(steps).ravel().tolist()
            i = 0
        self._i = i + self._width
        exp = math.exp
        return [exp(v) for v in self._buf[i : i + self._width]]

    def _take(self, steps: int) -> np.ndarray:
        """Scaled normals for the next ``steps`` steps: buffered ones
        first, then exactly as many fresh draws as are still missing."""
        i = self._i
        if i >= self._size:
            return self._scaled(steps)
        w = self._width
        k = min(steps, (self._size - i) // w)
        self._i = i + k * w
        head = np.array(self._buf[i : self._i]).reshape(k, w)
        if k == steps:
            return head
        return np.concatenate((head, self._scaled(steps - k)))

    @staticmethod
    def next_blocks(streams, steps: int) -> np.ndarray:
        """The next ``steps`` steps of several equal-width streams.

        Shape ``(len(streams), steps, width)``: row ``i`` holds exactly
        the factors ``steps`` :meth:`next_step` calls on ``streams[i]``
        would have returned, buffered steps first. The scaling and the
        exponentials run in one pass over the whole stack whenever no
        stream holds buffered steps or zero sigmas (the vectorised
        consumers' steady state).
        """
        if all(st._i >= st._size and st._nz is None for st in streams):
            w = streams[0]._width
            z = np.stack([st._rng.standard_normal(steps * w) for st in streams])
            s = z.reshape(len(streams), steps, w) * np.stack(
                [st._pattern for st in streams]
            )[:, None, :]
        else:
            s = np.stack([st._take(steps) for st in streams])
        return np.fromiter(
            map(math.exp, s.ravel().tolist()), np.float64, s.size
        ).reshape(s.shape)
