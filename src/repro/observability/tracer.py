"""The tracer: one emission point for every executor's observability.

A :class:`Tracer` owns a list of sinks and an optional
:class:`~repro.observability.metrics.Metrics` registry. Executors accept
``tracer=`` and, once per run, resolve it to either the tracer (enabled) or
``None`` (absent, or every sink is a :class:`NullSink`) — so a disabled
tracer costs nothing on the hot path, and event payloads are only built
when someone is listening. ``trace_reads=True`` additionally asks the
simulators to capture per-row read versions (the Section IV-A trace), which
is what the replay bridge needs; the bookkeeping costs a dict per relaxed
row, so it is opt-in.
"""

from __future__ import annotations

import time as _time

from repro.observability import events as ev
from repro.observability.events import TraceEvent
from repro.observability.sinks import RingBufferSink


class Tracer:
    """Emits structured :class:`TraceEvent` records to pluggable sinks.

    Parameters
    ----------
    sinks
        Sink instances; defaults to one unbounded
        :class:`~repro.observability.sinks.RingBufferSink`.
    metrics
        Optional :class:`~repro.observability.metrics.Metrics` registry;
        every emitted event is folded into it (one instrumentation path —
        executors never update metrics directly).
    trace_reads
        Ask simulators to capture per-row read versions on relax events,
        enabling the trace→reconstruction bridge
        (:mod:`repro.observability.replay`).
    """

    def __init__(self, sinks=None, metrics=None, trace_reads: bool = False):
        self.sinks = list(sinks) if sinks is not None else [RingBufferSink()]
        self.metrics = metrics
        self.trace_reads = bool(trace_reads)
        self._seq = 0
        self._live = [s for s in self.sinks if s.enabled]

    @property
    def enabled(self) -> bool:
        """Whether any sink (or a metrics registry) is listening."""
        return bool(self._live) or self.metrics is not None

    def events(self) -> list:
        """Events retained by the first ring-buffer sink (else empty)."""
        for sink in self.sinks:
            if isinstance(sink, RingBufferSink):
                return sink.events()
        return []

    def close(self) -> None:
        """Close every sink (flushes file sinks)."""
        for sink in self.sinks:
            sink.close()

    # -- core emission ---------------------------------------------------
    def emit(self, kind: str, time: float, agent: int | None = None, **data) -> None:
        """Build one event and fan it out to sinks and metrics."""
        event = TraceEvent(
            kind=kind,
            time=float(time),
            seq=self._seq,
            agent=agent,
            data=data,
            wall=_time.perf_counter(),
        )
        self._seq += 1
        for sink in self._live:
            sink.emit(event)
        if self.metrics is not None:
            self.metrics.record_event(event)

    # -- kind-specific conveniences (thin wrappers, keep call sites terse)
    def relax(self, time, agent, rows, reads=None, staleness=None) -> None:
        """One parallel step / block commit of ``rows`` at ``time``."""
        data = {"rows": [int(r) for r in rows]}
        if reads is not None:
            data["reads"] = reads
        if staleness is not None:
            data["staleness"] = staleness
        self.emit(ev.RELAX, time, agent, **data)

    def send(self, time, agent, dst, n_values, seq=None) -> None:
        """A boundary put left ``agent`` for ``dst``."""
        data = {"dst": int(dst), "n_values": int(n_values)}
        if seq is not None:
            data["seq"] = int(seq)
        self.emit(ev.SEND, time, agent, **data)

    def recv(self, time, agent, src, n_values, seq=None, latency=None) -> None:
        """A put landed at ``agent`` and was applied."""
        data = {"src": int(src) if src is not None else None, "n_values": int(n_values)}
        if seq is not None:
            data["seq"] = int(seq)
        if latency is not None:
            data["latency"] = float(latency)
        self.emit(ev.RECV, time, agent, **data)

    def ack(self, time, agent, src, seq) -> None:
        """A reliable-put ack from ``src`` reached the sender ``agent``."""
        self.emit(ev.ACK, time, agent, src=int(src), seq=int(seq))

    def delay(self, time, agent, seconds) -> None:
        """An injected delay put ``agent`` to sleep for ``seconds``."""
        self.emit(ev.DELAY, time, agent, seconds=float(seconds))

    def fault(self, time, agent, reason, **extra) -> None:
        """A fault-machinery incident (crash hit, drop, restart, ...)."""
        self.emit(ev.FAULT, time, agent, reason=reason, **extra)

    def detect(self, time, target, status) -> None:
        """The failure detector changed its mind about ``target``."""
        self.emit(ev.DETECT, time, None, target=int(target), status=status)

    def observe(self, time, residual, relaxations) -> None:
        """A residual observation was recorded."""
        self.emit(
            ev.OBSERVE, time, None, residual=float(residual),
            relaxations=int(relaxations),
        )

    def convergence(self, time, residual, tol) -> None:
        """The observed residual first crossed the tolerance."""
        self.emit(
            ev.CONVERGENCE, time, None, residual=float(residual), tol=float(tol)
        )

    def request(self, time, phase: str, key: str, **data) -> None:
        """A solver-service request changed lifecycle phase.

        ``time`` is service wall-clock seconds since the server started
        (the service has no simulated clock); ``key`` is the short
        content hash identifying the request. Extra payload keys —
        ``group``, ``batch``, ``latency``, ``reason`` — are documented
        on :data:`repro.observability.events.REQUEST`.
        """
        self.emit(ev.REQUEST, time, None, phase=str(phase), key=str(key), **data)

    def run_start(self, executor: str, n: int, **config) -> None:
        """A run began (``executor`` names the emitting class)."""
        self.emit(ev.RUN_START, 0.0, None, executor=executor, n=int(n), **config)

    def run_end(self, time, converged: bool, relaxations: int) -> None:
        """The run finished."""
        self.emit(
            ev.RUN_END, time, None, converged=bool(converged),
            relaxations=int(relaxations),
        )


def resolve(tracer) -> Tracer | None:
    """The once-per-run hot-path guard: a live tracer or None.

    Executors call this at the top of ``run`` and then test the result for
    ``None`` — never the tracer itself — so a missing or all-null-sink
    tracer costs exactly one branch per event afterwards.
    """
    if tracer is not None and tracer.enabled:
        return tracer
    return None
