"""Lightweight per-kernel timing/counter instrumentation.

Executors that accept ``instrument=True`` fill a :class:`PerfCounters` and
attach it to their result as ``result.perf``, so benchmarks can attribute
wall-clock time to the three cost centers of every run:

* ``spmv`` — sparse kernels (row-subset SpMV relaxations, incremental
  CSC residual updates, full residual recomputations);
* ``residual`` — residual observation (norms, history recording);
* ``dispatch`` — everything else: schedule iteration, event-queue
  traffic, Python bookkeeping. Computed as total minus the other two.

Timing uses two ``perf_counter`` calls per instrumented section; with
``instrument=False`` (the default) executors skip the calls entirely, so
the hot paths carry no overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class PerfCounters:
    """Kernel-attributed timings and call counts for one run."""

    #: Name of the iteration method whose relaxations the SpMV counters
    #: attribute (``"mixed"`` after merging runs of different methods).
    method: str = "jacobi"
    spmv_seconds: float = 0.0
    residual_seconds: float = 0.0
    total_seconds: float = 0.0
    spmv_calls: int = 0
    residual_evals: int = 0
    full_recomputes: int = 0
    events: int = 0
    #: Mailbox-delivery (message coalescing) counters, populated by the
    #: distributed executor's general loop (instrumented runs always take
    #: it): arrivals superseded before their flush, flush passes that
    #: applied at least one edge, edges scattered across all flushes, the
    #: widest single flush, and version-ledger entries scattered into
    #: ``ghost_ver``.
    puts_coalesced: int = 0
    delivery_flushes: int = 0
    delivery_edges_flushed: int = 0
    delivery_batch_max: int = 0
    ledger_scatter_width: int = 0
    #: Kernel family that ran the relaxations (``"native"`` when the
    #: compiled kernels ran, ``"numpy"`` otherwise, ``"mixed"`` after
    #: merging runs of different families) and the native-kernel
    #: counters: compiled relax calls, rows they relaxed, and the
    #: one-time library compile cost this process paid (0.0 when the
    #: content-hash cache already held it).
    backend: str = "numpy"
    native_calls: int = 0
    native_rows_relaxed: int = 0
    native_build_ms: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def dispatch_seconds(self) -> float:
        """Non-kernel time: event dispatch, schedules, bookkeeping."""
        return max(0.0, self.total_seconds - self.spmv_seconds - self.residual_seconds)

    def tick(self) -> float:
        """Start a timed section (returns the start stamp)."""
        return time.perf_counter()

    def tock_spmv(self, start: float) -> None:
        """Close a timed section opened by :meth:`tick` as SpMV work."""
        self.spmv_seconds += time.perf_counter() - start
        self.spmv_calls += 1

    def tock_residual(self, start: float) -> None:
        """Close a timed section opened by :meth:`tick` as residual work."""
        self.residual_seconds += time.perf_counter() - start
        self.residual_evals += 1

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Accumulate another run's counters into this one (returns self)."""
        if other.method != self.method:
            self.method = "mixed"
        self.spmv_seconds += other.spmv_seconds
        self.residual_seconds += other.residual_seconds
        self.total_seconds += other.total_seconds
        self.spmv_calls += other.spmv_calls
        self.residual_evals += other.residual_evals
        self.full_recomputes += other.full_recomputes
        self.events += other.events
        self.puts_coalesced += other.puts_coalesced
        self.delivery_flushes += other.delivery_flushes
        self.delivery_edges_flushed += other.delivery_edges_flushed
        self.delivery_batch_max = max(
            self.delivery_batch_max, other.delivery_batch_max
        )
        self.ledger_scatter_width += other.ledger_scatter_width
        if other.backend != self.backend:
            self.backend = "mixed"
        self.native_calls += other.native_calls
        self.native_rows_relaxed += other.native_rows_relaxed
        self.native_build_ms += other.native_build_ms
        return self

    def as_dict(self) -> dict:
        """JSON-ready flat view (used by the benchmark emitters)."""
        return {
            "method": self.method,
            "spmv_seconds": self.spmv_seconds,
            "residual_seconds": self.residual_seconds,
            "dispatch_seconds": self.dispatch_seconds,
            "total_seconds": self.total_seconds,
            "spmv_calls": self.spmv_calls,
            "residual_evals": self.residual_evals,
            "full_recomputes": self.full_recomputes,
            "events": self.events,
            "puts_coalesced": self.puts_coalesced,
            "delivery_flushes": self.delivery_flushes,
            "delivery_edges_flushed": self.delivery_edges_flushed,
            "delivery_batch_max": self.delivery_batch_max,
            "ledger_scatter_width": self.ledger_scatter_width,
            "backend": self.backend,
            "native_calls": self.native_calls,
            "native_rows_relaxed": self.native_rows_relaxed,
            "native_build_ms": self.native_build_ms,
            **self.extra,
        }

    def native_summary(self) -> str:
        """One-line digest of the compiled-kernel counters.

        Empty string when no native kernel ever ran, so callers can print
        it conditionally (mirrors :meth:`delivery_summary`).
        """
        if not self.native_calls:
            return ""
        return (
            f"native: {self.native_calls} kernel calls, "
            f"{self.native_rows_relaxed} rows relaxed "
            f"(build {self.native_build_ms:.1f} ms)"
        )

    def delivery_summary(self) -> str:
        """One-line digest of the delivery-batching counters.

        Empty string when no mailbox flush ever ran (a run with no message
        traffic), so callers can print it conditionally.
        """
        if not self.delivery_flushes:
            return ""
        mean = self.delivery_edges_flushed / self.delivery_flushes
        return (
            f"delivery: {self.puts_coalesced} puts coalesced, "
            f"{self.delivery_edges_flushed} edges over "
            f"{self.delivery_flushes} flushes "
            f"(mean batch {mean:.2f}, max {self.delivery_batch_max}), "
            f"ledger width {self.ledger_scatter_width}"
        )

    def summary(self) -> str:
        """One-line digest of where the time went.

        Kernel attribution only; pair with :meth:`delivery_summary` for the
        message-coalescing counters.
        """
        native = (
            f", native {self.native_calls} calls"
            f"/{self.native_rows_relaxed} rows"
            if self.native_calls
            else ""
        )
        return (
            f"total {self.total_seconds:.3e}s: "
            f"spmv {self.spmv_seconds:.3e}s/{self.spmv_calls} "
            f"{self.method} relaxes, "
            f"residual {self.residual_seconds:.3e}s/{self.residual_evals} evals "
            f"({self.full_recomputes} full recomputes), "
            f"dispatch {self.dispatch_seconds:.3e}s over {self.events} events"
            f"{native}"
        )
