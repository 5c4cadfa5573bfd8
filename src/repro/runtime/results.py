"""Simulation result containers shared by both machine simulators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class FaultTelemetry:
    """Recovery-path counters and timelines for one simulated run.

    Recorded by the simulators whenever fault machinery is active (a
    :class:`~repro.faults.FaultPlan`, the reliable-put protocol, or
    heartbeat failure detection). Times are simulated seconds.

    Attributes
    ----------
    puts_sent / puts_delivered / puts_dropped
        Data puts initiated, applied at a receiver, and lost in flight
        (steady-state drops, burst drops, partition windows, or arrival at
        a crashed rank).
    puts_corrupted
        Puts whose payload a checksum rejected at the receiver (reliable
        protocol only; they are retried like drops).
    retries
        Reliable-protocol retransmissions after an ack timeout.
    retry_budget_exhausted
        Puts abandoned after the full retry budget (information then only
        reaches the neighbor via a later iteration's put).
    duplicates_suppressed
        Received puts discarded by the sequence-number filter (duplicate
        delivery or out-of-order arrival behind a newer update).
    acks_lost
        Acks lost in flight (each one costs the sender a retransmission).
    heartbeats_sent / heartbeats_lost
        Liveness beacons sent to the detector rank, and those lost in
        flight.
    failures_detected
        ``(rank, time)`` pairs: the detector declared ``rank`` dead.
    recoveries
        ``(rank, time)`` pairs: a presumed-dead rank's heartbeat reached
        the detector again (restart or healed partition).
    restarts
        ``(rank, time)`` pairs: a scripted crash restarted.
    adoptions
        ``(dead_rank, adopter_rank, time)`` triples under
        ``recovery="adopt"``.
    degraded_intervals
        ``(start, end)`` windows during which at least one rank was
        presumed dead and its rows were not being relaxed.
    """

    puts_sent: int = 0
    puts_delivered: int = 0
    puts_dropped: int = 0
    puts_corrupted: int = 0
    retries: int = 0
    retry_budget_exhausted: int = 0
    duplicates_suppressed: int = 0
    acks_lost: int = 0
    heartbeats_sent: int = 0
    heartbeats_lost: int = 0
    failures_detected: list = field(default_factory=list)
    recoveries: list = field(default_factory=list)
    restarts: list = field(default_factory=list)
    adoptions: list = field(default_factory=list)
    degraded_intervals: list = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Whether the run ever operated with a presumed-dead rank."""
        return bool(self.degraded_intervals)

    @property
    def degraded_time(self) -> float:
        """Total simulated seconds spent in degraded mode."""
        return float(sum(end - start for start, end in self.degraded_intervals))

    def detection_latency(self, crash_time: float, rank: int | None = None) -> float:
        """Seconds from ``crash_time`` to the (matching) failure detection.

        ``rank=None`` uses the first detection at or after ``crash_time``
        regardless of which rank it names. Returns inf if never detected.
        """
        for r, t in self.failures_detected:
            if t >= crash_time and (rank is None or r == rank):
                return t - crash_time
        return float("inf")

    def summary(self) -> str:
        """One-line digest of the recovery activity."""
        return (
            f"puts {self.puts_delivered}/{self.puts_sent} delivered "
            f"({self.puts_dropped} dropped, {self.puts_corrupted} corrupted, "
            f"{self.retries} retries, {self.duplicates_suppressed} dup-suppressed), "
            f"{len(self.failures_detected)} failure(s) detected, "
            f"{len(self.recoveries)} recover(ies), {len(self.adoptions)} adoption(s), "
            f"degraded {self.degraded_time:.3e}s over "
            f"{len(self.degraded_intervals)} interval(s)"
        )


@dataclass
class SimulationResult:
    """Convergence history of one simulated run.

    Attributes
    ----------
    x
        Final iterate (committed shared state).
    converged
        Whether the observer saw the relative residual drop below ``tol``.
    times
        Simulated wall-clock seconds at each observation (starts at 0.0).
    residual_norms
        Relative residual 1-norm at each observation.
    relaxation_counts
        Cumulative row relaxations at each observation.
    iterations
        Per-agent local iteration counts at the end of the run.
    total_time
        Simulated time at which the run ended.
    mode
        "sync" or "async".
    telemetry
        Optional :class:`FaultTelemetry` with recovery counters/timelines
        (recorded whenever fault machinery was active).
    loop
        Which event loop produced the run: ``"native-block"`` (the
        distributed block loop compiled in C), ``"block"`` (the same loop
        in Python), ``"general"`` (the loop that handles every run option,
        one event per pop; the shared-memory simulator's asynchronous
        loop) or ``"sync"`` (a synchronous sweep loop).
    """

    x: np.ndarray
    converged: bool
    times: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    relaxation_counts: list = field(default_factory=list)
    iterations: np.ndarray = None
    total_time: float = 0.0
    mode: str = "async"
    telemetry: FaultTelemetry = None
    loop: str = None

    @property
    def final_residual(self) -> float:
        """Last observed relative residual norm."""
        return self.residual_norms[-1]

    @property
    def mean_iterations(self) -> float:
        """Average local iteration count across agents (paper's Fig. 6 x-axis)."""
        return float(np.mean(self.iterations))

    def time_to_tolerance(self, tol: float) -> float:
        """First observed time with residual below ``tol`` (inf if never)."""
        for t, r in zip(self.times, self.residual_norms):
            if r < tol:
                return t
        return float("inf")

    def relaxations_to_tolerance(self, tol: float) -> float:
        """Cumulative relaxations at the first observation below ``tol``."""
        for c, r in zip(self.relaxation_counts, self.residual_norms):
            if r < tol:
                return float(c)
        return float("inf")

    def summary(self) -> str:
        """One-line human-readable digest of the run."""
        state = "converged" if self.converged else "did not converge"
        iters = (
            f"{float(np.mean(self.iterations)):.0f} mean iters"
            if self.iterations is not None
            else "no iteration counts"
        )
        line = (
            f"{self.mode}: {state} at residual {self.final_residual:.3e} "
            f"after {self.relaxation_counts[-1]} relaxations "
            f"({iters}, simulated {self.total_time:.3e}s)"
        )
        if self.telemetry is not None and self.telemetry.degraded:
            line += f" [degraded {self.telemetry.degraded_time:.3e}s]"
        return line

    def time_at_residual(self, target: float) -> float:
        """Time to reach ``target`` residual, log-interpolated.

        The paper's Figure 8 measures wall-clock time for a specific residual
        reduction using "linear interpolation on the log10 of the relative
        residual norm"; this reproduces that estimator. Returns inf if the
        history never crosses ``target``.
        """
        times = np.asarray(self.times)
        res = np.asarray(self.residual_norms)
        below = np.nonzero(res < target)[0]
        if below.size == 0:
            return float("inf")
        j = int(below[0])
        if j == 0:
            return float(times[0])
        r0, r1 = res[j - 1], res[j]
        t0, t1 = times[j - 1], times[j]
        if r0 <= 0 or r1 <= 0 or r0 == r1:
            return float(t1)
        frac = (np.log10(r0) - np.log10(target)) / (np.log10(r0) - np.log10(r1))
        return float(t0 + frac * (t1 - t0))
