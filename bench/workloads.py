"""The four simulator workloads: inputs from a seed, one op, its checks.

Each workload builds its inputs from ``--seed`` in :meth:`setup`, runs one
op in :meth:`op` and returns an :class:`Outcome`: a sha256 digest of every
result's ``x.tobytes()`` and residual history, the exact counts the
per-layer metrics need, and any float to pin. All four run on fixed work
or to a fixed residual reduction, so every op of a run must repeat the
first op's digest bit for bit. On the default seed the digests must also
match ``bench/pins.json``.

Why these four (and ``service-sweeps`` in ``service_load.py``): each one
puts a different layer on the critical path, so that an optimisation of
one layer moves one workload and is predicted not to move another.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np
from calibrate import SparseCalibrator

from repro.faults import Crash, DropBurst, FaultPlan
from repro.matrices.laplacian import fd_laplacian_2d, paper_fd_matrix
from repro.observability import RingBufferSink, Tracer, replay_report
from repro.runtime import KNL
from repro.runtime import distributed as _distributed
from repro.runtime.delays import ConstantDelay
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi

#: The seed whose outputs are pinned in ``bench/pins.json``.
DEFAULT_SEED = 1
#: A tolerance no run reaches: fixed-budget ops run their whole budget.
TOL_NEVER = 1e-30


@dataclass
class Outcome:
    """What one op produced, reduced to what the checks and metrics read."""

    key: int
    digest: str
    solves: int
    counts: dict = field(default_factory=dict)
    floats: dict = field(default_factory=dict)


def digest(results) -> str:
    """sha256 over each result's final iterate bytes and residual history."""
    h = hashlib.sha256()
    for r in results:
        h.update(np.ascontiguousarray(r.x).tobytes())
        h.update(np.asarray(r.residual_norms, dtype=np.float64).tobytes())
    return h.hexdigest()


def _distributed_counts(sim, results) -> dict:
    """Exact per-op counts of a batch of distributed runs."""
    neighbours = np.array([len(sub.send_to) for sub in sim.decomposition])
    commits = sum(int(np.sum(r.iterations)) for r in results)
    return {
        "commits": commits,
        "async_commits": sum(
            int(np.sum(r.iterations)) for r in results if r.mode == "async"
        ),
        "rows_relaxed": sum(int(r.relaxation_counts[-1]) for r in results),
        "puts_computed": sum(int(np.dot(r.iterations, neighbours)) for r in results),
        "sim_time_s": sum(float(r.total_time) for r in results),
    }


def _sum_counts(parts) -> dict:
    total = {}
    for part in parts:
        for k, v in part.items():
            total[k] = total.get(k, 0) + v
    return total


def distributed_patches():
    """Public callables of the distributed simulator, with span names."""
    return [
        (DistributedJacobi, "__init__", "runtime.distributed.construct"),
        (DistributedJacobi, "run_sync", "runtime.distributed.run_sync"),
        (DistributedJacobi, "run_async", "runtime.distributed.run_async"),
        (_distributed, "bfs_bisection_partition", "partition.bfs"),
    ]


class Fig8Dispatch:
    """The Fig. 8 grid: 63x63 FD Laplacian, 4/16/64/256 BFS ranks.

    One op is one full pass: sync and async at every rank count (8
    solves), each for the iterations per rank that a 10x residual
    reduction takes: the median over seeds 1-10. Run to the reduction
    itself, the work per op follows the seed's ``b`` and ``x0`` (11,300
    to 18,000 commits), so a fixed budget keeps it the same on every
    seed. With at most ~1,000 rows per rank the relax kernel is small,
    so time goes to the dispatcher, the heap, jitter draws and mailbox
    delivery.
    """

    name = "fig8-dispatch"
    grid = (63, 63)
    ranks = (4, 16, 64, 256)
    sync_iterations = 28
    async_iterations = {4: 23, 16: 20, 64: 12, 256: 8}
    agents = 256
    solves = 8
    #: Pins are cross-checked against ``legacy_engine=True`` runs.
    legacy = True
    pin_keys = 1
    patches = staticmethod(distributed_patches)

    def setup(self, seed, spans):
        with spans.span("matrices.build"):
            A = fd_laplacian_2d(*self.grid)
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1, 1, A.nrows)
        x0 = rng.uniform(-1, 1, A.nrows)
        sims = [DistributedJacobi(A, b, n_ranks=n, seed=seed) for n in self.ranks]
        return {"A": A, "x0": x0, "sims": sims}

    def op(self, st, i, legacy=False, variant=None):
        parts, results = [], []
        for sim, n_ranks in zip(st["sims"], self.ranks):
            rs = sim.run_sync(
                x0=st["x0"], tol=TOL_NEVER, max_iterations=self.sync_iterations,
                legacy_engine=legacy,
            )
            ra = sim.run_async(
                x0=st["x0"], tol=TOL_NEVER,
                max_iterations=self.async_iterations[n_ranks],
                observe_every=n_ranks, legacy_engine=legacy,
            )
            results += [rs, ra]
            parts.append(_distributed_counts(sim, [rs, ra]))
        return Outcome(0, digest(results), self.solves, _sum_counts(parts))


class Scale1e6:
    """The ``scale`` sweep's middle point, two iterations per rank per op.

    A 1000x1000 stencil (10^6 rows, ~5x10^6 nonzeros) on 256 contiguous
    ranks, rank 128 delayed 2 ms, default backend (native when it
    builds). ~3,900 rows per rank, so the relax and commit kernels and
    memory traffic dominate; set-up is large, so work moved into set-up
    shows in ``setup_s``.
    """

    name = "scale-1e6"
    #: Native, memory-bound ops: scaled by the sparse reference op.
    calibrator = SparseCalibrator
    grid = (1000, 1000)
    n_ranks = 256
    delayed_rank = 128
    delay_s = 2e-3
    iterations = 2
    agents = 256
    solves = 1
    #: Pinned from the default backend only, with no legacy cross-check.
    legacy = False
    pin_keys = 1
    patches = staticmethod(distributed_patches)

    def setup(self, seed, spans):
        with spans.span("matrices.build"):
            A = fd_laplacian_2d(*self.grid)
        b = np.random.default_rng(seed).uniform(-1, 1, A.nrows)
        sim = DistributedJacobi(
            A, b, n_ranks=self.n_ranks, partition="contiguous", seed=seed,
            delay=ConstantDelay({self.delayed_rank: self.delay_s}),
        )
        return {"A": A, "sim": sim}

    def op(self, st, i, legacy=False, variant=None):
        sim = st["sim"]
        r = sim.run_async(
            tol=TOL_NEVER, max_iterations=self.iterations,
            observe_every=self.n_ranks,
        )
        return Outcome(
            0, digest([r]), self.solves, _distributed_counts(sim, [r]),
            {"final_residual": float(r.residual_norms[-1]),
             "total_time": float(r.total_time)},
        )


class Fig4Shared:
    """The Fig. 4 machine: FD-68, 68 threads on KNL, row 34 delayed.

    Op ``i`` is one ``run_async`` at the ``i % 3``-th delay (0, 10 and
    100 us) with a 250-iteration budget. It runs the shared-memory
    simulator and the engine streams, no distributed or native code.
    The other threads finish their budget in ~650 simulated us, so a
    delay of 1,000 us or more only appends the straggler's relaxations
    after theirs (every such delay gives the same digest); 10 and 100 us
    interleave its reads with theirs, and each of the three delays gives
    its own trajectory.
    """

    name = "fig4-shared"
    rows = 68
    delayed_row = 34
    delays_us = (0, 10, 100)
    budget = 250
    agents = 68
    solves = 1
    #: Pins are cross-checked against ``legacy_engine=True`` runs.
    legacy = True
    pin_keys = 3

    @staticmethod
    def patches():
        return [
            (SharedMemoryJacobi, "__init__", "runtime.shared.construct"),
            (SharedMemoryJacobi, "run_async", "runtime.shared.run_async"),
        ]

    def setup(self, seed, spans):
        with spans.span("matrices.build"):
            A = paper_fd_matrix(self.rows)
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1, 1, self.rows)
        x0 = rng.uniform(-1, 1, self.rows)
        sims = []
        for delay_us in self.delays_us:
            kwargs = (
                {"delay": ConstantDelay({self.delayed_row: delay_us * 1e-6})}
                if delay_us else {}
            )
            sims.append(SharedMemoryJacobi(
                A, b, n_threads=self.rows, machine=KNL, seed=seed, **kwargs
            ))
        return {"A": A, "x0": x0, "sims": sims}

    def op(self, st, i, legacy=False, variant=None):
        key = i % len(self.delays_us)
        r = st["sims"][key].run_async(
            x0=st["x0"], tol=TOL_NEVER, max_iterations=self.budget,
            observe_every=self.rows, legacy_engine=legacy,
        )
        return Outcome(
            key, digest([r]), self.solves,
            {"relaxations": int(r.relaxation_counts[-1])},
        )


class FaultsTraced:
    """The general loop: the fig8 grid at 64 ranks under a fault plan.

    One crash with restart (rank 17) and one 30% drop burst, placed at
    fixed shares of the fault-free run's simulated span; reliable puts,
    ``recovery="freeze"``, a ring-buffer tracer, and a fixed 12
    iterations per rank (768 commits; the fault-free run needs about as
    many for a 10x residual reduction). A fixed budget keeps the work per
    op the same on every seed. This is the path the fast dispatcher
    skips, and tracing is on it.
    """

    name = "faults-traced"
    grid = (63, 63)
    n_ranks = 64
    iterations = 12
    crash_rank = 17
    agents = 64
    solves = 1
    #: Pins are cross-checked against ``legacy_engine=True`` runs.
    legacy = True
    pin_keys = 1
    #: Relax events replayed for the Theorem 1 check: replay cost grows
    #: quickly with trace length, so a prefix of the first op is checked.
    replay_relax_events = 50
    patches = staticmethod(distributed_patches)
    #: Trace runs add this op variant, interleaved: the same op with
    #: ``tracer=None``, for the program tracer's own overhead.
    trace_variants = ("no_tracer",)

    def setup(self, seed, spans):
        with spans.span("matrices.build"):
            A = fd_laplacian_2d(*self.grid)
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1, 1, A.nrows)
        x0 = rng.uniform(-1, 1, A.nrows)
        clean = DistributedJacobi(A, b, n_ranks=self.n_ranks, seed=seed)
        span_s = clean.run_async(
            x0=x0, tol=TOL_NEVER, max_iterations=self.iterations,
            observe_every=self.n_ranks,
        ).total_time
        plan = FaultPlan(
            [
                Crash(self.crash_rank, 0.2 * span_s, restart_after=0.3 * span_s),
                DropBurst(0.1 * span_s, 0.5 * span_s, 0.3),
            ],
            seed=seed,
        )
        sim = DistributedJacobi(
            A, b, n_ranks=self.n_ranks, seed=seed, fault_plan=plan,
            fault_seed=seed, reliable=True, recovery="freeze",
        )
        return {"A": A, "b": b, "x0": x0, "sim": sim}

    def _run(self, st, tracer, legacy=False):
        return st["sim"].run_async(
            x0=st["x0"], tol=TOL_NEVER, max_iterations=self.iterations,
            observe_every=self.n_ranks, tracer=tracer, legacy_engine=legacy,
        )

    def op(self, st, i, legacy=False, variant=None):
        tracer = None if variant == "no_tracer" else Tracer(sinks=[RingBufferSink()])
        r = self._run(st, tracer, legacy)
        tel = r.telemetry
        counts = _distributed_counts(st["sim"], [r])
        counts.update(
            events=len(tracer.events()) if tracer is not None else 0,
            puts_sent=tel.puts_sent,
            puts_delivered=tel.puts_delivered,
            puts_dropped=tel.puts_dropped,
            retries=tel.retries,
            restarts=len(tel.restarts),
        )
        return Outcome(0, digest([r]), self.solves, counts)

    @staticmethod
    def telemetry_pin(outcome) -> dict:
        """The fault counts pinned alongside the digest."""
        keys = ("puts_sent", "puts_delivered", "puts_dropped", "retries", "restarts")
        return {k: outcome.counts[k] for k in keys}

    def extra_check(self, st, first) -> tuple:
        """Theorem 1 by replay on a read-versioned rerun of the first op.

        Returns ``(problems, seconds spent in replay_report)``.
        """
        problems = []
        if first.counts["restarts"] < 1 or first.counts["puts_dropped"] < 1:
            problems.append("fault plan did not fire (no restart or no drop)")
        tracer = Tracer(sinks=[RingBufferSink()], trace_reads=True)
        r = self._run(st, tracer)
        if digest([r]) != first.digest:
            problems.append("read-versioned rerun diverged from the op")
        events = tracer.events()
        relax_seqs = [e.seq for e in events if e.kind == "relax"]
        cut = relax_seqs[min(self.replay_relax_events, len(relax_seqs)) - 1]
        start = time.perf_counter()
        report = replay_report(
            [e for e in events if e.seq <= cut], st["A"], st["b"], x0=st["x0"]
        )
        replay_s = time.perf_counter() - start
        if not (report.valid_sequence and report.monotone):
            problems.append(f"Theorem 1 replay failed: {report.verdict}")
        return problems, replay_s


SIMULATORS = {w.name: w for w in (Fig8Dispatch(), Scale1e6(), Fig4Shared(), FaultsTraced())}
