"""Event-driven shared-memory Jacobi simulator (the OpenMP substitute).

Reproduces the structure of the paper's OpenMP implementation (Section V):
each thread owns a contiguous block of rows; one local iteration computes
the block residual ``r = b - A x`` reading the *shared* iterate, then writes
the corrected block back. Synchronous mode inserts a barrier after each
sweep; asynchronous mode lets threads free-run, reading whatever the other
threads have committed — Baudet's racy scheme.

The simulator replaces real threads with discrete events on a simulated
clock, which is what makes faithful asynchrony possible on a single-core
GIL-bound host:

* a thread-iteration is a START event (snapshot-read the shared iterate,
  compute the block update, sample a duration from the machine model plus
  any injected delay) followed by a COMMIT event (publish the block, bump
  row versions);
* values committed between a reader's START and COMMIT are invisible to
  that reader — exactly the read-snapshot semantics of the OpenMP code,
  where the block residual is computed before the block write-back;
* **core scheduling**: threads are pinned compactly to cores (``smt``
  threads per core when oversubscribed); threads sharing a core execute
  their iterations one at a time, round-robin. This models SMT time-slicing
  and is the mechanism behind the paper's surprising observation that
  *more* threads accelerate asynchronous convergence: oversubscription
  serializes neighboring blocks, making the iteration more multiplicative
  (Section IV-B/D);
* a tracer with ``trace_reads=True`` captures, per relaxed row, the version
  of every neighbor value read — the input to the propagation-matrix
  reconstruction of Figure 2 (:mod:`repro.observability.replay`).

Convergence is observed by a zero-cost oracle that recomputes the global
relative residual 1-norm on a configurable cadence (the real implementation
uses the threads' own residual blocks; the oracle avoids perturbing the
simulated timing).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import NO_FAULTS, FaultPlan
from repro.matrices.sparse import CSRMatrix
from repro.methods import make_method
from repro.methods.kernels import sor_block_pending, sor_step_dense
from repro.observability.tracer import resolve as resolve_tracer
from repro.runtime.delays import CompositeDelay, DelayModel, NO_DELAY, StragglerDelay
from repro.runtime.engine import HeapEventQueue, JitterStream, refuse_legacy_engine
from repro.runtime.machine import KNL, MachineModel
from repro.runtime.observer import ResidualObserver
from repro.runtime.results import FaultTelemetry, SimulationResult
from repro.util.errors import ShapeError, SimulationError, SingularMatrixError
from repro.util.norms import vector_norm
from repro.util.rng import spawn_rngs
from repro.util.validation import (
    check_nonnegative_int,
    check_positive,
    check_positive_int,
    check_vector,
)

_START, _COMMIT, _RELEASE, _REQUEST = 0, 1, 2, 3


@dataclass
class _Thread:
    """Per-thread precomputed state (contiguous row block of the matrix)."""

    tid: int
    core: int
    lo: int
    hi: int
    nnz_lo: int
    nnz_hi: int
    rowid_local: np.ndarray  # row offset (0-based within block) of each nnz
    neighbors_per_row: list  # trace mode only: off-diagonal cols per row
    rng: np.random.Generator
    iterations: int = 0
    stopped: bool = False
    pending: np.ndarray = None
    pending_reads: list = None


class SharedMemoryJacobi:
    """Simulated multithreaded Jacobi on one shared-memory node.

    Parameters
    ----------
    A
        System matrix (square, nonzero diagonal).
    b
        Right-hand side.
    n_threads
        Simulated thread count; rows are split into contiguous blocks and
        threads are pinned compactly: thread ``t`` runs on core
        ``t * cores // n_threads``.
    machine
        Cost model (default: the KNL preset).
    delay
        Injected-delay model (default: none).
    seed
        Seed for all timing jitter (per-thread independent streams).
    omega
        Relaxation weight in (0, 2); 1.0 is plain Jacobi.
    fault_plan
        Optional :class:`~repro.faults.FaultPlan` with thread-death events
        (``Crash``/``ThreadDeath``; message-level faults are meaningless in
        shared memory and rejected). A crashed thread stops relaxing — its
        in-flight update is discarded — and, with ``restart_after`` set,
        resumes from the current shared iterate at the restart time.
        Applies to asynchronous runs; a synchronous run with scripted
        crashes raises :class:`SimulationError` (the barrier would never
        complete).
    """

    def __init__(
        self,
        A: CSRMatrix,
        b,
        n_threads: int,
        machine: MachineModel = KNL,
        delay: DelayModel = NO_DELAY,
        seed=None,
        omega: float = 1.0,
        fault_plan: FaultPlan | None = None,
        method=None,
    ):
        if A.nrows != A.ncols:
            raise ShapeError(f"matrix must be square, got {A.shape}")
        n = A.nrows
        n_threads = check_positive_int(n_threads, "n_threads", ShapeError)
        if n_threads > n:
            raise ShapeError(
                f"n_threads must lie in [1, {n}] (one row per thread max), got {n_threads}"
            )
        if not 0 < omega < 2:
            raise ValueError(f"omega must lie in (0, 2), got {omega}")
        self.method = make_method(method, omega=omega)
        if self.method.name != "richardson" and np.any(A.diagonal() == 0):
            raise SingularMatrixError("Jacobi requires a nonzero diagonal")
        self.A = A
        self.n = n
        self.b = check_vector(b, n, "b")
        self.omega = float(omega)
        self.dinv = self.method.scale(A)
        self.n_threads = n_threads
        self.machine = machine
        self.delay = delay
        self.seed = seed
        self.fault_plan = NO_FAULTS if fault_plan is None else fault_plan
        if (
            self.fault_plan.partitions
            or self.fault_plan.drop_bursts
            or self.fault_plan.corrupt_bursts
        ):
            raise ValueError(
                "the shared-memory simulator supports only crash/thread-death "
                "fault events; partitions and message bursts need the "
                "distributed simulator"
            )
        if self.fault_plan.agents() and max(self.fault_plan.agents()) >= n_threads:
            raise ShapeError(
                f"fault plan kills thread {max(self.fault_plan.agents())}, "
                f"but only {n_threads} threads exist"
            )
        # Compact pinning: with T <= cores each thread has its own core;
        # beyond that, adjacent threads (adjacent row blocks) share a core.
        self.n_cores = min(self.n_threads, machine.cores)

    # ------------------------------------------------------------------
    def _make_threads(self, trace_reads: bool) -> list:
        A = self.A
        bounds = np.linspace(0, self.n, self.n_threads + 1).astype(np.int64)
        rngs = spawn_rngs(self.seed, self.n_threads)
        threads = []
        for tid in range(self.n_threads):
            lo, hi = int(bounds[tid]), int(bounds[tid + 1])
            nnz_lo, nnz_hi = int(A.indptr[lo]), int(A.indptr[hi])
            rowid_local = A._row_of_nnz[nnz_lo:nnz_hi] - lo
            nbrs = [A.neighbors(i) for i in range(lo, hi)] if trace_reads else []
            threads.append(
                _Thread(
                    tid=tid,
                    core=tid * self.n_cores // self.n_threads,
                    lo=lo,
                    hi=hi,
                    nnz_lo=nnz_lo,
                    nnz_hi=nnz_hi,
                    rowid_local=rowid_local,
                    neighbors_per_row=nbrs,
                    rng=rngs[tid],
                )
            )
        return threads

    def _slowdown(self, tid: int) -> float:
        if isinstance(self.delay, (StragglerDelay, CompositeDelay)):
            return self.delay.slowdown(tid)
        return 1.0

    def _duration(self, th: _Thread, iteration: int) -> float:
        """Full-cycle duration (sync mode: compute + overhead + delay)."""
        base = self.machine.iteration_duration(
            th.nnz_hi - th.nnz_lo, th.hi - th.lo, self.n_threads, th.rng
        )
        return base * self._slowdown(th.tid) + self.delay.extra_time(
            th.tid, iteration, th.rng
        )

    def _residual(self, x, out):
        """The residual ``b - A x`` written into ``out``."""
        return np.subtract(self.b, self.A.matvec(x), out=out)

    # ------------------------------------------------------------------
    def run_async(
        self,
        x0=None,
        tol: float = 1e-3,
        max_iterations: int = 10_000,
        observe_every: int | None = None,
        run_until_all_reach: bool = False,
        recompute_every: int = 64,
        tracer=None,
        legacy_engine: bool = False,
    ) -> SimulationResult:
        """Asynchronous (racy) execution.

        Stops when the observed relative residual drops below ``tol``, or
        when every thread has performed ``max_iterations`` local iterations.
        With ``run_until_all_reach=True`` threads keep iterating until the
        *slowest* thread reaches ``max_iterations`` (the paper's Fig. 5(b)
        termination: "a thread terminates only if all other threads have
        also converged"), so fast threads overshoot.

        The residual observer (:class:`~repro.runtime.observer.ResidualObserver`)
        keeps ``r = b - A x`` up to date at every commit with a CSC scatter
        over the committed block's column support, so an observation is
        just a norm, and only reads the trajectory. It recomputes ``r``
        every ``recompute_every`` observations (0: never; 1: the drift-free
        observer) and confirms any tolerance crossing against a fresh one.

        A live :class:`~repro.observability.Tracer` passed as ``tracer``
        receives structured events: per-commit relax events (with the
        per-row read versions the trace→reconstruction bridge,
        :mod:`repro.observability.replay`, consumes when the tracer has
        ``trace_reads=True``), injected delays, scripted crashes/restarts,
        residual observations, and the convergence crossing. Tracing never perturbs the simulated trajectory;
        ``tracer=None`` (default) or an all-null-sink tracer leaves the
        hot loop untouched.

        The event loop runs on :mod:`repro.runtime.engine`: typed events
        on a preallocated queue, relax kernels writing into reused
        per-thread buffers, a precompiled column-scatter plan for the
        observer's residual, one jitter stream per thread (a
        :class:`~repro.runtime.engine.JitterStream` that prefetches unless
        the thread's delay model draws from the same generator; a zero
        sigma yields 1.0 without a draw), and one event per pop.
        Trajectories are bit-identical to the deleted pre-engine
        implementation's, frozen as digests in
        ``tests/runtime/engine_digests.json``; ``legacy_engine=True``
        raises ``ValueError`` (the keyword stays for the ``bench/``
        harness, which passes ``False``).

        ``observe_every`` (default: one per thread) counts commits between
        residual observations; for it and ``max_iterations`` anything but
        a positive integer raises ``ValueError``, as does anything but a
        nonnegative integer for ``recompute_every``.
        """
        max_iterations = check_positive_int(max_iterations, "max_iterations")
        if observe_every is not None:
            observe_every = check_positive_int(observe_every, "observe_every")
        recompute_every = check_nonnegative_int(recompute_every, "recompute_every")
        refuse_legacy_engine(legacy_engine)
        check_positive(tol, "tol")
        A, b, dinv = self.A, self.b, self.dinv
        x = np.zeros(self.n) if x0 is None else check_vector(x0, self.n, "x0").copy()
        data, cols = A.data, A.indices

        # Resolved once: a missing or all-null-sink tracer costs one branch
        # per event afterwards (see repro.observability.tracer.resolve).
        trc = resolve_tracer(tracer)
        trace_reads = trc is not None and trc.trace_reads
        threads = self._make_threads(trace_reads)
        version = np.zeros(self.n, dtype=np.int64) if trace_reads else None
        plan = self.fault_plan
        tm = FaultTelemetry()
        if trc is not None:
            trc.run_start(
                "SharedMemoryJacobi", self.n, n_threads=self.n_threads, tol=tol,
                omega=self.omega, method=self.method.name,
            )
        # Method dispatch: scaled methods relax through the gather +
        # ``bincount`` kernel below (their scale vector *is* ``dinv``);
        # sequential (step-async SOR) blocks relax through the ordered
        # kernel, and momentum carries one previous iterate per row.
        seq_m = self.method.kind == "sequential"
        mom_beta = self.method.beta
        momentum_m = self.method.kind == "momentum"
        mom_prev = x.copy() if momentum_m else None

        # --- engine compilation: everything invariant across events ------
        machine = self.machine
        T = self.n_threads
        throughput = machine.smt_throughput(T)
        sigma = machine.effective_jitter(T)
        ov_base = machine.iteration_overhead / throughput
        compute_base = [
            (
                (th.nnz_hi - th.nnz_lo) * machine.time_per_nnz
                + (th.hi - th.lo) * machine.time_per_row
            )
            / throughput
            for th in threads
        ]
        slow = [self._slowdown(tid) for tid in range(T)]
        # A constant injected delay lets a thread's jitter stream prefetch
        # (its RNG then serves jitter only); a stochastic model draws from
        # the same RNG, so that thread's stream draws one factor per call
        # and delay and jitter draws interleave in the order the engine
        # corpus pins.
        const_extra = [self.delay.constant_extra(tid) for tid in range(T)]
        delay_hung = type(self.delay).is_hung is not DelayModel.is_hung

        # Per-thread relax kernels over preallocated buffers. The one
        # remaining allocation per relaxation is the bincount output
        # (np.bincount has no ``out=``; a sequential-order row sum cannot
        # use ``reduceat``, whose pairwise summation rounds differently);
        # every other intermediate is written in place, bit-identical to
        # the allocating expressions it replaces.
        cols_seg = [cols[th.nnz_lo : th.nnz_hi] for th in threads]
        data_seg = [data[th.nnz_lo : th.nnz_hi] for th in threads]
        b_seg = [b[th.lo : th.hi] for th in threads]
        dinv_seg = [dinv[th.lo : th.hi] for th in threads]
        x_seg = [x[th.lo : th.hi] for th in threads]
        gather_buf = [np.empty(th.nnz_hi - th.nnz_lo) for th in threads]
        r_buf = [np.empty(th.hi - th.lo) for th in threads]
        pending_buf = [np.empty(th.hi - th.lo) for th in threads]
        dx_buf = [np.empty(th.hi - th.lo) for th in threads]
        scatter = [
            A.column_scatter_plan(np.arange(th.lo, th.hi, dtype=np.int64))
            for th in threads
        ]
        has_plan = bool(plan)
        # Single-row blocks (one thread per row — the Figure 3/4 shape)
        # relax in pure scalar arithmetic: the sequential ``s += a*x[c]``
        # fold matches bincount's accumulation order bit for bit, and the
        # per-call NumPy dispatch (~1 µs x 6 kernels) disappears.
        one_row = [th.hi - th.lo == 1 for th in threads]
        row_pairs = [
            list(zip(cols_seg[i].tolist(), data_seg[i].tolist()))
            if one_row[i]
            else None
            for i in range(T)
        ]
        b0 = [float(b_seg[i][0]) if one_row[i] else 0.0 for i in range(T)]
        dinv0 = [float(dinv_seg[i][0]) if one_row[i] else 0.0 for i in range(T)]

        mom_prev_seg = (
            [mom_prev[th.lo : th.hi] for th in threads] if momentum_m else None
        )

        def relax(tid: int) -> None:
            """One block relaxation into the thread's pending buffer."""
            if one_row[tid]:
                # A one-row block is the same update for every method kind
                # except momentum (a sequential sweep of one row is the
                # scaled update).
                s = 0.0
                for c, a in row_pairs[tid]:
                    s += a * x[c]
                lo = threads[tid].lo
                pv = x[lo] + dinv0[tid] * (b0[tid] - s)
                if momentum_m:
                    pv += mom_beta * (x[lo] - mom_prev[lo])
                    mom_prev[lo] = x[lo]
                pending_buf[tid][0] = pv
                return
            th = threads[tid]
            if seq_m:
                sor_block_pending(A, b, dinv, x, th.lo, th.hi, pending_buf[tid])
                return
            g = gather_buf[tid]
            rb = r_buf[tid]
            x.take(cols_seg[tid], out=g)
            np.multiply(data_seg[tid], g, out=g)
            rsum = np.bincount(
                threads[tid].rowid_local, weights=g, minlength=rb.size
            )
            np.subtract(b_seg[tid], rsum, out=rb)
            np.multiply(dinv_seg[tid], rb, out=rb)
            np.add(x_seg[tid], rb, out=pending_buf[tid])
            if momentum_m:
                pb = pending_buf[tid]
                pb += mom_beta * (x_seg[tid] - mom_prev_seg[tid])
                mom_prev_seg[tid][:] = x_seg[tid]

        # Per-core run queues implementing iteration-granularity round-robin.
        core_queue = [deque() for _ in range(self.n_cores)]
        core_busy = [False] * self.n_cores
        queue = HeapEventQueue()

        def request_run(th: _Thread, t: float) -> None:
            """Thread asks to run its next iteration at time t."""
            c = th.core
            if core_busy[c]:
                core_queue[c].append(th.tid)
            else:
                core_busy[c] = True
                queue.push(t, _START, th.tid)

        def release_core(core: int, t: float) -> None:
            """Core finished an iteration; start the next queued thread."""
            if core_queue[core]:
                queue.push(t, _START, core_queue[core].popleft())
            else:
                core_busy[core] = False

        # Stagger initial requests slightly: threads never begin in perfect
        # lockstep on real hardware.
        order = np.argsort([th.rng.random() for th in threads])
        for rank, tid in enumerate(order):
            request_run(threads[tid], float(rank) * 1e-9)
        # One jitter stream per thread (a zero sigma yields 1.0 and draws
        # nothing). They draw only after the stagger draws above, so the
        # RNG call order matches the scalar implementation exactly.
        streams = [
            JitterStream(
                threads[tid].rng, sigma,
                chunk=512 if const_extra[tid] is not None else 1,
            )
            for tid in range(T)
        ]

        obs = ResidualObserver(
            self._residual, x, vector_norm(b, 1), tol, recompute_every, trc
        )
        # The observer's residual buffer, maintained at every commit.
        r_vec = obs.r
        observe = obs.observe
        relaxations = 0
        commits_since_obs = 0
        observe_every = self.n_threads if observe_every is None else int(observe_every)
        converged = obs.residuals[0] < tol
        t_end = 0.0
        hard_cap = 100 * max_iterations

        def crash_wake(tid: int, t: float) -> None:
            """Schedule the thread's post-restart wake-up, if one is coming."""
            if trc is not None:
                trc.fault(t, tid, "crash")
            restart = plan.next_restart(tid, t)
            if restart is not None:
                tm.restarts.append((tid, restart))
                if trc is not None:
                    trc.fault(restart, tid, "restart")
                queue.push(restart, _REQUEST, tid)

        while queue and not converged:
            t, kind, tid, _ = queue.pop()
            th = threads[tid]
            if kind == _REQUEST:
                # A delayed (or restarted) thread's wake-up: ask for the
                # core again.
                request_run(th, t)
            elif kind == _START:
                if (delay_hung and self.delay.is_hung(tid, t)) or th.stopped:
                    release_core(th.core, t)
                    continue
                if has_plan and plan.is_down(tid, t):
                    # Thread death: the chain ends here; a scripted
                    # restart resumes from the then-current iterate.
                    release_core(th.core, t)
                    crash_wake(tid, t)
                    continue
                # Read-to-write span: snapshot reads now, write at COMMIT.
                relax(tid)
                if trace_reads:
                    th.pending_reads = [
                        {int(j): int(version[j]) for j in nbrs}
                        for nbrs in th.neighbors_per_row
                    ]
                compute = compute_base[tid] * streams[tid].next() * slow[tid]
                queue.push(t + compute, _COMMIT, tid)
            elif kind == _COMMIT:
                if has_plan and plan.is_down(tid, t):
                    # Died inside the read-to-write span: update lost.
                    release_core(th.core, t)
                    crash_wake(tid, t)
                    continue
                lo, hi = th.lo, th.hi
                pb = pending_buf[tid]
                if one_row[tid]:
                    pv = pb[0]
                    d0 = pv - x[lo]
                    x[lo] = pv
                    scatter[tid].apply1(r_vec, d0)
                else:
                    np.subtract(pb, x_seg[tid], out=dx_buf[tid])
                    x_seg[tid][:] = pb
                    scatter[tid].apply(r_vec, dx_buf[tid])
                th.iterations += 1
                relaxations += hi - lo
                t_end = t
                if trace_reads:
                    # Staleness per row: how many commits behind the
                    # freshest neighbor read was, measured pre-bump.
                    stale = [
                        max(
                            (int(version[j]) - ver for j, ver in reads.items()),
                            default=0,
                        )
                        for reads in th.pending_reads
                    ]
                    trc.relax(
                        t, tid, range(lo, hi),
                        reads=th.pending_reads, staleness=stale,
                    )
                    version[lo:hi] += 1
                elif trc is not None:
                    trc.relax(t, tid, range(lo, hi))
                commits_since_obs += 1
                if commits_since_obs >= observe_every:
                    commits_since_obs = 0
                    res = observe(t, relaxations)
                    if res < tol:
                        converged = True
                        if trc is not None:
                            trc.convergence(t, res, tol)
                        break
                # Post-span per-iteration overhead (norms, flags) still
                # occupies the core; the core frees at RELEASE.
                overhead = ov_base * streams[tid].next() * slow[tid]
                queue.push(t + overhead, _RELEASE, tid)
            else:  # _RELEASE
                # Decide whether this thread keeps iterating.
                if run_until_all_reach:
                    # The hard cap keeps the run finite if some thread
                    # hangs (min would then never reach the target).
                    if (
                        min(tt.iterations for tt in threads) >= max_iterations
                        or th.iterations >= hard_cap
                    ):
                        th.stopped = True
                elif th.iterations >= max_iterations:
                    th.stopped = True
                release_core(th.core, t)
                if has_plan and plan.is_down(tid, t):
                    # The overhead span has positive width, so a crash
                    # whose onset falls in (commit, release] is first
                    # seen here: the update was published, but the
                    # thread dies before requesting the core again.
                    crash_wake(tid, t)
                elif not th.stopped:
                    # Injected sleeps happen off-core, before re-queueing.
                    ce = const_extra[tid]
                    extra = (
                        ce
                        if ce is not None
                        else self.delay.extra_time(tid, th.iterations, th.rng)
                    )
                    if extra > 0:
                        if trc is not None:
                            trc.delay(t, tid, extra)
                        queue.push(t + extra, _REQUEST, tid)
                    else:
                        request_run(th, t)

        # Final observation — only if a commit landed since the last one.
        converged = obs.finish(t_end, relaxations, commits_since_obs, converged)
        # Degraded mode in shared memory needs no detector: the crash
        # windows are the intervals during which a block went unrelaxed.
        for tid in sorted(plan.agents()):
            for crash_at, restart_at in plan.crash_times(tid):
                if crash_at < t_end:
                    tm.degraded_intervals.append((crash_at, min(restart_at, t_end)))
        if trc is not None:
            trc.run_end(t_end, converged, relaxations)
        return SimulationResult(
            x=x,
            converged=converged,
            times=obs.times,
            residual_norms=obs.residuals,
            relaxation_counts=obs.counts,
            iterations=np.array([th.iterations for th in threads]),
            total_time=t_end,
            mode="async",
            telemetry=tm,
            loop="general",
        )

    # ------------------------------------------------------------------
    def run_sync(
        self,
        x0=None,
        tol: float = 1e-3,
        max_iterations: int = 10_000,
    ) -> SimulationResult:
        """Synchronous execution: barrier after every sweep.

        Each sweep is exact Jacobi; its simulated duration is the *maximum
        per-core* duration — cores run their pinned threads' iterations
        back to back, everyone waits for the slowest core (including any
        injected delay) — plus the barrier cost. ``max_iterations`` must
        be a positive integer (``ValueError`` otherwise).
        """
        max_iterations = check_positive_int(max_iterations, "max_iterations")
        check_positive(tol, "tol")
        if self.fault_plan.agents():
            raise SimulationError(
                "synchronous mode deadlocks on a crashed thread (the barrier "
                "never completes); run mode='async' or drop the fault plan"
            )
        A, b, dinv = self.A, self.b, self.dinv
        x = np.zeros(self.n) if x0 is None else check_vector(x0, self.n, "x0").copy()
        threads = self._make_threads(trace_reads=False)
        barrier = self.machine.barrier_cost(self.n_threads)

        # One SpMV per sweep: the residual that drives the update is also
        # the one observed after the *previous* sweep (a drift-free
        # observer recomputes it at every observation), so recomputing it
        # for the convergence check would double the work for nothing.
        obs = ResidualObserver(self._residual, x, vector_norm(b, 1), tol, 1)
        r = obs.r
        t = 0.0
        relaxations = 0
        k = 0
        converged = obs.residuals[0] < tol
        core_time = np.zeros(self.n_cores)
        scaled_m = self.method.is_scaled
        seq_m = self.method.kind == "sequential"
        mom_beta = self.method.beta
        mom_prev = None if scaled_m or seq_m else x.copy()
        all_rows = None if scaled_m else np.arange(self.n, dtype=np.int64)
        while not converged and k < max_iterations:
            core_time[:] = 0.0
            for th in threads:
                core_time[th.core] += self._duration(th, k)
            t += float(core_time.max()) + barrier
            if scaled_m:
                x += dinv * r
            elif seq_m:
                # One synchronous SOR sweep: blocks in thread order, rows
                # sequential within each (thread blocks are contiguous and
                # ascending, so this is a full forward sweep).
                sor_step_dense(A, b, dinv, x, all_rows)
            else:
                dx = dinv * r + mom_beta * (x - mom_prev)
                mom_prev[:] = x
                x += dx
            relaxations += self.n
            k += 1
            converged = obs.observe(t, relaxations) < tol
        return SimulationResult(
            x=x,
            converged=converged,
            times=obs.times,
            residual_norms=obs.residuals,
            relaxation_counts=obs.counts,
            iterations=np.full(self.n_threads, k),
            total_time=t,
            mode="sync",
            loop="sync",
        )

    def run(self, mode: str, **kwargs) -> SimulationResult:
        """Dispatch to :meth:`run_async` or :meth:`run_sync` by name."""
        if mode == "async":
            return self.run_async(**kwargs)
        if mode == "sync":
            return self.run_sync(**kwargs)
        raise ValueError(f"mode must be 'sync' or 'async', got {mode!r}")
