"""Pre-engine asynchronous simulator implementations (escape hatch).

These are the asynchronous event loops of :class:`SharedMemoryJacobi` and
:class:`DistributedJacobi` exactly as they stood before the typed event
engine (:mod:`repro.runtime.engine`) landed: a generic
:class:`~repro.runtime.events.EventQueue` of ad-hoc payload tuples, a
fresh ``np.concatenate`` per distributed relaxation, scalar per-call RNG
draws, and a per-commit CSC scatter rebuilt from scratch.

They are kept for **one release** as the ``legacy_engine=True`` escape
hatch on both simulators' ``run_async`` and as the oracle for the engine
equivalence tests (``tests/runtime/test_engine_equivalence.py``): the new
engine must produce bit-identical trajectories — same x, same residual
history, same telemetry, same trace stream — for every configuration.
Nothing else should call into this module.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.methods.kernels import sor_block_pending
from repro.observability.tracer import resolve as resolve_tracer
from repro.runtime.events import EventQueue
from repro.runtime.results import FaultTelemetry, SimulationResult
from repro.util.norms import vector_norm
from repro.util.rng import as_rng
from repro.util.validation import check_positive, check_vector

__all__ = ["shared_run_async", "distributed_run_async", "distributed_run_sync"]

# Shared-memory event kinds (identical to repro.runtime.shared).
_START, _COMMIT, _RELEASE, _REQUEST = 0, 1, 2, 3

# Distributed event kinds (identical to repro.runtime.distributed).
(
    _D_START,
    _D_COMMIT,
    _D_MESSAGE,
    _D_REPORT,
    _D_STOP,
    _D_ACK,
    _D_RETRY,
    _D_HEARTBEAT,
    _D_HB_ARRIVE,
    _D_HB_CHECK,
    _D_RESTART,
    _D_FAIL_NOTICE,
) = range(12)

_HB_KINDS = frozenset({_D_HEARTBEAT, _D_HB_ARRIVE, _D_HB_CHECK})


def shared_run_async(
    sim,
    x0=None,
    tol: float = 1e-3,
    max_iterations: int = 10_000,
    observe_every: int | None = None,
    run_until_all_reach: bool = False,
    recompute_every: int = 64,
    tracer=None,
) -> SimulationResult:
    """The pre-engine ``SharedMemoryJacobi.run_async`` body, verbatim."""
    check_positive(tol, "tol")
    A, b, dinv = sim.A, sim.b, sim.dinv
    x = np.zeros(sim.n) if x0 is None else check_vector(x0, sim.n, "x0").copy()
    data, cols = A.data, A.indices

    # Resolved once: a missing or all-null-sink tracer costs one branch
    # per event afterwards (see repro.observability.tracer.resolve).
    trc = resolve_tracer(tracer)
    trace_reads = trc is not None and trc.trace_reads
    threads = sim._make_threads(trace_reads)
    version = np.zeros(sim.n, dtype=np.int64) if trace_reads else None
    plan = sim.fault_plan
    tm = FaultTelemetry()
    if trc is not None:
        trc.run_start(
            "SharedMemoryJacobi", sim.n, n_threads=sim.n_threads, tol=tol,
            omega=sim.omega, method=sim.method.name,
        )
    # Method dispatch mirrors the engine loop: sequential blocks relax
    # through the shared ordered kernel, momentum carries one previous
    # iterate; scaled methods are the verbatim pre-method arithmetic.
    seq_m = sim.method.kind == "sequential"
    mom_beta = sim.method.beta
    momentum_m = sim.method.kind == "momentum"
    mom_prev = x.copy() if momentum_m else None

    # Per-core run queues implementing iteration-granularity round-robin.
    core_queue = [deque() for _ in range(sim.n_cores)]
    core_busy = [False] * sim.n_cores
    queue = EventQueue()

    def request_run(th, t: float) -> None:
        """Thread asks to run its next iteration at time t."""
        c = th.core
        if core_busy[c]:
            core_queue[c].append(th.tid)
        else:
            core_busy[c] = True
            queue.push(t, (_START, th.tid))

    def release_core(core: int, t: float) -> None:
        """Core finished an iteration; start the next queued thread."""
        if core_queue[core]:
            queue.push(t, (_START, core_queue[core].popleft()))
        else:
            core_busy[core] = False

    # Stagger initial requests slightly: threads never begin in perfect
    # lockstep on real hardware.
    order = np.argsort([th.rng.random() for th in threads])
    for rank, tid in enumerate(order):
        request_run(threads[tid], float(rank) * 1e-9)

    b_norm = vector_norm(b, 1)

    def relnorm(res_vec) -> float:
        num = vector_norm(res_vec, 1)
        return num / b_norm if b_norm > 0 else num

    # The observer's residual, maintained at every commit.
    r_vec = b - A.matvec(x)
    obs_since_recompute = 0
    block_cols = [np.arange(th.lo, th.hi, dtype=np.int64) for th in threads]

    def observe_residual() -> float:
        """Current relative residual (recomputed when due or crossing)."""
        nonlocal r_vec, obs_since_recompute
        obs_since_recompute += 1
        if recompute_every and obs_since_recompute >= recompute_every:
            r_vec = b - A.matvec(x)
            obs_since_recompute = 0
        res = relnorm(r_vec)
        if res < tol:
            # Confirm the crossing against a drift-free residual.
            r_vec = b - A.matvec(x)
            obs_since_recompute = 0
            res = relnorm(r_vec)
        return res

    res0 = relnorm(r_vec)
    times, residuals, counts = [0.0], [res0], [0]
    relaxations = 0
    commits_since_obs = 0
    observe_every = sim.n_threads if observe_every is None else int(observe_every)
    converged = res0 < tol
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
            queue.push(restart, (_REQUEST, tid))

    machine = sim.machine
    while queue and not converged:
        t, (kind, tid) = queue.pop()
        th = threads[tid]
        if kind == _REQUEST:
            # A delayed (or restarted) thread's wake-up: ask for the
            # core again.
            request_run(th, t)
        elif kind == _START:
            if sim.delay.is_hung(tid, t) or th.stopped:
                release_core(th.core, t)
                continue
            if plan and plan.is_down(tid, t):
                # Thread death: the chain ends here; a scripted restart
                # resumes it from the then-current shared iterate.
                release_core(th.core, t)
                crash_wake(tid, t)
                continue
            # Read-to-write span: snapshot reads now, writes at COMMIT.
            lo, hi = th.lo, th.hi
            if seq_m and hi - lo > 1:
                pend = np.empty(hi - lo)
                sor_block_pending(A, b, dinv, x, lo, hi, pend)
                th.pending = pend
            else:
                seg = data[th.nnz_lo : th.nnz_hi] * x[cols[th.nnz_lo : th.nnz_hi]]
                r = b[lo:hi] - np.bincount(
                    th.rowid_local, weights=seg, minlength=hi - lo
                )
                th.pending = x[lo:hi] + dinv[lo:hi] * r
                if momentum_m:
                    th.pending += mom_beta * (x[lo:hi] - mom_prev[lo:hi])
                    mom_prev[lo:hi] = x[lo:hi]
            if trace_reads:
                th.pending_reads = [
                    {int(j): int(version[j]) for j in nbrs}
                    for nbrs in th.neighbors_per_row
                ]
            compute = machine.compute_duration(
                th.nnz_hi - th.nnz_lo, hi - lo, sim.n_threads, th.rng
            ) * sim._slowdown(tid)
            queue.push(t + compute, (_COMMIT, tid))
        elif kind == _COMMIT:
            if plan and plan.is_down(tid, t):
                # Died inside the read-to-write span: the update is lost.
                release_core(th.core, t)
                crash_wake(tid, t)
                continue
            lo, hi = th.lo, th.hi
            dx = th.pending - x[lo:hi]
            x[lo:hi] = th.pending
            A.subtract_columns_update(r_vec, block_cols[tid], dx)
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
                res = observe_residual()
                times.append(t)
                residuals.append(res)
                counts.append(relaxations)
                if trc is not None:
                    trc.observe(t, res, relaxations)
                if res < tol:
                    converged = True
                    if trc is not None:
                        trc.convergence(t, res, tol)
                    break
            # Post-span per-iteration overhead (norms, flags) still
            # occupies the core; the core frees at RELEASE.
            overhead = machine.overhead_duration(sim.n_threads, th.rng)
            overhead *= sim._slowdown(tid)
            queue.push(t + overhead, (_RELEASE, tid))
        else:  # _RELEASE
            # Decide whether this thread keeps iterating.
            if run_until_all_reach:
                # The hard cap keeps the run finite if some thread hangs
                # (min would then never reach the target).
                if (
                    min(tt.iterations for tt in threads) >= max_iterations
                    or th.iterations >= hard_cap
                ):
                    th.stopped = True
            elif th.iterations >= max_iterations:
                th.stopped = True
            release_core(th.core, t)
            if plan and plan.is_down(tid, t):
                # The overhead span has positive width, so a crash whose
                # onset falls in (commit, release] is first seen here:
                # the update was published, but the thread dies before
                # requesting the core again.
                crash_wake(tid, t)
            elif not th.stopped:
                # Injected sleeps happen off-core, before re-queueing.
                extra = sim.delay.extra_time(tid, th.iterations, th.rng)
                if extra > 0:
                    if trc is not None:
                        trc.delay(t, tid, extra)
                    queue.push(t + extra, (_REQUEST, tid))
                else:
                    request_run(th, t)

    # Final observation — only if a commit landed since the last one
    # (the dirty flag); otherwise the recorded history is already
    # current and recomputing the residual would be pure waste.
    if commits_since_obs:
        res = observe_residual()
        times.append(max(t_end, times[-1]))
        residuals.append(res)
        counts.append(relaxations)
        if trc is not None:
            trc.observe(times[-1], res, relaxations)
            if not converged and res < tol:
                trc.convergence(times[-1], res, tol)
    else:
        res = residuals[-1]
    converged = converged or res < tol
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
        times=times,
        residual_norms=residuals,
        relaxation_counts=counts,
        iterations=np.array([th.iterations for th in threads]),
        total_time=t_end,
        mode="async",
        telemetry=tm,
    )


def distributed_run_async(
    sim,
    x0=None,
    tol: float = 1e-3,
    max_iterations: int = 10_000,
    observe_every: int | None = None,
    eager: bool = False,
    termination: str = "count",
    report_every: int = 4,
    recompute_every: int = 64,
    tracer=None,
) -> SimulationResult:
    """The pre-engine ``DistributedJacobi.run_async`` body, verbatim."""
    _START, _COMMIT, _MESSAGE, _REPORT, _STOP, _ACK, _RETRY = (
        _D_START, _D_COMMIT, _D_MESSAGE, _D_REPORT, _D_STOP, _D_ACK, _D_RETRY,
    )
    _HEARTBEAT, _HB_ARRIVE, _HB_CHECK, _RESTART, _FAIL_NOTICE = (
        _D_HEARTBEAT, _D_HB_ARRIVE, _D_HB_CHECK, _D_RESTART, _D_FAIL_NOTICE,
    )
    check_positive(tol, "tol")
    if termination not in ("count", "detect"):
        raise ValueError(
            f"termination must be 'count' or 'detect', got {termination!r}"
        )
    A, b, dinv = sim.A, sim.b, sim.dinv
    x = np.zeros(sim.n) if x0 is None else check_vector(x0, sim.n, "x0").copy()
    mom_prev = x.copy() if sim.method.kind == "momentum" else None
    ranks = sim._compile_ranks()
    net = sim.cluster.network
    plan = sim.fault_plan
    reliable = sim.reliable
    fs = sim.fault_seed if sim.fault_seed is not None else plan.seed
    if fs is not None:
        fail_rng = as_rng(fs)
    else:
        fail_rng = as_rng(None if sim.seed is None else (int(sim.seed) ^ 0x5EED))
    tm = FaultTelemetry()

    # Ghost layers start from the initial iterate.
    for rk in ranks:
        if rk.ghost_cols.size:
            rk.ghosts[:] = x[rk.ghost_cols]

    # Resolved once: a missing or all-null-sink tracer costs one branch
    # per event afterwards (see repro.observability.tracer.resolve).
    trc = resolve_tracer(tracer)
    trace_reads = trc is not None and trc.trace_reads
    version = None
    if trace_reads:
        # Read-version capture: the global commit ledger, each ghost
        # value's version, and each local row's neighbor layout split
        # into own-block columns and ghost slots.
        version = np.zeros(sim.n, dtype=np.int64)
        owner = sim.decomposition.labels
        for rk in ranks:
            slots = {int(g): i for i, g in enumerate(rk.ghost_cols)}
            rk.ghost_ver = np.zeros(rk.ghost_cols.size, dtype=np.int64)
            rk.read_map = []
            for g in rk.rows:
                own, ghost = [], []
                for j in A.neighbors(int(g)):
                    j = int(j)
                    if owner[j] == rk.rank:
                        own.append(j)
                    else:
                        ghost.append((j, slots[j]))
                rk.read_map.append((own, ghost))
    if trc is not None:
        trc.run_start(
            "DistributedJacobi", sim.n, n_ranks=sim.n_ranks, tol=tol,
            omega=sim.omega, termination=termination,
            reliable=reliable, eager=eager,
            method=sim.method.name,
        )

    queue = EventQueue()
    queue.extend(
        (
            float(rk.rng.random()) * sim.cluster.node.iteration_overhead,
            (_START, rk.rank, rk.epoch),
        )
        for rk in ranks
    )
    # Scripted restarts are known up front; crashes need no event — the
    # plan is consulted at every START/COMMIT/MESSAGE touching the rank.
    for r in sorted(plan.agents()):
        for rt in plan.restart_times(r):
            queue.push(rt, (_RESTART, r, None))

    def down(r: int, t: float) -> bool:
        return plan.is_down(r, t)

    obs_b_norm = vector_norm(b, 1)

    def relnorm(res_vec) -> float:
        num = vector_norm(res_vec, 1)
        return num / obs_b_norm if obs_b_norm > 0 else num

    # The observer's maintained residual.
    r_vec = b - A.matvec(x)
    obs_since_recompute = 0

    def observe_residual() -> float:
        nonlocal r_vec, obs_since_recompute
        obs_since_recompute += 1
        if recompute_every and obs_since_recompute >= recompute_every:
            r_vec = b - A.matvec(x)
            obs_since_recompute = 0
        res = relnorm(r_vec)
        if res < tol:
            # Confirm the crossing against a drift-free residual.
            r_vec = b - A.matvec(x)
            obs_since_recompute = 0
            res = relnorm(r_vec)
        return res

    def commit_rows(block) -> None:
        """Publish a block's pending update, maintaining the residual."""
        dx = block.pending - x[block.rows]
        x[block.rows] = block.pending
        A.subtract_columns_update(r_vec, block.rows, dx)
        if version is not None:
            version[block.rows] += 1

    def capture_reads(block) -> None:
        """Snapshot the versions this relaxation reads (at START)."""
        reads = []
        for own, ghost in block.read_map:
            d = {j: int(version[j]) for j in own}
            for j, slot in ghost:
                d[j] = int(block.ghost_ver[slot])
            reads.append(d)
        block.pending_reads = reads

    def emit_relax(block, t: float) -> None:
        """Relax event for one block commit (staleness measured pre-bump)."""
        if trace_reads:
            stale = [
                max((int(version[j]) - v for j, v in d.items()), default=0)
                for d in block.pending_reads
            ]
            trc.relax(
                t, block.rank, block.rows,
                reads=block.pending_reads, staleness=stale,
            )
        else:
            trc.relax(t, block.rank, block.rows)

    res0 = relnorm(r_vec)
    times, residuals, counts = [0.0], [res0], [0]
    relaxations = 0
    commits_since_obs = 0
    observe_every = sim.n_ranks if observe_every is None else int(observe_every)
    converged = res0 < tol
    t_end = 0.0

    # Eager-mode bookkeeping: has rank seen fresh data since last relax?
    fresh = [True] * sim.n_ranks
    idle = [False] * sim.n_ranks
    # Incoming-neighbour sets: which ranks put into rid's ghost layer.
    senders = [set() for _ in range(sim.n_ranks)]
    for rk in ranks:
        for q, _, _ in rk.send_plan:
            senders[q].add(rk.rank)
    # Termination detection state (rank 0 is the detector).
    b_norm = float(np.sum(np.abs(b))) or 1.0
    reported = np.full(sim.n_ranks, np.inf)
    if termination == "detect":
        reported[:] = [
            float(np.sum(np.abs(b[rk.rows] - rk.local.matvec(
                np.concatenate((x[rk.rows], rk.ghosts))
            ))))
            for rk in ranks
        ]
    stop_broadcast = False

    # Heartbeat failure detection (rank 0 is also the detector).
    heartbeats_on = (
        sim.recovery != "none"
        and sim.n_ranks > 1
        and (bool(plan) or sim.heartbeat_interval is not None)
    )
    hb_interval = (
        sim.heartbeat_interval
        if sim.heartbeat_interval is not None
        else 10.0 * (sim.cluster.node.iteration_overhead + 2.0 * net.latency)
    )
    hb_timeout = sim.heartbeat_miss * hb_interval
    last_hb = [0.0] * sim.n_ranks
    hb_chain_alive = [False] * sim.n_ranks
    hb_stopped = False  # set once the run is quiescent; chains then end
    presumed_dead = [False] * sim.n_ranks
    adopted_by: dict = {}  # dead rank -> adopter rank
    adopters: dict = {}  # adopter rank -> [dead ranks]
    adopt_snapshot: dict = {}  # adopter rank -> dead ranks read at START
    degraded_since = None
    if heartbeats_on:
        for rk in ranks:
            hb_chain_alive[rk.rank] = True
            queue.push(
                float(rk.rng.random()) * hb_interval, (_HEARTBEAT, rk.rank, None)
            )
        queue.push(hb_interval, (_HB_CHECK, 0, None))

    # Reliable-put protocol state, keyed by directed channel (src, dst).
    next_seq: dict = {}  # channel -> next sequence number
    applied_seq: dict = {}  # channel -> newest applied sequence number
    outstanding: dict = {}  # channel -> {seq: [slots, values, attempts, rto]}

    def rto(n_values: int) -> float:
        """Base retransmission timeout: a generous round-trip multiple."""
        if sim.ack_timeout is not None:
            return sim.ack_timeout
        return 6.0 * (2.0 * net.latency + n_values * net.time_per_value)

    def control_lost(src: int, dst: int, t: float) -> bool:
        """Loss roll for a small control message (ack/heartbeat/report)."""
        if plan.blocks_message(src, dst, t):
            return True
        p = sim.drop_probability
        burst = plan.drop_probability(src, t)
        if burst:
            p = 1.0 - (1.0 - p) * (1.0 - burst)
        return bool(p) and fail_rng.random() < p

    def transmit(ch, seq: int, rec, t: float) -> None:
        """One (re)transmission of a reliable put + its retry timer."""
        p, q = ch
        slots_q, values, timeout = rec[0], rec[1], rec[3]
        if trc is not None:
            trc.send(t, p, q, values.size, seq=seq)
        corrupted = False
        pc = plan.corrupt_probability(p, t)
        if pc and fail_rng.random() < pc:
            corrupted = True
        lost = bool(
            sim.drop_probability and fail_rng.random() < sim.drop_probability
        )
        if not lost and plan:
            if plan.blocks_message(p, q, t):
                lost = True
            else:
                pb = plan.drop_probability(p, t)
                lost = bool(pb) and fail_rng.random() < pb
        intra = sim._same_node(p, q)
        if lost:
            tm.puts_dropped += 1
            if trc is not None:
                trc.fault(t, p, "put_dropped", dst=q)
        else:
            meta = None
            if trc is not None:
                meta = {"sent_at": t}
                if rec[4] is not None:
                    meta["vers"] = rec[4]
            arrival = t + net.message_time(values.size, ranks[p].rng, intra_node=intra)
            queue.push(arrival, (_MESSAGE, q, (p, seq, slots_q, values, corrupted, meta)))
            if (
                sim.duplicate_probability
                and fail_rng.random() < sim.duplicate_probability
            ):
                arrival = t + net.message_time(
                    values.size, ranks[p].rng, intra_node=intra
                )
                queue.push(
                    arrival, (_MESSAGE, q, (p, seq, slots_q, values, corrupted, meta))
                )
        queue.push(t + timeout, (_RETRY, p, (q, seq)))

    def send_reliable(rk, q: int, slots_q, values, t: float, vers=None) -> None:
        ch = (rk.rank, q)
        seq = next_seq.get(ch, 0)
        next_seq[ch] = seq + 1
        tm.puts_sent += 1
        rec = [slots_q, values, 0, rto(values.size), vers]
        outstanding.setdefault(ch, {})[seq] = rec
        transmit(ch, seq, rec, t)

    def fire_puts(rk, t: float) -> None:
        if reliable:
            for q, slots_q, local_rows in rk.send_plan:
                # The put carries the just-committed values, so their
                # versions are snapshotted once; retransmissions resend
                # the same payload.
                vers = version[rk.rows[local_rows]].copy() if trace_reads else None
                send_reliable(rk, q, slots_q, rk.pending[local_rows].copy(), t, vers)
            return
        # Fire-and-forget RMA puts (the seed's failure-injection path;
        # RNG call order kept bit-identical for plan-free runs).
        for q, slots_q, local_rows in rk.send_plan:
            tm.puts_sent += 1
            if trc is not None:
                trc.send(t, rk.rank, q, local_rows.size)
            if sim.drop_probability and fail_rng.random() < sim.drop_probability:
                tm.puts_dropped += 1
                if trc is not None:
                    trc.fault(t, rk.rank, "put_dropped", dst=q)
                continue
            if plan:
                if plan.blocks_message(rk.rank, q, t):
                    tm.puts_dropped += 1
                    if trc is not None:
                        trc.fault(t, rk.rank, "put_dropped", dst=q)
                    continue
                pb = plan.drop_probability(rk.rank, t)
                if pb and fail_rng.random() < pb:
                    tm.puts_dropped += 1
                    if trc is not None:
                        trc.fault(t, rk.rank, "put_dropped", dst=q)
                    continue
                pc = plan.corrupt_probability(rk.rank, t)
                if pc and fail_rng.random() < pc:
                    # No checksum without the protocol: the garbage put
                    # is modeled as lost at the NIC, never applied.
                    tm.puts_corrupted += 1
                    if trc is not None:
                        trc.fault(t, rk.rank, "put_corrupted", dst=q)
                    continue
            values = rk.pending[local_rows]
            meta = None
            if trc is not None:
                meta = {"sent_at": t}
                if trace_reads:
                    meta["vers"] = version[rk.rows[local_rows]].copy()
            n_copies = 1
            if (
                sim.duplicate_probability
                and fail_rng.random() < sim.duplicate_probability
            ):
                n_copies = 2
            intra = sim._same_node(rk.rank, q)
            for _ in range(n_copies):
                arrival = t + net.message_time(values.size, rk.rng, intra_node=intra)
                queue.push(
                    arrival,
                    (_MESSAGE, q, (None, None, slots_q, values.copy(), False, meta)),
                )

    def has_live_source(rid: int, t: float) -> bool:
        """Whether any ghost data could still reach ``rid``, now or later.

        A sender counts as live while it is running or may yet restart.
        A presumed-dead, unadopted sender does not (freeze regime:
        nobody will ever relay its rows); an adopted one does (its
        adopter fires its puts)."""
        for p in senders[rid]:
            if p in adopted_by:
                return True
            if ranks[p].stopped or plan.down_forever(p, t) or presumed_dead[p]:
                continue
            return True
        return False

    def wake_orphans(t: float) -> None:
        """Resume idle eager ranks whose every data source is gone.

        An eager rank parks until a message arrives; once no live
        sender remains, none ever will — the rank must free-run
        against its frozen ghosts (the paper's delayed-until-
        convergence regime) to ``max_iterations`` instead of idling
        forever under a live heartbeat chain (which would keep the
        event loop spinning and hang the run)."""
        if not eager:
            return
        for other in ranks:
            r = other.rank
            if (
                idle[r]
                and not other.stopped
                and not down(r, t)
                and not has_live_source(r, t)
            ):
                idle[r] = False
                queue.push(t, (_START, r, other.epoch))

    def update_degraded(t: float) -> None:
        """Open/close the degraded-mode interval on membership changes."""
        nonlocal degraded_since
        now_degraded = any(
            presumed_dead[r] and r not in adopted_by
            for r in range(sim.n_ranks)
        )
        if now_degraded and degraded_since is None:
            degraded_since = t
        elif not now_degraded and degraded_since is not None:
            tm.degraded_intervals.append((degraded_since, t))
            degraded_since = None

    def maybe_stop(t: float) -> None:
        """Detect-mode stop check over the non-excluded reporters."""
        nonlocal stop_broadcast
        if termination != "detect" or stop_broadcast:
            return
        if plan and down(0, t):
            return  # a crashed detector aggregates nothing, stops nobody
        included = np.array(
            [
                not (presumed_dead[r] and r not in adopted_by)
                for r in range(sim.n_ranks)
            ]
        )
        if float(np.sum(reported[included])) / b_norm < tol:
            stop_broadcast = True
            for other in ranks:
                delay = net.message_time(1, other.rng)
                queue.push(t + delay, (_STOP, other.rank, None))

    def schedule_adoption(dead: int, t: float) -> None:
        """Pick the lowest-ranked live neighbour and notify it."""
        neighbours = sorted({q for q, _, _ in ranks[dead].send_plan})
        others = [p for p in range(sim.n_ranks) if p not in neighbours]
        for p in neighbours + others:
            if p == dead or presumed_dead[p] or ranks[p].stopped:
                continue
            if down(p, t) or plan.down_forever(p, t):
                continue
            queue.push(
                t + net.message_time(1, ranks[0].rng), (_FAIL_NOTICE, p, dead)
            )
            return

    def declare_failed(r: int, t: float) -> None:
        presumed_dead[r] = True
        tm.failures_detected.append((r, t))
        if trc is not None:
            trc.detect(t, r, "dead")
        update_degraded(t)
        if sim.recovery == "adopt":
            schedule_adoption(r, t)
        wake_orphans(t)
        maybe_stop(t)

    def release_adoption(dead: int) -> None:
        adopter = adopted_by.pop(dead, None)
        if adopter is not None:
            adopters[adopter].remove(dead)

    def local_residual_norm(block) -> float:
        """Block residual 1-norm from the rank's current (stale) view."""
        local_x = np.concatenate((x[block.rows], block.ghosts))
        return float(np.sum(np.abs(b[block.rows] - block.local.matvec(local_x))))

    while queue and not converged:
        t, (kind, rid, payload) = queue.pop()
        rk = ranks[rid]
        if kind == _MESSAGE:
            src, seq, slots, values, corrupted, meta = payload
            if plan and down(rid, t):
                # The target window is gone; the put lands nowhere.
                tm.puts_dropped += 1
                continue
            if src is not None:
                # Reliable protocol: checksum, ack, then dedup by seq.
                if corrupted:
                    tm.puts_corrupted += 1
                    if trc is not None:
                        trc.fault(t, rid, "put_corrupted", src=src)
                    continue  # no ack -> the sender's timer retries
                ch = (src, rid)
                if control_lost(rid, src, t):
                    tm.acks_lost += 1
                else:
                    arrival = t + net.message_time(
                        1, rk.rng, intra_node=sim._same_node(rid, src)
                    )
                    queue.push(arrival, (_ACK, src, (rid, seq)))
                if seq <= applied_seq.get(ch, -1):
                    tm.duplicates_suppressed += 1
                    continue
                applied_seq[ch] = seq
            rk.ghosts[slots] = values
            if trace_reads and meta is not None and meta.get("vers") is not None:
                rk.ghost_ver[slots] = meta["vers"]
            tm.puts_delivered += 1
            if trc is not None:
                trc.recv(
                    t, rid, src, values.size, seq=seq,
                    latency=(t - meta["sent_at"]) if meta else None,
                )
            fresh[rid] = True
            if eager and idle[rid] and not rk.stopped:
                idle[rid] = False
                queue.push(t, (_START, rid, rk.epoch))
            continue
        if kind == _ACK:
            src, seq = payload
            pend = outstanding.get((rid, src))
            if pend is not None:
                pend.pop(seq, None)
            if trc is not None:
                trc.ack(t, rid, src, seq)
            continue
        if kind == _RETRY:
            q, seq = payload
            ch = (rid, q)
            rec = outstanding.get(ch, {}).get(seq)
            if rec is None:
                continue  # acked (or abandoned) in the meantime
            if rk.stopped or (plan and down(rid, t)):
                # A dead/stopped sender's protocol state dies with it.
                outstanding[ch].pop(seq, None)
                continue
            rec[2] += 1
            if rec[2] > sim.max_put_retries:
                tm.retry_budget_exhausted += 1
                outstanding[ch].pop(seq, None)
                if trc is not None:
                    trc.fault(t, rid, "retry_exhausted", dst=q, seq=seq)
                continue
            tm.retries += 1
            rec[3] *= 2.0  # exponential backoff
            transmit(ch, seq, rec, t)
            continue
        if kind == _HEARTBEAT:
            # A delay-model hang silences the heartbeat chain too — a hung
            # process cannot beat, which is how the detector learns it is
            # gone. Plan crashes revive the chain at _RESTART; delay hangs
            # are permanent.
            if (
                hb_stopped
                or rk.stopped
                or down(rid, t)
                or sim.delay.is_hung(rid, t)
            ):
                hb_chain_alive[rid] = False
                continue
            tm.heartbeats_sent += 1
            if rid == 0:
                last_hb[0] = t
            elif control_lost(rid, 0, t):
                tm.heartbeats_lost += 1
            else:
                arrival = t + net.message_time(
                    1, rk.rng, intra_node=sim._same_node(rid, 0)
                )
                queue.push(arrival, (_HB_ARRIVE, 0, rid))
            queue.push(t + hb_interval, (_HEARTBEAT, rid, None))
            continue
        if kind == _HB_ARRIVE:
            src = payload
            last_hb[src] = t
            if presumed_dead[src]:
                presumed_dead[src] = False
                tm.recoveries.append((src, t))
                if trc is not None:
                    trc.detect(t, src, "alive")
                release_adoption(src)
                update_degraded(t)
            continue
        if kind == _HB_CHECK:
            if not down(0, t):
                for r in range(1, sim.n_ranks):
                    if presumed_dead[r] or ranks[r].stopped:
                        continue
                    if t - last_hb[r] > hb_timeout:
                        declare_failed(r, t)
            wake_orphans(t)
            # Quiescence: once every rank is finished (or parked on a
            # peer that can only be woken by traffic that no longer
            # exists), stop the detector and let the queue drain —
            # otherwise the self-rescheduling heartbeat chains keep
            # ``while queue`` alive forever.
            quiescent = all(
                other.stopped
                or plan.down_forever(other.rank, t)
                or idle[other.rank]
                or sim.delay.is_hung(other.rank, t)
                for other in ranks
            )
            if quiescent and any(idle):
                # An idle rank is only truly stuck when no data, retry
                # or restart event is still in flight to wake it.
                quiescent = all(
                    pl[0] in _HB_KINDS for pl in queue.pending_payloads()
                )
            if quiescent:
                hb_stopped = True
            else:
                queue.push(t + hb_interval, (_HB_CHECK, 0, None))
            continue
        if kind == _RESTART:
            if rk.stopped:
                continue
            rk.epoch += 1  # invalidate the pre-crash incarnation's events
            if rk.ghost_cols.size:
                rk.ghosts[:] = x[rk.ghost_cols]  # ghost re-sync
                if trace_reads:
                    rk.ghost_ver[:] = version[rk.ghost_cols]
            tm.restarts.append((rid, t))
            if trc is not None:
                trc.fault(t, rid, "restart")
            release_adoption(rid)
            fresh[rid] = True
            idle[rid] = False
            queue.push(t + sim._overhead_time(rk), (_START, rid, rk.epoch))
            if heartbeats_on and not hb_chain_alive[rid]:
                hb_chain_alive[rid] = True
                queue.push(t, (_HEARTBEAT, rid, None))
            continue
        if kind == _FAIL_NOTICE:
            dead = payload
            if not presumed_dead[dead] or dead in adopted_by:
                continue  # recovered or already adopted: moot
            if rk.stopped or down(rid, t):
                schedule_adoption(dead, t)  # pass it on to someone alive
                continue
            adopted_by[dead] = rid
            adopters.setdefault(rid, []).append(dead)
            drk = ranks[dead]
            if drk.ghost_cols.size:
                drk.ghosts[:] = x[drk.ghost_cols]  # ghost re-sync
                if trace_reads:
                    drk.ghost_ver[:] = version[drk.ghost_cols]
            tm.adoptions.append((dead, rid, t))
            if trc is not None:
                trc.detect(t, dead, "adopted")
            update_degraded(t)
            if eager and idle[rid] and not rk.stopped:
                idle[rid] = False
                queue.push(t, (_START, rid, rk.epoch))
            continue
        if kind == _REPORT:
            # A rank's residual report reaches the detector (rank 0);
            # while rank 0 is scripted down the report lands nowhere.
            if plan and down(0, t):
                continue
            reported[rid] = payload
            maybe_stop(t)
            continue
        if kind == _STOP:
            rk.stopped = True
            continue
        if kind == _START:
            if payload != rk.epoch:
                continue  # scheduled by a pre-crash incarnation
            if sim.delay.is_hung(rid, t) or rk.stopped or down(rid, t):
                if trc is not None and not rk.stopped and down(rid, t):
                    trc.fault(t, rid, "crash")
                continue
            if eager and not fresh[rid] and rk.ghost_cols.size and (
                not heartbeats_on or has_live_source(rid, t)
            ):
                # Nothing new to compute with: go idle until a message.
                # With detection on, a rank with no live sender left
                # keeps running instead — nothing would ever wake it.
                idle[rid] = True
                continue
            fresh[rid] = False
            # Read-to-write span: reads (own + ghosts) now, write at COMMIT.
            rk.pending = sim._relax_block(rk, x, mom_prev)
            if trace_reads:
                capture_reads(rk)
            snap = list(adopters.get(rid, ()))
            adopt_snapshot[rid] = snap
            if termination == "detect" and rk.iterations % report_every == 0:
                # Local residual norm from the same (possibly stale) view.
                arrival = t + net.message_time(1, rk.rng)
                queue.push(arrival, (_REPORT, rid, local_residual_norm(rk)))
            compute = sim._compute_time(rk)
            for d in snap:
                # Hosting an adopted block: refresh its ghost layer from
                # the committed state, relax it, pay its compute time.
                drk = ranks[d]
                if drk.ghost_cols.size:
                    drk.ghosts[:] = x[drk.ghost_cols]
                    if trace_reads:
                        drk.ghost_ver[:] = version[drk.ghost_cols]
                drk.pending = sim._relax_block(drk, x, mom_prev)
                if trace_reads:
                    capture_reads(drk)
                compute += sim._compute_time(drk)
                if termination == "detect" and rk.iterations % report_every == 0:
                    arrival = t + net.message_time(1, rk.rng)
                    queue.push(arrival, (_REPORT, d, local_residual_norm(drk)))
            queue.push(t + compute, (_COMMIT, rid, rk.epoch))
        else:  # _COMMIT
            if payload != rk.epoch or down(rid, t):
                if trc is not None and payload == rk.epoch and down(rid, t):
                    trc.fault(t, rid, "crash")
                continue  # the rank crashed inside the read-to-write span
            if trc is not None:
                emit_relax(rk, t)
            commit_rows(rk)
            rk.iterations += 1
            relaxations += rk.rows.size
            t_end = t
            fire_puts(rk, t)
            snap = adopt_snapshot.pop(rid, ())
            for d in snap:
                drk = ranks[d]
                if trc is not None:
                    emit_relax(drk, t)
                commit_rows(drk)
                relaxations += drk.rows.size
                fire_puts(drk, t)
            commits_since_obs += 1 + len(snap)
            if commits_since_obs >= observe_every:
                commits_since_obs = 0
                res = observe_residual()
                times.append(t)
                residuals.append(res)
                counts.append(relaxations)
                if trc is not None:
                    trc.observe(t, res, relaxations)
                if termination == "count" and res < tol:
                    converged = True
                    if trc is not None:
                        trc.convergence(t, res, tol)
                    break
            if rk.iterations >= max_iterations:
                rk.stopped = True
            else:
                # Next read only begins after the off-span overhead.
                queue.push(t + sim._overhead_time(rk), (_START, rid, rk.epoch))

    if degraded_since is not None:
        tm.degraded_intervals.append((degraded_since, max(t_end, degraded_since)))
    # Final observation, skipped via the dirty flag when no row changed
    # since the last recorded one (recomputing would be pure waste).
    if commits_since_obs:
        res = observe_residual()
        times.append(max(t_end, times[-1]))
        residuals.append(res)
        counts.append(relaxations)
        if trc is not None:
            trc.observe(times[-1], res, relaxations)
            if not converged and res < tol:
                trc.convergence(times[-1], res, tol)
    else:
        res = residuals[-1]
    converged = converged or res < tol
    if trc is not None:
        trc.run_end(t_end, converged, relaxations)
    return SimulationResult(
        x=x,
        converged=converged,
        times=times,
        residual_norms=residuals,
        relaxation_counts=counts,
        iterations=np.array([rk.iterations for rk in ranks]),
        total_time=t_end,
        mode="eager" if eager else "async",
        telemetry=tm,
    )


def distributed_run_sync(
    sim,
    x0=None,
    tol: float = 1e-3,
    max_iterations: int = 10_000,
) -> SimulationResult:
    """Pre-engine synchronous loop of :class:`DistributedJacobi.run_sync`.

    Verbatim scalar-draw sweep timing (two per-rank lognormals plus one
    per message, drawn one call at a time) — the oracle for the
    pattern-jitter-stream port.
    """
    check_positive(tol, "tol")
    A, b, dinv = sim.A, sim.b, sim.dinv
    x = np.zeros(sim.n) if x0 is None else check_vector(x0, sim.n, "x0").copy()
    ranks = sim._compile_ranks()
    net = sim.cluster.network
    allreduce = net.allreduce_cost(sim.n_ranks)

    b_norm = vector_norm(b, 1)
    mom_beta = sim.method.beta
    mom_prev = x.copy() if sim.method.kind == "momentum" else None
    # One SpMV per sweep in the Jacobi branch: the residual driving the
    # update doubles as the previous sweep's convergence check.
    r = b - A.matvec(x)
    res0 = vector_norm(r, 1) / b_norm if b_norm > 0 else vector_norm(r, 1)
    times, residuals, counts = [0.0], [res0], [0]
    t = 0.0
    relaxations = 0
    k = 0
    converged = res0 < tol
    while not converged and k < max_iterations:
        compute = max(sim._cycle_time(rk) for rk in ranks)
        comm = 0.0
        for rk in ranks:
            for _, slots_q, local_rows in rk.send_plan:
                comm = max(comm, net.message_time(local_rows.size, rk.rng))
        t += compute + comm + allreduce
        if sim.method.kind != "sequential":
            if mom_prev is None:
                # Exact global Jacobi sweep (fast vectorized path).
                x += dinv * r
            else:
                dx = dinv * r + mom_beta * (x - mom_prev)
                mom_prev[:] = x
                x += dx
        else:
            # Per-rank local GS sweeps on fresh ghosts, applied together.
            updates = []
            for rk in ranks:
                if rk.ghost_cols.size:
                    rk.ghosts[:] = x[rk.ghost_cols]
                updates.append(sim._relax_block(rk, x))
            for rk, new in zip(ranks, updates):
                x[rk.rows] = new
        relaxations += sim.n
        k += 1
        r = b - A.matvec(x)
        num = vector_norm(r, 1)
        res = num / b_norm if b_norm > 0 else num
        times.append(t)
        residuals.append(res)
        counts.append(relaxations)
        converged = res < tol
    return SimulationResult(
        x=x,
        converged=converged,
        times=times,
        residual_norms=residuals,
        relaxation_counts=counts,
        iterations=np.full(sim.n_ranks, k),
        total_time=t,
        mode="sync",
    )
