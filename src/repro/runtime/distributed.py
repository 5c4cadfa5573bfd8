"""Event-driven distributed-memory Jacobi simulator (the MPI substitute).

Reproduces the structure of the paper's distributed implementations
(Section VI): the matrix is partitioned (METIS substitute) and each MPI rank
owns a contiguous-after-permutation subdomain plus a *ghost layer* holding
the latest boundary values received from its neighbors.

* **Synchronous mode** models the point-to-point implementation
  (``MPI_Isend``/``MPI_Recv``): every iteration all ranks exchange ghost
  values, wait, relax, and hit an allreduce — so each sweep is exact global
  Jacobi and its simulated duration is the slowest rank's compute plus the
  ghost exchange plus the reduction.
* **Asynchronous mode** models the RMA implementation (``MPI_Put`` into
  passive-target windows): when a rank commits an iteration it fires its
  boundary values at each neighbor as one-sided puts that land after a
  sampled network latency; ranks never wait — each iteration uses whatever
  ghost values have arrived (the racy scheme). Puts into disjoint window
  subarrays simply overwrite, exactly like the paper's window layout.

Failure injection (dropped or duplicated puts, hung ranks) exercises the
robustness the asynchronous method inherits from Theorem 1: lost updates
only delay information, they cannot corrupt the iteration.

Fault tolerance (see docs/fault_tolerance.md) goes beyond injection: a
:class:`~repro.faults.FaultPlan` scripts rank crashes (with optional
restarts), network-partition windows and drop/corruption bursts; the
**reliable-put protocol** (sequence-numbered puts, acks, timeout +
exponential-backoff retries under a bounded budget, duplicate suppression)
recovers lost boundary updates; **heartbeat failure detection** at rank 0
drives graceful degradation — surviving neighbours freeze a dead rank's
ghost values (``recovery="freeze"``, the paper's "delayed until
convergence" regime) or adopt its rows after a ghost re-sync
(``recovery="adopt"``) — and ``termination="detect"`` excludes presumed-dead
reporters so detection can no longer hang on a crashed rank. Rank 0 is the
detector and does not monitor itself: while a plan has it down, detection
and STOP broadcasting are suspended (reports and declarations resume if it
restarts). Per-run recovery telemetry lands in
:class:`~repro.runtime.results.FaultTelemetry`.
"""

from __future__ import annotations

import copy
import ctypes
import heapq
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.faults.plan import NO_FAULTS, FaultPlan
from repro.matrices.sparse import ColumnScatterPlan, CSRMatrix, _concat_ranges
from repro.observability.tracer import resolve as resolve_tracer
from repro.methods import make_method
from repro.partition.partitioner import bfs_bisection_partition, contiguous_partition
from repro.partition.subdomain import DomainDecomposition
from repro.runtime.delays import CompositeDelay, DelayModel, NO_DELAY, StragglerDelay
from repro.runtime.engine import (
    HeapEventQueue,
    NormalStream,
    PatternJitterStream,
    refuse_legacy_engine,
    scaled_normals,
    split_sigmas,
)
from repro.runtime.machine import HASWELL_CLUSTER, ClusterModel
from repro.runtime.observer import ResidualObserver
from repro.runtime.results import FaultTelemetry, SimulationResult
from repro.util.errors import PartitionError, ShapeError, SingularMatrixError
from repro.util.norms import vector_norm
from repro.util.rng import as_rng, spawn_rngs
from repro.util.validation import (
    check_nonnegative_int,
    check_positive,
    check_positive_int,
    check_probability,
    check_vector,
)

(
    _START,
    _COMMIT,
    _MESSAGE,
    _REPORT,
    _STOP,
    _ACK,
    _RETRY,
    _HEARTBEAT,
    _HB_ARRIVE,
    _HB_CHECK,
    _RESTART,
    _FAIL_NOTICE,
) = range(12)

#: Self-rescheduling liveness traffic: the only event kinds that may remain
#: pending forever. Everything else either drains or advances the iteration.
_HB_KINDS = frozenset({_HEARTBEAT, _HB_ARRIVE, _HB_CHECK})


@dataclass
class _Rank:
    """Per-rank compiled state.

    The local matrix is compacted so columns ``[0, size)`` are the rank's own
    rows (in global order) and columns ``[size, size + n_ghost)`` are its
    ghost slots; one concatenation + one small SpMV per iteration.
    """

    rank: int
    rows: np.ndarray
    local: CSRMatrix  # compacted columns: own rows then ghosts
    ghost_cols: np.ndarray  # global indices of ghost slots
    ghosts: np.ndarray  # current ghost values
    # For each neighbor q: (slot indices in *q's* ghost array, local indices
    # of our rows to send).
    send_plan: list
    rng: np.random.Generator
    iterations: int = 0
    stopped: bool = False
    pending: np.ndarray = None
    #: Incarnation number; bumped on restart so events scheduled by a
    #: pre-crash incarnation (in-flight START/COMMIT) are discarded.
    epoch: int = 0
    #: Read-version capture (tracer with ``trace_reads=True`` only):
    #: per-row ``{global neighbor: version read}`` snapshotted at START,
    #: the version of each current ghost value, and each local row's
    #: precomputed (own-block neighbors, ghost (neighbor, slot)) layout.
    pending_reads: list = None
    ghost_ver: np.ndarray = None
    read_map: list = None


class _WarmPlan:
    """Run-invariant state of one solver, built on first use and kept.

    Every field is a function of the solver's ``(A, b, partition, method,
    cluster)`` alone — never of ``x0``, the seed's RNG streams, the delay
    model or any run option — so warm runs reuse it instead of rebuilding
    it. ``b`` is the solver's private read-only copy and ``A`` is
    immutable by convention, so none of it can go stale. The only mutable
    members are the native ``binc`` bins, scratch every run leaves zeroed
    on exit; a solver therefore runs one simulation at a time.
    :meth:`DistributedJacobi.with_delay` copies share the plan.
    """

    __slots__ = (
        "templates", "nrows_loc", "lb_off", "row_off", "nnz_off", "b_loc",
        "dinv_loc", "b_norm1", "put_plan", "cat_rows",
        "splans", "native", "loop",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, None)


class _AsyncRun(SimpleNamespace):
    """One asynchronous run's shared set-up, built by ``run_async``; each
    loop binds the fields it reads to locals once."""


class DistributedJacobi:
    """Simulated MPI Jacobi across ranks with ghost-layer exchange.

    Parameters
    ----------
    A
        Global system matrix (square, nonzero diagonal).
    b
        Right-hand side.
    n_ranks
        Number of MPI ranks.
    partition
        ``"bfs"`` (METIS-substitute recursive bisection over the matrix
        graph), ``"contiguous"`` (equal row blocks), or an explicit label
        array.
    cluster
        Cost model (default: the Cori-Haswell preset).
    delay
        Injected-delay model applied to rank compute times.
    drop_probability, duplicate_probability
        Failure injection on asynchronous puts.
    seed
        Seed for all stochastic behaviour.
    omega
        Relaxation weight in (0, 2); 1.0 is plain Jacobi.
    method
        Iteration method (see :mod:`repro.methods`): ``None`` (default)
        is Jacobi at ``omega`` — bit-identical to the historical
        executor; every block row relaxes from the same snapshot (the
        paper's scheme). ``"sor"`` relaxes each block with one forward
        Gauss-Seidel sweep (the step-asynchronous SOR of Vigna,
        arXiv:1404.3327, with blocks as the "steps"; the "inexact block
        Jacobi" variant of Jager & Bradley's study);
        ``"richardson"``/``"damped_jacobi"`` swap the per-row scale;
        ``"richardson2"`` adds a momentum term from one previous own-row
        iterate.
    ranks_per_node
        Override the cluster's ranks-per-node for the intra/inter-node
        message-latency split (None: use the cluster preset; otherwise a
        positive integer). Consecutive ranks are co-located, matching the
        contiguous partition layout.
    fault_plan
        Optional :class:`~repro.faults.FaultPlan` scripting crashes,
        restarts, partition windows and drop/corruption bursts for the
        asynchronous run.
    fault_seed
        Seed for the failure RNG (drop/duplicate/corruption rolls). Falls
        back to ``fault_plan.seed``, then to the legacy derivation
        ``seed ^ 0x5EED`` — which is fresh entropy per run when ``seed`` is
        None, so pass ``fault_seed`` for reproducible fault injection
        independent of the timing seed.
    reliable
        Use the reliable-put protocol (sequence numbers, acks, retries with
        exponential backoff, duplicate suppression) instead of
        fire-and-forget RMA puts. Default (None): on exactly when a
        ``fault_plan`` is given.
    recovery
        What surviving ranks do about a detected failure: ``"freeze"``
        (keep the dead rank's last ghost values — the paper's "delayed
        until convergence" regime), ``"adopt"`` (the lowest-ranked live
        neighbour re-syncs the dead rank's ghost layer and relaxes its rows
        alongside its own), or ``"none"`` (no heartbeats, no detection —
        the baseline that can stall forever).
    heartbeat_interval
        Simulated seconds between liveness beacons to the detector
        (rank 0). None: a multiple of the iteration overhead + round-trip
        latency, activated only when a ``fault_plan`` is present.
    heartbeat_miss
        Consecutive missed beacons before the detector declares a rank
        dead (a positive integer).
    ack_timeout
        Base retransmission timeout for reliable puts (None: derived from
        the network model's round-trip time; doubles on every retry).
    max_put_retries
        Retry budget per put before the sender gives up (information then
        reaches the neighbor only via a later iteration's put); a
        nonnegative integer.
    """

    def __init__(
        self,
        A: CSRMatrix,
        b,
        n_ranks: int,
        partition="bfs",
        cluster: ClusterModel = HASWELL_CLUSTER,
        delay: DelayModel = NO_DELAY,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        seed=None,
        omega: float = 1.0,
        method=None,
        ranks_per_node: int | None = None,
        fault_plan: FaultPlan | None = None,
        fault_seed=None,
        reliable: bool | None = None,
        recovery: str = "freeze",
        heartbeat_interval: float | None = None,
        heartbeat_miss: int = 3,
        ack_timeout: float | None = None,
        max_put_retries: int = 6,
    ):
        if A.nrows != A.ncols:
            raise ShapeError(f"matrix must be square, got {A.shape}")
        n = A.nrows
        n_ranks = check_positive_int(n_ranks, "n_ranks", ShapeError)
        if n_ranks > n:
            raise ShapeError(f"n_ranks must lie in [1, {n}], got {n_ranks}")
        if not 0 < omega < 2:
            raise ValueError(f"omega must lie in (0, 2), got {omega}")
        self.method = make_method(method, omega=omega)
        # The diagonally-scaled kinds reject a zero diagonal in ``scale``.
        self.dinv = self.method.scale(A)
        if self.method.kind == "momentum" and np.any(A.diagonal() == 0):
            raise SingularMatrixError("Jacobi requires a nonzero diagonal")
        self.A = A
        self.n = n
        # A private read-only copy: the warm plan caches gathers of ``b``,
        # which must not go stale if the caller later edits its array.
        self.b = check_vector(b, n, "b").copy()
        self.b.flags.writeable = False
        self.omega = float(omega)
        self.ranks_per_node = check_positive_int(
            cluster.ranks_per_node if ranks_per_node is None else ranks_per_node,
            "ranks_per_node",
        )
        self.n_ranks = n_ranks
        self.cluster = cluster
        self.delay = delay
        self.drop_probability = check_probability(drop_probability, "drop_probability")
        self.duplicate_probability = check_probability(
            duplicate_probability, "duplicate_probability"
        )
        self.seed = seed
        self.fault_plan = NO_FAULTS if fault_plan is None else fault_plan
        if self.fault_plan.agents() and max(self.fault_plan.agents()) >= n_ranks:
            raise ShapeError(
                f"fault plan crashes rank {max(self.fault_plan.agents())}, "
                f"but only {n_ranks} ranks exist"
            )
        self.fault_seed = fault_seed
        self.reliable = bool(self.fault_plan) if reliable is None else bool(reliable)
        if recovery not in ("freeze", "adopt", "none"):
            raise ValueError(
                f"recovery must be 'freeze', 'adopt' or 'none', got {recovery!r}"
            )
        self.recovery = recovery
        if heartbeat_interval is not None:
            check_positive(heartbeat_interval, "heartbeat_interval")
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_miss = check_positive_int(heartbeat_miss, "heartbeat_miss")
        if ack_timeout is not None:
            check_positive(ack_timeout, "ack_timeout")
        self.ack_timeout = ack_timeout
        self.max_put_retries = check_nonnegative_int(
            max_put_retries, "max_put_retries"
        )

        if isinstance(partition, str):
            if partition == "bfs":
                labels = bfs_bisection_partition(A, n_ranks)
            elif partition == "contiguous":
                labels = contiguous_partition(n, n_ranks)
            else:
                raise ValueError(
                    f"partition must be 'bfs', 'contiguous' or a label array, got {partition!r}"
                )
        else:
            labels = np.asarray(partition)
            if labels.shape != (n,) or labels.dtype.kind not in "iu":
                raise PartitionError(
                    f"partition must be an integer label array of shape ({n},), "
                    f"got {labels.dtype} of shape {labels.shape}"
                )
            labels = labels.astype(np.int64)
            if int(labels.max()) + 1 != n_ranks:
                raise ShapeError(
                    f"label array defines {int(labels.max()) + 1} parts, expected {n_ranks}"
                )
        self.decomposition = DomainDecomposition(A, labels)
        self._plan = _WarmPlan()  # run-invariant state, built on first use

    def with_delay(self, delay: DelayModel) -> "DistributedJacobi":
        """This solver with ``delay`` as its delay model, sharing its warm plan.

        Nothing in the warm plan depends on the delay model, so a sweep
        over delays (``repro.experiments.scale``) builds the per-rank
        tables, scatter plans and native layouts once. Runs of the copy are
        bit-identical to runs of a freshly constructed solver.
        """
        twin = copy.copy(self)
        twin.delay = delay
        return twin

    # ------------------------------------------------------------------
    def _compile_ranks(self) -> list:
        """Build per-rank compacted matrices and communication plans.

        The structural compile (column compaction, send plans) depends only
        on the decomposition, so it runs once per solver and is kept in the
        warm plan;
        every call hands out fresh :class:`_Rank` instances — fresh RNG
        streams, zeroed ghost layers and counters — sharing the immutable
        arrays. The send-plan ``slots`` arrays are therefore per-edge
        singletons for the solver's lifetime, which the general loop's
        mailbox delivery relies on to key its records.
        """
        tmpl = self._plan.templates
        if tmpl is None:
            tmpl = self._plan.templates = self._compile_rank_templates()
        rngs = spawn_rngs(self.seed, self.n_ranks)
        return [
            _Rank(
                rank=r,
                rows=rows,
                local=local,
                ghost_cols=gcols,
                ghosts=np.zeros(gcols.size),
                send_plan=send_plan,
                rng=rngs[r],
            )
            for r, rows, local, gcols, send_plan in tmpl
        ]

    def _compile_rank_templates(self) -> list:
        """The structural half of :meth:`_compile_ranks` (run-invariant).

        One pass over the decomposition's entries maps own columns to their
        local index and ghost columns to the rank's size plus their slot.
        Both stay ascending and own sorts before ghost, so a row's sorted
        order keeps its own entries, in order, at its head and its ghosts
        at its tail: only rows with a ghost before an own entry change.
        """
        dd = self.decomposition
        ext = dd.external
        ext_rank = np.repeat(np.arange(self.n_ranks), np.diff(np.searchsorted(ext, dd.nnz_ptr)))
        ext_row = dd.row_ptr[ext_rank] + dd.local_row[ext]
        local_indices = dd.local_index[dd.indices]
        local_indices[ext] = np.diff(dd.row_ptr)[ext_rank] + dd.external_slot
        local_data = dd.data.copy()
        first = np.flatnonzero(np.diff(ext_row, prepend=-1))
        row_ghosts = np.diff(first, append=ext.size)
        moves = ext[first] != dd.indptr[ext_row[first] + 1] - row_ghosts
        rows, n_ghosts = ext_row[first][moves], row_ghosts[moves]
        counts = dd.indptr[rows + 1] - dd.indptr[rows]
        entries = _concat_ranges(dd.indptr[rows], counts)
        ghost = np.zeros(dd.indices.size, dtype=bool)
        ghost[ext] = True
        ghost = ghost[entries]
        to_tail = np.zeros(entries.size, dtype=bool)
        to_tail[_concat_ranges(np.cumsum(counts) - n_ghosts, n_ghosts)] = True
        for out in (local_indices, local_data):
            moved = out[entries]
            out[entries[~to_tail]] = moved[~ghost]
            out[entries[to_tail]] = moved[ghost]

        tmpl = []
        for sub, lo, hi, g0, g1 in zip(
            dd, dd.nnz_ptr[:-1], dd.nnz_ptr[1:], dd.ghost_ptr[:-1], dd.ghost_ptr[1:]
        ):
            local = CSRMatrix._from_validated(
                sub.matrix.indptr, local_indices[lo:hi], local_data[lo:hi],
                (sub.size, sub.size + g1 - g0), row_of_nnz=sub.matrix._row_of_nnz,
            )
            tmpl.append([sub.rank, sub.rows, local, dd.ghost_cols[g0:g1], []])
        # Send plans: rank p sends each neighbor q the values of p's rows in
        # q's (strictly increasing) ghost layer, at their searchsorted slots.
        for sub in dd:
            for q, cols in sub.send_to.items():
                slots_q = np.searchsorted(tmpl[q][3], cols)
                tmpl[sub.rank][4].append((q, slots_q, dd.local_index[cols]))
        return tmpl

    def _warm_plan(self, ranks) -> _WarmPlan:
        """The solver's warm plan with its per-rank tables built.

        ``ranks`` is any run's :meth:`_compile_ranks` output (only its
        immutable template fields are read).
        """
        wp = self._plan
        if wp.b_loc is not None:
            return wp
        dd = self.decomposition
        net = self.cluster.network
        node_of = [r // self.ranks_per_node for r in range(self.n_ranks)]
        # Precompiled puts: (neighbor, its ghost slots, our local rows,
        # base in-flight time of the message) per send-plan entry.
        put_plan = [
            [
                (q, slots_q, local_rows,
                 (net.intra_node_latency if node_of[rk.rank] == node_of[q]
                  else net.latency)
                 + local_rows.size * net.time_per_value)
                for q, slots_q, local_rows in rk.send_plan
            ]
            for rk in ranks
        ]
        wp.cat_rows = [
            np.concatenate([e[2] for e in plan_r])
            if plan_r
            else np.empty(0, dtype=np.int64)
            for plan_r in put_plan
        ]
        wp.put_plan = put_plan
        # Buffer offsets: each rank's rows plus ghosts, rows, and entries.
        wp.nrows_loc = np.diff(dd.row_ptr).tolist()
        wp.lb_off = (dd.row_ptr + dd.ghost_ptr).tolist()
        wp.row_off, wp.nnz_off = dd.row_ptr.tolist(), dd.nnz_ptr.tolist()
        cuts = dd.row_ptr[1:-1]
        wp.dinv_loc = np.split(self.dinv[dd.order], cuts)
        wp.b_norm1 = vector_norm(self.b, 1)
        wp.b_loc = np.split(self.b[dd.order], cuts)
        return wp

    def _warm_splans(self) -> list:
        """Per-rank observer scatter plans (built on the first asynchronous run).

        Rank ``r``'s plan is ``A.column_scatter_plan(rows_r)``, cut from one
        gather of ``A``'s CSC view in rank order; ``base`` and ``span`` come
        from one ``minimum``/``maximum.reduceat``.
        """
        wp = self._plan
        if wp.splans is not None:
            return wp.splans
        dd = self.decomposition
        colptr, row_ind, csc_vals = self.A.csc_arrays()
        nz, counts = dd.rank_order_entries(colptr)
        touched, vals = row_ind[nz], csc_vals[nz]
        seg = np.concatenate(([0], np.cumsum(counts)))[dd.row_ptr]
        lens = np.diff(seg)
        hit = lens > 0
        base, span = np.zeros((2, self.n_ranks), dtype=np.int64)
        base[hit] = np.minimum.reduceat(touched, seg[:-1][hit])
        span[hit] = np.maximum.reduceat(touched, seg[:-1][hit]) - base[hit] + 1
        local = touched - np.repeat(base, lens)
        rep_idx = np.repeat(dd.local_index[dd.order], counts)
        bounds = zip(base.tolist(), span.tolist(), seg[:-1].tolist(), seg[1:].tolist(),
                     np.diff(dd.row_ptr).tolist())
        wp.splans = [
            ColumnScatterPlan(b0, s0, local[lo:hi], vals[lo:hi], rep_idx[lo:hi],
                              n_cols=m if hi > lo else 0)
            for b0, s0, lo, hi, m in bounds
        ]
        return wp.splans

    def _warm_native(self, ranks) -> np.ndarray:
        """The packed native argument rows of every rank, built on first use.

        One int64 row per rank, its columns in
        :data:`~repro.perf.native.ROW_FIELDS` order. The warm plan fills the
        run-invariant columns; each run copies the table and fills ``x``,
        ``local_x``, ``pend``, ``mom_prev`` and ``r_vec``. Relax columns:
        the block size, the local CSR's int64 row pointers, its columns as
        int32 and the rank's data, ``b`` and ``dinv`` gathers. Commit
        columns: per-column pointers into the observer scatter plan's
        entries, its span-local rows as int32, and a zeroed bin scratch.
        Raises :class:`~repro.perf.native.NativeLayoutError` when a rank's
        local column count or span reaches 2^31.
        """
        from repro.perf.native import ROW_FIELDS, int32_index

        wp = self._warm_plan(ranks)
        if wp.native is not None:
            return wp.native[1]
        dd = self.decomposition
        col_ptr = np.concatenate(([0], np.cumsum(np.diff(self.A.csc_arrays()[0])[dd.order])))
        col = ROW_FIELDS.index
        tab = np.zeros((self.n_ranks, len(ROW_FIELDS)), dtype=np.int64)
        tab[:, col("m")] = wp.nrows_loc
        cols = [col(f) for f in (
            "rows", "indptr", "indices", "data", "b", "dinv",
            "colptr", "local", "vals", "binc")]
        keep = []
        for rk, sp in zip(ranks, self._warm_splans()):
            r, loc = rk.rank, rk.local
            r0, r1 = dd.row_ptr[r], dd.row_ptr[r + 1]
            arrs = (
                np.ascontiguousarray(rk.rows, dtype=np.int64),
                np.ascontiguousarray(loc.indptr),
                int32_index(loc.indices, loc.ncols, f"rank {r}'s local columns"),
                np.ascontiguousarray(loc.data), wp.b_loc[r], wp.dinv_loc[r],
                col_ptr[r0 : r1 + 1] - col_ptr[r0],
                int32_index(sp.local, sp.span, f"rank {r}'s residual span"),
                sp.vals, np.zeros(max(sp.span, 1)),
            )
            keep.append(arrs)
            tab[r, cols] = [a.ctypes.data for a in arrs]
            tab[r, [col("base"), col("span")]] = (sp.base, sp.span)
        wp.native = (keep, tab)
        return tab

    def _warm_loop(self, ranks) -> SimpleNamespace:
        """The compiled block loop's run-invariant tables, built on first use.

        Edges are numbered by sender, each sender's in put-plan order:
        rank ``p``'s puts are edges ``out_ptr[p]:out_ptr[p + 1]``, and its
        ``j``-th put takes factor ``j + 1`` of the step. ``in_edges``
        lists each receiver's edges in (sender, plan) order. No put entry
        is copied: edge ``e`` reads ``e_w[e]`` of the sender's pending rows
        from ``cat_rows[p][e_lo[e]:]`` (``cat_ptr`` holds each rank's
        array address, ``row_off`` its pending-buffer offset) and writes
        them to the receiver's ghost slots ``slots_q`` (address
        ``e_slots[e]``) past ``e_gbase[e]`` in the ``local_x`` parent.
        Each rank's jitter pattern is ``[sigma_m] + [sigma_net] * puts +
        [sigma_m]``, split by :func:`~repro.runtime.engine.split_sigmas`.
        """
        wp = self._warm_plan(ranks)
        if wp.loop is not None:
            return wp.loop
        flat = [
            (p, q, slots, rows, mb)
            for p, plan in enumerate(wp.put_plan)
            for q, slots, rows, mb in plan
        ]
        i64 = np.int64

        def ptr(counts):
            return np.concatenate(([0], np.cumsum(counts, dtype=i64))).astype(i64)

        n_out = [len(plan) for plan in wp.put_plan]
        recv = np.array([e[1] for e in flat], dtype=i64)
        widths = np.array([e[3].size for e in flat], dtype=i64)
        out_ptr = ptr(n_out)
        width = np.array(n_out, dtype=i64) + 2
        sm = self.cluster.node.effective_jitter(1)
        sn = self.cluster.network.jitter_sigma
        fac_off = ptr(width)
        wp.loop = SimpleNamespace(
            out_ptr=out_ptr,
            in_ptr=ptr(np.bincount(recv, minlength=self.n_ranks)),
            in_edges=np.argsort(recv, kind="stable").astype(i64),
            e_lo=(np.cumsum(widths) - widths
                  - np.repeat(ptr(widths)[out_ptr[:-1]], n_out)).astype(i64),
            e_w=widths,
            e_slots=np.array([e[2].ctypes.data for e in flat], dtype=i64),
            e_gbase=np.array(
                [wp.lb_off[q] + wp.nrows_loc[q] for _, q, _, _, _ in flat], dtype=i64
            ),
            row_off=np.array(wp.row_off[:-1], dtype=i64),
            cat_ptr=np.array([c.ctypes.data for c in wp.cat_rows], dtype=i64),
            e_mb=np.array([e[4] for e in flat], dtype=np.float64),
            n_edges=len(flat),
            max_puts=max(n_out),
            W=int(widths.max(initial=1)),
            width=width,
            fac_off=fac_off[:-1].copy(),
            fac_size=int(fac_off[-1]),
            nrows=np.array(wp.nrows_loc, dtype=i64),
            jitter=[split_sigmas([sm] + [sn] * k + [sm]) for k in n_out],
        )
        return wp.loop

    def _residual_fn(self):
        """``(x, out) -> out``: the residual ``b - A x`` written into ``out``.

        Uses the native ``repro_residual`` kernel whenever the library
        loads, NumPy otherwise; both are bit-identical to
        ``b - A.matvec(x)``.
        """
        from repro.perf.native import native_kernels

        A, b = self.A, self.b
        nat = native_kernels()
        if nat is None:
            return lambda x, out: np.subtract(b, A.matvec(x), out=out)
        return lambda x, out: nat.residual(A, x, b, out)

    def _slowdown(self, rank: int) -> float:
        if isinstance(self.delay, (StragglerDelay, CompositeDelay)):
            return self.delay.slowdown(rank)
        return 1.0

    def _relax_block(self, rk: _Rank, x: np.ndarray, mom_prev=None) -> np.ndarray:
        """One local relaxation of ``rk``'s block from the current view.

        Every block row uses the same snapshot (the paper's
        implementation), except for the sequential kind (step-async SOR):
        a forward Gauss-Seidel sweep where each row immediately sees
        earlier in-block updates.
        ``mom_prev`` (length-``n``, momentum methods only) carries the
        previous own-row iterate read at relax time and is updated in
        place.
        """
        local_x = np.concatenate((x[rk.rows], rk.ghosts))
        dinv_loc = self.dinv[rk.rows]
        b_loc = self.b[rk.rows]
        if self.method.kind != "sequential":
            r = b_loc - rk.local.matvec(local_x)
            new = local_x[: rk.rows.size] + dinv_loc * r
            if mom_prev is not None:
                own = local_x[: rk.rows.size]
                new += self.method.beta * (own - mom_prev[rk.rows])
                mom_prev[rk.rows] = own
            return new
        # Forward Gauss-Seidel over the block, in place on the local view.
        mat = rk.local
        for i in range(rk.rows.size):
            cols, vals = mat.row_entries(i)
            r_i = b_loc[i] - float(vals @ local_x[cols])
            local_x[i] += dinv_loc[i] * r_i
        return local_x[: rk.rows.size].copy()

    # ------------------------------------------------------------------
    def run_async(
        self,
        x0=None,
        tol: float = 1e-3,
        max_iterations: int = 10_000,
        observe_every: int | None = None,
        eager: bool = False,
        termination: str = "count",
        report_every: int = 4,
        recompute_every: int = 64,
        tracer=None,
        legacy_engine: bool = False,
    ) -> SimulationResult:
        """Asynchronous (RMA put) execution.

        Each rank free-runs: relax with current ghosts, commit, fire puts at
        neighbors, repeat.

        A live :class:`~repro.observability.Tracer` passed as ``tracer``
        receives structured events: per-commit relax events, message
        send/recv/ack (with latency), fault incidents (drops, corruption,
        crashes, restarts, retry exhaustion), failure-detector verdicts,
        residual observations and the convergence crossing. With
        ``trace_reads=True`` relax events additionally carry the per-row
        read versions — puts then piggyback their senders' row versions —
        which is what the trace→reconstruction bridge
        (:mod:`repro.observability.replay`) consumes. Tracing makes no RNG
        calls, so the simulated trajectory is bit-identical with or
        without it.

        The residual observer (:class:`~repro.runtime.observer.ResidualObserver`)
        keeps ``b - A x`` maintained in place — each commit scatters the
        block's change through the cached CSC view — and recomputes it
        every ``recompute_every`` observations (0: never; 1: the drift-free
        observer, which observes exactly what a from-scratch SpMV per
        observation would) and at any tolerance crossing. It only reads
        the trajectory.

        The run has three parts. This method validates the options and
        builds the shared set-up: the iterate, the ranks, one ``local_x``
        scratch buffer per rank with the ghost layer aliased to its tail,
        the relax kernels, the packed native rows, the observer and the
        queue with the initial START/RESTART events. It then runs one of
        two loops and builds the result. Trajectories are bit-identical to
        the deleted pre-engine loop's, frozen as digests in
        ``tests/runtime/engine_digests.json``; ``legacy_engine=True``
        raises ``ValueError`` (the keyword stays for the ``bench/``
        harness, which passes ``False``).

        * **The block loop** (:meth:`_block_loop`) takes every plain run —
          no faults or loss rolls, no tracer, no reliable puts, no
          eager/detect/heartbeat machinery and no hang-capable delay model.
          One heap event per block iteration runs the whole
          read-relax-commit span at its virtual read cursor (with the
          native library, one compiled call), and each iteration's jitter
          factors are one :class:`~repro.runtime.engine.PatternJitterStream`
          step per rank. When the library loads, the method is not the
          sequential kind and every rank's ``delay.constant_extra`` is
          known, the whole loop runs in C instead
          (:meth:`_native_block_loop`), with the same bits.
        * **The general loop** (:meth:`_general_loop`) takes everything
          else: one START and one COMMIT event per block iteration plus the
          protocol traffic, one event per pop, jitter from a
          :class:`~repro.runtime.engine.NormalStream` per rank. It alone
          builds the fault, heartbeat, reliable-put and trace state.

        One-sided puts land through per-edge *mailboxes* (see
        docs/performance.md, "Mailbox delivery and the block loop"): the
        receiver's next read applies, per directed edge, only the newest
        record that arrival-precedes it — a put overwrites the edge's whole
        fixed window slot set, so older records were never observable.
        Each record carries the event sequence number a per-put heap event
        would have consumed, so the cut replicates heap pop order bit for
        bit, exact-time ties included.

        Relax and commit kernels are compiled C (:mod:`repro.perf.native`)
        whenever the library loads, NumPy otherwise (no compiler, build
        failure, ``REPRO_NO_NATIVE``) — the same bits either way. The
        sequential kind (SOR), whose blocks relax by a Gauss-Seidel sweep,
        always runs NumPy: its BLAS dot products have no reproducible
        compiled operand order.

        Parameters beyond the common ones
        ---------------------------------
        eager
            Jager & Bradley's *semi-synchronous eager* scheme: a rank only
            relaxes again after at least one new ghost message arrived since
            its last relaxation (ranks without neighbors always proceed).
            Avoids wasted relaxations at the price of idle waiting — the
            comparator discussed in the paper's related work. When failure
            detection is on, a rank whose every sender is stopped or
            confirmed dead stops waiting and free-runs against its frozen
            ghosts (nothing could ever wake it).
        termination
            ``"count"`` — the paper's naive scheme: each rank stops after
            ``max_iterations`` local iterations; the zero-communication
            observer still records the residual history.
            ``"detect"`` — the distributed termination detection the paper
            leaves as future work: every ``report_every`` iterations a rank
            sends its local residual 1-norm to rank 0 (with network
            latency); when the sum of freshest reports drops below ``tol *
            ||b||_1``, rank 0 broadcasts STOP and ranks halt on receipt.
            Detection events do not use the oracle — convergence is decided
            purely from (stale) reported norms. Ranks the heartbeat
            detector presumes dead (and that nobody adopted) are excluded
            from the sum, so a crashed reporter can no longer hang the
            run: the survivors stop once *their* residuals are below
            tolerance and the result is flagged degraded.

            Rank 0 plays both the detector and the termination aggregator
            and does not monitor itself; while a fault plan has rank 0
            down, incoming residual reports are lost, no failure is
            declared and no STOP is broadcast — if it never restarts, the
            survivors simply run to ``max_iterations``.
        max_iterations
            Local iterations per rank (see ``termination``). Anything but
            a positive integer raises ``ValueError``.
        observe_every
            Commits between residual observations (default: one per
            rank). Anything but a positive integer raises ``ValueError``.
        report_every
            Iterations between a rank's residual reports under
            ``termination="detect"``; a positive integer.
        recompute_every
            Observations between full residual recomputes, a nonnegative
            integer (0: never; 1: the drift-free observer).
        """
        max_iterations = check_positive_int(max_iterations, "max_iterations")
        if observe_every is not None:
            observe_every = check_positive_int(observe_every, "observe_every")
        report_every = check_positive_int(report_every, "report_every")
        recompute_every = check_nonnegative_int(recompute_every, "recompute_every")
        refuse_legacy_engine(legacy_engine)
        check_positive(tol, "tol")
        if termination not in ("count", "detect"):
            raise ValueError(
                f"termination must be 'count' or 'detect', got {termination!r}"
            )
        # Native kernels whenever the library loads — bit-identical to the
        # NumPy paths (see repro.perf.native) — except for the sequential
        # Gauss-Seidel sweep, whose BLAS dot products no compiled loop can
        # match.
        nat = None
        if self.method.kind != "sequential":
            from repro.perf.native import native_kernels

            nat = native_kernels()
        x = np.zeros(self.n) if x0 is None else check_vector(x0, self.n, "x0").copy()
        ranks = self._compile_ranks()
        net = self.cluster.network
        node = self.cluster.node
        n_ranks = self.n_ranks
        thr = node.smt_throughput(1)
        # Run-invariant tables (per-rank ``b``/``dinv`` gathers, put plans,
        # buffer offsets, ||b||_1) come from the solver's warm plan.
        wp = self._warm_plan(ranks)
        b_loc, dinv_loc = wp.b_loc, wp.dinv_loc
        nrows_loc = wp.nrows_loc
        lb_off, row_off, nnz_off = wp.lb_off, wp.row_off, wp.nnz_off

        # Per-rank relax scratch: one ``local_x`` buffer per rank with the
        # ghost layer rebound to its tail, so every ghost write (puts
        # landing, re-syncs) updates the relax view in place and a
        # relaxation is one ``take`` of the rank's own rows plus buffered
        # kernels. Each kind of scratch is carved from one parent buffer;
        # a native row addresses its slice as an offset from the parent.
        loc_parent = np.zeros(lb_off[-1])
        pend_parent = np.empty(row_off[-1])
        dx_parent = np.empty(row_off[-1])
        gath_parent = np.empty(nnz_off[-1])
        loc_buf, own_view, gath_buf, pend_buf = [], [], [], []
        dx_buf = []
        for rk in ranks:
            r = rk.rank
            m = nrows_loc[r]
            lb = loc_parent[lb_off[r] : lb_off[r + 1]]
            rk.ghosts = lb[m:]
            loc_buf.append(lb)
            own_view.append(lb[:m])
            gath_buf.append(gath_parent[nnz_off[r] : nnz_off[r + 1]])
            pend_buf.append(pend_parent[row_off[r] : row_off[r + 1]])
            dx_buf.append(dx_parent[row_off[r] : row_off[r + 1]])
            # Ghost layers start from the initial iterate.
            if rk.ghost_cols.size:
                rk.ghosts[:] = x[rk.ghost_cols]
        gauss_seidel = self.method.kind == "sequential"
        momentum_m = self.method.kind == "momentum"
        mom_beta = self.method.beta
        # Momentum state (richardson2): the own-row iterate each rank last
        # read at relax time, kept per rank in local coordinates. Restarts
        # keep the last read — the recovering rank resumes its momentum
        # from wherever it crashed, like its own rows in ``x``.
        mom_prev_loc = [x[rk.rows].copy() for rk in ranks] if momentum_m else None

        def block_residual(rk: _Rank) -> np.ndarray:
            """``b - A x`` over the block from its current view (a fresh
            array); refreshes ``own_view`` from ``x`` first."""
            r = rk.rank
            x.take(rk.rows, out=own_view[r])
            g = gath_buf[r]
            loc_buf[r].take(rk.local.indices, out=g)
            np.multiply(rk.local.data, g, out=g)
            mv = np.bincount(rk.local._row_of_nnz, weights=g, minlength=nrows_loc[r])
            return np.subtract(b_loc[r], mv, out=mv)

        def relax(rk: _Rank) -> None:
            """One buffered local relaxation; the result lands in
            ``rk.pending`` (bit-identical to ``_relax_block``)."""
            r = rk.rank
            if gauss_seidel:
                lb = loc_buf[r]
                x.take(rk.rows, out=own_view[r])
                mat = rk.local
                bl, dl = b_loc[r], dinv_loc[r]
                for i in range(nrows_loc[r]):
                    cols_i, vals_i = mat.row_entries(i)
                    r_i = bl[i] - float(vals_i @ lb[cols_i])
                    lb[i] += dl[i] * r_i
                np.copyto(pend_buf[r], own_view[r])
                return
            mv = block_residual(rk)
            np.multiply(dinv_loc[r], mv, out=mv)
            np.add(own_view[r], mv, out=pend_buf[r])
            if momentum_m:
                mp = mom_prev_loc[r]
                pend_buf[r] += mom_beta * (own_view[r] - mp)
                np.copyto(mp, own_view[r])

        # Resolved once: a missing or all-null-sink tracer costs one branch
        # per event afterwards (see repro.observability.tracer.resolve).
        trc = resolve_tracer(tracer)
        obs = ResidualObserver(
            self._residual_fn(), x, wp.b_norm1, tol, recompute_every, trc
        )

        nat_tab = nat_rows = nat_relax_commit = None
        nat_beta = float(mom_beta) if momentum_m else 0.0
        if nat is not None:
            # One packed argument row per rank (``ROW_FIELDS`` in
            # repro.perf.native): the run-invariant columns (compact CSR
            # layout, gathers, scatter columns) come from the warm plan;
            # the per-run buffers (``x``, the scratch parents, momentum
            # state, the observer's residual) are allocated exactly once
            # for the whole run, so their raw addresses are stable and
            # each kernel call marshals two arguments. The kernels read
            # and write the same buffers the NumPy closures use — drop-in,
            # bit-identical replacements (contract in repro.perf.native).
            from repro.perf.native import ROW_FIELDS

            col = ROW_FIELDS.index
            nat_tab = self._warm_native(ranks).copy()
            nat_tab[:, col("x")] = x.ctypes.data
            nat_tab[:, col("local_x")] = (
                loc_parent.ctypes.data + 8 * np.asarray(lb_off[:-1])
            )
            nat_tab[:, col("pend")] = (
                pend_parent.ctypes.data + 8 * np.asarray(row_off[:-1])
            )
            if momentum_m:
                nat_tab[:, col("mom_prev")] = [mp.ctypes.data for mp in mom_prev_loc]
            nat_tab[:, col("r_vec")] = obs.r.ctypes.data
            # Raw row addresses: ``nat_tab`` must outlive the loops, which
            # it does as a local of this call.
            nat_rows = (
                nat_tab.ctypes.data + nat_tab.strides[0] * np.arange(n_ranks)
            ).tolist()
            nat_relax, nat_relax_commit = nat.relax, nat.relax_commit

            def relax(rk: _Rank) -> None:
                """Native relax: same buffers, same bits, one C call."""
                nat_relax(nat_rows[rk.rank], nat_beta)

        queue = HeapEventQueue()
        for rk in ranks:
            queue.push(
                float(rk.rng.random()) * node.iteration_overhead,
                _START, rk.rank, rk.epoch,
            )
        # Scripted restarts are known up front; crashes need no event — the
        # plan is consulted at every START/COMMIT/MESSAGE touching the rank.
        plan = self.fault_plan
        for r in sorted(plan.agents()):
            for rt in plan.restart_times(r):
                queue.push(rt, _RESTART, r, None)

        run = _AsyncRun(
            x=x, ranks=ranks, wp=wp, queue=queue, tm=FaultTelemetry(), obs=obs,
            tol=tol, max_iterations=max_iterations,
            observe_every=n_ranks if observe_every is None else observe_every,
            cbase=[
                (rk.local.nnz * node.time_per_nnz + rk.rows.size * node.time_per_row)
                / thr
                for rk in ranks
            ],
            ovbase=node.iteration_overhead / thr,
            slow=[self._slowdown(r) for r in range(n_ranks)],
            const_extra=[self.delay.constant_extra(r) for r in range(n_ranks)],
            puts_const=[len(rk.send_plan) * net.put_overhead for rk in ranks],
            sigma_m=node.effective_jitter(1), sigma_net=net.jitter_sigma,
            own_view=own_view, pend_buf=pend_buf, dx_buf=dx_buf,
            splans=self._warm_splans(),
            block_residual=block_residual, relax=relax,
            gauss_seidel=gauss_seidel, nat_rows=nat_rows, nat_beta=nat_beta,
            nat_relax_commit=nat_relax_commit, nat_tab=nat_tab,
            loc_parent=loc_parent, pend_parent=pend_parent,
        )
        if trc is not None:
            trc.run_start(
                "DistributedJacobi", self.n, n_ranks=n_ranks, tol=tol,
                omega=self.omega, termination=termination,
                reliable=self.reliable, eager=eager, method=self.method.name,
            )
        heartbeats_on = (
            self.recovery != "none"
            and n_ranks > 1
            and (bool(plan) or self.heartbeat_interval is not None)
        )
        may_hang = type(self.delay).is_hung is not DelayModel.is_hung
        # Plain runs — no faults, no loss rolls, no tracing, no reliable
        # protocol, no eager/detect/heartbeat machinery, no hang-capable
        # delay model — take the block loop: only START/COMMIT events can
        # then exist, and puts never touch the heap.
        plain = not (
            plan or self.drop_probability or self.duplicate_probability
            or trc is not None or self.reliable or eager
            or termination == "detect" or heartbeats_on or may_hang
        )
        # The compiled block loop needs the library and per-rank jitter
        # that can be drawn ahead: no delay model drawing from the rank's
        # generator (``constant_extra`` known for every rank).
        if plain and nat is not None and None not in run.const_extra:
            loop_name, loop = "native-block", self._native_block_loop(run, nat)
        elif plain:
            loop_name, loop = "block", self._block_loop(run)
        else:
            loop_name, loop = "general", self._general_loop(
                run, trc, eager, termination, report_every, heartbeats_on,
                may_hang,
            )
        converged, t_end, relaxations, commits_since_obs = loop
        # Final observation, skipped via the dirty flag when no row changed
        # since the last recorded one (recomputing would be pure waste).
        converged = obs.finish(t_end, relaxations, commits_since_obs, converged)
        if trc is not None:
            trc.run_end(t_end, converged, relaxations)
        return SimulationResult(
            x=x,
            converged=converged,
            times=obs.times,
            residual_norms=obs.residuals,
            relaxation_counts=obs.counts,
            iterations=np.array([rk.iterations for rk in ranks]),
            total_time=t_end,
            mode="eager" if eager else "async",
            telemetry=run.tm,
            loop=loop_name,
        )

    def _native_block_loop(self, run: _AsyncRun, nat) -> tuple:
        """:meth:`_block_loop` as one compiled call (``repro_block_loop``).

        The C loop keeps the Python loop's operation order exactly (the
        contract is in :mod:`repro.perf.native`): the same heap order, tie
        sort, seq stamps, mailbox flush, relax-commit kernel and time
        arithmetic. Its heap, batch and mailbox pool are run-owned NumPy
        buffers. It returns here only to record an observation (so the
        observer's NumPy sum stays the one norm), to refill a rank's
        chunk of scaled normals (drawn exactly as
        :class:`~repro.runtime.engine.PatternJitterStream` draws them),
        to grow the pool, and at the end.

        Returns ``(converged, t_end, relaxations, commits_since_obs)``.
        """
        from repro.perf.native import (
            BL_GROW, BL_OBSERVE, BL_REFILL, EVENT_DTYPE, BlockLoopState,
        )
        ranks = run.ranks
        n_ranks = len(ranks)
        lp = self._warm_loop(ranks)
        i64, f64 = np.int64, np.float64
        heap = np.zeros(n_ranks, dtype=EVENT_DTYPE)
        h = run.queue._heap  # the initial STARTs: a valid (t, s) heap
        heap[: len(h)] = [(t, s, kind, r, t, s) for t, s, kind, r, _ in h]
        cap = max(lp.max_puts, 1)
        buf = dict(
            nat_tab=run.nat_tab, cbase=np.array(run.cbase, dtype=f64),
            slow=np.array(run.slow, dtype=f64),
            cextra=np.array(run.const_extra, dtype=f64),
            puts_const=np.array(run.puts_const, dtype=f64), nrows=lp.nrows,
            iters=np.zeros(n_ranks, dtype=i64), out_ptr=lp.out_ptr,
            in_ptr=lp.in_ptr, in_edges=lp.in_edges, e_lo=lp.e_lo, e_w=lp.e_w,
            e_slots=lp.e_slots, e_gbase=lp.e_gbase, row_off=lp.row_off,
            cat_ptr=lp.cat_ptr, e_mb=lp.e_mb,
            pend=run.pend_parent, loc=run.loc_parent, width=lp.width,
            fac_off=lp.fac_off, fac=np.empty(lp.fac_size),
            ch_ptr=np.zeros(n_ranks, dtype=i64),
            ch_len=np.zeros(n_ranks, dtype=i64),
            ch_pos=np.zeros(n_ranks, dtype=i64),
            heap=heap, batch=np.empty(n_ranks, dtype=EVENT_DTYPE),
            edge_head=np.full(lp.n_edges, -1, dtype=i64),
            # The mailbox pool: one slot per in-flight put, with room for
            # the widest edge's values at address ``slot_ptr[i]``. It
            # starts with room for one commit's puts and doubles whenever
            # a commit could not fire its puts, so it tracks the records
            # in flight.
            slot_s=np.empty(cap, dtype=i64), slot_next=np.empty(cap, dtype=i64),
            free_stack=np.arange(cap, dtype=i64), slot_t=np.empty(cap),
            slot_ptr=np.empty(cap, dtype=i64),
        )
        # Slot values live in segments, one per growth, so growing copies
        # only the per-slot tables, never a value.
        segments: list = []

        def add_segment(first: int, n: int) -> None:
            seg = np.empty(n * lp.W)
            segments.append(seg)
            buf["slot_ptr"][first:] = seg.ctypes.data + 8 * lp.W * np.arange(n)

        add_segment(0, cap)
        st = BlockLoopState(
            n_ranks=n_ranks, max_iter=run.max_iterations,
            observe_every=run.observe_every, row_stride=run.nat_tab.shape[1],
            W=lp.W, beta=run.nat_beta, ovbase=run.ovbase, heap_n=len(h),
            n_edges=lp.n_edges, free_top=cap, seq=run.queue._seq,
            converged=run.obs.residuals[0] < run.tol,
        )

        def bind(names):
            for name in names:
                setattr(st, name, buf[name].ctypes.data)

        bind(buf)
        ch_ptr, ch_len, ch_pos = buf["ch_ptr"], buf["ch_len"], buf["ch_pos"]
        chunks: list = [None] * n_ranks  # keeps each rank's chunk alive
        steps = [8] * n_ranks

        def refill(r: int) -> None:
            """The next chunk of rank ``r``'s scaled normals: 8 steps first,
            growing 4x per refill to 64 (PatternJitterStream's rule)."""
            k = steps[r]
            steps[r] = min(k * 4, 64)
            c = chunks[r] = scaled_normals(ranks[r].rng, *lp.jitter[r], k)
            ch_ptr[r], ch_len[r], ch_pos[r] = c.ctypes.data, c.size, 0

        def grow() -> None:
            """Double the mailbox pool, keeping every record in place."""
            n = buf["slot_t"].size
            for name in ("slot_t", "slot_s", "slot_next", "slot_ptr"):
                a = buf[name]
                buf[name] = np.concatenate((a, np.empty(n, dtype=a.dtype)))
            add_segment(n, n)
            top = st.free_top
            fs = np.empty(2 * n, dtype=i64)
            fs[:top] = buf["free_stack"][:top]
            fs[top : top + n] = np.arange(n, 2 * n)
            buf["free_stack"] = fs
            st.free_top = top + n
            bind(("slot_t", "slot_s", "slot_next", "slot_ptr", "free_stack"))

        for r in range(n_ranks):
            refill(r)
        call, ref = nat.block_loop, ctypes.addressof(st)
        observe, tol = run.obs.observe, run.tol
        while True:
            code = call(ref)
            if code == BL_OBSERVE:
                st.converged = observe(st.t_end, st.relaxations) < tol
            elif code == BL_REFILL:
                refill(st.need)
            elif code == BL_GROW:
                grow()
            else:
                break
        for rk, it in zip(ranks, buf["iters"].tolist()):
            rk.iterations = it
        run.tm.puts_sent += st.puts_sent
        run.tm.puts_delivered += st.delivered
        return bool(st.converged), st.t_end, st.relaxations, st.commits_since_obs

    def _block_loop(self, run: _AsyncRun) -> tuple:
        """A plain run's event loop: one heap event per block iteration.

        A _START appears only as each rank's initial wake-up; every other
        event is a _COMMIT carrying the iteration's *virtual read cursor*
        ``(t_start, start_seq)`` — the (time, seq) a separate START event
        would have occupied (the seq counter advances at exactly the same
        processing points as in the general loop). At the pop the whole
        read-relax-commit span runs back to back: the mailbox cut at the
        virtual cursor reproduces what the relax would have seen at the
        START (later arrivals stay boxed), own rows are only ever written
        by their owner, and same-instant commits apply in virtual-cursor
        order — the order separate COMMIT events' seqs (assigned at their
        START pops) would have induced.

        Returns ``(converged, t_end, relaxations, commits_since_obs)``.
        """
        x, ranks, tm = run.x, run.ranks, run.tm
        n_ranks = len(ranks)
        put_plan, cat_rows, nrows_loc = run.wp.put_plan, run.wp.cat_rows, run.wp.nrows_loc
        cbase, slow, ovbase = run.cbase, run.slow, run.ovbase
        puts_const, const_extra = run.puts_const, run.const_extra
        sigma_m, sigma_net = run.sigma_m, run.sigma_net
        pend_buf, own_view, dx_buf = run.pend_buf, run.own_view, run.dx_buf
        relax, gauss_seidel = run.relax, run.gauss_seidel
        nat_rows, nat_beta = run.nat_rows, run.nat_beta
        nat_relax_commit = run.nat_relax_commit
        splans, r_vec, observe = run.splans, run.obs.r, run.obs.observe
        tol, max_iterations = run.tol, run.max_iterations
        observe_every = run.observe_every
        delay = self.delay
        # One jitter stream per rank: in a plain run a rank's generator
        # is consumed in a fixed per-iteration pattern — one machine
        # jitter for the compute span, one network jitter per put at
        # the commit, one machine jitter for the next overhead span —
        # so a whole iteration's factors are one PatternJitterStream
        # step, bit-identical to the scalar draws (a zero sigma yields
        # 1.0 and draws nothing). A rank whose delay model draws from
        # the same generator steps without prefetching; its
        # ``extra_time`` draw then follows the step's factors, the
        # scalar order.
        fstreams = [
            PatternJitterStream(
                frk.rng,
                [sigma_m] + [sigma_net] * len(put_plan[fr]) + [sigma_m],
                steps=1 if const_extra[fr] is None else 64,
            )
            for fr, frk in enumerate(ranks)
        ]
        fbuf: list = [None] * n_ranks  # current iteration's factors
        ghosts_of = [rk.ghosts for rk in ranks]
        rows_of = [rk.rows for rk in ranks]
        delivered = 0
        # The loop inlines push/pop on the heap's flat (time, seq,
        # kind, agent, obj) tuples.
        heap = run.queue._heap
        hpush = heapq.heappush
        hpop = heapq.heappop
        seq = run.queue._seq
        # Mailbox delivery: puts skip the heap entirely. Each directed
        # edge keeps an in-flight list of ``(arrival, stamp, values)``
        # records, where ``stamp`` is the seq a per-message heap push
        # would have consumed (the counter advances identically, so
        # every other event keeps its exact seq). Flushing the records
        # with ``(arrival, stamp) < (t, seq)`` at the receiver's next
        # read replicates heap pop order bit-for-bit, ties included;
        # only the newest flushed record is scattered — a put
        # overwrites the edge's whole fixed slot set, so the older
        # ones were never observable between reads.
        fire = []  # per rank: (box, mb, lo, hi) per put entry
        in_boxes = [[] for _ in range(n_ranks)]
        for frk in ranks:
            entries_r, off = [], 0
            for q, slots_q, local_rows, mb in put_plan[frk.rank]:
                box: list = []
                entries_r.append((box, mb, off, off + local_rows.size))
                in_boxes[q].append((box, slots_q))
                off += local_rows.size
            fire.append(entries_r)
        relaxations = 0
        commits_since_obs = 0
        t_end = 0.0
        converged = run.obs.residuals[0] < tol
        conv_cursor = None
        while heap and not converged:
            ev = hpop(heap)
            if heap and heap[0][0] == ev[0]:
                tb = ev[0]
                batch = [ev]
                while heap and heap[0][0] == tb:
                    batch.append(hpop(heap))
                batch.sort(
                    key=lambda e: e[4] if e[2] == _COMMIT else (e[0], e[1])
                )
            else:
                batch = (ev,)
            for ev in batch:
                if converged:
                    break
                t, s, kind, rid, payload = ev
                rk = ranks[rid]
                if kind == _START:
                    # Initial wake-up: realize the first virtual read at
                    # (t, s) and schedule the first block event.
                    fl = fbuf[rid] = fstreams[rid].next_step()
                    hpush(
                        heap,
                        (t + (cbase[rid] * fl[0]) * slow[rid], seq, _COMMIT,
                         rid, (t, s)),
                    )
                    seq += 1
                    continue
                # _COMMIT: flush the mailbox at the virtual read cursor,
                # relax, then commit — one whole block iteration.
                ts, sv = payload
                for box, slots in in_boxes[rid]:
                    if not box:
                        continue
                    best = None
                    rest = None
                    for e in box:
                        if e[0] < ts or (e[0] == ts and e[1] < sv):
                            delivered += 1
                            if best is None or e > best:
                                best = e
                        elif rest is None:
                            rest = [e]
                        else:
                            rest.append(e)
                    if best is not None:
                        ghosts_of[rid][slots] = best[2]
                        if rest is None:
                            box.clear()
                        else:
                            box[:] = rest
                pb = pend_buf[rid]
                if nat_rows is not None:
                    # One compiled call: the relax, the ``x`` store and the
                    # residual scatter.
                    nat_relax_commit(nat_rows[rid], nat_beta)
                else:
                    relax(rk)
                    # The commit directly follows the rank's own relax, so
                    # ``own_view`` still holds ``x[rows]`` as of the take
                    # in ``relax`` (only the owner writes its rows) — the
                    # old-value gather is free. Gauss-Seidel relaxes in
                    # place through ``own_view``, so it re-gathers.
                    if gauss_seidel:
                        x.take(rows_of[rid], out=own_view[rid])
                    np.subtract(pb, own_view[rid], out=dx_buf[rid])
                    x[rows_of[rid]] = pb
                    splans[rid].apply(r_vec, dx_buf[rid])
                rk.iterations += 1
                relaxations += nrows_loc[rid]
                t_end = t
                f = fbuf[rid]
                fent = fire[rid]
                if fent:
                    vals = pb.take(cat_rows[rid])
                    for j, (box, mb, lo, hi) in enumerate(fent, 1):
                        box.append((t + mb * f[j], seq, vals[lo:hi]))
                        seq += 1
                tm.puts_sent += len(fent)
                commits_since_obs += 1
                if commits_since_obs >= observe_every:
                    commits_since_obs = 0
                    if observe(t, relaxations) < tol:
                        converged = True
                        # Measure-zero caveat: a message arriving at
                        # *exactly* this event's time counts against this
                        # event's seq rather than the seq a separate
                        # COMMIT event would have carried; under any
                        # nonzero jitter exact ties never occur.
                        conv_cursor = (t, s)
                        continue
                if rk.iterations >= max_iterations:
                    rk.stopped = True
                    continue
                # Next block event: the virtual START at t + overhead
                # consumes the seq its real push would have, then the
                # next iteration's factors are drawn — the same per-rank
                # draw positions the general loop uses.
                ce = const_extra[rid]
                if ce is None:
                    ce = delay.extra_time(rid, rk.iterations, rk.rng)
                nts = t + ((ovbase * f[-1] + puts_const[rid]) * slow[rid] + ce)
                nsv = seq
                seq += 1
                fl = fbuf[rid] = fstreams[rid].next_step()
                hpush(
                    heap,
                    (nts + (cbase[rid] * fl[0]) * slow[rid], seq, _COMMIT, rid,
                     (nts, nsv)),
                )
                seq += 1
        # Messages still boxed at exit: a drained heap means per-put
        # events would all have been popped (delivered); a convergence
        # exit delivers exactly those that arrival-precede the
        # converging commit event.
        if conv_cursor is not None:
            ct, cs = conv_cursor
            for fent in fire:
                for box, _mb, _lo, _hi in fent:
                    for e in box:
                        if e[0] < ct or (e[0] == ct and e[1] < cs):
                            delivered += 1
        elif not converged:
            for fent in fire:
                for box, _mb, _lo, _hi in fent:
                    delivered += len(box)
        tm.puts_delivered += delivered
        return converged, t_end, relaxations, commits_since_obs

    def _attach_read_maps(self, ranks) -> np.ndarray:
        """Set up read-version capture; returns the global commit ledger.

        Each rank gets its ghost values' versions and each local row's
        neighbor layout, split into own-block columns and ghost slots.
        """
        owner = self.decomposition.labels
        for rk in ranks:
            slots = {int(g): i for i, g in enumerate(rk.ghost_cols)}
            rk.ghost_ver = np.zeros(rk.ghost_cols.size, dtype=np.int64)
            rk.read_map = []
            for g in rk.rows:
                nbrs = [int(j) for j in self.A.neighbors(int(g))]
                rk.read_map.append((
                    [j for j in nbrs if owner[j] == rk.rank],
                    [(j, slots[j]) for j in nbrs if owner[j] != rk.rank],
                ))
        return np.zeros(self.n, dtype=np.int64)

    def _general_loop(
        self, run: _AsyncRun, trc, eager: bool, termination: str,
        report_every: int, heartbeats_on: bool, may_hang: bool,
    ) -> tuple:
        """Every other run's event loop: one START and one COMMIT event per
        block iteration plus the protocol traffic, one event per pop.

        The fault plan, loss rolls, reliable puts, heartbeats, adoption,
        eager waits, termination detection and tracing live here as
        closures over state only this loop builds.

        Returns ``(converged, t_end, relaxations, commits_since_obs)``.
        """
        x, ranks, queue, tm = run.x, run.ranks, run.queue, run.tm
        n_ranks = self.n_ranks
        net = self.cluster.network
        plan = self.fault_plan
        reliable = self.reliable
        fs = self.fault_seed if self.fault_seed is not None else plan.seed
        if fs is None and self.seed is not None:
            fs = int(self.seed) ^ 0x5EED
        fail_rng = as_rng(fs)
        lat, lat_in, tpv = net.latency, net.intra_node_latency, net.time_per_value
        node_of = [r // self.ranks_per_node for r in range(n_ranks)]
        cbase, slow, ovbase = run.cbase, run.slow, run.ovbase
        puts_const, const_extra = run.puts_const, run.const_extra
        sigma_m, sigma_net = run.sigma_m, run.sigma_net
        has_plan = bool(plan)
        drop_p = self.drop_probability
        dup_p = self.duplicate_probability
        detect = termination == "detect"
        put_plan = run.wp.put_plan
        pend_buf, dx_buf = run.pend_buf, run.dx_buf
        splans, r_vec, observe = run.splans, run.obs.r, run.obs.observe
        relax, block_residual = run.relax, run.block_residual
        tol, max_iterations = run.tol, run.max_iterations
        observe_every = run.observe_every
        down = plan.is_down

        def local_residual_norm(rk: _Rank) -> float:
            """Block residual 1-norm from the rank's current (stale) view."""
            mv = block_residual(rk)
            return float(np.sum(np.abs(mv, out=mv)))

        # Chunked standard-normal streams: a rank's generator serves both
        # machine jitter (sigma_m) and network jitter (sigma_net), so the
        # raw normals are chunked and ``exp(sigma * z)`` applied per draw
        # (bit-identical to scalar ``lognormal``; see
        # :class:`~repro.runtime.engine.NormalStream`). A rank whose delay
        # model draws from the same generator draws one normal per call.
        streams = [
            NormalStream(rk.rng, chunk=512 if const_extra[rk.rank] is not None else 1)
            for rk in ranks
        ]

        def mjit(r: int) -> float:
            return math.exp(sigma_m * streams[r].next()) if sigma_m > 0 else 1.0

        def compute_time(rk: _Rank) -> float:
            return cbase[rk.rank] * mjit(rk.rank) * slow[rk.rank]

        def overhead_time(rk: _Rank) -> float:
            r = rk.rank
            base = ovbase * mjit(r)  # drawn before any delay-model draw
            ce = const_extra[r]
            if ce is None:
                ce = self.delay.extra_time(r, rk.iterations, rk.rng)
            return (base + puts_const[r]) * slow[r] + ce

        def net_jit(r: int) -> float:
            return math.exp(sigma_net * streams[r].next()) if sigma_net > 0 else 1.0

        def msg_time(n_values: int, r: int, intra: bool = False) -> float:
            return ((lat_in if intra else lat) + n_values * tpv) * net_jit(r)

        trace_reads = trc is not None and trc.trace_reads
        version = self._attach_read_maps(ranks) if trace_reads else None

        def commit_rows(block: _Rank) -> None:
            """Publish a block's pending update, maintaining the residual."""
            r = block.rank
            dx = x.take(block.rows, out=dx_buf[r])
            np.subtract(pend_buf[r], dx, out=dx)
            x[block.rows] = pend_buf[r]
            splans[r].apply(r_vec, dx)
            if version is not None:
                version[block.rows] += 1

        def capture_reads(block: _Rank) -> None:
            """Snapshot the versions this relaxation reads (at START)."""
            reads = []
            for own, ghost in block.read_map:
                d = {j: int(version[j]) for j in own}
                for j, slot in ghost:
                    d[j] = int(block.ghost_ver[slot])
                reads.append(d)
            block.pending_reads = reads

        def emit_relax(block: _Rank, t: float) -> None:
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

        relaxations = 0
        commits_since_obs = 0
        converged = run.obs.residuals[0] < tol
        t_end = 0.0

        # Eager-mode bookkeeping: has rank seen fresh data since last relax?
        fresh = [True] * n_ranks
        idle = [False] * n_ranks
        # Incoming-neighbour sets: which ranks put into rid's ghost layer.
        senders = [set() for _ in range(n_ranks)]
        for rk in ranks:
            for q, _, _ in rk.send_plan:
                senders[q].add(rk.rank)
        # Termination detection state (rank 0 is the detector).
        b_norm = run.wp.b_norm1 or 1.0
        reported = np.full(n_ranks, np.inf)
        if detect:
            reported[:] = [local_residual_norm(rk) for rk in ranks]
        stop_broadcast = False

        # Heartbeat failure detection (rank 0 is also the detector).
        hb_interval = self.heartbeat_interval
        if hb_interval is None:
            hb_interval = 10.0 * (self.cluster.node.iteration_overhead + 2.0 * lat)
        hb_timeout = self.heartbeat_miss * hb_interval
        last_hb = [0.0] * n_ranks
        hb_chain_alive = [False] * n_ranks
        hb_stopped = False  # set once the run is quiescent; chains then end
        presumed_dead = [False] * n_ranks
        adopted_by: dict = {}  # dead rank -> adopter rank
        adopters: dict = {}  # adopter rank -> [dead ranks]
        adopt_snapshot: dict = {}  # adopter rank -> dead ranks read at START
        degraded_since = None
        if heartbeats_on:
            for rk in ranks:
                hb_chain_alive[rk.rank] = True
                queue.push(
                    float(rk.rng.random()) * hb_interval, _HEARTBEAT, rk.rank, None
                )
            queue.push(hb_interval, _HB_CHECK, 0, None)

        # Reliable-put protocol state, keyed by directed channel (src, dst).
        next_seq: dict = {}  # channel -> next sequence number
        applied_seq: dict = {}  # channel -> newest applied sequence number
        outstanding: dict = {}  # channel -> {seq: [slots, values, attempts, rto]}

        # Mailbox delivery in the general loop: each arriving put is
        # recorded per directed edge (the ``slots`` arrays are per-edge
        # singletons, so ``id(slots)`` keys them) and the lot is applied in
        # one pass right before the receiver's next read. Protocol work —
        # acks, dedup, traces, telemetry, eager wake-ups — stays at arrival
        # time, so only the memory traffic moves. Newest-record-wins
        # matches per-put scatter order because each put on an edge covers
        # the edge's full slot set and distinct edges touch disjoint ghost
        # slots.
        pend_scatter = [dict() for _ in range(n_ranks)]

        def flush_ghosts(block: _Rank) -> None:
            """Apply the block's pending ghost scatters in one pass."""
            ps = pend_scatter[block.rank]
            if not ps:
                return
            gh = block.ghosts
            gv = block.ghost_ver
            for slots, values, vers in ps.values():
                gh[slots] = values
                if vers is not None:
                    # maximum.at keeps the newest version even if a stale
                    # retransmit were ever recorded behind a fresher one.
                    np.maximum.at(gv, slots, vers)
            ps.clear()

        def resync_ghosts(block: _Rank) -> None:
            """Re-read the block's ghost layer from the committed state; the
            re-sync supersedes anything still boxed for it."""
            if block.ghost_cols.size:
                block.ghosts[:] = x[block.ghost_cols]
                if trace_reads:
                    block.ghost_ver[:] = version[block.ghost_cols]
                pend_scatter[block.rank].clear()

        def control_lost(src: int, dst: int, t: float) -> bool:
            """Loss roll for a small control message (ack/heartbeat/report)."""
            if plan.blocks_message(src, dst, t):
                return True
            p = drop_p
            burst = plan.drop_probability(src, t)
            if burst:
                p = 1.0 - (1.0 - p) * (1.0 - burst)
            return bool(p) and fail_rng.random() < p

        def put_lost(p: int, q: int, t: float) -> bool:
            """Loss rolls for one put in a fixed short-circuit order: the
            base drop probability, a partition, then the plan's drop burst."""
            if drop_p and fail_rng.random() < drop_p:
                return True
            if not has_plan:
                return False
            if plan.blocks_message(p, q, t):
                return True
            pb = plan.drop_probability(p, t)
            return bool(pb) and fail_rng.random() < pb

        def transmit(ch, seq: int, rec, t: float) -> None:
            """One (re)transmission of a reliable put + its retry timer."""
            p, q = ch
            slots_q, values, timeout = rec[0], rec[1], rec[3]
            if trc is not None:
                trc.send(t, p, q, values.size, seq=seq)
            pc = plan.corrupt_probability(p, t)
            corrupted = bool(pc) and fail_rng.random() < pc
            intra = node_of[p] == node_of[q]
            if put_lost(p, q, t):
                tm.puts_dropped += 1
                if trc is not None:
                    trc.fault(t, p, "put_dropped", dst=q)
            else:
                meta = None
                if trc is not None:
                    meta = {"sent_at": t}
                    if rec[4] is not None:
                        meta["vers"] = rec[4]
                arrival = t + msg_time(values.size, p, intra)
                queue.push(
                    arrival, _MESSAGE, q, (p, seq, slots_q, values, corrupted, meta)
                )
                if dup_p and fail_rng.random() < dup_p:
                    arrival = t + msg_time(values.size, p, intra)
                    queue.push(
                        arrival, _MESSAGE, q,
                        (p, seq, slots_q, values, corrupted, meta),
                    )
            queue.push(t + timeout, _RETRY, p, (q, seq))

        def fire_puts(rk: _Rank, t: float) -> None:
            r = rk.rank
            entries = put_plan[r]
            pending = pend_buf[r]
            if reliable:
                for q, slots_q, local_rows, _mb in entries:
                    # The put carries the just-committed values, so their
                    # versions are snapshotted once; retransmissions resend
                    # the same payload. The fancy index is itself a fresh
                    # array — the payload's one unavoidable allocation.
                    vers = version[rk.rows[local_rows]].copy() if trace_reads else None
                    ch = (r, q)
                    seq = next_seq.get(ch, 0)
                    next_seq[ch] = seq + 1
                    tm.puts_sent += 1
                    # Base retransmission timeout: a generous round-trip
                    # multiple unless given.
                    timeout = self.ack_timeout
                    if timeout is None:
                        timeout = 6.0 * (2.0 * lat + local_rows.size * tpv)
                    rec = [slots_q, pending[local_rows], 0, timeout, vers]
                    outstanding.setdefault(ch, {})[seq] = rec
                    transmit(ch, seq, rec, t)
                return
            # Fire-and-forget RMA puts (RNG call order pinned by the engine
            # digest corpus; an inactive network jitter's factor is 1.0).
            for q, slots_q, local_rows, mb in entries:
                tm.puts_sent += 1
                if trc is not None:
                    trc.send(t, r, q, local_rows.size)
                if put_lost(r, q, t):
                    tm.puts_dropped += 1
                    if trc is not None:
                        trc.fault(t, r, "put_dropped", dst=q)
                    continue
                if has_plan:
                    pc = plan.corrupt_probability(r, t)
                    if pc and fail_rng.random() < pc:
                        # No checksum without the protocol: the garbage put
                        # is modeled as lost at the NIC, never applied.
                        tm.puts_corrupted += 1
                        if trc is not None:
                            trc.fault(t, r, "put_corrupted", dst=q)
                        continue
                values = pending[local_rows]
                meta = None
                if trc is not None:
                    meta = {"sent_at": t}
                    if trace_reads:
                        meta["vers"] = version[rk.rows[local_rows]].copy()
                n_copies = 1
                if dup_p and fail_rng.random() < dup_p:
                    n_copies = 2
                payload = (slots_q, values, meta)
                for _ in range(n_copies):
                    queue.push(t + mb * net_jit(r), _MESSAGE, q, payload)

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
                    queue.push(t, _START, r, other.epoch)

        def update_degraded(t: float) -> None:
            """Open/close the degraded-mode interval on membership changes."""
            nonlocal degraded_since
            now_degraded = any(
                presumed_dead[r] and r not in adopted_by
                for r in range(n_ranks)
            )
            if now_degraded and degraded_since is None:
                degraded_since = t
            elif not now_degraded and degraded_since is not None:
                tm.degraded_intervals.append((degraded_since, t))
                degraded_since = None

        def maybe_stop(t: float) -> None:
            """Detect-mode stop check over the non-excluded reporters."""
            nonlocal stop_broadcast
            if not detect or stop_broadcast:
                return
            if has_plan and down(0, t):
                return  # a crashed detector aggregates nothing, stops nobody
            included = np.array(
                [
                    not (presumed_dead[r] and r not in adopted_by)
                    for r in range(n_ranks)
                ]
            )
            if float(np.sum(reported[included])) / b_norm < tol:
                stop_broadcast = True
                for other in ranks:
                    delay = msg_time(1, other.rank)
                    queue.push(t + delay, _STOP, other.rank, None)

        def schedule_adoption(dead: int, t: float) -> None:
            """Pick the lowest-ranked live neighbour and notify it."""
            neighbours = sorted({q for q, _, _ in ranks[dead].send_plan})
            others = [p for p in range(n_ranks) if p not in neighbours]
            for p in neighbours + others:
                if p == dead or presumed_dead[p] or ranks[p].stopped:
                    continue
                if down(p, t) or plan.down_forever(p, t):
                    continue
                queue.push(t + msg_time(1, 0), _FAIL_NOTICE, p, dead)
                return

        def declare_failed(r: int, t: float) -> None:
            presumed_dead[r] = True
            tm.failures_detected.append((r, t))
            if trc is not None:
                trc.detect(t, r, "dead")
            update_degraded(t)
            if self.recovery == "adopt":
                schedule_adoption(r, t)
            wake_orphans(t)
            maybe_stop(t)

        def release_adoption(dead: int) -> None:
            adopter = adopted_by.pop(dead, None)
            if adopter is not None:
                adopters[adopter].remove(dead)

        while queue and not converged:
            t, kind, rid, payload = queue.pop()
            rk = ranks[rid]
            if kind == _MESSAGE:
                if has_plan and down(rid, t):
                    # The target window is gone; the put lands nowhere.
                    tm.puts_dropped += 1
                    continue
                if reliable:
                    src, seq, slots, values, corrupted, meta = payload
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
                        arrival = t + msg_time(
                            1, rid, node_of[rid] == node_of[src]
                        )
                        queue.push(arrival, _ACK, src, (rid, seq))
                    if seq <= applied_seq.get(ch, -1):
                        tm.duplicates_suppressed += 1
                        continue
                    applied_seq[ch] = seq
                else:
                    # Fire-and-forget puts: no protocol, and ``meta`` is
                    # None when untraced.
                    slots, values, meta = payload
                    src = seq = None
                # The landing: the ghost scatter IS the one-sided RMA write.
                vers = meta.get("vers") if trace_reads and meta else None
                pend_scatter[rid][id(slots)] = (slots, values, vers)
                tm.puts_delivered += 1
                if trc is not None:
                    trc.recv(
                        t, rid, src, values.size, seq=seq,
                        latency=(t - meta["sent_at"]) if meta else None,
                    )
                fresh[rid] = True
                if eager and idle[rid] and not rk.stopped:
                    idle[rid] = False
                    queue.push(t, _START, rid, rk.epoch)
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
                if rk.stopped or (has_plan and down(rid, t)):
                    # A dead/stopped sender's protocol state dies with it.
                    outstanding[ch].pop(seq, None)
                    continue
                rec[2] += 1
                if rec[2] > self.max_put_retries:
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
                # A delay-model hang silences the rank's heartbeat chain
                # too — a hung process cannot beat, which is exactly how
                # the detector learns it is gone. Plan crashes revive the
                # chain at _RESTART; delay hangs are permanent.
                if (
                    hb_stopped
                    or rk.stopped
                    or down(rid, t)
                    or (may_hang and self.delay.is_hung(rid, t))
                ):
                    hb_chain_alive[rid] = False
                    continue
                tm.heartbeats_sent += 1
                if rid == 0:
                    last_hb[0] = t
                elif control_lost(rid, 0, t):
                    tm.heartbeats_lost += 1
                else:
                    arrival = t + msg_time(1, rid, node_of[rid] == node_of[0])
                    queue.push(arrival, _HB_ARRIVE, 0, rid)
                queue.push(t + hb_interval, _HEARTBEAT, rid, None)
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
                    for r in range(1, n_ranks):
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
                    or (may_hang and self.delay.is_hung(other.rank, t))
                    for other in ranks
                )
                if quiescent and any(idle):
                    # An idle rank is only truly stuck when no data, retry
                    # or restart event is still in flight to wake it.
                    quiescent = all(
                        k in _HB_KINDS for k, _a, _o in queue.pending_payloads()
                    )
                if quiescent:
                    hb_stopped = True
                else:
                    queue.push(t + hb_interval, _HB_CHECK, 0, None)
                continue
            if kind == _RESTART:
                if rk.stopped:
                    continue
                rk.epoch += 1  # invalidate the pre-crash incarnation's events
                resync_ghosts(rk)
                tm.restarts.append((rid, t))
                if trc is not None:
                    trc.fault(t, rid, "restart")
                release_adoption(rid)
                fresh[rid] = True
                idle[rid] = False
                queue.push(t + overhead_time(rk), _START, rid, rk.epoch)
                if heartbeats_on and not hb_chain_alive[rid]:
                    hb_chain_alive[rid] = True
                    queue.push(t, _HEARTBEAT, rid, None)
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
                resync_ghosts(ranks[dead])
                tm.adoptions.append((dead, rid, t))
                if trc is not None:
                    trc.detect(t, dead, "adopted")
                update_degraded(t)
                if eager and idle[rid] and not rk.stopped:
                    idle[rid] = False
                    queue.push(t, _START, rid, rk.epoch)
                continue
            if kind == _REPORT:
                # A rank's residual report reaches the detector (rank 0);
                # while rank 0 is scripted down the report lands nowhere.
                if has_plan and down(0, t):
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
                if (
                    (may_hang and self.delay.is_hung(rid, t))
                    or rk.stopped
                    or (has_plan and down(rid, t))
                ):
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
                flush_ghosts(rk)
                # Read-to-write span: reads (own + ghosts) now, write at COMMIT.
                relax(rk)
                if trace_reads:
                    capture_reads(rk)
                if adopters:
                    snap = list(adopters.get(rid, ()))
                    adopt_snapshot[rid] = snap
                else:
                    snap = ()
                if detect and rk.iterations % report_every == 0:
                    # Local residual norm from the same (possibly stale) view.
                    arrival = t + msg_time(1, rid)
                    queue.push(arrival, _REPORT, rid, local_residual_norm(rk))
                compute = compute_time(rk)
                for d in snap:
                    # Hosting an adopted block: refresh its ghost layer from
                    # the committed state, relax it, pay its compute time.
                    drk = ranks[d]
                    resync_ghosts(drk)
                    relax(drk)
                    if trace_reads:
                        capture_reads(drk)
                    compute += compute_time(drk)
                    if detect and rk.iterations % report_every == 0:
                        arrival = t + msg_time(1, rid)
                        queue.push(arrival, _REPORT, d, local_residual_norm(drk))
                queue.push(t + compute, _COMMIT, rid, rk.epoch)
            else:  # _COMMIT
                if payload != rk.epoch or (has_plan and down(rid, t)):
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
                snap = adopt_snapshot.pop(rid, ()) if adopt_snapshot else ()
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
                    res = observe(t, relaxations)
                    if not detect and res < tol:
                        converged = True
                        if trc is not None:
                            trc.convergence(t, res, tol)
                        break
                if rk.iterations >= max_iterations:
                    rk.stopped = True
                else:
                    # Next read only begins after the off-span overhead.
                    queue.push(t + overhead_time(rk), _START, rid, rk.epoch)

        if degraded_since is not None:
            tm.degraded_intervals.append((degraded_since, max(t_end, degraded_since)))
        return converged, t_end, relaxations, commits_since_obs

    # ------------------------------------------------------------------
    def run_sync(
        self,
        x0=None,
        tol: float = 1e-3,
        max_iterations: int = 10_000,
        legacy_engine: bool = False,
    ) -> SimulationResult:
        """Synchronous (point-to-point) execution.

        Every sweep: post ghost exchanges, wait for the slowest rank's
        compute and the largest message, relax, allreduce for the residual
        check. Numerically identical to global Jacobi.

        The sweep timing draws a fixed per-rank pattern every sweep — two
        machine-jitter lognormals plus one network lognormal per outgoing
        message. Unless a delay model draws from a rank's generator, the
        draws come in blocks of sweeps from one
        :class:`~repro.runtime.engine.PatternJitterStream` per rank and
        the sweep costs are reduced as arrays; otherwise every rank draws
        scalar lognormals in the order compute, overhead, delay, messages.
        Both sources feed the same sweep and are bit-identical to the
        deleted pre-engine scalar loop, whose trajectories
        ``tests/runtime/engine_digests.json`` freezes; ``legacy_engine=True``
        raises ``ValueError``. ``max_iterations`` must be a positive
        integer (``ValueError`` otherwise).
        """
        max_iterations = check_positive_int(max_iterations, "max_iterations")
        refuse_legacy_engine(legacy_engine)
        check_positive(tol, "tol")
        dinv = self.dinv
        x = np.zeros(self.n) if x0 is None else check_vector(x0, self.n, "x0").copy()
        ranks = self._compile_ranks()
        net = self.cluster.network
        node = self.cluster.node
        allreduce = net.allreduce_cost(self.n_ranks)

        # Per-rank constants of the sweep-timing recurrence (the arithmetic
        # the engine corpus pins: ``(cbase*jit)*slow + (ovbase*jit + puts)*slow
        # + extra``).
        thr = node.smt_throughput(1)
        sigma_m = node.effective_jitter(1)
        sigma_net = net.jitter_sigma
        tpn, tpr = node.time_per_nnz, node.time_per_row
        lat, tpv = net.latency, net.time_per_value
        ovbase = node.iteration_overhead / thr
        slow = [self._slowdown(rk.rank) for rk in ranks]
        const_extra = [self.delay.constant_extra(rk.rank) for rk in ranks]
        cbase = [
            (rk.local.nnz * tpn + rk.rows.size * tpr) / thr for rk in ranks
        ]
        puts_const = [
            len(rk.send_plan) * net.put_overhead for rk in ranks
        ]
        # Sync-mode messages always pay the inter-node latency, as the
        # pre-engine loop did and the engine corpus pins.
        msg_bases = [
            [lat + local_rows.size * tpv for _, _, local_rows in rk.send_plan]
            for rk in ranks
        ]
        # Two timing sources, chosen by the delay model. When no rank's
        # delay model draws from its generator, every rank's per-sweep
        # draws — [sigma_m, sigma_m] then sigma_net per message — come
        # from its PatternJitterStream, and whole blocks of sweeps are
        # drawn, exponentiated and max-reduced as arrays. Ranks are
        # grouped by pattern width so each group stacks into one
        # rectangular block; ``max`` is exact, so reducing across ranks
        # elementwise (from 0.0, like the scalar running max) is bitwise
        # the scalar loop, and per-factor arithmetic keeps the scalar
        # operand order (``(cbase*f)*slow`` etc.). An inactive jitter's
        # factor is exactly 1.0. Otherwise every rank draws scalar
        # lognormals in the sync order — compute, overhead, the delay's
        # ``extra_time``, then one per message.
        vec = all(ce is not None for ce in const_extra)
        if vec:
            next_blocks = PatternJitterStream.next_blocks
            groups: dict = {}
            for ri, rk in enumerate(ranks):
                groups.setdefault(len(rk.send_plan), []).append(ri)
            gmeta = []
            for ne, idxs in groups.items():
                sts = [
                    PatternJitterStream(
                        ranks[ri].rng, [sigma_m, sigma_m] + [sigma_net] * ne
                    )
                    for ri in idxs
                ]
                cb = np.array([cbase[ri] for ri in idxs])[:, None]
                sl = np.array([slow[ri] for ri in idxs])[:, None]
                pc = np.array([puts_const[ri] for ri in idxs])[:, None]
                ce = np.array([const_extra[ri] for ri in idxs])[:, None]
                mb_mat = (
                    np.array([msg_bases[ri] for ri in idxs])[:, None, :]
                    if ne
                    else None
                )
                gmeta.append((sts, cb, sl, pc, ce, mb_mat))

            def _sweep_chunk(S: int):
                """(compute, comm) lists for the next ``S`` sweeps."""
                comp_c = np.zeros(S)
                comm_c = np.zeros(S)
                for sts, cb, sl, pc, ce, mb_mat in gmeta:
                    fac = next_blocks(sts, S)
                    t1 = fac[:, :, 0] * cb
                    t1 *= sl
                    t2 = fac[:, :, 1] * ovbase
                    t2 += pc
                    t2 *= sl
                    t2 += ce
                    t1 += t2
                    np.maximum(comp_c, np.max(t1, axis=0), out=comp_c)
                    if mb_mat is not None:
                        mv = fac[:, :, 2:] * mb_mat
                        np.maximum(comm_c, np.max(mv, axis=(0, 2)), out=comm_c)
                return comp_c.tolist(), comm_c.tolist()

        else:

            def lognormal(rng, sigma: float) -> float:
                """A scalar jitter factor; an inactive jitter draws nothing."""
                return float(rng.lognormal(0.0, sigma)) if sigma > 0 else 1.0

            def _sweep_scalar():
                """(compute, comm) of one sweep from scalar draws."""
                compute = 0.0
                comm = 0.0
                for ri, rk in enumerate(ranks):
                    rng = rk.rng
                    t1 = (cbase[ri] * lognormal(rng, sigma_m)) * slow[ri]
                    t2 = ovbase * lognormal(rng, sigma_m)
                    ce = const_extra[ri]
                    if ce is None:
                        ce = self.delay.extra_time(ri, rk.iterations, rng)
                    cyc = t1 + ((t2 + puts_const[ri]) * slow[ri] + ce)
                    if cyc > compute:
                        compute = cyc
                    for mb in msg_bases[ri]:
                        v = mb * lognormal(rng, sigma_net)
                        if v > comm:
                            comm = v
                return compute, comm

        wp = self._warm_plan(ranks)
        mom_beta = self.method.beta
        mom_prev = x.copy() if self.method.kind == "momentum" else None
        # One SpMV per sweep in the Jacobi branch: the residual driving the
        # update doubles as the previous sweep's convergence check (a
        # drift-free observer recomputes it at every observation). It is
        # consumed before the next sweep recomputes it, so the observer's
        # one buffer serves the whole run.
        obs = ResidualObserver(self._residual_fn(), x, wp.b_norm1, tol, 1)
        r = obs.r
        t = 0.0
        relaxations = 0
        k = 0
        vi = vn = 0
        v_steps = 8
        comp_buf: list = []
        comm_buf: list = []
        converged = obs.residuals[0] < tol
        while not converged and k < max_iterations:
            if vec:
                if vi >= vn:
                    S = min(v_steps, max(max_iterations - k, 1))
                    if v_steps < 128:
                        v_steps *= 4
                    comp_buf, comm_buf = _sweep_chunk(S)
                    vn = S
                    vi = 0
                compute = comp_buf[vi]
                comm = comm_buf[vi]
                vi += 1
            else:
                compute, comm = _sweep_scalar()
            t += compute + comm + allreduce
            if self.method.kind != "sequential":
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
                    updates.append(self._relax_block(rk, x))
                for rk, new in zip(ranks, updates):
                    x[rk.rows] = new
            relaxations += self.n
            k += 1
            converged = obs.observe(t, relaxations) < tol
        return SimulationResult(
            x=x,
            converged=converged,
            times=obs.times,
            residual_norms=obs.residuals,
            relaxation_counts=obs.counts,
            iterations=np.full(self.n_ranks, k),
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
