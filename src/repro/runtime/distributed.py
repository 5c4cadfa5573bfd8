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
import heapq
import math
import time as _time
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import NO_FAULTS, FaultPlan
from repro.matrices.sparse import CSRMatrix
from repro.methods import MethodError, make_method
from repro.partition.partitioner import bfs_bisection_partition, contiguous_partition
from repro.partition.subdomain import DomainDecomposition
from repro.perf.instrument import PerfCounters
from repro.runtime.delays import CompositeDelay, DelayModel, NO_DELAY, StragglerDelay
from repro.runtime.engine import (
    HeapEventQueue,
    NormalStream,
    PatternJitterStream,
)
from repro.runtime.machine import HASWELL_CLUSTER, ClusterModel
from repro.runtime.results import FaultTelemetry, SimulationResult
from repro.util.errors import ShapeError, SingularMatrixError
from repro.util.norms import vector_norm
from repro.util.rng import as_rng, spawn_rngs
from repro.util.validation import check_positive, check_probability, check_vector

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


class _TurboBail(Exception):
    """Raised when the turbo pre-pass meets an exact time tie it cannot
    order without seq stamps; :meth:`DistributedJacobi.run_async` reruns
    on the plain block loop, which resolves such ties bitwise.
    Measure-zero under any nonzero jitter."""


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
    members are scratch buffers every run fully rewrites before reading
    (``abs_scratch``) or leaves zeroed on exit (the native ``binc``
    bins); a solver therefore runs one simulation at a time.
    :meth:`DistributedJacobi.with_delay` copies share the plan.
    """

    __slots__ = (
        "templates", "nrows_loc", "lb_off", "row_off", "nnz_off", "b_loc",
        "dinv_loc", "b_norm1", "abs_scratch", "put_plan", "cat_rows",
        "splans", "native", "native_commit", "native_tabs", "stacked",
        "turbo_edges", "turbo_idx",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, None)


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
    local_sweep
        How a rank relaxes its own block per iteration: ``"jacobi"`` (the
        paper's scheme — all block rows from the same snapshot) or
        ``"gauss_seidel"`` (one forward GS sweep over the block, the
        "inexact block Jacobi" variant of Jager & Bradley's study).
    method
        Iteration method (see :mod:`repro.methods`): ``None`` (default)
        is Jacobi at ``omega`` — bit-identical to the historical
        executor. ``"sor"`` forces ``local_sweep="gauss_seidel"`` (the
        step-asynchronous SOR of Vigna, arXiv:1404.3327, with blocks as
        the "steps"); ``"richardson"``/``"damped_jacobi"`` swap the
        per-row scale; ``"richardson2"`` adds a momentum term from one
        previous own-row iterate (incompatible with
        ``local_sweep="gauss_seidel"``).
    ranks_per_node
        Override the cluster's ranks-per-node for the intra/inter-node
        message-latency split (None: use the cluster preset). Consecutive
        ranks are co-located, matching the contiguous partition layout.
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
        dead.
    ack_timeout
        Base retransmission timeout for reliable puts (None: derived from
        the network model's round-trip time; doubles on every retry).
    max_put_retries
        Retry budget per put before the sender gives up (information then
        reaches the neighbor only via a later iteration's put).
    """

    # Below this rank count the turbo pre-pass loses to the plain block
    # loop: its per-run setup (edge maps, width groups, stacked caches)
    # is O(ranks + nnz) but batches are capped at ``observe_every``
    # members, so small fleets never amortize it. Both paths are
    # bitwise-identical, so the threshold is purely a performance knob.
    _TURBO_MIN_RANKS = 96

    # Above this many stored nonzeros per rank (on average) the block
    # loop relaxes rank-at-a-time instead of running the turbo pre-pass:
    # big blocks amortize NumPy call overhead on their own, and turbo's
    # per-batch concatenation of every member's local matrix turns into
    # the dominant cost at paper scale.
    _STACK_MAX_NNZ_PER_RANK = 1024

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
        local_sweep: str = "jacobi",
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
        if not 1 <= n_ranks <= n:
            raise ShapeError(f"n_ranks must lie in [1, {n}], got {n_ranks}")
        if not 0 < omega < 2:
            raise ValueError(f"omega must lie in (0, 2), got {omega}")
        if local_sweep not in ("jacobi", "gauss_seidel"):
            raise ValueError(
                f"local_sweep must be 'jacobi' or 'gauss_seidel', got {local_sweep!r}"
            )
        self.method = make_method(method, omega=omega)
        if self.method.kind == "sequential":
            # Step-asynchronous SOR *is* a forward local sweep at scale
            # omega/d: route it through the gauss_seidel relax path.
            local_sweep = "gauss_seidel"
        elif self.method.kind == "momentum" and local_sweep == "gauss_seidel":
            raise MethodError(
                "momentum methods (richardson2) do not compose with "
                "local_sweep='gauss_seidel'"
            )
        d = A.diagonal()
        if self.method.name != "richardson" and np.any(d == 0):
            raise SingularMatrixError("Jacobi requires a nonzero diagonal")
        self.A = A
        self.n = n
        # A private read-only copy: the warm plan caches gathers of ``b``,
        # which must not go stale if the caller later edits its array.
        self.b = check_vector(b, n, "b").copy()
        self.b.flags.writeable = False
        self.omega = float(omega)
        self.dinv = self.method.scale(A)
        self.local_sweep = local_sweep
        self.ranks_per_node = int(
            cluster.ranks_per_node if ranks_per_node is None else ranks_per_node
        )
        if self.ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {self.ranks_per_node}"
            )
        self.n_ranks = int(n_ranks)
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
        self.heartbeat_miss = int(heartbeat_miss)
        if self.heartbeat_miss < 1:
            raise ValueError(f"heartbeat_miss must be >= 1, got {heartbeat_miss}")
        if ack_timeout is not None:
            check_positive(ack_timeout, "ack_timeout")
        self.ack_timeout = ack_timeout
        self.max_put_retries = int(max_put_retries)
        if self.max_put_retries < 0:
            raise ValueError(f"max_put_retries must be >= 0, got {max_put_retries}")

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
            labels = np.asarray(partition, dtype=np.int64)
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
        """The structural half of :meth:`_compile_ranks` (run-invariant)."""
        dd = self.decomposition
        # Global -> local index lookup.
        local_index = np.empty(self.n, dtype=np.int64)
        for sub in dd:
            local_index[sub.rows] = np.arange(sub.size)

        tmpl = []
        ghost_cols_of = []  # per rank: sorted global ghost columns
        # Scratch for the column remap, shared across ranks: every column a
        # rank's rows reference is in its rows or ghost layer, so each pass
        # overwrites every entry it will read — no reset needed.
        col_map = np.empty(self.n, dtype=np.int64)
        for sub in dd:
            gcols = sub.ghost_columns
            ghost_cols_of.append(gcols)
            # Compact the local row slice: own columns -> [0, size),
            # ghost columns -> size + slot.
            col_map[sub.rows] = np.arange(sub.size)
            col_map[gcols] = sub.size + np.arange(gcols.size)
            sliced = sub.matrix  # rows local, columns global
            new_cols = col_map[sliced.indices]
            # The remap permutes entries only within their row, so the row
            # structure (indptr, row id per nonzero) carries over; a stable
            # (row, col) sort restores per-row column order.
            order = np.lexsort((new_cols, sliced._row_of_nnz))
            local = CSRMatrix._from_validated(
                sliced.indptr,
                new_cols[order],
                sliced.data[order],
                (sub.size, sub.size + gcols.size),
                row_of_nnz=sliced._row_of_nnz,
            )
            tmpl.append([sub.rank, sub.rows, local, gcols, []])
        # Send plans: rank p sends, to each neighbor q, the values of p's
        # rows that q keeps in its ghost layer. Ghost columns are strictly
        # increasing (np.unique per owner, disjoint across owners), so the
        # slot of a column is its searchsorted position.
        for sub in dd:
            p = sub.rank
            for q, cols in sub.send_to.items():
                slots_q = np.searchsorted(ghost_cols_of[q], cols)
                local_rows = local_index[cols]
                tmpl[p][4].append((q, slots_q, local_rows))
        return tmpl

    def _warm_plan(self, ranks) -> _WarmPlan:
        """The solver's warm plan with its per-rank tables built.

        ``ranks`` is any run's :meth:`_compile_ranks` output (only its
        immutable template fields are read).
        """
        wp = self._plan
        if wp.b_loc is not None:
            return wp
        n_ranks = self.n_ranks
        b, dinv = self.b, self.dinv
        nrows = [rk.rows.size for rk in ranks]
        offs = np.zeros((3, n_ranks + 1), dtype=np.int64)
        for rk in ranks:
            r = rk.rank
            offs[0, r + 1] = rk.rows.size + rk.ghost_cols.size
            offs[1, r + 1] = rk.rows.size
            offs[2, r + 1] = rk.local.nnz
        np.cumsum(offs, axis=1, out=offs)
        net = self.cluster.network
        node_of = [r // self.ranks_per_node for r in range(n_ranks)]
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
        wp.nrows_loc = nrows
        wp.lb_off, wp.row_off, wp.nnz_off = (
            offs[0].tolist(), offs[1].tolist(), offs[2].tolist()
        )
        wp.dinv_loc = [dinv[rk.rows] for rk in ranks]
        wp.b_norm1 = vector_norm(b, 1)
        wp.abs_scratch = np.empty(self.n)
        wp.b_loc = [b[rk.rows] for rk in ranks]
        return wp

    def _warm_splans(self, ranks) -> list:
        """Per-rank observer scatter plans (built on the first incremental run)."""
        wp = self._plan
        if wp.splans is None:
            wp.splans = [self.A.column_scatter_plan(rk.rows) for rk in ranks]
        return wp.splans

    def _warm_native(self, ranks, incremental: bool) -> _WarmPlan:
        """The compact native layout of every rank, built on first use.

        Relax: the local CSR's int64 row pointers, its columns as int32
        and the rank's data, ``b`` and ``dinv`` gathers. Commit (first
        incremental run): per-column pointers into the scatter plan's
        entries, its span-local rows as int32, and a zeroed bin scratch.
        ``native_tabs`` holds the same addresses as the uint64 tables the
        batch kernel reads. Raises :class:`~repro.perf.native.NativeLayoutError`
        when a rank's local column count or span reaches 2^31.
        """
        from repro.perf.native import int32_index

        wp = self._warm_plan(ranks)
        if wp.native is None:
            keep, consts = [], []
            for rk in ranks:
                loc = rk.local
                rows = np.ascontiguousarray(rk.rows, dtype=np.int64)
                idx = int32_index(
                    loc.indices, loc.ncols, f"rank {rk.rank}'s local columns"
                )
                arrs = (rows, np.ascontiguousarray(loc.indptr), idx,
                        np.ascontiguousarray(loc.data), wp.b_loc[rk.rank],
                        wp.dinv_loc[rk.rank])
                keep.append(arrs)
                consts.append(tuple(a.ctypes.data for a in arrs))
            wp.native = (keep, consts)
        if incremental and wp.native_commit is None:
            keep, consts = [], []
            for rk, sp in zip(ranks, self._warm_splans(ranks)):
                colptr = np.zeros(rk.rows.size + 1, dtype=np.int64)
                np.cumsum(
                    np.bincount(sp.rep_idx, minlength=rk.rows.size),
                    out=colptr[1:],
                )
                loc = int32_index(
                    sp.local, sp.span, f"rank {rk.rank}'s residual span"
                )
                binc = np.zeros(max(int(sp.span), 1))
                keep.append((colptr, loc, sp.vals, binc))
                consts.append((
                    colptr.ctypes.data, loc.ctypes.data, sp.vals.ctypes.data,
                    int(sp.base), int(sp.span), binc.ctypes.data,
                ))
            wp.native_commit = (keep, consts)
            wp.native_tabs = None  # rebuilt with the commit columns filled
        return wp

    def _native_tabs(self, ranks, incremental: bool) -> tuple:
        """Uint64 pointer tables for the batch kernel, indexed by rank id."""
        wp = self._warm_native(ranks, incremental)
        if wp.native_tabs is None:
            relax = wp.native[1]
            cols = [np.array([c[j] for c in relax], dtype=np.uint64)
                    for j in range(6)]
            m_tab = np.array(wp.nrows_loc, dtype=np.int64)
            if wp.native_commit is not None:
                com = wp.native_commit[1]
                ctabs = [np.array([c[j] for c in com], dtype=np.uint64)
                         for j in (0, 1, 2)]
                base_tab = np.array([c[3] for c in com], dtype=np.int64)
                span_tab = np.array([c[4] for c in com], dtype=np.int64)
                binc_tab = np.array([c[5] for c in com], dtype=np.uint64)
            else:
                # Modes 0 and 2 never read the commit columns.
                zero = np.zeros(self.n_ranks, dtype=np.uint64)
                ctabs = [zero] * 3
                base_tab = span_tab = np.zeros(self.n_ranks, dtype=np.int64)
                binc_tab = zero
            wp.native_tabs = (m_tab, *cols, *ctabs, base_tab, span_tab,
                              binc_tab)
        return wp.native_tabs

    def _warm_stacked(self, ranks) -> tuple:
        """Index tables of the turbo pre-pass's stacked relax, built on
        first use.

        Per rank: compact columns in ``local_x``-parent coordinates, the
        data, rows in global-row numbering, own-row parent positions and
        global-row spans; plus each rank's in-neighbours (senders in rank
        order — the mailbox order).
        """
        wp = self._plan
        if wp.stacked is None:
            lb_off, row_off, n_ranks = wp.lb_off, wp.row_off, self.n_ranks
            in_nbrs: list = [[] for _ in range(n_ranks)]
            for p, plan_r in enumerate(wp.put_plan):
                for q, _slots, _rows, _mb in plan_r:
                    in_nbrs[q].append(p)
            wp.stacked = (
                [lb_off[rk.rank] + rk.local.indices for rk in ranks],
                [rk.local.data for rk in ranks],
                [row_off[rk.rank] + rk.local._row_of_nnz for rk in ranks],
                [np.arange(lb_off[r], lb_off[r] + wp.nrows_loc[r])
                 for r in range(n_ranks)],
                [np.arange(row_off[r], row_off[r + 1])
                 for r in range(n_ranks)],
                in_nbrs,
            )
        return wp.stacked

    def _warm_turbo(self, ranks, numpy_relax: bool) -> tuple:
        """Directed-edge maps of the turbo engine (and its NumPy relax plans).

        ``emap[p][q]`` is p's put index toward q; ``recv_edges[q]`` lists
        q's in-edges with the slice of the sender's fired row holding the
        edge's values and the edge's ghost slots in *parent-buffer*
        coordinates (ghost layers are views into ``loc_parent``, so every
        member's winner scatter can fuse into one store). With
        ``numpy_relax`` also the per-rank (rows, parent-pos, global row)
        and (compact col, global row) stacks, so a batch needs three
        concatenations, not six.
        """
        wp = self._plan
        if wp.turbo_edges is None:
            n_ranks = self.n_ranks
            emap: list = [{} for _ in range(n_ranks)]
            recv_edges: list = [[] for _ in range(n_ranks)]
            for p in range(n_ranks):
                voff = 0
                for ei, (q, slots_q, lrows, _mb) in enumerate(wp.put_plan[p]):
                    emap[p][q] = ei
                    recv_edges[q].append(
                        (p, ei, wp.lb_off[q] + wp.nrows_loc[q] + slots_q,
                         voff, voff + lrows.size)
                    )
                    voff += lrows.size
            wp.turbo_edges = (emap, recv_edges)
        if numpy_relax and wp.turbo_idx is None:
            st_idx, _dat, st_row, st_pos, st_span, _nb = self._warm_stacked(ranks)
            wp.turbo_idx = (
                [np.stack([rk.rows, st_pos[r], st_span[r]])
                 for r, rk in enumerate(ranks)],
                [np.stack([st_idx[r], st_row[r]]) for r in range(self.n_ranks)],
            )
        return (*wp.turbo_edges, *(wp.turbo_idx or (None, None)))

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
            def residual(x, out):
                return np.subtract(b, A.matvec(x), out=out)
            return residual

        def residual(x, out):
            return nat.residual(A, x, b, out)
        return residual

    def _slowdown(self, rank: int) -> float:
        if isinstance(self.delay, (StragglerDelay, CompositeDelay)):
            return self.delay.slowdown(rank)
        return 1.0

    def _compute_time(self, rk: _Rank) -> float:
        """Read-to-write span: the local SpMV + correction."""
        node = self.cluster.node
        base = node.compute_duration(rk.local.nnz, rk.rows.size, 1, rk.rng)
        return base * self._slowdown(rk.rank)

    def _overhead_time(self, rk: _Rank) -> float:
        """Off-span per-iteration work: put initiation, norms, bookkeeping."""
        node = self.cluster.node
        base = node.overhead_duration(1, rk.rng)
        base += len(rk.send_plan) * self.cluster.network.put_overhead
        return base * self._slowdown(rk.rank) + self.delay.extra_time(
            rk.rank, rk.iterations, rk.rng
        )

    def _cycle_time(self, rk: _Rank) -> float:
        """Full iteration duration (sync mode)."""
        return self._compute_time(rk) + self._overhead_time(rk)

    def _same_node(self, p: int, q: int) -> bool:
        """Whether two ranks share a node (consecutive-rank placement)."""
        return p // self.ranks_per_node == q // self.ranks_per_node

    def _relax_block(self, rk: _Rank, x: np.ndarray, mom_prev=None) -> np.ndarray:
        """One local relaxation of ``rk``'s block from the current view.

        ``"jacobi"``: every block row uses the same snapshot (the paper's
        implementation). ``"gauss_seidel"``: a forward sweep where each row
        immediately sees earlier in-block updates (inexact-block variant;
        also how sequential methods — step-async SOR — relax).
        ``mom_prev`` (length-``n``, momentum methods only) carries the
        previous own-row iterate read at relax time and is updated in
        place.
        """
        local_x = np.concatenate((x[rk.rows], rk.ghosts))
        dinv_loc = self.dinv[rk.rows]
        b_loc = self.b[rk.rows]
        if self.local_sweep == "jacobi":
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
        residual_mode: str = "incremental",
        recompute_every: int = 64,
        instrument: bool = False,
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

        ``residual_mode="incremental"`` (default) keeps the observer's
        global residual maintained in place: each commit scatters the
        block's change through the cached CSC view instead of the observer
        paying a full SpMV per observation. Drift is bounded by a full
        recompute every ``recompute_every`` observations plus confirmation
        of any tolerance crossing; the simulated trajectory itself is
        untouched. ``"full"`` is the naive reference observer. With
        ``instrument=True`` the result carries per-kernel
        :class:`PerfCounters` as ``result.perf``.

        The event loop runs on the typed engine
        (:mod:`repro.runtime.engine`): a preallocated per-rank ``local_x``
        scratch buffer with the ghost layer aliased to its tail (no
        ``np.concatenate`` per relaxation), precompiled CSC scatter plans
        for the observer's incremental residual, and chunked RNG streams —
        all bit-identical to the pre-engine loop, which remains available
        as ``legacy_engine=True`` (the equivalence-test oracle).

        One-sided puts land through per-edge *mailboxes* (see
        docs/performance.md, "Mailbox delivery and the block loop"): the
        receiver's next read applies, per directed edge, only the newest
        record that arrival-precedes it — a put overwrites the edge's whole
        fixed window slot set, so older records were never observable.
        Each record carries the event sequence number a per-put heap event
        would have consumed, so the cut replicates heap pop order bit for
        bit, exact-time ties included.

        Two event loops run the iteration:

        * **The block loop** takes every plain run — no faults or loss
          rolls, no tracer, no reliable puts, no eager/detect/heartbeat
          machinery, no hang-capable delay model and no
          ``instrument=True``. One heap event per block iteration runs the
          whole read-relax-commit span at the iteration's virtual read
          cursor. From ``_TURBO_MIN_RANKS`` ranks, for scaled methods with
          small blocks and both jitters drawn from pattern streams, a
          *turbo* pre-pass precomputes every rank's timeline in vectorized
          chunks and relaxes admission batches as one stacked kernel; an
          exact time tie it cannot order reruns the plain block loop.
        * **The general loop** takes everything else, with one START and
          one COMMIT event per block iteration plus the protocol traffic.

        Relax and commit kernels are compiled C (:mod:`repro.perf.native`)
        whenever the library loads, NumPy otherwise (no compiler, build
        failure, ``REPRO_NO_NATIVE``) — the same bits either way. The
        sequential kind (SOR) and the Gauss-Seidel local sweep always run
        NumPy: their BLAS dot products have no reproducible compiled
        operand order.

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
        """
        if legacy_engine:
            from repro.runtime.legacy import distributed_run_async

            return distributed_run_async(
                self, x0=x0, tol=tol, max_iterations=max_iterations,
                observe_every=observe_every, eager=eager,
                termination=termination, report_every=report_every,
                residual_mode=residual_mode, recompute_every=recompute_every,
                instrument=instrument, tracer=tracer,
            )
        kwargs = dict(
            x0=x0, tol=tol, max_iterations=max_iterations,
            observe_every=observe_every, eager=eager, termination=termination,
            report_every=report_every, residual_mode=residual_mode,
            recompute_every=recompute_every, instrument=instrument,
            tracer=tracer,
        )
        try:
            return self._run_async(turbo=True, **kwargs)
        except _TurboBail:
            # An exact tie the turbo pre-pass cannot order: rerun on the
            # plain block loop, whose seq stamps resolve it. Nothing
            # observable leaked — per-run state (ranks, queue, telemetry)
            # is rebuilt from scratch, ``x0`` was never mutated and turbo
            # runs carry no tracer.
            return self._run_async(turbo=False, **kwargs)

    def _run_async(
        self, x0, tol, max_iterations, observe_every, eager, termination,
        report_every, residual_mode, recompute_every, instrument, tracer,
        turbo: bool,
    ) -> SimulationResult:
        """The engine behind :meth:`run_async`; ``turbo=False`` skips the
        turbo pre-pass (the rerun after a :class:`_TurboBail`)."""
        check_positive(tol, "tol")
        if termination not in ("count", "detect"):
            raise ValueError(
                f"termination must be 'count' or 'detect', got {termination!r}"
            )
        if residual_mode not in ("incremental", "full"):
            raise ValueError(
                f"residual_mode must be 'incremental' or 'full', got {residual_mode!r}"
            )
        incremental = residual_mode == "incremental"
        # Native kernels whenever the library loads — bit-identical to the
        # NumPy paths (see repro.perf.native) — except for the sequential
        # Gauss-Seidel sweep, whose BLAS dot products no compiled loop can
        # match.
        nat = None
        if self.method.kind != "sequential" and self.local_sweep == "jacobi":
            from repro.perf.native import native_kernels

            nat = native_kernels()
        use_native = nat is not None
        perf = PerfCounters(method=self.method.name) if instrument else None
        if perf is not None:
            perf.backend = "native" if use_native else "numpy"
            if use_native:
                perf.native_build_ms = nat.build_ms
        run_start = _time.perf_counter() if instrument else 0.0
        A, b, dinv = self.A, self.b, self.dinv
        x = np.zeros(self.n) if x0 is None else check_vector(x0, self.n, "x0").copy()
        ranks = self._compile_ranks()
        net = self.cluster.network
        node = self.cluster.node
        plan = self.fault_plan
        reliable = self.reliable
        fs = self.fault_seed if self.fault_seed is not None else plan.seed
        if fs is not None:
            fail_rng = as_rng(fs)
        else:
            fail_rng = as_rng(None if self.seed is None else (int(self.seed) ^ 0x5EED))
        tm = FaultTelemetry()

        # ---- engine setup: everything below is hoisted out of the
        # event loop once, so the per-event work is scalar arithmetic plus
        # a handful of buffered NumPy kernels. Trajectories are
        # bit-identical to ``legacy_engine=True`` (same RNG draw order,
        # same floating-point operand order).
        n_ranks = self.n_ranks
        thr = node.smt_throughput(1)
        sigma_m = node.effective_jitter(1)
        sigma_net = net.jitter_sigma
        lat, lat_in, tpv = net.latency, net.intra_node_latency, net.time_per_value
        node_of = [r // self.ranks_per_node for r in range(n_ranks)]
        slow = [self._slowdown(r) for r in range(n_ranks)]
        const_extra = [self.delay.constant_extra(r) for r in range(n_ranks)]
        cbase = [
            (rk.local.nnz * node.time_per_nnz + rk.rows.size * node.time_per_row) / thr
            for rk in ranks
        ]
        ovbase = node.iteration_overhead / thr
        puts_const = [len(rk.send_plan) * net.put_overhead for rk in ranks]
        has_plan = bool(plan)
        drop_p = self.drop_probability
        dup_p = self.duplicate_probability
        may_hang = type(self.delay).is_hung is not DelayModel.is_hung
        detect = termination == "detect"
        # Run-invariant tables (per-rank ``b``/``dinv`` gathers, put plans,
        # buffer offsets, ||b||_1) come from the solver's warm plan.
        wp = self._warm_plan(ranks)
        put_plan = wp.put_plan
        b_loc, dinv_loc = wp.b_loc, wp.dinv_loc
        nrows_loc = wp.nrows_loc
        lb_off, row_off, nnz_off = wp.lb_off, wp.row_off, wp.nnz_off

        # Per-rank relax scratch: one ``local_x`` buffer per rank with the
        # ghost layer rebound to its tail. Every ghost write (puts landing,
        # restart/adoption re-syncs) then updates the relax view in place,
        # and a relaxation is one ``take`` of the rank's own rows plus
        # buffered elementwise kernels — the per-iteration
        # ``np.concatenate`` and the ``dinv[rows]``/``b[rows]`` gathers of
        # the legacy loop are gone. All ranks' ``local_x`` scratch is
        # carved from one parent buffer: per-rank views behave exactly
        # like separate arrays, and the turbo pre-pass can then gather
        # *across* ranks in one take. The other per-rank scratch
        # is carved the same way, one allocation per kind.
        loc_parent = np.zeros(lb_off[-1])
        pend_parent = np.empty(row_off[-1])
        dx_parent = np.empty(row_off[-1])
        old_parent = np.empty(row_off[-1])
        gath_parent = np.empty(nnz_off[-1])
        loc_buf, own_view, gath_buf, pend_buf = [], [], [], []
        dx_buf, old_buf, rowid_loc = [], [], []
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
            old_buf.append(old_parent[row_off[r] : row_off[r + 1]])
            rowid_loc.append(rk.local._row_of_nnz)
            rk.pending = pend_buf[-1]
        splans = self._warm_splans(ranks) if incremental else None
        gauss_seidel = self.local_sweep != "jacobi"
        momentum_m = self.method.kind == "momentum"
        mom_beta = self.method.beta
        # Momentum state (richardson2): the own-row iterate each rank last
        # read at relax time, kept per rank in local coordinates. Restarts
        # keep the last read — the recovering rank resumes its momentum
        # from wherever it crashed, like its own rows in ``x``.
        mom_prev_loc = [x[rk.rows].copy() for rk in ranks] if momentum_m else None

        def relax(rk: _Rank) -> None:
            """One buffered local relaxation; the result lands in
            ``rk.pending`` (bit-identical to ``_relax_block``)."""
            r = rk.rank
            lb = loc_buf[r]
            x.take(rk.rows, out=own_view[r])
            if gauss_seidel:
                mat = rk.local
                bl, dl = b_loc[r], dinv_loc[r]
                for i in range(nrows_loc[r]):
                    cols_i, vals_i = mat.row_entries(i)
                    r_i = bl[i] - float(vals_i @ lb[cols_i])
                    lb[i] += dl[i] * r_i
                np.copyto(pend_buf[r], own_view[r])
                return
            g = gath_buf[r]
            lb.take(rk.local.indices, out=g)
            np.multiply(rk.local.data, g, out=g)
            mv = np.bincount(rowid_loc[r], weights=g, minlength=nrows_loc[r])
            np.subtract(b_loc[r], mv, out=mv)
            np.multiply(dinv_loc[r], mv, out=mv)
            np.add(own_view[r], mv, out=pend_buf[r])
            if momentum_m:
                mp = mom_prev_loc[r]
                pend_buf[r] += mom_beta * (own_view[r] - mp)
                np.copyto(mp, own_view[r])

        # The observer's residual: one buffer for the whole run, recomputed
        # in place (and, in incremental mode, updated by every commit).
        residual = self._residual_fn()
        r_vec = residual(x, np.empty(self.n))

        nat_commit_args = None
        if use_native:
            # Precompiled argument tuples for the native kernels. The
            # run-invariant half (compact CSR layout, gathers, scatter
            # columns) comes from the warm plan; the per-run buffers (``x``,
            # the scratch parents, ``r_vec``) are allocated exactly once
            # for the whole run, so their raw addresses are stable and each
            # call is one ctypes dispatch with no per-event marshalling. The
            # kernels read and write the same buffers the NumPy closures
            # use — drop-in, bit-identical replacements (contract in
            # repro.perf.native).
            self._warm_native(ranks, incremental)
            x_ptr = x.ctypes.data
            lb0 = loc_parent.ctypes.data
            pend0 = pend_parent.ctypes.data
            r_ptr = r_vec.ctypes.data
            nat_beta = float(mom_beta) if momentum_m else 0.0
            nat_relax_args = [
                (m, x_ptr, c[0], lb0 + 8 * lo, c[1], c[2], c[3], c[4], c[5],
                 pend0 + 8 * ro, nat_beta,
                 mom_prev_loc[r].ctypes.data if momentum_m else None)
                for r, (m, c, lo, ro) in enumerate(
                    zip(nrows_loc, wp.native[1], lb_off, row_off)
                )
            ]
            nat_relax = nat.relax_rank

            def relax(rk: _Rank) -> None:
                """Native relax: same buffers, same bits, one C call."""
                nat_relax(*nat_relax_args[rk.rank])
                if perf is not None:
                    perf.native_calls += 1
                    perf.native_rows_relaxed += nrows_loc[rk.rank]

            if incremental:
                nat_commit_args = [
                    (m, c[0], x_ptr, lb0 + 8 * lo, *cc)
                    for m, c, cc, lo in zip(
                        nrows_loc, wp.native[1], wp.native_commit[1], lb_off
                    )
                ]
                nat_commit = nat.commit_rank
            nat_pend_ptr = [pend0 + 8 * ro for ro in row_off[:-1]]

        def local_residual_norm(rk: _Rank) -> float:
            """Block residual 1-norm from the rank's current (stale) view."""
            r = rk.rank
            lb = loc_buf[r]
            x.take(rk.rows, out=own_view[r])
            g = gath_buf[r]
            lb.take(rk.local.indices, out=g)
            np.multiply(rk.local.data, g, out=g)
            mv = np.bincount(rowid_loc[r], weights=g, minlength=nrows_loc[r])
            np.subtract(b_loc[r], mv, out=mv)
            np.abs(mv, out=mv)
            return float(np.sum(mv))

        # Chunked standard-normal streams: a rank's generator serves both
        # machine jitter (sigma_m) and network jitter (sigma_net), so the
        # raw normals are chunked and ``exp(sigma * z)`` applied per draw
        # (bit-identical to scalar ``lognormal``; see
        # :class:`~repro.runtime.engine.NormalStream`). A rank whose delay
        # model draws from the same generator cannot prefetch.
        streams = [
            NormalStream(rk.rng) if const_extra[rk.rank] is not None else None
            for rk in ranks
        ]

        def mjit(r: int) -> float:
            st = streams[r]
            if st is not None:
                return math.exp(sigma_m * st.next())
            return float(ranks[r].rng.lognormal(0.0, sigma_m))

        def compute_time(rk: _Rank) -> float:
            base = cbase[rk.rank]
            if sigma_m > 0:
                base *= mjit(rk.rank)
            return base * slow[rk.rank]

        def overhead_time(rk: _Rank) -> float:
            r = rk.rank
            base = ovbase
            if sigma_m > 0:
                base *= mjit(r)
            ce = const_extra[r]
            extra = (
                ce if ce is not None
                else self.delay.extra_time(r, rk.iterations, rk.rng)
            )
            return (base + puts_const[r]) * slow[r] + extra

        def net_jit(r: int) -> float:
            st = streams[r]
            if st is not None:
                return math.exp(sigma_net * st.next())
            return float(ranks[r].rng.lognormal(0.0, sigma_net))

        def msg_time(n_values: int, r: int, intra: bool = False) -> float:
            base = (lat_in if intra else lat) + n_values * tpv
            if sigma_net > 0:
                base *= net_jit(r)
            return base

        # Ghost layers start from the initial iterate.
        for rk in ranks:
            if rk.ghost_cols.size:
                rk.ghosts[:] = x[rk.ghost_cols]

        # Resolved once: a missing or all-null-sink tracer costs one branch
        # per event afterwards (see repro.observability.tracer.resolve).
        trc = tracer if (tracer is not None and tracer.enabled) else None
        trace_reads = trc is not None and trc.trace_reads
        version = None
        if trace_reads:
            # Read-version capture: the global commit ledger, each ghost
            # value's version, and each local row's neighbor layout split
            # into own-block columns and ghost slots.
            version = np.zeros(self.n, dtype=np.int64)
            owner = self.decomposition.labels
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
                "DistributedJacobi", self.n, n_ranks=self.n_ranks, tol=tol,
                omega=self.omega, termination=termination,
                residual_mode=residual_mode, reliable=reliable, eager=eager,
                method=self.method.name,
            )

        queue = HeapEventQueue()
        for rk in ranks:
            queue.push(
                float(rk.rng.random()) * self.cluster.node.iteration_overhead,
                _START, rk.rank, rk.epoch,
            )
        # Scripted restarts are known up front; crashes need no event — the
        # plan is consulted at every START/COMMIT/MESSAGE touching the rank.
        for r in sorted(plan.agents()):
            for rt in plan.restart_times(r):
                queue.push(rt, _RESTART, r, None)

        down = plan.is_down

        obs_b_norm = wp.b_norm1
        abs_scratch = wp.abs_scratch

        def relnorm(res_vec) -> float:
            # vector_norm(res_vec, 1) without a fresh n-float temporary.
            num = float(np.sum(np.abs(res_vec, out=abs_scratch)))
            return num / obs_b_norm if obs_b_norm > 0 else num

        obs_since_recompute = 0

        def observe_residual() -> float:
            nonlocal obs_since_recompute
            if not incremental:
                return relnorm(residual(x, r_vec))
            obs_since_recompute += 1
            if recompute_every and obs_since_recompute >= recompute_every:
                residual(x, r_vec)
                obs_since_recompute = 0
                if perf is not None:
                    perf.full_recomputes += 1
            res = relnorm(r_vec)
            if res < tol:
                # Confirm the crossing against a drift-free residual.
                residual(x, r_vec)
                obs_since_recompute = 0
                res = relnorm(r_vec)
                if perf is not None:
                    perf.full_recomputes += 1
            return res

        def commit_rows(block: _Rank) -> None:
            """Publish a block's pending update, maintaining the residual."""
            r = block.rank
            pb = pend_buf[r]
            if incremental:
                t0 = perf.tick() if perf is not None else 0.0
                x.take(block.rows, out=old_buf[r])
                np.subtract(pb, old_buf[r], out=dx_buf[r])
                x[block.rows] = pb
                splans[r].apply(r_vec, dx_buf[r])
                if perf is not None:
                    perf.tock_spmv(t0)
            else:
                x[block.rows] = pb
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

        res0 = relnorm(r_vec)
        times, residuals, counts = [0.0], [res0], [0]
        relaxations = 0
        commits_since_obs = 0
        observe_every = self.n_ranks if observe_every is None else int(observe_every)
        converged = res0 < tol
        t_end = 0.0

        # Eager-mode bookkeeping: has rank seen fresh data since last relax?
        fresh = [True] * self.n_ranks
        idle = [False] * self.n_ranks
        # Incoming-neighbour sets: which ranks put into rid's ghost layer.
        senders = [set() for _ in range(self.n_ranks)]
        for rk in ranks:
            for q, _, _ in rk.send_plan:
                senders[q].add(rk.rank)
        # Termination detection state (rank 0 is the detector).
        b_norm = obs_b_norm or 1.0
        reported = np.full(self.n_ranks, np.inf)
        if termination == "detect":
            reported[:] = [local_residual_norm(rk) for rk in ranks]
        stop_broadcast = False

        # Heartbeat failure detection (rank 0 is also the detector).
        heartbeats_on = (
            self.recovery != "none"
            and self.n_ranks > 1
            and (bool(plan) or self.heartbeat_interval is not None)
        )
        hb_interval = (
            self.heartbeat_interval
            if self.heartbeat_interval is not None
            else 10.0 * (self.cluster.node.iteration_overhead + 2.0 * net.latency)
        )
        hb_timeout = self.heartbeat_miss * hb_interval
        last_hb = [0.0] * self.n_ranks
        hb_chain_alive = [False] * self.n_ranks
        hb_stopped = False  # set once the run is quiescent; chains then end
        presumed_dead = [False] * self.n_ranks
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
        coalesced_puts = 0  # arrivals superseded before the next flush
        flush_batches = 0  # flushes that applied at least one edge
        flushed_edges = 0  # edges scattered across all flushes
        ledger_width = 0  # version entries scattered into ghost_ver
        batch_max = 0  # widest single flush, in edges

        def flush_ghosts(block: _Rank) -> None:
            """Apply the block's pending ghost scatters in one pass."""
            nonlocal flush_batches, flushed_edges, ledger_width, batch_max
            ps = pend_scatter[block.rank]
            if not ps:
                return
            gh = block.ghosts
            gv = block.ghost_ver
            n_edges = 0
            for slots, values, vers in ps.values():
                gh[slots] = values
                if vers is not None:
                    # maximum.at keeps the newest version even if a stale
                    # retransmit were ever recorded behind a fresher one.
                    np.maximum.at(gv, slots, vers)
                    ledger_width += vers.size
                n_edges += 1
            ps.clear()
            flush_batches += 1
            flushed_edges += n_edges
            if n_edges > batch_max:
                batch_max = n_edges

        def rto(n_values: int) -> float:
            """Base retransmission timeout: a generous round-trip multiple."""
            if self.ack_timeout is not None:
                return self.ack_timeout
            return 6.0 * (2.0 * net.latency + n_values * net.time_per_value)

        def control_lost(src: int, dst: int, t: float) -> bool:
            """Loss roll for a small control message (ack/heartbeat/report)."""
            if plan.blocks_message(src, dst, t):
                return True
            p = self.drop_probability
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
                self.drop_probability and fail_rng.random() < self.drop_probability
            )
            if not lost and plan:
                if plan.blocks_message(p, q, t):
                    lost = True
                else:
                    pb = plan.drop_probability(p, t)
                    lost = bool(pb) and fail_rng.random() < pb
            intra = node_of[p] == node_of[q]
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
                arrival = t + msg_time(values.size, p, intra)
                queue.push(
                    arrival, _MESSAGE, q, (p, seq, slots_q, values, corrupted, meta)
                )
                if (
                    self.duplicate_probability
                    and fail_rng.random() < self.duplicate_probability
                ):
                    arrival = t + msg_time(values.size, p, intra)
                    queue.push(
                        arrival, _MESSAGE, q,
                        (p, seq, slots_q, values, corrupted, meta),
                    )
            queue.push(t + timeout, _RETRY, p, (q, seq))

        def send_reliable(rk: _Rank, q: int, slots_q, values, t: float, vers=None) -> None:
            ch = (rk.rank, q)
            seq = next_seq.get(ch, 0)
            next_seq[ch] = seq + 1
            tm.puts_sent += 1
            rec = [slots_q, values, 0, rto(values.size), vers]
            outstanding.setdefault(ch, {})[seq] = rec
            transmit(ch, seq, rec, t)

        def fire_puts(rk: _Rank, t: float) -> None:
            r = rk.rank
            entries = put_plan[r]
            if reliable:
                for q, slots_q, local_rows, _mb in entries:
                    # The put carries the just-committed values, so their
                    # versions are snapshotted once; retransmissions resend
                    # the same payload. The fancy index is itself a fresh
                    # array — the payload's one unavoidable allocation.
                    vers = version[rk.rows[local_rows]].copy() if trace_reads else None
                    send_reliable(rk, q, slots_q, rk.pending[local_rows], t, vers)
                return
            pending = pend_buf[r]
            if not (has_plan or drop_p or dup_p) and trc is None:
                # Plan-free fire-and-forget hot path: no loss rolls, no
                # tracing — base times are precompiled, the jitter draw is
                # inlined, the per-put counter batched.
                tm.puts_sent += len(entries)
                st = streams[r]
                if sigma_net <= 0:
                    for q, slots_q, local_rows, mb in entries:
                        queue.push(t + mb, _MESSAGE, q, (slots_q, pending[local_rows]))
                elif st is not None:
                    for q, slots_q, local_rows, mb in entries:
                        queue.push(
                            t + mb * math.exp(sigma_net * st.next()),
                            _MESSAGE, q, (slots_q, pending[local_rows]),
                        )
                else:
                    rng = rk.rng
                    for q, slots_q, local_rows, mb in entries:
                        queue.push(
                            t + mb * float(rng.lognormal(0.0, sigma_net)),
                            _MESSAGE, q, (slots_q, pending[local_rows]),
                        )
                return
            # Fire-and-forget RMA puts under failure injection/tracing (RNG
            # call order kept bit-identical to the legacy loop).
            for q, slots_q, local_rows, mb in entries:
                tm.puts_sent += 1
                if trc is not None:
                    trc.send(t, r, q, local_rows.size)
                if drop_p and fail_rng.random() < drop_p:
                    tm.puts_dropped += 1
                    if trc is not None:
                        trc.fault(t, r, "put_dropped", dst=q)
                    continue
                if has_plan:
                    if plan.blocks_message(r, q, t):
                        tm.puts_dropped += 1
                        if trc is not None:
                            trc.fault(t, r, "put_dropped", dst=q)
                        continue
                    pb = plan.drop_probability(r, t)
                    if pb and fail_rng.random() < pb:
                        tm.puts_dropped += 1
                        if trc is not None:
                            trc.fault(t, r, "put_dropped", dst=q)
                        continue
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
                payload = (slots_q, values) if meta is None else (slots_q, values, meta)
                for _ in range(n_copies):
                    jit = net_jit(r) if sigma_net > 0 else 1.0
                    queue.push(t + mb * jit, _MESSAGE, q, payload)

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
                for r in range(self.n_ranks)
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
            if has_plan and down(0, t):
                return  # a crashed detector aggregates nothing, stops nobody
            included = np.array(
                [
                    not (presumed_dead[r] and r not in adopted_by)
                    for r in range(self.n_ranks)
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
            others = [p for p in range(self.n_ranks) if p not in neighbours]
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

        # Plain runs — no faults, no loss rolls, no tracing, no reliable
        # protocol, no eager/detect/heartbeat machinery, no hang-capable
        # delay model, no instrumentation — take the block loop below.
        # Only START/COMMIT events can then exist, and puts never touch
        # the heap. Every other run takes the general loop at the end.
        plain = (
            not has_plan
            and not drop_p
            and not dup_p
            and trc is None
            and not reliable
            and not eager
            and not detect
            and not heartbeats_on
            and not may_hang
            and perf is None
        )
        conv_cursor = None
        if plain:
            # Per-rank pattern streams: in a plain run, a rank's generator
            # is consumed in a fixed per-iteration pattern — one machine
            # jitter for the compute span, one network jitter per put at
            # the commit, one machine jitter for the next overhead span —
            # so a whole iteration's factors come from one chunked
            # PatternJitterStream step (bit-identical to the scalar draws;
            # zero sigmas contribute no position, exactly like the scalar
            # path makes no draw). Delay models that draw from the rank's
            # generator fall back to scalar draws in legacy order.
            fstreams: list = []
            for fr, frk in enumerate(ranks):
                if const_extra[fr] is None:
                    fstreams.append(None)
                    continue
                pat: list = []
                if sigma_m > 0:
                    pat.append(sigma_m)
                if sigma_net > 0:
                    pat.extend([sigma_net] * len(put_plan[fr]))
                if sigma_m > 0:
                    pat.append(sigma_m)
                fstreams.append(
                    PatternJitterStream(frk.rng, pat) if pat else ()
                )
            fbuf: list = [None] * n_ranks  # current iteration's factors
            net_j0 = 1 if sigma_m > 0 else 0  # put factors start here
            ghosts_of = [rk.ghosts for rk in ranks]
            rows_of = [rk.rows for rk in ranks]
            delivered = 0
            # The loop inlines push/pop on the heap's flat (time, seq,
            # kind, agent, obj) tuples.
            heap = queue._heap
            hpush = heapq.heappush
            hpop = heapq.heappop
            seq = queue._seq
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
            cat_rows = wp.cat_rows
            for frk in ranks:
                plan_r = put_plan[frk.rank]
                entries_r, off = [], 0
                for q, slots_q, local_rows, mb in plan_r:
                    box: list = []
                    entries_r.append((box, mb, off, off + local_rows.size))
                    in_boxes[q].append((box, slots_q))
                    off += local_rows.size
                fire.append(entries_r)
        # Turbo pre-pass: with both jitters drawn from per-rank pattern
        # streams, a rank's event *schedule* is a fixed recurrence over
        # its own generator — nothing about timing depends on relax
        # values. The whole timeline is therefore precomputed in
        # vectorized chunks (compute/overhead deltas interleaved under one
        # cumsum, the running clock folded into the first delta — every
        # add bitwise the scalar engine's) and lexsorted once into the
        # global (commit, cursor) pop order, which is exactly how the
        # block loop resolves same-time ties. Mailboxes collapse into
        # per-edge integer frontiers over precomputed arrival rows, so
        # Python only makes the irreducibly sequential decisions — batch
        # admission, winner picks, observations — while all arithmetic is
        # array work.
        #
        # Consecutive commits in that order are *batched* whenever no
        # member's read cursor can still be affected by an earlier
        # member's commit: a put fired by member i arrives strictly after
        # its commit, so member j's cut is safe as long as no in-batch
        # sender's put reaches j's cursor (ranks that never put to j
        # cannot disturb it at all). Each rank appears at most once, so
        # the members read disjoint ``x`` rows and write disjoint scratch.
        # A batch runs in three phases: every member's mailbox cut, ONE
        # gather/multiply/bincount over the concatenated local matrices
        # (global row numbering keeps each row's accumulation order, so
        # the result is bitwise the per-rank relax), then the commits,
        # fires and observations in cursor order. Batches are capped at
        # the observation cadence so convergence can only strike at the
        # last member.
        #
        # Stacking only pays while rank blocks are small: a batch
        # concatenates every member's local matrix, so its cost is
        # O(nnz per batch) of pure memory traffic, and its per-run setup
        # only amortizes over many ranks — hence the two class
        # thresholds. Exact time ties (measure zero under lognormal
        # jitter) raise :class:`_TurboBail`; :meth:`run_async` then
        # reruns the plain block loop, which orders them via seq stamps.
        if (
            turbo
            and plain
            and heap
            and not converged
            and not gauss_seidel
            and self.method.is_scaled
            and n_ranks >= self._TURBO_MIN_RANKS
            and A.data.size <= n_ranks * self._STACK_MAX_NNZ_PER_RANK
            and sigma_m > 0
            and sigma_net > 0
            and all(type(fs) is PatternJitterStream for fs in fstreams)
        ):
            n_grows = row_off[-1]
            st_idx, st_dat, st_row, st_pos, st_span, in_nbrs = (
                self._warm_stacked(ranks)
            )
            if use_native:
                # Per-rank pointer tables for the batched native kernel:
                # uint64 arrays of raw addresses indexed by rank id, read
                # in C as double**/int64_t** equivalents. All but the
                # ``local_x`` table come from the warm plan, which keeps
                # the arrays behind them alive.
                nat_members = np.empty(n_ranks, dtype=np.int64)
                nat_pend_cat = np.empty(n_grows)
                nat_tabs = self._native_tabs(ranks, incremental)
                nat_lb_tab = np.array(
                    [lb0 + 8 * lo for lo in lb_off[:-1]], dtype=np.uint64
                )
                nat_tab_ptrs = [t.ctypes.data for t in nat_tabs]
                nat_tab_ptrs.insert(2, nat_lb_tab.ctypes.data)
                nat_head = (x_ptr, r_ptr, nat_pend_cat.ctypes.data)
                nat_members_ptr = nat_members.ctypes.data
                nat_batch_fn = nat.relax_batch

                def nat_relax_batch(members, mode) -> None:
                    """One compiled call per admission batch (modes 1/2)."""
                    nbm = len(members)
                    nat_members[:nbm] = members
                    nat_batch_fn(
                        nbm, nat_members_ptr, mode, *nat_head, *nat_tab_ptrs
                    )
            exp = math.exp
            INF = math.inf
            npcat = np.concatenate
            n_e = [len(put_plan[r]) for r in range(n_ranks)]
            # Directed-edge maps and relax-plan stacks (warm plan).
            emap, recv_edges, i3, i2 = self._warm_turbo(
                ranks, not use_native
            )
            # Rank groups by put fan-out: every rank in a group
            # shares the draw pattern width, so one stacked sweep
            # per group generates a whole chunk of per-rank
            # timelines (draws stay per-rank generators; chunking
            # does not change ``standard_normal`` streams).
            wgroups: dict = {}
            for r in range(n_ranks):
                wgroups.setdefault(n_e[r], []).append(r)
            groups = []
            for ne, rl in sorted(wgroups.items()):
                w = 2 + ne
                pat = np.array(
                    [sigma_m] + [sigma_net] * ne + [sigma_m]
                )
                cb_c = np.array([cbase[r] for r in rl])[:, None]
                sl_c = np.array([slow[r] for r in rl])[:, None]
                pc_c = np.array([puts_const[r] for r in rl])[:, None]
                ce_c = np.array(
                    [const_extra[r] for r in rl]
                )[:, None]
                mb_c = (
                    np.array(
                        [[pe[3] for pe in put_plan[r]] for r in rl]
                    )[:, None, :]
                    if ne
                    else None
                )
                rngs_g = [ranks[r].rng for r in rl]
                groups.append(
                    (rl, ne, w, pat, cb_c, sl_c, pc_c, ce_c, mb_c,
                     rngs_g)
                )
            if incremental:
                sp_rep = [splans[r].rep_idx for r in range(n_ranks)]
                sp_loc = [splans[r].local for r in range(n_ranks)]
                sp_val = [splans[r].vals for r in range(n_ranks)]
                sp_base = [splans[r].base for r in range(n_ranks)]
                sp_span = [splans[r].span for r in range(n_ranks)]
                sp_n = [splans[r].vals.size for r in range(n_ranks)]
            cr_len = [cat_rows[r].size for r in range(n_ranks)]
            tc_l: list = [[] for _ in range(n_ranks)]  # commit times
            ts_l: list = [[] for _ in range(n_ranks)]  # read cursors
            arr_l: list = [[] for _ in range(n_ranks)]  # arrival rows
            carry = [0.0] * n_ranks  # cursor of next ungenerated iter
            cover = [0.0] * n_ranks
            gen_all = 0  # generated iterations (lockstep, all ranks)
            chunk = 8
            iters = [0] * n_ranks
            eptr = [[0] * n_e[r] for r in range(n_ranks)]
            espill: list = [[None] * n_e[r] for r in range(n_ranks)]
            sent_l: list = [[] for _ in range(n_ranks)]
            sbase = [0] * n_ranks
            puts_fired = 0
            conv_t = None
            # The heap holds exactly the initial wake-ups; their pop
            # does nothing but anchor each rank's clock and consume
            # one seq, so processing them out of time order is
            # unobservable (total seq advance is order-independent).
            while heap:
                sev = hpop(heap)
                if sev[2] != _START:
                    raise _TurboBail
                carry[sev[3]] = sev[0]
                seq += 1

            def _gen_round() -> bool:
                """Extend every rank's precomputed timeline one chunk.

                Draw positions match the scalar engines' pattern
                streams exactly: ``standard_normal`` yields the same
                positional sequence under any chunking, and every
                product/add below pairs the same operands the scalar
                recurrences pair.
                """
                nonlocal gen_all, chunk
                ns = min(chunk, max_iterations - gen_all)
                if ns <= 0:
                    return False
                chunk = min(chunk * 2, 64)
                for (rl, ne, w, pat, cb_c, sl_c, pc_c, ce_c, mb_c,
                     rngs_g) in groups:
                    nrg = len(rl)
                    z = np.stack(
                        [rg.standard_normal(ns * w) for rg in rngs_g]
                    )
                    prod = z.reshape(nrg, ns, w) * pat
                    fac = np.fromiter(
                        map(exp, prod.ravel().tolist()),
                        np.float64,
                        nrg * ns * w,
                    ).reshape(nrg, ns, w)
                    dcv = fac[:, :, 0] * cb_c
                    dcv *= sl_c
                    dov = fac[:, :, w - 1] * ovbase
                    dov += pc_c
                    dov *= sl_c
                    dov += ce_c
                    inter = np.empty((nrg, 2 * ns))
                    inter[:, 0::2] = dcv
                    inter[:, 1::2] = dov
                    inter[:, 0] += [carry[r] for r in rl]
                    cs_ = np.cumsum(inter, axis=1)
                    tcg = cs_[:, 0::2]
                    if ne:
                        arr = fac[:, :, 1 : w - 1] * mb_c
                        arr += tcg[:, :, None]
                        arr_rows = arr.tolist()
                    tc_rows = tcg.tolist()
                    ts_rows = cs_[:, 1::2].tolist()
                    for i, r in enumerate(rl):
                        tc_l[r].extend(tc_rows[i])
                        tr = ts_rows[i]
                        ts_l[r].append(carry[r])
                        ts_l[r].extend(tr[:-1])
                        carry[r] = tr[-1]
                        if ne:
                            arr_l[r].extend(arr_rows[i])
                        cover[r] = carry[r]
                gen_all += ns
                if gen_all >= max_iterations:
                    for r in range(n_ranks):
                        cover[r] = INF
                return True

            merged = 0
            otc: list = []
            ots: list = []
            orr: list = []
            ork: list = []
            pos = 0

            def _merge() -> None:
                """Re-lexsort pending plus newly generated events."""
                nonlocal otc, ots, orr, ork, pos, merged
                tps = [np.array(otc[pos:], dtype=np.float64)]
                sps = [np.array(ots[pos:], dtype=np.float64)]
                rps = [np.array(orr[pos:], dtype=np.int64)]
                kps = [np.array(ork[pos:], dtype=np.int64)]
                if merged < gen_all:
                    ks = np.arange(merged, gen_all, dtype=np.int64)
                    for r in range(n_ranks):
                        tps.append(np.array(tc_l[r][merged:gen_all]))
                        sps.append(np.array(ts_l[r][merged:gen_all]))
                        rps.append(
                            np.full(gen_all - merged, r, np.int64)
                        )
                        kps.append(ks)
                    merged = gen_all
                tca = npcat(tps)
                tsa = npcat(sps)
                idx = np.lexsort((tsa, tca))
                tca = tca.take(idx)
                tsa = tsa.take(idx)
                if tca.size > 1:
                    tie = np.flatnonzero(np.diff(tca) == 0.0)
                    if tie.size and bool(
                        np.any(tsa.take(tie) == tsa.take(tie + 1))
                    ):
                        raise _TurboBail
                otc = tca.tolist()
                ots = tsa.tolist()
                orr = npcat(rps).take(idx).tolist()
                ork = npcat(kps).take(idx).tolist()
                pos = 0

            _gen_round()
            _merge()
            n_ord = len(otc)
            hor = min(cover)
            bat_of = [-1] * n_ranks
            b_r: list = []
            b_k: list = []
            b_tc: list = []
            b_ts: list = []
            gs_parts: list = []
            gv_parts: list = []
            while not converged:
                if pos >= n_ord or otc[pos] >= hor:
                    # Horizon exhausted: extend every rank at once —
                    # extending only the binding rank would re-merge
                    # the whole order once per rank, and the chunk
                    # cap bounds each round's overdraw.
                    if _gen_round():
                        _merge()
                        n_ord = len(otc)
                        hor = min(cover)
                        continue
                    if pos >= n_ord:
                        break
                    hor = min(cover)
                    continue
                # Batch assembly over the static order: stop at a
                # repeated rank (its next commit is already sorted in
                # place, so no push-back machinery is needed), the
                # observation cadence, the generation horizon, or an
                # *exact-arrival* conflict — refuse candidate j when
                # an in-batch sender's put would reach j's cursor,
                # since phase-1 cuts cannot see in-batch fires.
                # Refusing on arrival == cursor is safe: such a put
                # carries a later stamp than the cursor seq and would
                # not deliver sequentially either.
                cap = observe_every - commits_since_obs
                del b_r[:], b_k[:], b_tc[:], b_ts[:]
                while pos < n_ord and len(b_r) < cap:
                    tcv = otc[pos]
                    if tcv >= hor:
                        break
                    br = orr[pos]
                    if bat_of[br] >= 0:
                        break
                    tsv = ots[pos]
                    ok = True
                    for p in in_nbrs[br]:
                        bj = bat_of[p]
                        if bj >= 0 and (
                            arr_l[p][b_k[bj]][emap[p][br]] <= tsv
                        ):
                            ok = False
                            break
                    if not ok:
                        break
                    bat_of[br] = len(b_r)
                    b_r.append(br)
                    b_k.append(ork[pos])
                    b_tc.append(tcv)
                    b_ts.append(tsv)
                    pos += 1
                nb = len(b_r)
                for br in b_r:
                    bat_of[br] = -1
                # Phase 1: every member's mailbox cut at its own
                # cursor. Per directed edge an integer frontier walks
                # the sender's arrival rows in fire order; records
                # passed over unripe go to a (rare) spill list. The
                # latest qualifying fire wins — arrival ties on one
                # edge resolve to the later fire, matching the
                # sequential stamp tiebreak. Winner scatters collect
                # into one fused parent-buffer store per batch
                # (members own disjoint ghost segments, and the
                # relax gather only runs in phase 2).
                del gs_parts[:], gv_parts[:]
                for bi in range(nb):
                    bq = b_r[bi]
                    tsv = b_ts[bi]
                    for p, ei, gsl, lo, hi in recv_edges[bq]:
                        ep_p = eptr[p]
                        wv = ep_p[ei]
                        fcp = iters[p]
                        esp = espill[p]
                        sp = esp[ei]
                        if not sp:
                            if wv >= fcp:
                                continue
                            if wv + 1 == fcp:
                                # Steady state: exactly one fresh
                                # record on the edge.
                                a_ = arr_l[p][wv][ei]
                                ep_p[ei] = fcp
                                if a_ < tsv:
                                    delivered += 1
                                    gs_parts.append(gsl)
                                    gv_parts.append(
                                        sent_l[p][wv - sbase[p]][
                                            lo:hi
                                        ]
                                    )
                                elif a_ == tsv:
                                    raise _TurboBail
                                else:
                                    esp[ei] = [(a_, wv)]
                                continue
                        nd = 0
                        best_a = None
                        bk = -1
                        if sp:
                            keep = None
                            for ent in sp:
                                a_ = ent[0]
                                if a_ < tsv:
                                    nd += 1
                                    if best_a is None or a_ >= best_a:
                                        best_a = a_
                                        bk = ent[1]
                                elif a_ == tsv:
                                    raise _TurboBail
                                elif keep is None:
                                    keep = [ent]
                                else:
                                    keep.append(ent)
                            esp[ei] = keep
                        if wv < fcp:
                            ap = arr_l[p]
                            sp = esp[ei]
                            while wv < fcp:
                                a_ = ap[wv][ei]
                                if a_ < tsv:
                                    nd += 1
                                    if best_a is None or a_ >= best_a:
                                        best_a = a_
                                        bk = wv
                                elif a_ == tsv:
                                    raise _TurboBail
                                elif sp is None:
                                    sp = esp[ei] = [(a_, wv)]
                                else:
                                    sp.append((a_, wv))
                                wv += 1
                            ep_p[ei] = fcp
                        if nd:
                            delivered += nd
                            gs_parts.append(gsl)
                            gv_parts.append(
                                sent_l[p][bk - sbase[p]][lo:hi]
                            )
                if gs_parts:
                    loc_parent[npcat(gs_parts)] = npcat(gv_parts)
                # Phase 2: one stacked relax for the whole batch, then
                # one batched x commit — safe because turbo batches are
                # never pushed back.
                if use_native:
                    # Fused phase 2 + commit: one compiled call relaxes
                    # the members in cursor order and, member by member,
                    # writes ``x`` and applies the incremental residual
                    # scatter (mode 1). Turbo batches are never pushed
                    # back and observation can only strike at the last
                    # member, so the sequential per-member interleaving
                    # is bitwise the phased NumPy path below.
                    nat_relax_batch(
                        b_r, 1 if incremental else 2
                    )
                    pend_cat = nat_pend_cat
                    seg = None
                elif nb == 1:
                    b0 = b_r[0]
                    rows_cat = rows_of[b0]
                    st_pos_c = st_pos[b0]
                    st_span_c = st_span[b0]
                    st_idx_c = st_idx[b0]
                    st_row_c = st_row[b0]
                    st_dat_c = st_dat[b0]
                else:
                    i3c = npcat([i3[r] for r in b_r], axis=1)
                    rows_cat = i3c[0]
                    st_pos_c = i3c[1]
                    st_span_c = i3c[2]
                    i2c = npcat([i2[r] for r in b_r], axis=1)
                    st_idx_c = i2c[0]
                    st_row_c = i2c[1]
                    st_dat_c = npcat([st_dat[r] for r in b_r])
                if not use_native:
                    own_cat = x.take(rows_cat)
                    loc_parent[st_pos_c] = own_cat
                    g = loc_parent.take(st_idx_c)
                    np.multiply(st_dat_c, g, out=g)
                    mv_all = np.bincount(
                        st_row_c, weights=g, minlength=n_grows
                    )
                    mv_cat = mv_all.take(st_span_c)
                    np.subtract(b.take(rows_cat), mv_cat, out=mv_cat)
                    np.multiply(dinv.take(rows_cat), mv_cat, out=mv_cat)
                    pend_cat = np.add(own_cat, mv_cat, out=mv_cat)
                    x[rows_cat] = pend_cat
                    seg = None
                if incremental and not use_native:
                    dx_cat = np.subtract(
                        pend_cat, own_cat, out=own_cat
                    )
                    # Batched scatter-plan apply: concatenate the
                    # per-member plans with np.repeat-broadcast
                    # offsets, bincount once, then subtract each
                    # member's span slice in commit order (bins are
                    # member-disjoint, so per-row accumulation order
                    # is bitwise the per-member bincounts).
                    rep_ps: list = []
                    loc_ps: list = []
                    val_ps: list = []
                    doffs: list = []
                    goffs: list = []
                    plens: list = []
                    seg = []
                    doff = 0
                    goff = 0
                    for bq in b_r:
                        if sp_n[bq]:
                            rep_ps.append(sp_rep[bq])
                            loc_ps.append(sp_loc[bq])
                            val_ps.append(sp_val[bq])
                            doffs.append(doff)
                            goffs.append(goff)
                            plens.append(sp_n[bq])
                            seg.append(
                                (sp_base[bq], sp_span[bq], goff)
                            )
                            goff += sp_span[bq]
                        else:
                            seg.append(None)
                        doff += nrows_loc[bq]
                    if rep_ps:
                        if len(rep_ps) == 1:
                            ri = rep_ps[0] + doffs[0]
                            li = loc_ps[0] + goffs[0]
                            vv_ = val_ps[0]
                        else:
                            pl = np.array(plens)
                            ri = npcat(rep_ps) + np.repeat(
                                np.array(doffs), pl
                            )
                            li = npcat(loc_ps) + np.repeat(
                                np.array(goffs), pl
                            )
                            vv_ = npcat(val_ps)
                        sg = dx_cat.take(ri)
                        np.multiply(vv_, sg, out=sg)
                        contrib = np.bincount(
                            li, weights=sg, minlength=goff
                        )
                # Fired rows for the whole batch in one gather; the
                # per-member views slice out of it in commit order.
                s_parts: list = []
                s_offs: list = []
                s_lens: list = []
                soff = 0
                for bq in b_r:
                    if n_e[bq]:
                        s_parts.append(cat_rows[bq])
                        s_offs.append(soff)
                        s_lens.append(cr_len[bq])
                    soff += nrows_loc[bq]
                if s_parts:
                    if len(s_parts) == 1:
                        svals = pend_cat.take(
                            s_parts[0] + s_offs[0]
                        )
                    else:
                        svals = pend_cat.take(
                            npcat(s_parts)
                            + np.repeat(
                                np.array(s_offs), np.array(s_lens)
                            )
                        )
                # Phase 3: commits in cursor order — residual
                # updates, fires, observations and seq advances
                # exactly as the sequential path interleaves them.
                scur = 0
                for bi in range(nb):
                    bq = b_r[bi]
                    t = b_tc[bi]
                    if seg is not None:
                        sg_ = seg[bi]
                        if sg_ is not None:
                            sb_, ssp, go = sg_
                            r_vec[sb_ : sb_ + ssp] -= contrib[
                                go : go + ssp
                            ]
                    iters[bq] += 1
                    relaxations += nrows_loc[bq]
                    t_end = t
                    ne_q = n_e[bq]
                    if ne_q:
                        sl_q = sent_l[bq]
                        nxt = scur + cr_len[bq]
                        sl_q.append(svals[scur:nxt])
                        scur = nxt
                        seq += ne_q
                        puts_fired += ne_q
                        if len(sl_q) >= 96:
                            # Trim rows every consumer is past.
                            mn = iters[bq]
                            for ei in range(ne_q):
                                sp = espill[bq][ei]
                                k0 = (
                                    sp[0][1]
                                    if sp
                                    else eptr[bq][ei]
                                )
                                if k0 < mn:
                                    mn = k0
                            if mn > sbase[bq]:
                                del sl_q[: mn - sbase[bq]]
                                sbase[bq] = mn
                    commits_since_obs += 1
                    if commits_since_obs >= observe_every:
                        # Cap placement guarantees this is the
                        # batch's last member.
                        commits_since_obs = 0
                        res = observe_residual()
                        times.append(t)
                        residuals.append(res)
                        counts.append(relaxations)
                        if res < tol:
                            converged = True
                            conv_t = t
                            break
                    if iters[bq] >= max_iterations:
                        continue
                    seq += 2
            # Exit bookkeeping. Boxed-record reconciliation below
            # sees only empty boxes; pending deliveries live in the
            # spill lists and unconsumed frontier ranges instead.
            for r in range(n_ranks):
                frk = ranks[r]
                frk.iterations = iters[r]
                if iters[r] >= max_iterations:
                    frk.stopped = True
            tm.puts_sent += puts_fired
            if converged:
                ct = conv_t
                for p in range(n_ranks):
                    ap = arr_l[p]
                    fcp = iters[p]
                    for ei in range(n_e[p]):
                        sp = espill[p][ei]
                        if sp:
                            for a_, _k in sp:
                                if a_ < ct:
                                    delivered += 1
                                elif a_ == ct:
                                    raise _TurboBail
                        for wv in range(eptr[p][ei], fcp):
                            a_ = ap[wv][ei]
                            if a_ < ct:
                                delivered += 1
                            elif a_ == ct:
                                raise _TurboBail
            else:
                for p in range(n_ranks):
                    fcp = iters[p]
                    for ei in range(n_e[p]):
                        sp = espill[p][ei]
                        delivered += (
                            len(sp) if sp else 0
                        ) + fcp - eptr[p][ei]
        # The block loop: one heap event per block iteration. A _START
        # appears only as each rank's initial wake-up; every other event
        # is a _COMMIT carrying the iteration's *virtual read cursor*
        # ``(t_start, start_seq)`` — the (time, seq) a separate START
        # event would have occupied (the seq counter advances at exactly
        # the same processing points as in the general loop). At the pop
        # the whole read-relax-commit span runs back to back: the mailbox
        # cut at the virtual cursor reproduces what the relax would have
        # seen at the START (later arrivals stay boxed), own rows are only
        # ever written by their owner, and same-instant commits apply in
        # virtual-cursor order — the order separate COMMIT events' seqs
        # (assigned at their START pops) would have induced.
        while plain and heap and not converged:
            ev = hpop(heap)
            if heap and heap[0][0] == ev[0]:
                tb = ev[0]
                run = [ev]
                while heap and heap[0][0] == tb:
                    run.append(hpop(heap))
                run.sort(
                    key=lambda e: e[4] if e[2] == _COMMIT else (e[0], e[1])
                )
            else:
                run = (ev,)
            for ev in run:
                if converged:
                    break
                t, s, kind, rid, payload = ev
                rk = ranks[rid]
                if kind == _START:
                    # Initial wake-up: realize the first virtual read at
                    # (t, s) and schedule the first block event.
                    st = fstreams[rid]
                    if st is None:
                        base = cbase[rid]
                        if sigma_m > 0:
                            base *= float(rk.rng.lognormal(0.0, sigma_m))
                        hpush(
                            heap,
                            (t + base * slow[rid], seq, _COMMIT, rid, (t, s)),
                        )
                    elif type(st) is tuple:
                        hpush(
                            heap,
                            (t + cbase[rid] * slow[rid], seq, _COMMIT, rid,
                             (t, s)),
                        )
                    else:
                        fl = fbuf[rid] = st.next_step()
                        if sigma_m > 0:
                            hpush(
                                heap,
                                (t + (cbase[rid] * fl[0]) * slow[rid], seq,
                                 _COMMIT, rid, (t, s)),
                            )
                        else:
                            hpush(
                                heap,
                                (t + cbase[rid] * slow[rid], seq, _COMMIT,
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
                relax(rk)
                # Inlined commit_rows: the commit directly follows the
                # rank's own relax, so ``own_view`` still holds ``x[rows]``
                # as of the take in ``relax`` (only the owner writes its
                # rows) — the old-value gather is free. Gauss-Seidel
                # relaxes in place through ``own_view``, so it re-gathers.
                pb = pend_buf[rid]
                if incremental:
                    if nat_commit_args is not None:
                        nat_commit(*nat_commit_args[rid], nat_pend_ptr[rid],
                                   r_ptr)
                    else:
                        if gauss_seidel:
                            x.take(rows_of[rid], out=own_view[rid])
                        np.subtract(pb, own_view[rid], out=dx_buf[rid])
                        x[rows_of[rid]] = pb
                        splans[rid].apply(r_vec, dx_buf[rid])
                else:
                    x[rows_of[rid]] = pb
                rk.iterations += 1
                relaxations += nrows_loc[rid]
                t_end = t
                f = fbuf[rid]
                fent = fire[rid]
                if fent:
                    vals = pb.take(cat_rows[rid])
                    if f is not None:
                        if sigma_net > 0:
                            j = net_j0
                            for box, mb, lo, hi in fent:
                                box.append((t + mb * f[j], seq, vals[lo:hi]))
                                seq += 1
                                j += 1
                        else:
                            for box, mb, lo, hi in fent:
                                box.append((t + mb, seq, vals[lo:hi]))
                                seq += 1
                    else:
                        rng = rk.rng if fstreams[rid] is None else None
                        if rng is not None and sigma_net > 0:
                            for box, mb, lo, hi in fent:
                                box.append(
                                    (t + mb * float(rng.lognormal(0.0, sigma_net)),
                                     seq, vals[lo:hi])
                                )
                                seq += 1
                        else:
                            for box, mb, lo, hi in fent:
                                box.append((t + mb, seq, vals[lo:hi]))
                                seq += 1
                tm.puts_sent += len(fent)
                commits_since_obs += 1
                if commits_since_obs >= observe_every:
                    commits_since_obs = 0
                    res = observe_residual()
                    times.append(t)
                    residuals.append(res)
                    counts.append(relaxations)
                    if res < tol:
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
                # next iteration's compute factor is drawn — the same
                # per-rank draw positions the general loop uses.
                f = fbuf[rid]
                if f is not None:
                    if sigma_m > 0:
                        nts = t + ((ovbase * f[-1] + puts_const[rid])
                                   * slow[rid] + const_extra[rid])
                    else:
                        nts = t + ((ovbase + puts_const[rid]) * slow[rid]
                                   + const_extra[rid])
                else:
                    base = ovbase
                    rng = rk.rng
                    if fstreams[rid] is None and sigma_m > 0:
                        base *= float(rng.lognormal(0.0, sigma_m))
                    ce = const_extra[rid]
                    if ce is None:
                        ce = self.delay.extra_time(rid, rk.iterations, rng)
                    nts = t + ((base + puts_const[rid]) * slow[rid] + ce)
                nsv = seq
                seq += 1
                st = fstreams[rid]
                if st is None:
                    base = cbase[rid]
                    if sigma_m > 0:
                        base *= float(rk.rng.lognormal(0.0, sigma_m))
                    hpush(
                        heap,
                        (nts + base * slow[rid], seq, _COMMIT, rid,
                         (nts, nsv)),
                    )
                elif type(st) is tuple:
                    hpush(
                        heap,
                        (nts + cbase[rid] * slow[rid], seq, _COMMIT, rid,
                         (nts, nsv)),
                    )
                else:
                    fl = fbuf[rid] = st.next_step()
                    if sigma_m > 0:
                        hpush(
                            heap,
                            (nts + (cbase[rid] * fl[0]) * slow[rid], seq,
                             _COMMIT, rid, (nts, nsv)),
                        )
                    else:
                        hpush(
                            heap,
                            (nts + cbase[rid] * slow[rid], seq, _COMMIT,
                             rid, (nts, nsv)),
                        )
                seq += 1
        if plain:
            queue._seq = seq
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

        while queue and not converged:
            t, kind, agents, objs = queue.pop_batch()
            for rid, payload in zip(agents, objs):
                rk = ranks[rid]
                if perf is not None:
                    perf.events += 1
                if kind == _MESSAGE:
                    if has_plan and down(rid, t):
                        # The target window is gone; the put lands nowhere.
                        tm.puts_dropped += 1
                        continue
                    if not reliable:
                        # Fire-and-forget puts carry lean payloads: the ghost
                        # scatter below IS the one-sided RMA landing.
                        if trc is None:
                            slots, values = payload
                            ps = pend_scatter[rid]
                            k = id(slots)
                            if k in ps:
                                coalesced_puts += 1
                            ps[k] = (slots, values, None)
                            tm.puts_delivered += 1
                            fresh[rid] = True
                            if eager and idle[rid] and not rk.stopped:
                                idle[rid] = False
                                queue.push(t, _START, rid, rk.epoch)
                            continue
                        slots, values, meta = payload
                        vers = (
                            meta["vers"]
                            if trace_reads and meta is not None
                            and meta.get("vers") is not None
                            else None
                        )
                        ps = pend_scatter[rid]
                        k = id(slots)
                        if k in ps:
                            coalesced_puts += 1
                        ps[k] = (slots, values, vers)
                        tm.puts_delivered += 1
                        trc.recv(
                            t, rid, None, values.size, seq=None,
                            latency=(t - meta["sent_at"]) if meta else None,
                        )
                        fresh[rid] = True
                        if eager and idle[rid] and not rk.stopped:
                            idle[rid] = False
                            queue.push(t, _START, rid, rk.epoch)
                        continue
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
                    vers = (
                        meta["vers"]
                        if trace_reads and meta is not None
                        and meta.get("vers") is not None
                        else None
                    )
                    ps = pend_scatter[rid]
                    k = id(slots)
                    if k in ps:
                        coalesced_puts += 1
                    ps[k] = (slots, values, vers)
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
                        for r in range(1, self.n_ranks):
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
                    if rk.ghost_cols.size:
                        rk.ghosts[:] = x[rk.ghost_cols]  # ghost re-sync
                        if trace_reads:
                            rk.ghost_ver[:] = version[rk.ghost_cols]
                        # Pre-crash arrivals are superseded by the re-sync.
                        pend_scatter[rid].clear()
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
                    drk = ranks[dead]
                    if drk.ghost_cols.size:
                        drk.ghosts[:] = x[drk.ghost_cols]  # ghost re-sync
                        if trace_reads:
                            drk.ghost_ver[:] = version[drk.ghost_cols]
                        # The re-sync supersedes anything boxed.
                        pend_scatter[dead].clear()
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
                        if drk.ghost_cols.size:
                            drk.ghosts[:] = x[drk.ghost_cols]
                            if trace_reads:
                                drk.ghost_ver[:] = version[drk.ghost_cols]
                            # The re-sync supersedes anything boxed.
                            pend_scatter[d].clear()
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
                        t0 = perf.tick() if perf is not None else 0.0
                        res = observe_residual()
                        if perf is not None:
                            perf.tock_residual(t0)
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
                        queue.push(t + overhead_time(rk), _START, rid, rk.epoch)

        if degraded_since is not None:
            tm.degraded_intervals.append((degraded_since, max(t_end, degraded_since)))
        # Final observation, skipped via the dirty flag when no row changed
        # since the last recorded one (recomputing would be pure waste).
        if commits_since_obs:
            t0 = perf.tick() if perf is not None else 0.0
            res = observe_residual()
            if perf is not None:
                perf.tock_residual(t0)
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
        if perf is not None:
            perf.total_seconds = _time.perf_counter() - run_start
            perf.puts_coalesced = coalesced_puts
            perf.delivery_flushes = flush_batches
            perf.delivery_edges_flushed = flushed_edges
            perf.delivery_batch_max = batch_max
            perf.ledger_scatter_width = ledger_width
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
            perf=perf,
        )

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
        message — so the draws are served from a per-rank
        :class:`~repro.runtime.engine.PatternJitterStream` (bit-identical
        to the scalar draws; ``legacy_engine=True`` runs the pre-engine
        scalar loop kept in :mod:`repro.runtime.legacy`).
        """
        if legacy_engine:
            from repro.runtime import legacy

            return legacy.distributed_run_sync(
                self, x0=x0, tol=tol, max_iterations=max_iterations
            )
        check_positive(tol, "tol")
        A, b, dinv = self.A, self.b, self.dinv
        x = np.zeros(self.n) if x0 is None else check_vector(x0, self.n, "x0").copy()
        ranks = self._compile_ranks()
        net = self.cluster.network
        node = self.cluster.node
        allreduce = net.allreduce_cost(self.n_ranks)

        # Per-rank constants of the sweep-timing recurrence (exact legacy
        # arithmetic: ``(cbase*jit)*slow + (ovbase*jit + puts)*slow + extra``).
        n_ranks = self.n_ranks
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
        # Sync-mode messages always pay the inter-node latency (the legacy
        # loop never passed ``intra_node``).
        msg_bases = [
            [lat + local_rows.size * tpv for _, _, local_rows in rk.send_plan]
            for rk in ranks
        ]
        # A rank's per-sweep draw pattern on its private generator:
        # [sigma_m, sigma_m] then sigma_net per message — each sigma present
        # only when that jitter is active (no draw happens otherwise).
        # Ranks whose delay model draws from the same generator
        # (``constant_extra() is None``) cannot prefetch and fall back to
        # scalar draws in the legacy order.
        streams: list = []
        for r, rk in enumerate(ranks):
            if const_extra[r] is None:
                streams.append(None)
                continue
            pattern = []
            if sigma_m > 0:
                pattern += [sigma_m, sigma_m]
            if sigma_net > 0:
                pattern += [sigma_net] * len(rk.send_plan)
            streams.append(
                PatternJitterStream(rk.rng, pattern) if pattern else ()
            )

        # Vectorized sweep timing: when every rank prefetches (all
        # streams are PatternJitterStreams), whole blocks of sweeps can
        # be drawn, exponentiated and max-reduced as arrays. Ranks are
        # grouped by draw-pattern width so each group's normals stack
        # into one rectangular block; ``max`` is exact, so reducing
        # across ranks elementwise is bitwise the scalar running max.
        # Per-factor arithmetic keeps the scalar operand order
        # (``(cbase*f)*slow`` etc.), and ``math.exp`` stays libm.
        vec = n_ranks > 0 and all(
            type(st) is PatternJitterStream for st in streams
        )
        if vec:
            const_comp = 0.0  # jitter-free cycle contributions
            const_comm = 0.0  # jitter-free message contributions
            gmeta = []
            groups: dict = {}
            for ri, rk in enumerate(ranks):
                e = len(rk.send_plan) if sigma_net > 0 else 0
                w = (2 if sigma_m > 0 else 0) + e
                groups.setdefault(w, []).append(ri)
                if sigma_m <= 0:
                    cyc = cbase[ri] * slow[ri] + (
                        (ovbase + puts_const[ri]) * slow[ri] + const_extra[ri]
                    )
                    if cyc > const_comp:
                        const_comp = cyc
                if sigma_net <= 0:
                    for mb in msg_bases[ri]:
                        if mb > const_comm:
                            const_comm = mb
            for w, idxs in groups.items():
                nrg = len(idxs)
                if sigma_m > 0:
                    pat = [sigma_m, sigma_m] + [sigma_net] * (w - 2)
                else:
                    pat = [sigma_net] * w
                pat_a = np.asarray(pat, dtype=np.float64)
                cb = np.array([cbase[ri] for ri in idxs])[:, None]
                sl = np.array([slow[ri] for ri in idxs])[:, None]
                pc = np.array([puts_const[ri] for ri in idxs])[:, None]
                ce = np.array([const_extra[ri] for ri in idxs])[:, None]
                j0 = 2 if sigma_m > 0 else 0
                mb_mat = (
                    np.array([msg_bases[ri] for ri in idxs])[:, None, :]
                    if w > j0
                    else None
                )
                rngs = [ranks[ri].rng for ri in idxs]
                gmeta.append((w, nrg, pat_a, cb, sl, pc, ce, j0, mb_mat, rngs))

            exp = math.exp

            def _sweep_chunk(S: int):
                """(compute, comm) lists for the next ``S`` sweeps."""
                comp_c = None
                comm_c = None
                for w, nrg, pat_a, cb, sl, pc, ce, j0, mb_mat, rngs in gmeta:
                    z = np.empty((nrg, S * w))
                    for gi, rng in enumerate(rngs):
                        z[gi] = rng.standard_normal(S * w)
                    prod = z.reshape(nrg, S, w) * pat_a
                    fac = np.array(
                        [exp(v) for v in prod.ravel().tolist()]
                    ).reshape(nrg, S, w)
                    if sigma_m > 0:
                        t1 = fac[:, :, 0] * cb
                        t1 *= sl
                        t2 = fac[:, :, 1] * ovbase
                        t2 += pc
                        t2 *= sl
                        t2 += ce
                        t1 += t2
                        gcomp = np.max(t1, axis=0)
                        if comp_c is None:
                            comp_c = gcomp
                        else:
                            np.maximum(comp_c, gcomp, out=comp_c)
                    if mb_mat is not None:
                        mv = fac[:, :, j0:] * mb_mat
                        gcomm = np.max(mv, axis=(0, 2))
                        if comm_c is None:
                            comm_c = gcomm
                        else:
                            np.maximum(comm_c, gcomm, out=comm_c)
                if comp_c is None:
                    comp_l = [const_comp] * S
                else:
                    np.maximum(comp_c, const_comp, out=comp_c)
                    comp_l = comp_c.tolist()
                if comm_c is None:
                    comm_l = [const_comm] * S
                else:
                    np.maximum(comm_c, const_comm, out=comm_c)
                    comm_l = comm_c.tolist()
                return comp_l, comm_l

        wp = self._warm_plan(ranks)
        b_norm = wp.b_norm1
        abs_scratch = wp.abs_scratch

        def relnorm(res_vec) -> float:
            # vector_norm(res_vec, 1) without a fresh n-float temporary.
            num = float(np.sum(np.abs(res_vec, out=abs_scratch)))
            return num / b_norm if b_norm > 0 else num

        mom_beta = self.method.beta
        mom_prev = x.copy() if self.method.kind == "momentum" else None
        # One SpMV per sweep in the Jacobi branch: the residual driving the
        # update doubles as the previous sweep's convergence check. It is
        # consumed before the next sweep recomputes it, so one buffer
        # serves the whole run.
        residual = self._residual_fn()
        r = residual(x, np.empty(self.n))
        res0 = relnorm(r)
        times, residuals, counts = [0.0], [res0], [0]
        t = 0.0
        relaxations = 0
        k = 0
        vi = vn = 0
        v_steps = 8
        comp_buf: list = []
        comm_buf: list = []
        converged = res0 < tol
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
                t += compute + comm + allreduce
                if self.local_sweep == "jacobi":
                    if mom_prev is None:
                        x += dinv * r
                    else:
                        dx = dinv * r + mom_beta * (x - mom_prev)
                        mom_prev[:] = x
                        x += dx
                else:
                    updates = []
                    for rk in ranks:
                        if rk.ghost_cols.size:
                            rk.ghosts[:] = x[rk.ghost_cols]
                        updates.append(self._relax_block(rk, x))
                    for rk, new in zip(ranks, updates):
                        x[rk.rows] = new
                relaxations += self.n
                k += 1
                res = relnorm(residual(x, r))
                times.append(t)
                residuals.append(res)
                counts.append(relaxations)
                converged = res < tol
                continue
            compute = 0.0
            comm = 0.0
            # One pass per rank: cycle time then message times, exactly the
            # draws the legacy two-loop version made on this rank's private
            # generator (inter-rank interleaving is unobservable — the
            # generators are independent).
            for ri in range(n_ranks):
                st = streams[ri]
                if st is None:
                    # Scalar fallback: the delay model shares the generator.
                    rk = ranks[ri]
                    rng = rk.rng
                    t1 = cbase[ri]
                    t2 = ovbase
                    if sigma_m > 0:
                        t1 *= float(rng.lognormal(0.0, sigma_m))
                        t2 *= float(rng.lognormal(0.0, sigma_m))
                    t1 *= slow[ri]
                    t2 = (t2 + puts_const[ri]) * slow[ri] + self.delay.extra_time(
                        ri, rk.iterations, rng
                    )
                    cyc = t1 + t2
                    if cyc > compute:
                        compute = cyc
                    if sigma_net > 0:
                        for mb in msg_bases[ri]:
                            v = mb * float(rng.lognormal(0.0, sigma_net))
                            if v > comm:
                                comm = v
                    else:
                        for mb in msg_bases[ri]:
                            if mb > comm:
                                comm = mb
                    continue
                if type(st) is tuple:
                    # No jitter at all: the sweep cost is a constant.
                    cyc = cbase[ri] * slow[ri] + (
                        (ovbase + puts_const[ri]) * slow[ri] + const_extra[ri]
                    )
                    if cyc > compute:
                        compute = cyc
                    for mb in msg_bases[ri]:
                        if mb > comm:
                            comm = mb
                    continue
                f = st.next_step()
                if sigma_m > 0:
                    t1 = (cbase[ri] * f[0]) * slow[ri]
                    t2 = (ovbase * f[1] + puts_const[ri]) * slow[ri] + const_extra[ri]
                    j = 2
                else:
                    t1 = cbase[ri] * slow[ri]
                    t2 = (ovbase + puts_const[ri]) * slow[ri] + const_extra[ri]
                    j = 0
                cyc = t1 + t2
                if cyc > compute:
                    compute = cyc
                if sigma_net > 0:
                    for mb in msg_bases[ri]:
                        v = mb * f[j]
                        j += 1
                        if v > comm:
                            comm = v
                else:
                    for mb in msg_bases[ri]:
                        if mb > comm:
                            comm = mb
            t += compute + comm + allreduce
            if self.local_sweep == "jacobi":
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
            res = relnorm(residual(x, r))
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
            iterations=np.full(self.n_ranks, k),
            total_time=t,
            mode="sync",
        )

    def run(self, mode: str, **kwargs) -> SimulationResult:
        """Dispatch to :meth:`run_async` or :meth:`run_sync` by name."""
        if mode == "async":
            return self.run_async(**kwargs)
        if mode == "sync":
            return self.run_sync(**kwargs)
        raise ValueError(f"mode must be 'sync' or 'async', got {mode!r}")
