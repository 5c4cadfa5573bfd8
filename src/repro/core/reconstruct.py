"""Reconstructing propagation-matrix sequences from execution traces.

Section IV-A asks: given a history of *real* asynchronous relaxations — for
each relaxation of row i, which version ``s_ij`` of every neighbor j it read
— can the history be reordered into parallel steps ``Phi(1), Phi(2), ...``
such that each step is exactly one application of a propagation matrix?
A relaxation expressible this way is *propagated*; Figure 2 reports the
fraction of propagated relaxations in OpenMP traces.

The two conditions (paper, Section IV-A) for adding row i's next relaxation
to the current parallel step are:

1. every neighbor j has already relaxed exactly ``s_ij`` times — the
   relaxation reads the *current* state, neither future nor stale values;
2. relaxing i now must not strand another row whose pending relaxation still
   needs the current version of i (otherwise that row would later read an
   old version, which no propagation matrix can express).

The greedy scheduler here applies condition 1 to find ready relaxations and
condition 2 as an iterated pruning pass (rows relaxing *within the same
step* may read each other's current versions — they all read the pre-step
state). When no step can be formed, the earliest remaining relaxation (by
real execution time) is applied out-of-band and counted as non-propagated,
exactly like the p3 relaxation in the paper's Figure 1(b) example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import ScheduleError


@dataclass(frozen=True)
class Relaxation:
    """One recorded relaxation.

    Attributes
    ----------
    row
        The relaxed row.
    index
        1-based relaxation count of this row (its kappa after relaxing).
    time
        Real execution time of the write (ties broken by insertion order).
    reads
        ``{neighbor row: version read}`` — version v means "the value
        produced by that row's v-th relaxation" (0 = initial value). The
        row's read of itself may be included or omitted; self-reads of the
        current version are implied.
    """

    row: int
    index: int
    time: float
    reads: dict


class ExecutionTrace:
    """A time-ordered collection of relaxations for an n-row system."""

    def __init__(self, n: int):
        if n < 1:
            raise ScheduleError(f"n must be >= 1, got {n}")
        self.n = int(n)
        self._per_row = [[] for _ in range(self.n)]
        self._all = []

    def record(self, row: int, time: float, reads: dict) -> Relaxation:
        """Append a relaxation of ``row`` at ``time`` with the given reads."""
        if not 0 <= row < self.n:
            raise ScheduleError(f"row {row} out of range [0, {self.n})")
        clean = {}
        for j, ver in reads.items():
            j = int(j)
            if not 0 <= j < self.n:
                raise ScheduleError(f"read source {j} out of range [0, {self.n})")
            if ver < 0:
                raise ScheduleError(f"read version must be >= 0, got {ver}")
            clean[j] = int(ver)
        rel = Relaxation(
            row=int(row), index=len(self._per_row[row]) + 1, time=float(time), reads=clean
        )
        self._per_row[row].append(rel)
        self._all.append(rel)
        return rel

    def relaxations_of(self, row: int) -> list:
        """All relaxations of one row, in order."""
        return list(self._per_row[row])

    def __len__(self) -> int:
        """Total relaxations recorded, over all rows."""
        return len(self._all)

    def __iter__(self):
        """Relaxations in recording order."""
        return iter(self._all)


@dataclass
class ReconstructionResult:
    """Output of :func:`reconstruct_propagation_steps`.

    Attributes
    ----------
    phi
        The parallel steps: each entry is the sorted array of rows relaxed
        together as one propagation matrix.
    applied
        The *full* application order the scheduler produced: one
        ``(rows, propagated)`` pair per application, parallel steps and
        out-of-band relaxations interleaved exactly as they were applied.
        Each entry is one propagation-matrix application, so replaying
        ``applied`` through the model executor reproduces the
        reconstructed trajectory (the observability replay bridge does
        exactly this).
    propagated
        Number of relaxations expressed via propagation matrices.
    non_propagated
        Relaxations that had to be applied out-of-band.
    flags
        For each input relaxation (in trace order), True if propagated.
    """

    phi: list = field(default_factory=list)
    applied: list = field(default_factory=list)
    propagated: int = 0
    non_propagated: int = 0
    flags: list = field(default_factory=list)

    @property
    def total(self) -> int:
        """Total relaxations considered."""
        return self.propagated + self.non_propagated

    @property
    def fraction_propagated(self) -> float:
        """The Figure 2 metric (1.0 for an empty trace)."""
        return self.propagated / self.total if self.total else 1.0


def reconstruct_propagation_steps(trace: ExecutionTrace) -> ReconstructionResult:
    """Reconstruct propagation-matrix steps from a trace.

    A time-ordered greedy with *deferral* and *merging*:

    * relaxations are replayed roughly in real commit order; relaxations
      that committed at the same instant (e.g. one thread's block) form one
      candidate batch;
    * condition 1 ("ready"): a relaxation can join a step only when it read
      exactly the current version of every neighbor;
    * condition 2 is enforced by deferral: if a still-pending relaxation q
      reads the current version of a candidate row r — so relaxing r now
      would force q to read an old value — then r is *deferred*, unless q
      is itself ready, in which case q is *merged* into the same step (both
      then read the pre-step state, which is legal);
    * if deferral empties the step, the original batch is applied anyway —
      the paper's "ignore the second condition" fallback (Fig. 1(b)) — and
      the stranded readers later count as non-propagated;
    * a pending relaxation that already reads some row at an *older* than
      current version can never be expressed; when nothing is ready, the
      earliest such relaxation is applied out-of-band as non-propagated.

    On the paper's two worked examples (Fig. 1) this yields exactly the
    published outcomes: (a) all four relaxations propagated via
    Phi = {4}, {1, 2}, {3}; (b) three propagated and p3's relaxation
    applied separately.
    """
    n = trace.n
    per_row = [trace.relaxations_of(i) for i in range(n)]
    next_idx = [0] * n  # index into per_row[i] of the pending relaxation
    version = [0] * n  # relaxations of row i applied so far
    flag_of = {}  # id(Relaxation) -> bool
    phi_steps = []
    applied_order = []  # (rows array, propagated) per application, in order

    def pending_list():
        return [per_row[i][next_idx[i]] for i in range(n) if next_idx[i] < len(per_row[i])]

    def is_ready(rel: Relaxation) -> bool:
        return all(version[j] == ver for j, ver in rel.reads.items() if j != rel.row)

    def is_stale(rel: Relaxation) -> bool:
        return any(version[j] > ver for j, ver in rel.reads.items() if j != rel.row)

    def apply_step(rels, propagated: bool) -> None:
        for rel in rels:
            flag_of[id(rel)] = propagated
            next_idx[rel.row] += 1
        # Versions advance only after the whole step: simultaneous
        # relaxations all read the pre-step state.
        for rel in rels:
            version[rel.row] += 1
        rows = np.asarray(sorted(r.row for r in rels), dtype=np.int64)
        applied_order.append((rows, propagated))
        if propagated:
            phi_steps.append(rows)

    remaining = len(trace)
    while remaining:
        pending = pending_list()
        ready = [rel for rel in pending if is_ready(rel)]
        if not ready:
            # Nothing expressible: apply the earliest pending relaxation
            # (real execution order) out-of-band.
            rel = min(pending, key=lambda r: (r.time, r.row))
            apply_step([rel], propagated=False)
            remaining -= 1
            continue

        # Group the pending frontier into *batches*: relaxations committed
        # at the same instant (one thread's block in the simulators) live or
        # die together — applying part of a batch would strand the rest.
        batch_time = {}  # row -> batch key of its pending relaxation
        batch_members = {}  # batch key -> {row: rel}
        for rel in pending:
            batch_time[rel.row] = rel.time
            batch_members.setdefault(rel.time, {})[rel.row] = rel
        ready_rows = {rel.row for rel in ready}
        ready_batches = sorted(
            t for t, members in batch_members.items() if set(members) <= ready_rows
        )
        # Batches where only some members are ready (a peer is stale or
        # future-waiting) can still seed a step with their ready part.
        partial_batches = sorted(
            t for t, members in batch_members.items()
            if t not in set(ready_batches) and (set(members) & ready_rows)
        )

        def build(seed_key):
            """Grow a step from one seed batch via batch-atomic defer/merge."""
            candidate = {
                row: rel
                for row, rel in batch_members[seed_key].items()
                if row in ready_rows
            }
            banned = set()
            for _ in range(len(batch_members) + 1):
                changed = False
                for q in pending:
                    if q.row in candidate or is_stale(q):
                        continue
                    needs = [
                        j
                        for j, ver in q.reads.items()
                        if j != q.row and j in candidate and ver == version[j]
                    ]
                    if not needs:
                        continue
                    qb = batch_time[q.row]
                    q_batch = batch_members[qb]
                    if (
                        qb not in banned
                        and set(q_batch) <= ready_rows
                    ):
                        candidate.update(q_batch)  # merge the whole batch
                    else:
                        # Defer every batch that q still needs at the
                        # current version; ban them so they cannot
                        # re-merge and oscillate.
                        for j in needs:
                            jb = batch_time[j]
                            banned.add(jb)
                            for row in batch_members[jb]:
                                candidate.pop(row, None)
                    changed = True
                    break  # re-scan from scratch after every change
                if not changed or not candidate:
                    break
            return candidate

        step = None
        for seed_key in ready_batches + partial_batches:
            candidate = build(seed_key)
            if candidate:
                step = candidate
                break
        if step is None:
            # Every seed was deferred to nothing; apply the earliest ready
            # batch anyway, ignoring condition 2 (the paper's Fig. 1(b)
            # move) — the stranded readers pay later.
            key = (ready_batches + partial_batches)[0]
            step = {
                row: rel
                for row, rel in batch_members[key].items()
                if row in ready_rows
            }
        apply_step(list(step.values()), propagated=True)
        remaining -= len(step)

    result = ReconstructionResult()
    result.phi = phi_steps
    result.applied = applied_order
    for rel in trace:
        is_prop = flag_of[id(rel)]
        result.flags.append(is_prop)
        if is_prop:
            result.propagated += 1
        else:
            result.non_propagated += 1
    return result
