"""Update-set schedules: which rows relax at each model step.

The paper's model is executed against a *schedule* — a sequence of sets
``Psi(k)`` of rows that relax at step ``k``, each step carrying a model time
(Section VII-B: "for the model, time is in unit steps"). The schedule
families here cover every scenario in the paper plus the ablations:

* :class:`SynchronousSchedule` — all rows every step; with a ``delay`` the
  whole step costs ``delay`` time units, modeling everyone waiting at the
  barrier for the slowest thread.
* :class:`DelayedRowsSchedule` — the Figure 3/4 scenario: delayed rows relax
  only every ``delay`` steps (``delay=None`` / ``inf`` = delayed forever),
  everyone else every step.
* :class:`RandomSubsetSchedule` — each step relaxes a uniformly random
  subset; a simple stand-in for uncoordinated asynchrony.
* :class:`BlockSequentialSchedule` — one block (subdomain) per step, in
  sweep order: the *fully multiplicative* limit (inexact multiplicative
  block relaxation, Section IV-B) that asynchronous Jacobi approaches as
  concurrency grows.
* :class:`OverlappedBlockSchedule` — ``concurrency`` randomly chosen blocks
  per step: intermediate between synchronous (all blocks) and fully
  multiplicative (one block). This is the knob that reproduces Figure 6's
  "more threads => more multiplicative => converges" effect in the model.
* :class:`TraceSchedule` — replay the relaxation sets of a recorded
  execution (bridging the simulators back into the model).

Schedules are infinite iterators of :class:`ScheduleStep`; executors consume
as many steps as they need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.util.errors import ScheduleError
from repro.util.rng import as_rng


@dataclass(frozen=True)
class ScheduleStep:
    """One parallel step: the model time at which it completes and Psi(k)."""

    time: float
    rows: np.ndarray


class Schedule:
    """Base class: an infinite iterable of :class:`ScheduleStep`.

    Subclasses implement :meth:`steps`. ``n`` is the number of rows of the
    system the schedule drives.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ScheduleError(f"n must be >= 1, got {n}")
        self.n = int(n)

    def steps(self) -> Iterator[ScheduleStep]:
        """Yield schedule steps forever (or until the schedule is exhausted)."""
        raise NotImplementedError

    @property
    def is_synchronous(self) -> bool:
        """True when every step relaxes every row."""
        return False


class SynchronousSchedule(Schedule):
    """All rows relax every step; each step costs ``delay`` time units.

    ``delay`` models the barrier: with one thread sleeping ``delay`` units
    per iteration, synchronous Jacobi pays ``delay`` per sweep (Section
    VII-B: "all rows relax at multiples of delta to simulate waiting for the
    slowest process").
    """

    def __init__(self, n: int, delay: float = 1.0):
        super().__init__(n)
        if delay <= 0:
            raise ScheduleError(f"delay must be positive, got {delay}")
        self.delay = float(delay)

    def steps(self) -> Iterator[ScheduleStep]:
        """Every row at times ``delay``, ``2 delay``, ... forever."""
        rows = np.arange(self.n, dtype=np.int64)
        t = 0.0
        while True:
            t += self.delay
            yield ScheduleStep(time=t, rows=rows)

    @property
    def is_synchronous(self) -> bool:
        """Always True: every step relaxes every row."""
        return True


class DelayedRowsSchedule(Schedule):
    """Asynchronous schedule with per-row delays (Figures 3 and 4).

    Non-delayed rows relax at every unit step; a row with delay ``d`` relaxes
    only at steps ``d, 2d, 3d, ...``. A delay of ``None`` (or ``inf``) means
    the row never relaxes again — the paper's "delayed until convergence"
    case, which still reduces the residual (Theorem 1).
    """

    def __init__(self, n: int, delays: dict):
        super().__init__(n)
        self.delays = {}
        for row, d in delays.items():
            row = int(row)
            if not 0 <= row < n:
                raise ScheduleError(f"delayed row {row} out of range [0, {n})")
            if d is not None and d != float("inf"):
                if d < 1 or int(d) != d:
                    raise ScheduleError(f"delay must be a positive integer, got {d!r}")
                d = int(d)
            else:
                d = None
            self.delays[row] = d

    def steps(self) -> Iterator[ScheduleStep]:
        """Unit steps; a row with delay ``d`` joins only every ``d``-th."""
        base = np.ones(self.n, dtype=bool)
        k = 0
        while True:
            k += 1
            active = base.copy()
            for row, d in self.delays.items():
                active[row] = d is not None and k % d == 0
            yield ScheduleStep(time=float(k), rows=np.nonzero(active)[0])


class RandomSubsetSchedule(Schedule):
    """Each step relaxes an independent uniform random subset of rows.

    ``fraction`` is the expected fraction of active rows per step. Steps with
    an empty draw are re-drawn so every step does some work.
    """

    def __init__(self, n: int, fraction: float, seed=None):
        super().__init__(n)
        if not 0 < fraction <= 1:
            raise ScheduleError(f"fraction must lie in (0, 1], got {fraction}")
        self.fraction = float(fraction)
        self.rng = as_rng(seed)

    def steps(self) -> Iterator[ScheduleStep]:
        """Unit steps, each a fresh nonempty random draw of rows."""
        t = 0.0
        while True:
            t += 1.0
            while True:
                mask = self.rng.random(self.n) < self.fraction
                if mask.any():
                    break
            yield ScheduleStep(time=t, rows=np.nonzero(mask)[0])


def _blocks_from_labels(labels: np.ndarray) -> list:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0:
        raise ScheduleError("labels must be nonnegative")
    blocks = [np.nonzero(labels == p)[0] for p in range(int(labels.max()) + 1)]
    if any(b.size == 0 for b in blocks):
        raise ScheduleError("every block label must own at least one row")
    return blocks


class BlockSequentialSchedule(Schedule):
    """One block per step, cycling through blocks in a fixed or random order.

    This is inexact multiplicative block relaxation (Section IV-B): each
    block is relaxed with a single Jacobi step, and blocks build on each
    other multiplicatively. With one row per block and natural order it *is*
    Gauss-Seidel.
    """

    def __init__(self, labels, shuffle: bool = False, seed=None):
        labels = np.asarray(labels, dtype=np.int64)
        super().__init__(labels.shape[0])
        self.blocks = _blocks_from_labels(labels)
        self.shuffle = bool(shuffle)
        self.rng = as_rng(seed)

    def steps(self) -> Iterator[ScheduleStep]:
        """One block per unit step, cycling (optionally reshuffled) rounds."""
        t = 0.0
        while True:
            order = np.arange(len(self.blocks))
            if self.shuffle:
                self.rng.shuffle(order)
            for p in order:
                t += 1.0
                yield ScheduleStep(time=t, rows=self.blocks[p])


class OverlappedBlockSchedule(Schedule):
    """``concurrency`` random blocks relax simultaneously at each step.

    Interpolates between synchronous Jacobi (``concurrency = n_blocks``) and
    fully multiplicative block relaxation (``concurrency = 1``). Fairness is
    round-based: each round is a random permutation of the blocks consumed
    ``concurrency`` at a time, so every block relaxes exactly once per round.
    """

    def __init__(self, labels, concurrency: int, seed=None):
        labels = np.asarray(labels, dtype=np.int64)
        super().__init__(labels.shape[0])
        self.blocks = _blocks_from_labels(labels)
        if not 1 <= concurrency <= len(self.blocks):
            raise ScheduleError(
                f"concurrency must lie in [1, {len(self.blocks)}], got {concurrency}"
            )
        self.concurrency = int(concurrency)
        self.rng = as_rng(seed)

    def steps(self) -> Iterator[ScheduleStep]:
        """``concurrency`` blocks per unit step, rows sorted, round by round."""
        t = 0.0
        nb = len(self.blocks)
        while True:
            order = self.rng.permutation(nb)
            for lo in range(0, nb, self.concurrency):
                t += 1.0
                chosen = order[lo : lo + self.concurrency]
                rows = np.concatenate([self.blocks[p] for p in chosen])
                yield ScheduleStep(time=t, rows=np.sort(rows))


class TraceSchedule(Schedule):
    """Replay an explicit finite sequence of (time, rows) steps.

    Used to re-run relaxation sets recorded by the machine simulators through
    the exact-information model executor.
    """

    def __init__(self, n: int, steps: Sequence):
        super().__init__(n)
        parsed = []
        last_t = -np.inf
        for item in steps:
            if isinstance(item, ScheduleStep):
                t, rows = item.time, item.rows
            else:
                t, rows = item
            rows = np.asarray(rows, dtype=np.int64)
            if rows.size and (rows.min() < 0 or rows.max() >= n):
                raise ScheduleError(f"step rows out of range [0, {n})")
            if t < last_t:
                raise ScheduleError("step times must be nondecreasing")
            last_t = t
            parsed.append(ScheduleStep(time=float(t), rows=rows))
        self._steps = parsed

    def steps(self) -> Iterator[ScheduleStep]:
        """The recorded steps, once each; the schedule then ends."""
        return iter(self._steps)

    def __len__(self) -> int:
        """Number of recorded steps."""
        return len(self._steps)
