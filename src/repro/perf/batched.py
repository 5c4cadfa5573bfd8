"""Batched execution of many independent model trials at once.

Every headline experiment averages over repeated trials that share the
*step structure* (the same schedule of relaxing rows) but differ in data:
random right-hand sides, random initial iterates. Running those trials one
at a time pays the full Python dispatch cost — schedule iteration, fancy
indexing, norm bookkeeping — once per trial per step.

:class:`BatchedAsyncJacobiModel` runs T such trials as a single ``(n, T)``
NumPy computation: one schedule drives all trials, each kernel touches an
``(n, T)`` block, and the per-step Python overhead is paid once regardless
of T. The arithmetic is *bit-identical* to a sequential per-trial loop
through :class:`~repro.core.model.AsyncJacobiModel`:

* the 2-D SpMV kernels (``matmat``, batched ``row_matvec``, batched
  ``subtract_columns_update``) accumulate each column in exactly the
  per-column nnz order of their 1-D counterparts (a single flattened
  ``bincount`` with bins ``row * T + trial``);
* SOR at ``recompute_every=1`` sweeps each trial's column with the 1-D
  kernel itself (:func:`~repro.methods.kernels.sor_step_dense`), so every
  row sum is the sequential executor's ``vals @ x[cols]``;
* per-trial 1-norms reduce along the contiguous axis of one transposed
  copy, where NumPy's pairwise summation blocks exactly as it does on
  the sequential path's 1-D vectors (other orders fall back to
  per-column copies);
* drift bookkeeping (recompute cadence, tolerance-crossing confirmation)
  is tracked *per trial*, because a trial that crosses the tolerance
  triggers a confirming recompute only for its own column;
* a trial that converges is frozen — its column is snapshotted and excluded
  from further updates — exactly as its sequential run would have stopped.

See docs/performance.md for the bit-identity argument and measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import AsyncJacobiModel, ModelResult
from repro.core.schedules import Schedule
from repro.matrices.sparse import CSRMatrix
from repro.methods import make_method
from repro.methods.kernels import sor_step_dense
from repro.util.errors import ShapeError, SingularMatrixError
from repro.util.norms import vector_norm
from repro.util.validation import (
    check_nonnegative_int,
    check_positive,
    check_positive_int,
)


@dataclass
class BatchedModelResult:
    """Outcome of a batched run: T trials' worth of :class:`ModelResult`.

    Attributes
    ----------
    x
        ``(n, T)`` final iterates (converged trials hold their snapshot at
        the step they converged).
    converged, steps, relaxations
        ``(T,)`` per-trial outcome arrays.
    times, residual_norms, relaxation_counts
        Length-T lists of per-trial history lists.
    """

    x: np.ndarray
    converged: np.ndarray
    steps: np.ndarray
    relaxations: np.ndarray
    times: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    relaxation_counts: list = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        """Number of trials stacked in this batch."""
        return self.x.shape[1]

    def trial(self, t: int) -> ModelResult:
        """View of trial ``t`` as a plain :class:`ModelResult`."""
        return ModelResult(
            x=self.x[:, t].copy(),
            converged=bool(self.converged[t]),
            steps=int(self.steps[t]),
            relaxations=int(self.relaxations[t]),
            times=list(self.times[t]),
            residual_norms=list(self.residual_norms[t]),
            relaxation_counts=list(self.relaxation_counts[t]),
        )


class BatchedAsyncJacobiModel:
    """Run T trials of the Section IV-A model as one ``(n, T)`` computation.

    Parameters
    ----------
    A
        Square system matrix with nonzero diagonal (shared by all trials).
    B
        ``(n, T)`` right-hand sides, one column per trial.
    omega
        Relaxation weight, as in :class:`AsyncJacobiModel`.
    """

    def __init__(self, A: CSRMatrix, B, omega: float = 1.0, method=None):
        if A.nrows != A.ncols:
            raise ShapeError(f"matrix must be square, got {A.shape}")
        if not 0 < omega < 2:
            raise ValueError(f"omega must lie in (0, 2), got {omega}")
        self.method = make_method(method, omega=omega)
        if self.method.name != "richardson" and np.any(A.diagonal() == 0):
            raise SingularMatrixError("the model requires a nonzero diagonal")
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != A.nrows:
            raise ShapeError(
                f"B must be (n, T) with n={A.nrows}, got shape {B.shape}"
            )
        self.A = A
        self.n = A.nrows
        self.B = B
        self.n_trials = B.shape[1]
        self.omega = float(omega)
        self._dinv = self.method.scale(A)

    def run(
        self,
        schedule: Schedule,
        X0=None,
        tol: float = 1e-3,
        max_steps: int = 100_000,
        max_time: float = float("inf"),
        record_every: int = 1,
        residual_norm_ord=1,
        recompute_every: int = 64,
    ) -> BatchedModelResult:
        """Execute all trials against one shared ``schedule``.

        Semantics per trial are exactly :meth:`AsyncJacobiModel.run` with
        ``b = B[:, t]`` and ``x0 = X0[:, t]``: same stopping rules, same
        history resolution, same residual cadence — and bitwise-identical
        arithmetic. A trial that converges is frozen while the others run
        on; the shared step counter and model time advance identically to
        each trial's sequential run.
        """
        check_positive(tol, "tol")
        max_steps = check_nonnegative_int(max_steps, "max_steps")
        record_every = check_positive_int(record_every, "record_every")
        recompute_every = check_nonnegative_int(recompute_every, "recompute_every")
        if schedule.n != self.n:
            raise ShapeError(
                f"schedule is for n={schedule.n}, matrix has n={self.n}"
            )
        A, B, dinv = self.A, self.B, self._dinv
        n, T = self.n, self.n_trials
        if X0 is None:
            X = np.zeros((n, T))
        else:
            X = np.asarray(X0, dtype=np.float64)
            if X.shape != (n, T):
                raise ShapeError(f"X0 must have shape {(n, T)}, got {X.shape}")
            X = X.copy()
        scaled = self.method.is_scaled
        sequential = self.method.kind == "sequential"
        drift_free = recompute_every == 1
        beta = self.method.beta
        momentum = self.method.kind == "momentum"

        # NumPy's pairwise summation runs along the contiguous axis of a
        # reduction, so summing |M.T[cols]| over axis 1 blocks exactly as
        # np.sum does on each contiguous column copy — bitwise equal to
        # the sequential path's norm_1. Other orders fall back to the
        # per-column loop.
        vectorised_l1 = residual_norm_ord in (1, "1")

        def colnorms(M, cols) -> np.ndarray:
            if vectorised_l1:
                return np.sum(np.abs(np.ascontiguousarray(M.T[cols])), axis=1)
            return np.array(
                [vector_norm(np.ascontiguousarray(M[:, t]), residual_norm_ord) for t in cols]
            )

        b_norms = colnorms(B, np.arange(T))

        def relnorms(M, trials, cols=None) -> np.ndarray:
            # ``trials`` indexes b_norms; ``cols`` indexes columns of M
            # (defaults to the same indices, for full-width M).
            nums = colnorms(M, trials if cols is None else cols)
            denom = b_norms[trials]
            safe = np.where(denom > 0, denom, 1.0)
            return np.where(denom > 0, nums / safe, nums)

        R = B - A.matmat(X)
        res = relnorms(R, np.arange(T))
        times = [[0.0] for _ in range(T)]
        residuals = [[float(res[t])] for t in range(T)]
        counts = [[0] for _ in range(T)]
        relaxations = np.zeros(T, dtype=np.int64)
        trial_steps = np.zeros(T, dtype=np.int64)
        converged = res < tol
        final_x = X.copy()
        steps_done = 0

        # The hot loop always runs the full-width contiguous path: when
        # trials converge their columns are snapshotted and the working
        # arrays are *compacted* to the survivors, so no step ever pays
        # for fancy per-column indexing. Compaction preserves
        # bit-identity because every kernel accumulates each column
        # independently in the same per-column order.
        live_idx = np.nonzero(~converged)[0]
        if live_idx.size:
            Xw = np.ascontiguousarray(X[:, live_idx])
            Rw = np.ascontiguousarray(R[:, live_idx])
            Bw = np.ascontiguousarray(B[:, live_idx])
            Xp = Xw.copy() if momentum else None
            bn = b_norms[live_idx]
            since = np.zeros(live_idx.size, dtype=np.int64)
            relax_live = 0

            def live_relnorms(M) -> np.ndarray:
                nums = colnorms(M, np.arange(live_idx.size))
                safe = np.where(bn > 0, bn, 1.0)
                return np.where(bn > 0, nums / safe, nums)

            for step in schedule.steps():
                if steps_done >= max_steps or step.time > max_time:
                    break
                rows = step.rows
                if rows.size:
                    if scaled:
                        DX = dinv[rows, None] * Rw[rows]
                        Xw[rows] += DX
                    elif sequential:
                        if drift_free:
                            # Each trial sweeps with the 1-D kernel itself,
                            # so its row sums match the sequential executor.
                            for t in range(Xw.shape[1]):
                                sor_step_dense(A, Bw[:, t], dinv, Xw[:, t], rows)
                        else:
                            # Row-at-a-time chain of single-row incremental
                            # steps (all trials advance together); Rw stays
                            # maintained, so no tail scatter below.
                            for j in range(rows.size):
                                i = rows[j]
                                DXi = dinv[i] * Rw[i]
                                Xw[i] += DXi
                                A.subtract_columns_update(
                                    Rw, rows[j : j + 1], DXi[None, :]
                                )
                    else:
                        DX = dinv[rows, None] * Rw[rows] + beta * (
                            Xw[rows] - Xp[rows]
                        )
                        Xp[rows] = Xw[rows]
                        Xw[rows] += DX
                    if rows.size >= n // 2:
                        # Dense step: recompute exactly, as the
                        # sequential executor does.
                        Rw = Bw - A.matmat(Xw)
                        since[:] = 0
                    elif sequential or drift_free:
                        since += 1
                    else:
                        A.subtract_columns_update(Rw, rows, DX)
                        since += 1
                    relax_live += rows.size
                steps_done += 1
                if recompute_every and since.max() >= recompute_every:
                    stale = np.nonzero(since >= recompute_every)[0]
                    Rw[:, stale] = Bw[:, stale] - A.matmat(Xw[:, stale])
                    since[stale] = 0
                if steps_done % record_every == 0:
                    res = live_relnorms(Rw)
                    hit = np.nonzero(res < tol)[0]
                    if hit.size:
                        # Confirm crossings against fresh residuals,
                        # per trial, exactly as the sequential path.
                        Rw[:, hit] = Bw[:, hit] - A.matmat(Xw[:, hit])
                        since[hit] = 0
                        res = live_relnorms(Rw)
                    step_time = step.time
                    for j, t in enumerate(live_idx):
                        times[t].append(step_time)
                        residuals[t].append(float(res[j]))
                        counts[t].append(relax_live)
                    done_mask = res < tol
                    if done_mask.any():
                        done = live_idx[done_mask]
                        converged[done] = True
                        final_x[:, done] = Xw[:, done_mask]
                        trial_steps[done] = steps_done
                        relaxations[done] = relax_live
                        keep = ~done_mask
                        live_idx = live_idx[keep]
                        if live_idx.size == 0:
                            break
                        Xw = np.ascontiguousarray(Xw[:, keep])
                        Rw = np.ascontiguousarray(Rw[:, keep])
                        Bw = np.ascontiguousarray(Bw[:, keep])
                        if momentum:
                            Xp = np.ascontiguousarray(Xp[:, keep])
                        bn = bn[keep]
                        since = since[keep]

            if live_idx.size:
                final_x[:, live_idx] = Xw
                trial_steps[live_idx] = steps_done
                relaxations[live_idx] = relax_live
        return BatchedModelResult(
            x=final_x,
            converged=converged,
            steps=trial_steps,
            relaxations=relaxations,
            times=times,
            residual_norms=residuals,
            relaxation_counts=counts,
        )
