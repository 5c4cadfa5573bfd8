"""Executors for the paper's asynchronous Jacobi model.

Two executors:

* :class:`AsyncJacobiModel` — the Section IV-A model with the
  *exact-information* simplification: every relaxation reads the current
  iterate, so one parallel step is exactly Eq. 6,
  ``x <- (I - D-hat A) x + D-hat b``, applied matrix-free.
* :class:`StaleAsyncJacobiModel` — drops the simplification: each relaxing
  row reads neighbor values ``lag`` steps old (Eq. 5 with nontrivial
  ``s_ij``), with the lags drawn from a configurable staleness model. Used
  by the staleness ablation.

Both record the paper's convergence metric — relative residual 1-norm
against model time — and count row relaxations, so the experiments can plot
residual-vs-time (Fig. 4), speedups (Fig. 3), and residual-vs-relaxations
(Figs. 6/7/9 model counterparts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.schedules import Schedule
from repro.matrices.sparse import CSRMatrix
from repro.methods import make_method
from repro.methods.kernels import sor_step_dense, sor_step_incremental
from repro.util.errors import ShapeError, SingularMatrixError
from repro.util.norms import relative_residual_norm, vector_norm
from repro.util.rng import as_rng
from repro.util.validation import (
    check_nonnegative_int,
    check_positive,
    check_positive_int,
    check_vector,
)


@dataclass
class ModelResult:
    """Outcome of a model execution.

    Attributes
    ----------
    x
        Final iterate.
    converged
        Whether the relative residual reached the tolerance.
    steps
        Parallel steps executed.
    relaxations
        Total row relaxations across all steps.
    times
        Model time after each recorded step (index 0 = time 0, initial state).
    residual_norms
        Relative residual 1-norm at each recorded time.
    relaxation_counts
        Cumulative relaxations at each recorded time.
    """

    x: np.ndarray
    converged: bool
    steps: int
    relaxations: int
    times: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    relaxation_counts: list = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        """Last recorded relative residual norm."""
        return self.residual_norms[-1]

    def time_to_tolerance(self, tol: float) -> float:
        """First recorded model time with residual below ``tol``.

        Returns ``inf`` if the tolerance was never reached.
        """
        for t, r in zip(self.times, self.residual_norms):
            if r < tol:
                return t
        return float("inf")

    def relaxations_to_tolerance(self, tol: float) -> float:
        """Cumulative relaxations at the first time residual < ``tol``."""
        for c, r in zip(self.relaxation_counts, self.residual_norms):
            if r < tol:
                return float(c)
        return float("inf")


class AsyncJacobiModel:
    """Exact-information model executor (Eq. 6 per step).

    Parameters
    ----------
    A
        Square system matrix with nonzero diagonal. The paper assumes
        symmetric A scaled to unit diagonal; the executor handles any
        nonzero diagonal by dividing through ``D^{-1}`` per relaxed row.
    b
        Right-hand side.
    omega
        Relaxation weight in (0, 2): 1.0 is plain Jacobi; < 1 damps each
        relaxation (useful for matrices where undamped Jacobi diverges).
    method
        Iteration method (see :mod:`repro.methods`): ``None`` (default)
        is Jacobi at ``omega`` — bit-identical to the historical executor
        — and accepts a name (``"jacobi"``, ``"damped_jacobi"``,
        ``"richardson"``, ``"richardson2"``, ``"sor"``), a spec dict, or
        a :class:`~repro.methods.Method` instance. Scaled methods reuse
        the vectorized hot path; ``"sor"`` relaxes each step's rows
        sequentially (latest values), ``"richardson2"`` carries one
        previous iterate for its momentum term.
    """

    def __init__(self, A: CSRMatrix, b, omega: float = 1.0, method=None):
        if A.nrows != A.ncols:
            raise ShapeError(f"matrix must be square, got {A.shape}")
        if not 0 < omega < 2:
            raise ValueError(f"omega must lie in (0, 2), got {omega}")
        self.method = make_method(method, omega=omega)
        if self.method.name != "richardson" and np.any(A.diagonal() == 0):
            raise SingularMatrixError("the model requires a nonzero diagonal")
        self.A = A
        self.n = A.nrows
        self.b = check_vector(b, self.n, "b")
        self.omega = float(omega)
        self._dinv = self.method.scale(A)

    def run(
        self,
        schedule: Schedule,
        x0=None,
        tol: float = 1e-3,
        max_steps: int = 100_000,
        max_time: float = float("inf"),
        record_every: int = 1,
        residual_norm_ord=1,
        recompute_every: int = 64,
        tracer=None,
    ) -> ModelResult:
        """Execute the model against ``schedule``.

        Stops at the first of: residual < ``tol``; ``max_steps`` parallel
        steps; schedule exhaustion; model time exceeding ``max_time``.
        ``record_every`` controls history resolution (every k-th step).
        ``max_steps`` must be a nonnegative and ``record_every`` a positive
        integer; anything else raises ``ValueError``.

        The executor maintains ``r = b - A x`` in place: relaxing rows
        ``R`` reads ``r[R]`` directly and then only updates the residual
        entries in the column support of ``R`` (one CSC scatter instead of
        a row-subset SpMV plus a full SpMV per recorded step). A full
        recomputation every ``recompute_every`` relaxing steps (a
        nonnegative integer; 0: never) bounds float drift, and any
        tolerance crossing is confirmed against a fresh residual before the
        run stops. ``recompute_every=1`` is the drift-free cadence: the
        residual every step reads and every recorded point reports is
        recomputed from scratch, and SOR sweeps each step's rows against
        ``b - A x`` directly instead of through the scatter. Histories at
        other cadences agree with it to within accumulated rounding
        (~1e-14 relative between recomputations; see docs/performance.md).

        A live :class:`~repro.observability.Tracer` passed as ``tracer``
        receives structured relax/observe/convergence events (exact-
        information reads are synthesized at replay time, so relax events
        carry only the step's rows); ``tracer=None`` or an all-null-sink
        tracer leaves the hot loop untouched.
        """
        check_positive(tol, "tol")
        max_steps = check_nonnegative_int(max_steps, "max_steps")
        record_every = check_positive_int(record_every, "record_every")
        recompute_every = check_nonnegative_int(recompute_every, "recompute_every")
        if schedule.n != self.n:
            raise ShapeError(
                f"schedule is for n={schedule.n}, matrix has n={self.n}"
            )
        A, b, dinv = self.A, self.b, self._dinv
        x = np.zeros(self.n) if x0 is None else check_vector(x0, self.n, "x0").copy()
        scaled = self.method.is_scaled
        sequential = self.method.kind == "sequential"
        # At cadence 1 the residual is recomputed after every step, so the
        # scatter is skipped and SOR sweeps against b - A x directly.
        drift_free = recompute_every == 1
        beta = self.method.beta
        x_prev = x.copy() if self.method.kind == "momentum" else None
        # Resolved once: a missing or all-null-sink tracer costs one branch
        # per event afterwards. Imported here: the observability package
        # imports this module (the replay bridge).
        from repro.observability.tracer import resolve as resolve_tracer

        trc = resolve_tracer(tracer)
        if trc is not None:
            trc.run_start(
                "AsyncJacobiModel", self.n, omega=self.omega, tol=tol,
                method=self.method.name,
            )

        b_norm = vector_norm(b, residual_norm_ord)

        def relnorm(res_vec) -> float:
            num = vector_norm(res_vec, residual_norm_ord)
            return num / b_norm if b_norm > 0 else num

        r = b - A.matvec(x)
        res0 = relnorm(r)
        times = [0.0]
        residuals = [res0]
        counts = [0]
        relaxations = 0
        steps_done = 0
        steps_since_recompute = 0
        converged = res0 < tol

        if not converged:
            for step in schedule.steps():
                if steps_done >= max_steps or step.time > max_time:
                    break
                rows = step.rows
                if rows.size:
                    if scaled:
                        dx = dinv[rows] * r[rows]
                        x[rows] += dx
                    elif sequential:
                        if drift_free:
                            # Sweep against b - A x itself: no value the
                            # step reads comes from the scatter.
                            sor_step_dense(A, b, dinv, x, rows)
                        else:
                            # Keeps r maintained row by row; the tail
                            # scatter below must not run again.
                            sor_step_incremental(A, dinv, x, r, rows)
                    else:
                        dx = dinv[rows] * r[rows] + beta * (x[rows] - x_prev[rows])
                        x_prev[rows] = x[rows]
                        x[rows] += dx
                    if rows.size >= self.n // 2:
                        # Dense step: a fresh SpMV costs the same as the
                        # scatter but is exact, so drift never accumulates.
                        r = b - A.matvec(x)
                        steps_since_recompute = 0
                    elif sequential or drift_free:
                        # r is maintained already or recomputed just below.
                        steps_since_recompute += 1
                    else:
                        A.subtract_columns_update(r, rows, dx)
                        steps_since_recompute += 1
                    relaxations += rows.size
                    if trc is not None:
                        trc.relax(step.time, None, rows)
                steps_done += 1
                if recompute_every and steps_since_recompute >= recompute_every:
                    r = b - A.matvec(x)
                    steps_since_recompute = 0
                if steps_done % record_every == 0:
                    res = relnorm(r)
                    if res < tol:
                        # Confirm against drift before declaring victory.
                        r = b - A.matvec(x)
                        steps_since_recompute = 0
                        res = relnorm(r)
                    times.append(step.time)
                    residuals.append(res)
                    counts.append(relaxations)
                    if trc is not None:
                        trc.observe(step.time, res, relaxations)
                    if res < tol:
                        converged = True
                        if trc is not None:
                            trc.convergence(step.time, res, tol)
                        break

        if trc is not None:
            trc.run_end(times[-1], converged, relaxations)
        return ModelResult(
            x=x,
            converged=converged,
            steps=steps_done,
            relaxations=relaxations,
            times=times,
            residual_norms=residuals,
            relaxation_counts=counts,
        )


class StalenessModel:
    """Draws per-relaxation read lags (how old the neighbor data is).

    ``lag`` of 0 reproduces the exact-information model. Lags are in parallel
    steps; a row relaxing at step k reads the iterate as of step ``k - lag``
    (clamped at 0). ``max_lag`` must be a nonnegative integer.
    """

    def __init__(self, max_lag: int = 0, seed=None, distribution: str = "uniform"):
        self.max_lag = check_nonnegative_int(max_lag, "max_lag")
        if distribution not in ("uniform", "constant"):
            raise ValueError(f"unknown staleness distribution {distribution!r}")
        self.distribution = distribution
        self.rng = as_rng(seed)

    def sample(self, n_rows: int) -> np.ndarray:
        """Lags for ``n_rows`` relaxing rows."""
        if self.max_lag == 0 or self.distribution == "constant":
            return np.full(n_rows, self.max_lag, dtype=np.int64)
        return self.rng.integers(0, self.max_lag + 1, size=n_rows)


class StaleAsyncJacobiModel(AsyncJacobiModel):
    """Model executor with bounded staleness (general Eq. 5).

    Keeps a ring buffer of the last ``max_lag + 1`` iterates; each relaxing
    row reads from the buffered iterate chosen by the staleness model. This
    satisfies the paper's assumption (1): reads are at most ``max_lag`` steps
    old, so new information always eventually propagates.
    """

    def __init__(self, A: CSRMatrix, b, staleness: StalenessModel, omega: float = 1.0):
        super().__init__(A, b, omega=omega)
        self.staleness = staleness

    def run(
        self,
        schedule: Schedule,
        x0=None,
        tol: float = 1e-3,
        max_steps: int = 100_000,
        max_time: float = float("inf"),
        record_every: int = 1,
        residual_norm_ord=1,
    ) -> ModelResult:
        """Execute the stale-read model against ``schedule``.

        Stopping rules and history arguments are those of
        :meth:`AsyncJacobiModel.run`. There is no residual cadence: every
        recorded residual is recomputed from scratch.
        """
        check_positive(tol, "tol")
        max_steps = check_nonnegative_int(max_steps, "max_steps")
        record_every = check_positive_int(record_every, "record_every")
        if schedule.n != self.n:
            raise ShapeError(f"schedule is for n={schedule.n}, matrix has n={self.n}")
        A, b, dinv = self.A, self.b, self._dinv
        x = np.zeros(self.n) if x0 is None else check_vector(x0, self.n, "x0").copy()
        depth = self.staleness.max_lag + 1
        ring = [x.copy() for _ in range(depth)]

        res0 = relative_residual_norm(A, x, b, ord=residual_norm_ord)
        times, residuals, counts = [0.0], [res0], [0]
        relaxations = 0
        steps_done = 0
        converged = res0 < tol

        if not converged:
            for step in schedule.steps():
                if steps_done >= max_steps or step.time > max_time:
                    break
                rows = step.rows
                if rows.size:
                    lags = self.staleness.sample(rows.size)
                    new_vals = np.empty(rows.size)
                    # Group rows by lag so each group is one vectorized
                    # row_matvec against the corresponding buffered iterate.
                    for lag in np.unique(lags):
                        sel = lags == lag
                        src = ring[(steps_done - int(lag)) % depth] if lag else x
                        grp = rows[sel]
                        r = b[grp] - A.row_matvec(grp, src)
                        # Eq. 5: the relaxed value builds on the (stale)
                        # read of the row's own entry as well.
                        new_vals[sel] = src[grp] + dinv[grp] * r
                    x[rows] = new_vals
                    relaxations += rows.size
                steps_done += 1
                ring[steps_done % depth] = x.copy()
                if steps_done % record_every == 0:
                    res = relative_residual_norm(A, x, b, ord=residual_norm_ord)
                    times.append(step.time)
                    residuals.append(res)
                    counts.append(relaxations)
                    if res < tol:
                        converged = True
                        break

        return ModelResult(
            x=x,
            converged=converged,
            steps=steps_done,
            relaxations=relaxations,
            times=times,
            residual_norms=residuals,
            relaxation_counts=counts,
        )


def model_speedup(
    A: CSRMatrix,
    b,
    delay: int,
    delayed_row: int | None = None,
    tol: float = 1e-3,
    x0=None,
    max_steps: int = 200_000,
) -> tuple:
    """Sync-vs-async model comparison for one delayed row (Figure 3 point).

    Runs synchronous Jacobi with every sweep costing ``max(delay, 1)`` time
    units (everyone waits at the barrier for the sleeper) and asynchronous
    Jacobi where only ``delayed_row`` relaxes every ``delay`` steps. Returns
    ``(speedup, sync_result, async_result)`` with
    ``speedup = sync time-to-tol / async time-to-tol``.

    ``delay=0`` means no injected delay: both schedules are unit-cost and
    the speedup is 1 by construction (the real zero-delay speedup comes from
    natural jitter, which lives in the machine simulator, not the model).
    """
    from repro.core.schedules import DelayedRowsSchedule, SynchronousSchedule

    n = A.nrows
    if delayed_row is None:
        delayed_row = n // 2  # the paper delays a row near the middle
    model = AsyncJacobiModel(A, b)

    sync_sched = SynchronousSchedule(n, delay=float(max(delay, 1)))
    sync_res = model.run(sync_sched, x0=x0, tol=tol, max_steps=max_steps)

    if delay <= 1:
        async_sched = SynchronousSchedule(n, delay=1.0)
    else:
        async_sched = DelayedRowsSchedule(n, {delayed_row: int(delay)})
    async_res = model.run(async_sched, x0=x0, tol=tol, max_steps=max_steps)

    t_sync = sync_res.time_to_tolerance(tol)
    t_async = async_res.time_to_tolerance(tol)
    speedup = t_sync / t_async if np.isfinite(t_async) else float("nan")
    return speedup, sync_res, async_res
