"""Headline benchmarks for the performance subsystem (acceptance numbers).

Measures and archives (``benchmarks/results/perf_speedups.json``) the two
speedups the performance work targets:

* **model-executor microbenchmark** — incremental residual maintenance vs
  a full SpMV recomputation at every recorded step (target >= 2x), with
  same-seed residual histories identical to 1e-12 relative;
* **5-seed Figure-3-style sweep** — the batched trial engine running all
  seeds as one ``(n, S)`` computation vs the pre-batching per-seed serial
  loop with full residual recomputation (target >= 3x), again with
  matching histories.

Both baselines run :func:`_full_residual_run`, a copy of the model
executor's retired from-scratch loop: the executor itself now keeps its
residual up to date at every cadence, so timing it at
``recompute_every=1`` would no longer measure the naive path.

Also records the warm-cache replay time of the parallel cached runner on
the same sweep (the second run of an unchanged config is a pure cache
read).
"""

import tempfile
import time

import numpy as np
from conftest import publish_json, run_once

from repro.core.model import AsyncJacobiModel
from repro.core.schedules import DelayedRowsSchedule, SynchronousSchedule
from repro.experiments import fig3
from repro.matrices.laplacian import paper_fd_matrix
from repro.perf.cache import ExperimentCache, code_version
from repro.util.norms import relative_residual_norm
from repro.util.rng import as_rng

SEEDS = (0, 1, 2, 3, 4)

#: section-name -> metrics, flushed by test_publish_perf_speedups.
SPEEDUPS = {}


def _wall(fn, reps=3):
    """Best wall-clock of ``reps`` runs plus the last return value."""
    best = float("inf")
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _interleaved_best(arms, reps=5):
    """Best wall-clock of each arm over ``reps`` interleaved rounds.

    ``arms`` maps a name to a callable. Every round times each arm once, in
    turn, so a load spike lands on both sides of a ratio instead of on one
    arm's whole series. Returns ``{name: (best_seconds, last_result)}``.
    """
    best = {name: float("inf") for name in arms}
    out = {}
    for _ in range(reps):
        for name, fn in arms.items():
            t0 = time.perf_counter()
            out[name] = fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return {name: (best[name], out[name]) for name in arms}


def _max_rel_diff(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape
    denom = np.maximum(np.abs(a), 1e-300)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def _full_residual_run(A, b, schedule, x0, tol, max_steps):
    """Jacobi model run that recomputes the residual from scratch each step.

    A row-subset SpMV update per step, then ``||b - A x||_1 / ||b||_1``
    from a full SpMV at every (recorded) step: the naive loop the model
    executor ran before it maintained its residual. Returns the residual
    history, recorded at every step.
    """
    dinv = 1.0 / A.diagonal()
    x = x0.copy()
    residuals = [relative_residual_norm(A, x, b)]
    if residuals[0] < tol:
        return residuals
    for steps_done, step in enumerate(schedule.steps()):
        if steps_done >= max_steps:
            break
        rows = step.rows
        if rows.size:
            x[rows] += dinv[rows] * (b[rows] - A.row_matvec(rows, x))
        residuals.append(relative_residual_norm(A, x, b))
        if residuals[-1] < tol:
            break
    return residuals


def test_incremental_residual_speedup(benchmark):
    """Full-recompute vs incremental residuals in the model executor."""
    A = paper_fd_matrix(4624)
    rng = as_rng(3)
    b = rng.uniform(-1, 1, A.nrows)
    x0 = rng.uniform(-1, 1, A.nrows)
    model = AsyncJacobiModel(A, b)
    sched = SynchronousSchedule(A.nrows)
    kwargs = dict(x0=x0, tol=1e-300, max_steps=300)

    t_full, r_full = _wall(lambda: _full_residual_run(A, b, sched, **kwargs))
    t_inc, _ = _wall(lambda: model.run(sched, **kwargs))
    r_inc = run_once(benchmark, lambda: model.run(sched, **kwargs))

    drift = _max_rel_diff(r_full, r_inc.residual_norms)
    speedup = t_full / t_inc
    SPEEDUPS["model_executor_incremental"] = {
        "full_seconds": t_full,
        "incremental_seconds": t_inc,
        "speedup": speedup,
        "max_history_rel_diff": drift,
    }
    assert drift <= 1e-12
    assert speedup >= 2.0


def _sweep_serial_full(tol=1e-3):
    """The pre-batching baseline: per-seed serial loop, full residuals."""
    A = paper_fd_matrix(fig3.N_ROWS)
    histories = []
    for seed in SEEDS:
        rng = as_rng(int(seed))
        b = rng.uniform(-1, 1, fig3.N_ROWS)
        x0 = rng.uniform(-1, 1, fig3.N_ROWS)
        per_seed = []
        for delay in fig3.MODEL_DELAYS:
            sync_sched = SynchronousSchedule(fig3.N_ROWS, delay=float(max(delay, 1)))
            if delay <= 1:
                async_sched = SynchronousSchedule(fig3.N_ROWS, delay=1.0)
            else:
                async_sched = DelayedRowsSchedule(
                    fig3.N_ROWS, {fig3.DELAYED_ROW: int(delay)}
                )
            for sched in (sync_sched, async_sched):
                per_seed.append(_full_residual_run(
                    A, b, sched, x0=x0, tol=tol, max_steps=200_000
                ))
        histories.append(per_seed)
    return histories


def test_batched_sweep_speedup(benchmark):
    """5-seed Figure-3 model sweep: batched engine vs serial full loop."""
    timed = _interleaved_best({
        "serial": _sweep_serial_full,
        "batched": lambda: fig3.run_model_seeds_batched(SEEDS),
    })
    t_serial, serial_hist = timed["serial"]
    t_batched = timed["batched"][0]
    batched = run_once(benchmark, fig3.run_model_seeds_batched, SEEDS)

    # Histories must match the serial baseline. Re-run the batched engine
    # keeping full results for one spot-check seed per schedule.
    from repro.core.schedules import SynchronousSchedule as Sync
    from repro.perf.batched import BatchedAsyncJacobiModel

    A = paper_fd_matrix(fig3.N_ROWS)
    B = np.empty((fig3.N_ROWS, len(SEEDS)))
    X0 = np.empty((fig3.N_ROWS, len(SEEDS)))
    for j, seed in enumerate(SEEDS):
        rng = as_rng(int(seed))
        B[:, j] = rng.uniform(-1, 1, fig3.N_ROWS)
        X0[:, j] = rng.uniform(-1, 1, fig3.N_ROWS)
    bmodel = BatchedAsyncJacobiModel(A, B)
    drift = 0.0
    for d, delay in enumerate(fig3.MODEL_DELAYS):
        sync_res = bmodel.run(
            Sync(fig3.N_ROWS, delay=float(max(delay, 1))), X0=X0, max_steps=200_000
        )
        for j in range(len(SEEDS)):
            drift = max(
                drift,
                _max_rel_diff(
                    serial_hist[j][2 * d], sync_res.trial(j).residual_norms
                ),
            )

    speedup = t_serial / t_batched
    SPEEDUPS["fig3_sweep_batched"] = {
        "serial_seconds": t_serial,
        "batched_seconds": t_batched,
        "speedup": speedup,
        "n_seeds": len(SEEDS),
        "max_history_rel_diff": drift,
    }
    assert len(batched) == len(SEEDS)
    assert all(len(points) == len(fig3.MODEL_DELAYS) for points in batched)
    assert drift <= 1e-12
    assert speedup >= 3.0


def test_runner_cache_replay(benchmark):
    """Warm-cache replay of the per-seed sweep via the cached runner."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ExperimentCache(root=tmp)
        t_cold, cold = _wall(
            lambda: fig3.run_model_seeds(SEEDS, cache=cache), reps=1
        )
        t_warm, warm = _wall(
            lambda: fig3.run_model_seeds(SEEDS, cache=cache), reps=1
        )
        run_once(benchmark, fig3.run_model_seeds, SEEDS, cache=cache)
    assert cache.hits >= 2 * len(SEEDS)
    assert [[p.speedup for p in pts] for pts in cold] == [
        [p.speedup for p in pts] for pts in warm
    ]
    SPEEDUPS["runner_cache_replay"] = {
        "cold_seconds": t_cold,
        # The warm replay is sub-millisecond, so neither it nor the
        # cold/warm ratio is stable enough for compare.py to gate on;
        # the metric names deliberately avoid the *_seconds / *speedup
        # patterns the comparator matches.
        "warm_millis": t_warm * 1e3,
        "cold_to_warm_ratio": t_cold / t_warm,
    }


def test_publish_perf_speedups():
    """Flush the speedup measurements gathered above (runs last in file)."""
    payload = dict(SPEEDUPS)
    payload["meta"] = {"code_version": code_version()}
    publish_json("perf_speedups", payload)
