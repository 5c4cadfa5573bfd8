"""High-level solver front-end.

``solve(A, b, method=...)`` is the one-call entry point a downstream user
needs: it normalizes the system, dispatches to the classical iterations, the
asynchronous model, the machine simulators, or the real-thread backend, and
returns a uniform :class:`SolveResult`.

Methods
-------
``jacobi``              synchronous Jacobi (Section II-A)
``gauss_seidel``        Gauss-Seidel, natural ordering
``sor``                 SOR (pass ``omega``)
``multicolor_gs``       multicolor Gauss-Seidel (Section IV-B limit)
``block_jacobi``        exact-solve block Jacobi (pass ``labels`` or ``blocks``)
``async_model``         the propagation-matrix model executor (Section IV);
                        pass ``schedule`` or it defaults to a block-
                        sequential multiplicative schedule
``shared_sim``          shared-memory machine simulator (Section V); pass
                        ``n_threads``, ``mode`` ("sync"/"async")
``distributed_sim``     distributed machine simulator (Section VI); pass
                        ``n_ranks``, ``mode``
``threads``             real-thread racy backend; pass ``n_threads``, ``mode``
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.iteration import (
    block_jacobi,
    gauss_seidel,
    jacobi,
    multicolor_gauss_seidel,
    sor,
)
from repro.core.model import AsyncJacobiModel
from repro.core.schedules import BlockSequentialSchedule
from repro.matrices.sparse import CSRMatrix
from repro.partition.partitioner import contiguous_partition
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi
from repro.threads.backend import ThreadedJacobi
from repro.util.errors import ShapeError


@dataclass
class SolveResult:
    """Uniform result of :func:`solve`.

    Attributes
    ----------
    x
        Final iterate.
    converged
        Whether the relative residual reached ``tol``.
    method
        The method name that produced the result.
    iterations
        Sweeps (classical), parallel steps (model), or mean local
        iterations (simulators/threads).
    residual_norms
        Relative residual history when the method records one.
    info
        Method-specific extras (e.g. the raw backend result object).
    """

    x: np.ndarray
    converged: bool
    method: str
    iterations: float
    residual_norms: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def telemetry(self):
        """Recovery telemetry (:class:`~repro.runtime.results.FaultTelemetry`)
        when the backend recorded one, else None."""
        return self.info.get("telemetry")


def _as_csr(A) -> CSRMatrix:
    if isinstance(A, CSRMatrix):
        return A
    arr = np.asarray(A)
    if arr.ndim == 2:
        return CSRMatrix.from_dense(arr)
    raise ShapeError("A must be a CSRMatrix or a dense 2-D array")


def solve(
    A,
    b,
    method: str = "jacobi",
    x0=None,
    tol: float = 1e-3,
    max_iterations: int = 1000,
    **kwargs,
) -> SolveResult:
    """Solve ``A x = b`` with the chosen (a)synchronous method.

    See the module docstring for the method registry; unknown keyword
    arguments are forwarded to the backend.
    """
    A = _as_csr(A)
    if method in ("jacobi", "gauss_seidel", "sor", "multicolor_gs"):
        fn = {
            "jacobi": jacobi,
            "gauss_seidel": gauss_seidel,
            "sor": sor,
            "multicolor_gs": multicolor_gauss_seidel,
        }[method]
        hist = fn(A, b, x0=x0, tol=tol, max_iterations=max_iterations, **kwargs)
        return SolveResult(
            x=hist.x,
            converged=hist.converged,
            method=method,
            iterations=hist.iterations,
            residual_norms=list(hist.residual_norms),
            info={"history": hist},
        )

    if method == "block_jacobi":
        labels = kwargs.pop("labels", None)
        if labels is None:
            from repro.partition.partitioner import bfs_bisection_partition

            labels = bfs_bisection_partition(A, kwargs.pop("blocks", 4))
        hist = block_jacobi(
            A, b, labels, x0=x0, tol=tol, max_iterations=max_iterations, **kwargs
        )
        return SolveResult(
            x=hist.x,
            converged=hist.converged,
            method=method,
            iterations=hist.iterations,
            residual_norms=list(hist.residual_norms),
            info={"history": hist},
        )

    if method == "async_model":
        schedule = kwargs.pop("schedule", None)
        if schedule is None:
            blocks = kwargs.pop("blocks", max(1, A.nrows // 8))
            labels = contiguous_partition(A.nrows, blocks)
            schedule = BlockSequentialSchedule(labels)
        model = AsyncJacobiModel(A, b)
        res = model.run(
            schedule, x0=x0, tol=tol, max_steps=max_iterations * max(1, A.nrows), **kwargs
        )
        return SolveResult(
            x=res.x,
            converged=res.converged,
            method=method,
            iterations=res.steps,
            residual_norms=list(res.residual_norms),
            info={"model_result": res},
        )

    if method == "shared_sim":
        mode = kwargs.pop("mode", "async")
        n_threads = kwargs.pop("n_threads", 4)
        sim_kwargs = {
            k: kwargs.pop(k)
            for k in ("machine", "delay", "seed", "omega", "fault_plan")
            if k in kwargs
        }
        sim = SharedMemoryJacobi(A, b, n_threads=n_threads, **sim_kwargs)
        res = sim.run(mode, x0=x0, tol=tol, max_iterations=max_iterations, **kwargs)
        return SolveResult(
            x=res.x,
            converged=res.converged,
            method=method,
            iterations=res.mean_iterations,
            residual_norms=list(res.residual_norms),
            info={"simulation": res, "telemetry": res.telemetry},
        )

    if method == "distributed_sim":
        mode = kwargs.pop("mode", "async")
        n_ranks = kwargs.pop("n_ranks", 4)
        sim_kwargs = {
            k: kwargs.pop(k)
            for k in (
                "partition",
                "cluster",
                "delay",
                "seed",
                "drop_probability",
                "duplicate_probability",
                "omega",
                "ranks_per_node",
                "fault_plan",
                "fault_seed",
                "reliable",
                "recovery",
                "heartbeat_interval",
                "heartbeat_miss",
                "ack_timeout",
                "max_put_retries",
            )
            if k in kwargs
        }
        sim = DistributedJacobi(A, b, n_ranks=n_ranks, **sim_kwargs)
        res = sim.run(mode, x0=x0, tol=tol, max_iterations=max_iterations, **kwargs)
        return SolveResult(
            x=res.x,
            converged=res.converged,
            method=method,
            iterations=res.mean_iterations,
            residual_norms=list(res.residual_norms),
            info={"simulation": res, "telemetry": res.telemetry},
        )

    if method == "threads":
        mode = kwargs.pop("mode", "async")
        n_threads = kwargs.pop("n_threads", 2)
        backend = ThreadedJacobi(
            A, b, n_threads=n_threads, mode=mode, sleep_us=kwargs.pop("sleep_us", None)
        )
        res = backend.solve(x0=x0, tol=tol, max_iterations=max_iterations)
        return SolveResult(
            x=res.x,
            converged=res.converged,
            method=method,
            iterations=float(np.mean(res.iterations)),
            residual_norms=[res.residual_norm],
            info={"threaded_result": res},
        )

    raise ValueError(
        f"unknown method {method!r}; available: jacobi, gauss_seidel, sor, "
        "multicolor_gs, block_jacobi, async_model, shared_sim, "
        "distributed_sim, threads"
    )
