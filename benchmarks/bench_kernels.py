"""Kernel microbenchmarks: the hot paths under the simulators.

Unlike the figure benchmarks (single-shot experiment replays) these are
true microbenchmarks — pytest-benchmark runs them repeatedly and reports
statistics. They guard the performance of:

* the CSR SpMV (every residual observation),
* the batched 2-D SpMV (every step of the batched trial engine),
* the row-subset SpMV (every relaxation in the model executor),
* a full simulator event (the unit of simulated work),
* the propagation-step reconstruction (Figure 2's analysis cost).

Timings also land in ``benchmarks/results/kernels.json`` for
``benchmarks/compare.py``.
"""

import numpy as np
from conftest import bench_stats, publish_json

from repro.core.reconstruct import reconstruct_propagation_steps
from repro.matrices.laplacian import fd_laplacian_2d, paper_fd_matrix
from repro.observability import Tracer
from repro.observability.replay import to_execution_trace
from repro.runtime.shared import SharedMemoryJacobi

A_BIG = paper_fd_matrix(4624)
A_MED = fd_laplacian_2d(32, 32)
RNG = np.random.default_rng(0)
X_BIG = RNG.standard_normal(A_BIG.nrows)
X_MED = RNG.standard_normal(A_MED.nrows)
X_BATCH = RNG.standard_normal((A_BIG.nrows, 8))
ROWS = np.arange(0, A_BIG.nrows, 7, dtype=np.int64)

#: metric-name -> timing stats, flushed by test_publish_kernel_timings.
KERNEL_STATS = {}


def test_matvec_fd4624(benchmark):
    result = benchmark(A_BIG.matvec, X_BIG)
    assert result.shape == (A_BIG.nrows,)
    KERNEL_STATS["matvec_fd4624"] = bench_stats(benchmark)


def test_matmat_fd4624(benchmark):
    """Batched SpMV over 8 trial columns in one flattened-bincount pass."""
    result = benchmark(A_BIG.matmat, X_BATCH)
    assert result.shape == (A_BIG.nrows, 8)
    columns = np.column_stack(
        [A_BIG.matvec(np.ascontiguousarray(X_BATCH[:, t])) for t in range(8)]
    )
    assert np.array_equal(result, columns)
    KERNEL_STATS["matmat_fd4624_t8"] = bench_stats(benchmark)


def test_row_matvec_subset(benchmark):
    result = benchmark(A_BIG.row_matvec, ROWS, X_BIG)
    assert result.shape == (ROWS.size,)
    KERNEL_STATS["row_matvec_subset"] = bench_stats(benchmark)


def test_simulator_iteration_throughput(benchmark):
    """Cost of a short async run (~3200 thread-iterations) on 32 threads."""
    b = RNG.uniform(-1, 1, A_MED.nrows)

    def run():
        sim = SharedMemoryJacobi(A_MED, b, n_threads=32, seed=1)
        return sim.run_async(tol=1e-300, max_iterations=100)

    result = benchmark(run)
    assert result.iterations.sum() == 3200


def test_reconstruction_throughput(benchmark):
    """Reconstruct ~1000 relaxations recorded from a 10-thread run."""
    A = fd_laplacian_2d(10, 10)
    b = RNG.uniform(-1, 1, 100)
    sim = SharedMemoryJacobi(A, b, n_threads=10, seed=2)
    tracer = Tracer(trace_reads=True)
    sim.run_async(tol=1e-300, max_iterations=10, tracer=tracer)
    trace = to_execution_trace(tracer.events(), A)

    rec = benchmark(reconstruct_propagation_steps, trace)
    assert rec.total == 1000


def test_publish_kernel_timings():
    """Flush the kernel timings gathered above to kernels.json.

    Runs last in file order; a partial dict (``pytest -k``) is fine —
    compare.py only checks metrics present on both sides.
    """
    payload = {
        name: stats for name, stats in KERNEL_STATS.items() if stats
    }
    publish_json("kernels", payload)
