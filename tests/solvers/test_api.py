"""The one-call solver front-end."""

import inspect

import numpy as np
import pytest

from repro import CSRMatrix, SolveResult, solve
from repro.matrices.laplacian import fd_laplacian_2d


@pytest.fixture
def system(rng):
    A = fd_laplacian_2d(7, 7)
    x_exact = rng.standard_normal(49)
    return A, A @ x_exact, x_exact


ALL_METHODS = [
    "jacobi",
    "gauss_seidel",
    "multicolor_gs",
    "block_jacobi",
    "async_model",
    "shared_sim",
    "distributed_sim",
    "threads",
]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_every_method_solves(system, method):
    A, b, x_exact = system
    kwargs = {"seed": 0} if method in ("shared_sim", "distributed_sim") else {}
    result = solve(A, b, method=method, tol=1e-6, max_iterations=5000, **kwargs)
    assert isinstance(result, SolveResult)
    assert result.converged
    assert result.method == method
    np.testing.assert_allclose(result.x, x_exact, atol=1e-3)


def test_sor_needs_omega(system):
    A, b, _ = system
    result = solve(A, b, method="sor", omega=1.4, tol=1e-6)
    assert result.converged


def test_dense_input_accepted(system, rng):
    A, b, x_exact = system
    result = solve(A.to_dense(), b, method="jacobi", tol=1e-6, max_iterations=5000)
    np.testing.assert_allclose(result.x, x_exact, atol=1e-3)


def test_bad_input_dim():
    with pytest.raises(Exception):
        solve(np.zeros(3), np.zeros(3))


def test_unknown_method(system):
    A, b, _ = system
    with pytest.raises(ValueError, match="unknown method"):
        solve(A, b, method="quantum")


def test_custom_schedule_forwarded(system):
    from repro.core.schedules import SynchronousSchedule

    A, b, _ = system
    result = solve(
        A, b, method="async_model", schedule=SynchronousSchedule(A.nrows), tol=1e-5
    )
    assert result.converged


def test_residual_history_populated(system):
    A, b, _ = system
    result = solve(A, b, method="jacobi", tol=1e-5, max_iterations=5000)
    assert len(result.residual_norms) == result.iterations + 1
    assert result.residual_norms[-1] < 1e-5


def test_simulation_info_exposed(system):
    A, b, _ = system
    result = solve(A, b, method="shared_sim", n_threads=7, mode="sync", seed=1, tol=1e-4)
    sim = result.info["simulation"]
    assert sim.mode == "sync"
    assert sim.total_time > 0


def test_distributed_eager_passthrough(system):
    A, b, _ = system
    result = solve(
        A, b, method="distributed_sim", n_ranks=7, mode="async", seed=1,
        eager=True, tol=1e-4, max_iterations=20_000,
    )
    assert result.converged
    assert result.info["simulation"].mode == "eager"


def test_block_jacobi_with_explicit_labels(system, rng):
    import numpy as np

    A, b, x_exact = system
    labels = np.zeros(A.nrows, dtype=np.int64)
    labels[A.nrows // 2 :] = 1
    result = solve(A, b, method="block_jacobi", labels=labels, tol=1e-6,
                   max_iterations=5000)
    assert result.converged
    np.testing.assert_allclose(result.x, x_exact, atol=1e-3)


def test_executors_have_no_instrumentation_knobs(system):
    """The tracer is the only hook: no ``instrument``/``record_trace``."""
    from repro.core.model import AsyncJacobiModel
    from repro.perf.batched import BatchedAsyncJacobiModel
    from repro.runtime import legacy
    from repro.runtime.distributed import DistributedJacobi
    from repro.runtime.shared import SharedMemoryJacobi

    entry_points = [
        DistributedJacobi.run_async,
        SharedMemoryJacobi.run_async,
        AsyncJacobiModel.run,
        BatchedAsyncJacobiModel.run,
        legacy.shared_run_async,
        legacy.distributed_run_async,
    ]
    for fn in entry_points:
        params = inspect.signature(fn).parameters
        assert "instrument" not in params, fn.__qualname__
        assert "record_trace" not in params, fn.__qualname__
    A, b, _ = system
    with pytest.raises(TypeError):
        solve(A, b, method="shared_sim", n_threads=7, mode="async", seed=1,
              tol=1e-4, instrument=True)
