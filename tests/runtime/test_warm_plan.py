"""Warm runs: a solver's second and later runs match a fresh solver's bytes.

``DistributedJacobi`` keeps everything that depends only on ``(A, b,
partition, method, cluster)`` in a warm plan built on first use. These
tests interleave runs with different ``x0``, ``observe_every`` and
``recompute_every`` on one solver and compare every result byte for byte
with the same run on a freshly constructed solver, which catches scratch
that is not re-zeroed and stale buffer addresses. They run with and
without the native library (``REPRO_NO_NATIVE=1``).
"""

import numpy as np
import pytest

from repro.experiments import scale
from repro.matrices.laplacian import fd_laplacian_2d
from repro.runtime.delays import ConstantDelay
from repro.runtime.distributed import DistributedJacobi
from tests.runtime.equivalence import assert_results_identical
from tests.runtime.test_engine_equivalence import A, B

#: One solver's run schedule: async and sync interleaved, with the
#: options that change which warm buffers a run touches.
SCHEDULE = (
    ("async", dict(observe_every=None)),
    ("sync", dict(x0="random")),
    ("async", dict(x0="random", observe_every=3, recompute_every=1)),
    ("async", dict(observe_every=5)),
    ("sync", dict()),
    ("async", dict(x0="random", observe_every=2, recompute_every=3)),
)

#: (matrix, n_ranks, partition, constructor kwargs, async kwargs). The
#: cases reach the block loop with small and big blocks and with many
#: ranks (128), momentum and the general loop.
SETUPS = {
    "native_small": (A, 8, "bfs", {}, {}),
    "native_big_blocks": (fd_laplacian_2d(48, 48), 8, "contiguous", {}, {}),
    "many_ranks": (fd_laplacian_2d(16, 16), 128, "contiguous", {}, {}),
    "many_ranks_bfs": (fd_laplacian_2d(16, 16), 128, "bfs", {}, {}),
    "richardson2": (A, 8, "contiguous", dict(method="richardson2"), {}),
    "detect_delay": (
        A, 8, "bfs", dict(delay=ConstantDelay({3: 2e-5})),
        dict(termination="detect", report_every=2),
    ),
}


def _run(sim, mode, opts, async_kwargs, tol):
    opts = dict(opts)
    if opts.get("x0") == "random":
        opts["x0"] = np.random.default_rng(17).uniform(-1, 1, sim.n)
    if mode == "sync":
        return sim.run_sync(tol=tol, max_iterations=30, **opts)
    return sim.run_async(tol=tol, max_iterations=30, **opts, **async_kwargs)


@pytest.mark.parametrize("setup", SETUPS)
@pytest.mark.parametrize("tol", [1e-30, 5e-2])
def test_warm_runs_match_fresh_solver(setup, tol):
    """tol=5e-2 crosses the tolerance (confirm-on-crossing), 1e-30 never."""
    matrix, n_ranks, partition, ctor, async_kwargs = SETUPS[setup]
    b = np.random.default_rng(3).uniform(-1, 1, matrix.nrows)

    def make():
        return DistributedJacobi(
            matrix, b, n_ranks=n_ranks, partition=partition, seed=3, **ctor
        )

    warm = make()
    for mode, opts in SCHEDULE:
        got = _run(warm, mode, opts, async_kwargs, tol)
        expect = _run(make(), mode, opts, async_kwargs, tol)
        assert_results_identical(got, expect)
        assert got.x.tobytes() == expect.x.tobytes()


def test_solver_keeps_a_private_copy_of_b():
    """Editing the caller's ``b`` in place never reaches the solver."""
    b = B.copy()
    sim = DistributedJacobi(A, b, n_ranks=8, seed=3)
    b[: b.size // 2] = 0.0  # before the warm plan exists
    first = sim.run_async(tol=1e-6, max_iterations=20)
    b[:] = 1.0  # after it cached its gathers and ||b||_1
    again = sim.run_async(tol=1e-6, max_iterations=20)
    sync = sim.run_sync(tol=1e-6, max_iterations=20)
    fresh = DistributedJacobi(A, B, n_ranks=8, seed=3)
    assert_results_identical(first, fresh.run_async(tol=1e-6, max_iterations=20))
    assert_results_identical(again, first)
    assert_results_identical(sync, fresh.run_sync(tol=1e-6, max_iterations=20))
    assert not sim.b.flags.writeable
    with pytest.raises(ValueError):
        sim.b[0] = 0.0


def test_with_delay_shares_the_warm_plan():
    base = DistributedJacobi(A, B, n_ranks=8, seed=3)
    base.run_async(tol=1e-6, max_iterations=10)
    delay = ConstantDelay({2: 1e-4})
    twin = base.with_delay(delay)
    assert twin._plan is base._plan
    assert twin.delay is delay and base.delay is not delay
    fresh = DistributedJacobi(A, B, n_ranks=8, seed=3, delay=delay)
    assert_results_identical(
        twin.run_async(tol=1e-6, max_iterations=25),
        fresh.run_async(tol=1e-6, max_iterations=25),
    )
    assert_results_identical(
        twin.run_sync(tol=1e-6, max_iterations=25),
        fresh.run_sync(tol=1e-6, max_iterations=25),
    )


def test_scale_sweep_matches_fresh_solvers():
    """The sweep's shared warm plan changes no simulated number."""
    grid, n_ranks, delays = (20, 20), 8, (0.0, 2.0)
    points = scale.run(grid=grid, n_ranks=n_ranks, delays_ms=delays,
                       max_iterations=60)
    A_s = fd_laplacian_2d(*grid)
    b = np.random.default_rng(1).uniform(-1, 1, A_s.nrows)
    for point, delay_ms in zip(points, delays):
        kwargs = (
            {"delay": ConstantDelay({n_ranks // 2: delay_ms * 1e-3})}
            if delay_ms
            else {}
        )
        sim = DistributedJacobi(
            A_s, b, n_ranks=n_ranks, partition="contiguous", seed=1, **kwargs
        )
        tol = sim.run_sync(max_iterations=1).residual_norms[0] / 10.0
        rs = sim.run_sync(tol=tol, max_iterations=60)
        ra = sim.run_async(tol=tol, max_iterations=60, observe_every=n_ranks)
        assert point.sync_time == rs.time_to_tolerance(tol)
        assert point.async_time == ra.time_to_tolerance(tol)
