"""Cross-module integration tests.

These exercise the pipelines the paper's experiments rely on:
simulator trace -> reconstruction -> model replay; model vs simulator
convergence agreement; damped relaxations end-to-end; solver front-end
round trips on stand-in problems.
"""

import numpy as np
import pytest

from repro import solve
from repro.core.iteration import jacobi
from repro.core.model import AsyncJacobiModel
from repro.core.reconstruct import reconstruct_propagation_steps
from repro.core.schedules import SynchronousSchedule, TraceSchedule
from repro.matrices.laplacian import fd_laplacian_2d, paper_fd_matrix
from repro.matrices.suitesparse import load_problem
from repro.observability import Tracer
from repro.observability.replay import to_execution_trace
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi


def traced_run(sim, **run_kwargs):
    """Run ``sim`` asynchronously; return (result, Section IV-A trace)."""
    tracer = Tracer(trace_reads=True)
    res = sim.run_async(tracer=tracer, **run_kwargs)
    return res, to_execution_trace(tracer.events(), sim.A)


class TestTraceToModelPipeline:
    """Simulator trace -> Phi reconstruction -> model replay."""

    def test_reconstructed_steps_replay_in_model(self, rng):
        """The Phi steps recovered from a simulator trace form a valid
        schedule; replaying them through the exact-information model reduces
        the residual just like the simulator did."""
        from repro.experiments.fig2 import instrumented
        from repro.runtime.machine import KNL

        A = fd_laplacian_2d(6, 6)
        n = A.nrows
        b = rng.uniform(-1, 1, n)
        x0 = rng.uniform(-1, 1, n)
        sim = SharedMemoryJacobi(A, b, n_threads=6, machine=instrumented(KNL), seed=3)
        sim_res, trace = traced_run(sim, x0=x0, tol=1e-300, max_iterations=30)
        rec = reconstruct_propagation_steps(trace)
        assert rec.fraction_propagated > 0.5

        steps = [(float(k + 1), rows) for k, rows in enumerate(rec.phi)]
        model = AsyncJacobiModel(A, b)
        replay = model.run(TraceSchedule(n, steps), x0=x0, tol=1e-300)
        assert replay.relaxations == rec.propagated
        # The replay reduces the residual comparably (the non-propagated
        # relaxations are the only difference).
        assert replay.final_residual < 2 * sim_res.final_residual + 1e-12

    def test_fully_propagated_trace_replays_near_exactly(self, rng):
        """For a single-threaded run the trace is a perfect Jacobi history:
        replaying it reproduces the simulator's final iterate exactly."""
        A = fd_laplacian_2d(5, 5)
        n = A.nrows
        b = rng.uniform(-1, 1, n)
        x0 = rng.uniform(-1, 1, n)
        sim = SharedMemoryJacobi(A, b, n_threads=1, seed=0)
        sim_res, trace = traced_run(sim, x0=x0, tol=1e-300, max_iterations=12)
        rec = reconstruct_propagation_steps(trace)
        assert rec.fraction_propagated == 1.0
        steps = [(float(k + 1), rows) for k, rows in enumerate(rec.phi)]
        replay = AsyncJacobiModel(A, b).run(TraceSchedule(n, steps), x0=x0, tol=1e-300)
        np.testing.assert_allclose(replay.x, sim_res.x, rtol=1e-12)


class TestModelSimulatorAgreement:
    """The paper's Figure 3/4 agreement claim, as a test."""

    def test_speedup_shapes_agree(self, rng):
        from repro.core.model import model_speedup
        from repro.runtime.delays import ConstantDelay

        A = paper_fd_matrix(68)
        b = rng.uniform(-1, 1, 68)
        x0 = rng.uniform(-1, 1, 68)
        # Model at delay 40 steps.
        m_speedup, _, _ = model_speedup(A, b, delay=40, x0=x0, tol=1e-3)
        # Simulator at an equivalent large delay.
        sim = SharedMemoryJacobi(
            A, b, n_threads=68, seed=5, delay=ConstantDelay({34: 1e-3})
        )
        ra = sim.run_async(x0=x0, tol=1e-3, max_iterations=400_000, observe_every=68)
        rs = sim.run_sync(x0=x0, tol=1e-3, max_iterations=20_000)
        s_speedup = rs.time_to_tolerance(1e-3) / ra.time_to_tolerance(1e-3)
        # Both in the plateau regime: same order of magnitude.
        assert 0.3 < m_speedup / s_speedup < 3.0

    def test_sync_channels_identical(self, rng):
        """Classical Jacobi == model sync schedule == shared sync sim ==
        distributed sync sim, bit-for-bit on the iterates."""
        A = fd_laplacian_2d(7, 7)
        n = A.nrows
        b = rng.uniform(-1, 1, n)
        x0 = rng.uniform(-1, 1, n)
        hist = jacobi(A, b, x0=x0, tol=1e-5, max_iterations=5000)
        model = AsyncJacobiModel(A, b).run(
            SynchronousSchedule(n), x0=x0, tol=1e-5, max_steps=5000
        )
        shared = SharedMemoryJacobi(A, b, n_threads=7, seed=0).run_sync(
            x0=x0, tol=1e-5, max_iterations=5000
        )
        dist = DistributedJacobi(A, b, n_ranks=7, seed=0).run_sync(
            x0=x0, tol=1e-5, max_iterations=5000
        )
        for other in (model.x, shared.x, dist.x):
            np.testing.assert_allclose(other, hist.x, rtol=1e-13)


class TestDampingAcrossBackends:
    def test_damped_consistency(self, rng):
        """omega flows identically through model, shared and distributed."""
        A = fd_laplacian_2d(6, 6)
        n = A.nrows
        b = rng.uniform(-1, 1, n)
        x0 = rng.uniform(-1, 1, n)
        omega = 0.75
        model = AsyncJacobiModel(A, b, omega=omega).run(
            SynchronousSchedule(n), x0=x0, tol=1e-300, max_steps=4
        )
        shared = SharedMemoryJacobi(A, b, n_threads=4, seed=0, omega=omega).run_sync(
            x0=x0, tol=1e-300, max_iterations=4
        )
        dist = DistributedJacobi(A, b, n_ranks=4, seed=0, omega=omega).run_sync(
            x0=x0, tol=1e-300, max_iterations=4
        )
        np.testing.assert_allclose(shared.x, model.x, rtol=1e-13)
        np.testing.assert_allclose(dist.x, model.x, rtol=1e-13)

    def test_damped_async_on_divergent_matrix(self, rng):
        """Damping makes even the low-thread asynchronous run converge on
        the Figure 6 matrix — asynchrony and damping are complementary."""
        from repro.matrices.fem import fe_laplacian_square

        A = fe_laplacian_square(500, seed=7, stretch=6.0)
        n = A.nrows
        b = rng.uniform(-1, 1, n)
        x0 = rng.uniform(-1, 1, n)
        plain = SharedMemoryJacobi(A, b, n_threads=10, seed=1)
        damped = SharedMemoryJacobi(A, b, n_threads=10, seed=1, omega=0.8)
        rp = plain.run_async(x0=x0, tol=1e-3, max_iterations=1200)
        rd = damped.run_async(x0=x0, tol=1e-3, max_iterations=2000)
        assert rd.final_residual < 1e-2
        assert rd.final_residual < rp.final_residual


class TestCrossBackendProperties:
    """Hypothesis-driven equivalences across all execution channels."""

    def test_property_sync_equivalence_random_systems(self):
        from hypothesis import given, settings, strategies as st

        from repro.matrices.sparse import CSRMatrix

        @settings(max_examples=10, deadline=None)
        @given(st.integers(4, 12), st.integers(0, 2**31 - 1))
        def check(n, seed):
            rng = np.random.default_rng(seed)
            off = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
            off = (off + off.T) / 2
            np.fill_diagonal(off, 0.0)
            max_row = max(float(np.sum(np.abs(off), axis=1).max()), 1e-12)
            A = CSRMatrix.from_dense(np.eye(n) + 0.8 * off / max_row)
            b = rng.uniform(-1, 1, n)
            x0 = rng.uniform(-1, 1, n)
            hist = jacobi(A, b, x0=x0, tol=1e-300, max_iterations=5)
            shared = SharedMemoryJacobi(
                A, b, n_threads=min(3, n), seed=0
            ).run_sync(x0=x0, tol=1e-300, max_iterations=5)
            dist = DistributedJacobi(
                A, b, n_ranks=min(3, n), partition="contiguous", seed=0
            ).run_sync(x0=x0, tol=1e-300, max_iterations=5)
            np.testing.assert_allclose(shared.x, hist.x, rtol=1e-12)
            np.testing.assert_allclose(dist.x, hist.x, rtol=1e-12)

        check()

    def test_shared_async_edge_parameters(self, rng):
        """observe_every=1, converged-at-start, and tiny matrices all work."""
        A = fd_laplacian_2d(3, 3)
        x_exact = rng.standard_normal(9)
        b = A @ x_exact
        sim = SharedMemoryJacobi(A, b, n_threads=3, seed=0)
        # Already converged at the initial guess: zero iterations.
        res = sim.run_async(x0=x_exact, tol=1e-6, max_iterations=100)
        assert res.converged
        assert res.relaxation_counts[-1] == 0
        # Finest observation granularity.
        res = sim.run_async(tol=1e-6, max_iterations=5000, observe_every=1)
        assert res.converged
        assert len(res.times) > res.mean_iterations  # one record per commit

    def test_damped_trace_recording(self, rng):
        """omega and read-version tracing compose."""
        A = fd_laplacian_2d(4, 4)
        b = rng.uniform(-1, 1, 16)
        sim = SharedMemoryJacobi(A, b, n_threads=4, seed=0, omega=0.9)
        _res, trace = traced_run(sim, tol=1e-300, max_iterations=5)
        assert len(trace) == 5 * 16


class TestEndToEndProblems:
    @pytest.mark.parametrize("name", ["thermomech_dm", "parabolic_fem"])
    def test_solve_on_standins(self, name, rng):
        A = load_problem(name)
        x_exact = rng.standard_normal(A.nrows)
        b = A @ x_exact
        res = solve(
            A, b, method="distributed_sim", n_ranks=16, mode="async",
            seed=0, tol=1e-7, max_iterations=20_000,
        )
        assert res.converged
        np.testing.assert_allclose(res.x, x_exact, atol=1e-3)

    def test_solver_omega_passthrough(self, rng):
        A = fd_laplacian_2d(6, 6)
        b = rng.uniform(-1, 1, 36)
        res = solve(
            A, b, method="shared_sim", n_threads=4, mode="sync", seed=0,
            omega=0.5, tol=1e-5, max_iterations=10_000,
        )
        assert res.converged
        assert res.info["simulation"].mode == "sync"
