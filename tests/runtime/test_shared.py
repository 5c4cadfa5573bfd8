"""Shared-memory simulator: sync exactness, async convergence, delays,
tracing, and the paper's qualitative behaviours."""

import numpy as np
import pytest

from repro.core.iteration import jacobi
from repro.core.reconstruct import reconstruct_propagation_steps
from repro.matrices.laplacian import fd_laplacian_2d, paper_fd_matrix
from repro.observability import Tracer
from repro.observability.replay import relax_events, to_execution_trace
from repro.runtime.delays import ConstantDelay, HangDelay, StragglerDelay
from repro.runtime.machine import KNL
from repro.runtime.shared import SharedMemoryJacobi
from repro.util.errors import ShapeError


@pytest.fixture
def system(rng):
    A = fd_laplacian_2d(8, 8)
    b = rng.uniform(-1, 1, 64)
    x0 = rng.uniform(-1, 1, 64)
    return A, b, x0


class TestSyncMode:
    def test_sync_matches_classical_jacobi(self, system):
        """Synchronous simulation is numerically exact Jacobi."""
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=8, seed=0)
        res = sim.run_sync(x0=x0, tol=1e-6, max_iterations=5000)
        hist = jacobi(A, b, x0=x0, tol=1e-6, max_iterations=5000)
        assert res.iterations[0] == hist.iterations
        np.testing.assert_allclose(res.x, hist.x, rtol=1e-12)
        np.testing.assert_allclose(res.residual_norms, hist.residual_norms, rtol=1e-10)

    def test_sync_time_includes_barrier(self, system):
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=8, seed=0)
        res = sim.run_sync(x0=x0, tol=1e-4)
        assert res.total_time >= res.iterations[0] * KNL.barrier_cost(8)

    def test_sync_delay_slows_everyone(self, system):
        A, b, x0 = system
        base = SharedMemoryJacobi(A, b, n_threads=8, seed=0)
        slow = SharedMemoryJacobi(
            A, b, n_threads=8, seed=0, delay=ConstantDelay({4: 1e-3})
        )
        t0 = base.run_sync(x0=x0, tol=1e-4).total_time
        t1 = slow.run_sync(x0=x0, tol=1e-4).total_time
        assert t1 > 10 * t0


class TestAsyncMode:
    def test_async_converges_to_solution(self, system):
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=8, seed=0)
        res = sim.run_async(x0=x0, tol=1e-8, max_iterations=20_000)
        assert res.converged
        np.testing.assert_allclose(A @ res.x, b, atol=1e-5)

    def test_single_thread_equals_jacobi_iterates(self, system):
        """One thread, block = whole matrix: async == sync == Jacobi."""
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=1, seed=0)
        res = sim.run_async(x0=x0, tol=1e-6, max_iterations=5000, observe_every=1)
        hist = jacobi(A, b, x0=x0, tol=1e-6, max_iterations=5000)
        assert res.iterations[0] == hist.iterations
        np.testing.assert_allclose(res.x, hist.x, rtol=1e-12)

    def test_deterministic_given_seed(self, system):
        A, b, x0 = system
        r1 = SharedMemoryJacobi(A, b, n_threads=8, seed=42).run_async(x0=x0, tol=1e-5)
        r2 = SharedMemoryJacobi(A, b, n_threads=8, seed=42).run_async(x0=x0, tol=1e-5)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.times == r2.times

    def test_different_seeds_differ(self, system):
        A, b, x0 = system
        r1 = SharedMemoryJacobi(A, b, n_threads=8, seed=1).run_async(x0=x0, tol=1e-5)
        r2 = SharedMemoryJacobi(A, b, n_threads=8, seed=2).run_async(x0=x0, tol=1e-5)
        assert r1.total_time != r2.total_time

    def test_async_faster_than_sync_wall_clock(self, system):
        """No barrier => async wins in simulated time (Fig. 5's headline)."""
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=16, seed=0)
        ra = sim.run_async(x0=x0, tol=1e-4, max_iterations=20_000)
        rs = sim.run_sync(x0=x0, tol=1e-4, max_iterations=20_000)
        assert ra.time_to_tolerance(1e-4) < rs.time_to_tolerance(1e-4)

    def test_iteration_counts_vary_across_threads(self, system):
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=8, seed=0)
        res = sim.run_async(x0=x0, tol=1e-8, max_iterations=20_000)
        assert len(np.unique(res.iterations)) > 1  # free-running threads drift

    def test_relaxation_counts_monotone(self, system):
        A, b, x0 = system
        res = SharedMemoryJacobi(A, b, n_threads=8, seed=0).run_async(x0=x0, tol=1e-5)
        assert all(
            b >= a for a, b in zip(res.relaxation_counts, res.relaxation_counts[1:])
        )


class TestDelays:
    def test_delayed_thread_relaxes_less(self, system):
        A, b, x0 = system
        sim = SharedMemoryJacobi(
            A, b, n_threads=8, seed=0, delay=ConstantDelay({3: 2e-4})
        )
        res = sim.run_async(x0=x0, tol=1e-6, max_iterations=50_000)
        assert res.converged
        others = np.delete(res.iterations, 3)
        assert res.iterations[3] < 0.5 * others.min()

    def test_async_beats_sync_under_delay(self, system):
        """The Figure 3 effect at one operating point."""
        A, b, x0 = system
        delay = ConstantDelay({3: 5e-4})
        sim = SharedMemoryJacobi(A, b, n_threads=8, seed=0, delay=delay)
        ta = sim.run_async(x0=x0, tol=1e-4, max_iterations=200_000).time_to_tolerance(1e-4)
        ts = sim.run_sync(x0=x0, tol=1e-4, max_iterations=20_000).time_to_tolerance(1e-4)
        assert ts > 3 * ta

    def test_hung_thread_stops_but_others_continue(self, system):
        """Failure injection: a dead thread freezes its rows; the rest keep
        reducing the residual (Theorem 1's transient consequence)."""
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=8, seed=0, delay=HangDelay({2: 0.0}))
        res = sim.run_async(x0=x0, tol=1e-300, max_iterations=400)
        assert res.iterations[2] == 0
        assert res.iterations.max() == 400
        assert res.residual_norms[-1] < 0.5 * res.residual_norms[0]

    def test_straggler_factor(self, system):
        A, b, x0 = system
        sim = SharedMemoryJacobi(
            A, b, n_threads=8, seed=0, delay=StragglerDelay({0: 4.0})
        )
        res = sim.run_async(x0=x0, tol=1e-6, max_iterations=50_000)
        assert res.converged
        assert res.iterations[0] < res.iterations[1:].min()


class TestFixedIterationMode:
    def test_run_until_all_reach(self, system):
        """Fig 5(b) termination: fast threads overshoot the target."""
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=8, seed=0, delay=ConstantDelay({1: 1e-4}))
        res = sim.run_async(
            x0=x0, tol=1e-300, max_iterations=50, run_until_all_reach=True
        )
        assert res.iterations.min() >= 50
        assert res.iterations.max() > 50  # others kept going

    def test_plain_cap_stops_each_thread(self, system):
        A, b, x0 = system
        res = SharedMemoryJacobi(A, b, n_threads=8, seed=0).run_async(
            x0=x0, tol=1e-300, max_iterations=30
        )
        assert np.all(res.iterations == 30)


def read_trace(sim, **run_kwargs):
    """The Section IV-A trace of one async run, via the tracer bridge."""
    tracer = Tracer(trace_reads=True)
    sim.run_async(tracer=tracer, **run_kwargs)
    return to_execution_trace(tracer.events(), sim.A)


class TestTracing:
    def test_trace_counts_and_versions(self, system):
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=4, seed=0)
        trace = read_trace(sim, x0=x0, tol=1e-300, max_iterations=5)
        assert len(trace) == 5 * A.nrows
        # Reads reference only true matrix neighbors.
        for rel in trace:
            assert set(rel.reads) == set(A.neighbors(rel.row).tolist())

    def test_trace_reconstructable(self, system):
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=4, seed=0)
        trace = read_trace(sim, x0=x0, tol=1e-300, max_iterations=8)
        rec = reconstruct_propagation_steps(trace)
        assert rec.total == len(trace)
        assert rec.fraction_propagated > 0.5  # the paper's "majority"

    def test_no_trace_by_default(self, system):
        """A tracer captures read versions only when asked to."""
        A, b, x0 = system
        tracer = Tracer()
        SharedMemoryJacobi(A, b, n_threads=4, seed=0).run_async(
            x0=x0, tol=1e-3, tracer=tracer
        )
        rels = relax_events(tracer.events())
        assert rels
        assert all("reads" not in e.data for e in rels)


class TestValidation:
    def test_thread_bounds(self, system):
        A, b, _ = system
        with pytest.raises(ShapeError):
            SharedMemoryJacobi(A, b, n_threads=0)
        with pytest.raises(ShapeError):
            SharedMemoryJacobi(A, b, n_threads=A.nrows + 1)

    @pytest.mark.parametrize("n_threads", [0, -1, 2.5, True])
    def test_thread_count_must_be_positive_int(self, system, n_threads):
        """2.5 once ran two threads and True one."""
        A, b, _ = system
        with pytest.raises(ShapeError, match="n_threads"):
            SharedMemoryJacobi(A, b, n_threads=n_threads)

    def test_numpy_integer_thread_count_accepted(self, system):
        A, b, _ = system
        sim = SharedMemoryJacobi(A, b, n_threads=np.int64(4))
        assert sim.n_threads == 4 and type(sim.n_threads) is int

    @pytest.mark.parametrize("legacy", [False, True])
    @pytest.mark.parametrize("observe_every", [0, -3, 2.5, True])
    def test_observe_every_must_be_positive_int(self, system, legacy, observe_every):
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=4, seed=0)
        with pytest.raises(ValueError, match="observe_every"):
            sim.run_async(
                x0=x0, tol=1e-3, max_iterations=4, observe_every=observe_every,
                legacy_engine=legacy,
            )

    @pytest.mark.parametrize("legacy", [False, True])
    @pytest.mark.parametrize("recompute_every", [-1, 2.5, True])
    def test_recompute_every_must_be_nonnegative_int(
        self, system, legacy, recompute_every
    ):
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=4, seed=0)
        with pytest.raises(ValueError, match="recompute_every"):
            sim.run_async(
                x0=x0, tol=1e-3, max_iterations=4,
                recompute_every=recompute_every, legacy_engine=legacy,
            )

    def test_recompute_every_accepts_numpy_int_and_zero(self, system):
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=4, seed=0)
        kw = dict(x0=x0, tol=1e-3, max_iterations=8)
        a = sim.run_async(recompute_every=np.int64(3), **kw)
        c = sim.run_async(recompute_every=3, **kw)
        assert a.residual_norms == c.residual_norms
        sim.run_async(recompute_every=0, **kw)

    @pytest.mark.parametrize("legacy", [False, True])
    @pytest.mark.parametrize("max_iterations", [0, -1, 2.5, True])
    def test_max_iterations_must_be_positive_int(
        self, system, legacy, max_iterations
    ):
        """``max_iterations=0`` once relaxed rows before stopping."""
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=4, seed=0)
        with pytest.raises(ValueError, match="max_iterations"):
            sim.run_async(
                x0=x0, tol=1e-3, max_iterations=max_iterations,
                legacy_engine=legacy,
            )
        with pytest.raises(ValueError, match="max_iterations"):
            sim.run_sync(x0=x0, tol=1e-3, max_iterations=max_iterations)

    def test_mode_dispatch(self, system):
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=4, seed=0)
        assert sim.run("sync", x0=x0, tol=1e-3).mode == "sync"
        assert sim.run("async", x0=x0, tol=1e-3).mode == "async"
        with pytest.raises(ValueError):
            sim.run("bogus")


class TestIncrementalResiduals:
    """The incremental observer must not change what the simulator does."""

    def test_trajectory_bit_identical_across_modes(self, system):
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=8, seed=4)
        inc = sim.run_async(x0=x0, tol=1e-3, max_iterations=20_000)
        full = sim.run_async(x0=x0, tol=1e-3, max_iterations=20_000,
                             recompute_every=1)
        np.testing.assert_array_equal(inc.x, full.x)
        np.testing.assert_array_equal(inc.iterations, full.iterations)
        assert inc.times == full.times

    def test_observed_residuals_match_full_recompute(self, system):
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=8, seed=4)
        inc = sim.run_async(x0=x0, tol=1e-4, max_iterations=50_000,
                            recompute_every=64)
        full = sim.run_async(x0=x0, tol=1e-4, max_iterations=50_000,
                             recompute_every=1)
        a = np.asarray(inc.residual_norms)
        bb = np.asarray(full.residual_norms)
        m = min(a.size, bb.size)
        np.testing.assert_allclose(a[:m], bb[:m], rtol=1e-9)

    def test_final_residual_is_confirmed(self, system):
        """Termination is always judged on a trustworthy residual."""
        from repro.util.norms import relative_residual_norm

        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=8, seed=4)
        res = sim.run_async(x0=x0, tol=1e-3, max_iterations=50_000)
        assert res.converged
        exact = relative_residual_norm(A, res.x, b)
        assert abs(res.residual_norms[-1] - exact) <= 1e-10 * max(exact, 1e-300)

    def test_rejects_bad_residual_mode(self, system):
        """The simulator has one observer: there is no mode to pick."""
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=4, seed=0)
        with pytest.raises(TypeError):
            sim.run_async(x0=x0, tol=1e-3, residual_mode="full")

    def test_dirty_flag_skips_redundant_final_recompute(self, system):
        """If nothing committed since the last observation, the terminal
        residual is reused instead of recomputed (satellite b)."""
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=8, seed=4)
        inc = sim.run_async(x0=x0, tol=1e-3, max_iterations=20_000,
                            observe_every=1)
        # One observation per commit plus the initial one: the terminal
        # observation is skipped when the state is already clean.
        assert len(inc.times) == int(inc.iterations.sum()) + 1
