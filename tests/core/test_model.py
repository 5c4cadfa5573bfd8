"""Model executors: equivalence with classical methods, delays, staleness."""

import numpy as np
import pytest

from repro.core.iteration import gauss_seidel, jacobi
from repro.core.model import (
    AsyncJacobiModel,
    StaleAsyncJacobiModel,
    StalenessModel,
    model_speedup,
)
from repro.core.schedules import (
    BlockSequentialSchedule,
    DelayedRowsSchedule,
    SynchronousSchedule,
    TraceSchedule,
)
from repro.matrices.laplacian import paper_fd_matrix
from repro.util.errors import ShapeError


#: ``max_steps`` must be a nonnegative and ``record_every`` a positive
#: integer in every model executor: no truncation, no zero division.
BAD_STEP_ARGS = [
    ("record_every", 0),
    ("record_every", -1),
    ("record_every", 2.5),
    ("record_every", True),
    ("max_steps", 2.5),
    ("max_steps", -1),
    ("max_steps", True),
]


@pytest.fixture
def system(rng):
    A = paper_fd_matrix(68)
    b = rng.uniform(-1, 1, 68)
    x0 = rng.uniform(-1, 1, 68)
    return A, b, x0


class TestModelEquivalences:
    def test_synchronous_schedule_is_jacobi(self, system):
        """Model + all-rows schedule == classical synchronous Jacobi."""
        A, b, x0 = system
        model = AsyncJacobiModel(A, b)
        res = model.run(SynchronousSchedule(A.nrows), x0=x0, tol=1e-6, max_steps=5000)
        hist = jacobi(A, b, x0=x0, tol=1e-6, max_iterations=5000)
        assert res.steps == hist.iterations
        np.testing.assert_allclose(res.x, hist.x, rtol=1e-12)
        np.testing.assert_allclose(res.residual_norms, hist.residual_norms, rtol=1e-10)

    def test_one_row_blocks_is_gauss_seidel(self, system):
        """Model + single-row sequential schedule == Gauss-Seidel (Eq. 9)."""
        A, b, x0 = system
        n = A.nrows
        model = AsyncJacobiModel(A, b)
        sched = BlockSequentialSchedule(np.arange(n))
        res = model.run(sched, x0=x0, tol=1e-300, max_steps=3 * n, record_every=n)
        hist = gauss_seidel(A, b, x0=x0, tol=1e-300, max_iterations=3)
        np.testing.assert_allclose(res.x, hist.x, rtol=1e-12)

    def test_multiplicative_beats_additive(self, system):
        """Block-sequential (multiplicative) needs fewer relaxations than
        synchronous Jacobi — the Section IV-B asymptotic claim."""
        A, b, x0 = system
        n = A.nrows
        model = AsyncJacobiModel(A, b)
        sync = model.run(SynchronousSchedule(n), x0=x0, tol=1e-4, max_steps=10_000)
        from repro.partition.partitioner import contiguous_partition

        seq = model.run(
            BlockSequentialSchedule(contiguous_partition(n, 17)),
            x0=x0, tol=1e-4, max_steps=200_000, record_every=17,
        )
        assert seq.relaxations_to_tolerance(1e-4) < sync.relaxations_to_tolerance(1e-4)


class TestDelayedRuns:
    def test_frozen_row_still_reduces_residual(self, system):
        """Theorem 1 consequence: even a never-relaxing row leaves a
        decreasing residual (Fig. 4 largest-delay curve)."""
        A, b, x0 = system
        model = AsyncJacobiModel(A, b)
        res = model.run(
            DelayedRowsSchedule(A.nrows, {34: None}), x0=x0, tol=1e-300, max_steps=300
        )
        r = np.asarray(res.residual_norms)
        assert r[-1] < 0.1 * r[0]
        assert np.all(np.diff(r) <= 1e-12)  # L1 norm never increases (W.D.D.)

    def test_speedup_grows_then_plateaus(self, system):
        """Figure 3 shape: monotone-ish growth, then saturation."""
        A, b, x0 = system
        speedups = []
        for delay in (5, 20, 100):
            s, _, _ = model_speedup(A, b, delay=delay, x0=x0, tol=1e-3)
            speedups.append(s)
        assert speedups[0] < speedups[1] <= speedups[2] * 1.05
        assert speedups[2] > 10

    def test_zero_delay_speedup_is_one(self, system):
        A, b, x0 = system
        s, _, _ = model_speedup(A, b, delay=0, x0=x0)
        assert s == pytest.approx(1.0)

    def test_sawtooth_at_large_delay(self, system):
        """At large-but-finite delays the async residual stalls between the
        delayed row's relaxations and drops when it fires."""
        A, b, x0 = system
        model = AsyncJacobiModel(A, b)
        res = model.run(
            DelayedRowsSchedule(A.nrows, {34: 60}), x0=x0, tol=1e-300, max_steps=240
        )
        r = np.asarray(res.residual_norms)
        # Drops at the delayed row's firing steps are much larger than the
        # stalled decay right before them.
        drop_at_fire = r[59] - r[60]
        stall_before = r[58] - r[59]
        assert drop_at_fire > 5 * max(stall_before, 1e-16)


class TestRecording:
    def test_record_every(self, system):
        A, b, x0 = system
        model = AsyncJacobiModel(A, b)
        res = model.run(
            SynchronousSchedule(A.nrows), x0=x0, tol=1e-300, max_steps=10, record_every=5
        )
        assert len(res.times) == 3  # t=0 plus steps 5 and 10
        assert res.relaxation_counts[-1] == 10 * A.nrows

    def test_time_to_tolerance_inf_when_unreached(self, system):
        A, b, x0 = system
        model = AsyncJacobiModel(A, b)
        res = model.run(SynchronousSchedule(A.nrows), x0=x0, tol=1e-300, max_steps=5)
        assert res.time_to_tolerance(1e-300) == float("inf")

    def test_max_time_stops_run(self, system):
        A, b, x0 = system
        model = AsyncJacobiModel(A, b)
        res = model.run(
            SynchronousSchedule(A.nrows, delay=2.0), x0=x0, tol=1e-300, max_steps=100, max_time=9.0
        )
        assert res.steps == 4  # steps at t=2,4,6,8; t=10 exceeds max_time

    def test_schedule_size_mismatch(self, system):
        A, b, _ = system
        model = AsyncJacobiModel(A, b)
        with pytest.raises(ShapeError):
            model.run(SynchronousSchedule(10))

    @pytest.mark.parametrize("stale", [False, True], ids=["exact", "stale"])
    @pytest.mark.parametrize("name,value", BAD_STEP_ARGS)
    def test_rejects_malformed_step_arguments(self, system, stale, name, value):
        A, b, x0 = system
        model = (
            StaleAsyncJacobiModel(A, b, StalenessModel(max_lag=1, seed=0))
            if stale else AsyncJacobiModel(A, b)
        )
        with pytest.raises(ValueError, match=name):
            model.run(SynchronousSchedule(A.nrows), x0=x0, **{name: value})

    @pytest.mark.parametrize("stale", [False, True], ids=["exact", "stale"])
    def test_zero_steps_and_numpy_ints_accepted(self, system, stale):
        A, b, x0 = system
        model = (
            StaleAsyncJacobiModel(A, b, StalenessModel(max_lag=1, seed=0))
            if stale else AsyncJacobiModel(A, b)
        )
        res = model.run(SynchronousSchedule(A.nrows), x0=x0, tol=1e-300,
                        max_steps=np.int64(0), record_every=np.int64(2))
        assert res.steps == 0 and res.relaxation_counts == [0]


class TestStaleness:
    def test_zero_lag_matches_exact_model(self, system):
        A, b, x0 = system
        sched_a = SynchronousSchedule(A.nrows)
        sched_b = SynchronousSchedule(A.nrows)
        exact = AsyncJacobiModel(A, b).run(sched_a, x0=x0, tol=1e-6, max_steps=2000)
        stale = StaleAsyncJacobiModel(A, b, StalenessModel(max_lag=0)).run(
            sched_b, x0=x0, tol=1e-6, max_steps=2000
        )
        np.testing.assert_allclose(stale.x, exact.x, rtol=1e-12)
        assert stale.steps == exact.steps

    def test_stale_still_converges(self, system):
        """Bounded staleness keeps convergence (Chazan-Miranker regime)."""
        A, b, x0 = system
        model = StaleAsyncJacobiModel(A, b, StalenessModel(max_lag=4, seed=0))
        res = model.run(SynchronousSchedule(A.nrows), x0=x0, tol=1e-4, max_steps=20_000)
        assert res.converged

    def test_stale_slower_than_exact(self, system):
        """Staleness costs steps — the ablation's headline."""
        A, b, x0 = system
        sched = SynchronousSchedule(A.nrows)
        exact = AsyncJacobiModel(A, b).run(sched, x0=x0, tol=1e-4, max_steps=50_000)
        stale = StaleAsyncJacobiModel(A, b, StalenessModel(max_lag=6, seed=0)).run(
            SynchronousSchedule(A.nrows), x0=x0, tol=1e-4, max_steps=50_000
        )
        assert stale.steps > exact.steps

    def test_staleness_model_validation(self):
        with pytest.raises(ValueError):
            StalenessModel(max_lag=-1)
        with pytest.raises(ValueError):
            StalenessModel(max_lag=1, distribution="weird")

    @pytest.mark.parametrize("max_lag", [-1, 2.5, True, "2"])
    def test_max_lag_must_be_nonnegative_int(self, max_lag):
        with pytest.raises(ValueError, match="max_lag"):
            StalenessModel(max_lag=max_lag)
        assert StalenessModel(max_lag=np.int64(0)).max_lag == 0


class TestDampedModel:
    def test_damped_sync_matches_classical_damped_jacobi(self, system):
        A, b, x0 = system
        omega = 0.7
        model = AsyncJacobiModel(A, b, omega=omega)
        res = model.run(SynchronousSchedule(A.nrows), x0=x0, tol=1e-300, max_steps=3)
        dense = A.to_dense()
        x = x0.copy()
        d = np.diag(dense)
        for _ in range(3):
            x = x + omega * (b - dense @ x) / d
        np.testing.assert_allclose(res.x, x, rtol=1e-12)

    def test_omega_validation(self, system):
        A, b, _ = system
        with pytest.raises(ValueError):
            AsyncJacobiModel(A, b, omega=2.5)

    def test_overrelaxation_converges_when_stable(self, system):
        """omega slightly above 1 still converges on the FD matrix
        (rho(I - omega A) < 1 for omega < 2 / lambda_max)."""
        A, b, x0 = system
        model = AsyncJacobiModel(A, b, omega=1.05)
        res = model.run(SynchronousSchedule(A.nrows), x0=x0, tol=1e-4, max_steps=20_000)
        assert res.converged


class TestTraceReplay:
    def test_trace_schedule_runs(self, system):
        A, b, x0 = system
        n = A.nrows
        steps = [(float(k), np.arange(n)) for k in range(1, 6)]
        model = AsyncJacobiModel(A, b)
        res = model.run(TraceSchedule(n, steps), x0=x0, tol=1e-300)
        assert res.steps == 5
        assert res.relaxations == 5 * n


class TestIncrementalResiduals:
    """Incremental residual maintenance in the sequential executor."""

    @pytest.mark.parametrize("recompute_every", [-1, 2.5, True])
    def test_recompute_every_must_be_nonnegative_int(self, system, recompute_every):
        A, b, x0 = system
        with pytest.raises(ValueError, match="recompute_every"):
            AsyncJacobiModel(A, b).run(
                SynchronousSchedule(A.nrows), x0=x0, max_steps=4,
                recompute_every=recompute_every,
            )

    def test_recompute_every_accepts_numpy_int_and_zero(self, system):
        A, b, x0 = system
        model = AsyncJacobiModel(A, b)
        for every in (np.int64(3), 0):
            model.run(
                SynchronousSchedule(A.nrows), x0=x0, max_steps=4,
                recompute_every=every,
            )

    def test_dense_schedule_is_exact(self, system):
        """Dense steps recompute the residual: histories are bitwise
        identical between cadences, with no drift at any tolerance."""
        A, b, x0 = system
        model = AsyncJacobiModel(A, b)
        kwargs = dict(x0=x0, tol=1e-8, max_steps=50_000)
        inc = model.run(SynchronousSchedule(A.nrows), **kwargs)
        full = model.run(SynchronousSchedule(A.nrows), recompute_every=1, **kwargs)
        assert inc.residual_norms == full.residual_norms
        np.testing.assert_array_equal(inc.x, full.x)

    def test_sparse_schedule_within_tolerance(self, system):
        """Satellite criterion: <= 1e-12 relative drift at the paper's
        working tolerance on the FD matrix."""
        from repro.core.schedules import RandomSubsetSchedule

        A, b, x0 = system
        model = AsyncJacobiModel(A, b)
        kwargs = dict(x0=x0, tol=1e-4, max_steps=200_000)
        sched = lambda: RandomSubsetSchedule(A.nrows, 0.2, seed=11)
        inc = model.run(sched(), recompute_every=64, **kwargs)
        full = model.run(sched(), recompute_every=1, **kwargs)
        a = np.asarray(inc.residual_norms)
        f = np.asarray(full.residual_norms)
        m = min(a.size, f.size)
        rel = np.abs(a[:m] - f[:m]) / np.maximum(np.abs(f[:m]), 1e-300)
        assert rel.max() <= 1e-12

    def test_periodic_recompute_bounds_drift(self, system):
        """A tiny recompute_every must agree with the cadence-1 run even
        on long sparse-step runs (the safeguard works)."""
        from repro.core.schedules import RandomSubsetSchedule

        A, b, x0 = system
        model = AsyncJacobiModel(A, b)
        kwargs = dict(x0=x0, tol=1e-6, max_steps=300_000)
        sched = lambda: RandomSubsetSchedule(A.nrows, 0.1, seed=5)
        tight = model.run(sched(), recompute_every=8, **kwargs)
        full = model.run(sched(), recompute_every=1, **kwargs)
        assert tight.converged == full.converged
        np.testing.assert_allclose(tight.x, full.x, rtol=1e-8)

    def test_convergence_is_confirmed(self, system):
        """Termination is re-checked on a fresh residual, so a converged
        result's last recorded norm matches an exact recomputation."""
        from repro.util.norms import relative_residual_norm

        A, b, x0 = system
        res = AsyncJacobiModel(A, b).run(
            SynchronousSchedule(A.nrows), x0=x0, tol=1e-3, max_steps=50_000
        )
        assert res.converged
        exact = relative_residual_norm(A, res.x, b)
        assert abs(res.residual_norms[-1] - exact) <= 1e-12 * max(exact, 1e-300)

    def test_rejects_bad_residual_mode(self, system):
        """The executor has one residual: there is no mode to pick."""
        A, b, x0 = system
        with pytest.raises(TypeError):
            AsyncJacobiModel(A, b).run(
                SynchronousSchedule(A.nrows), x0=x0, residual_mode="full"
            )
