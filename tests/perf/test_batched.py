"""Batched trial engine: bit-identity with the sequential executor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import AsyncJacobiModel
from repro.core.schedules import (
    DelayedRowsSchedule,
    RandomSubsetSchedule,
    SynchronousSchedule,
)
from repro.matrices.laplacian import fd_laplacian_2d, paper_fd_matrix
from repro.matrices.sparse import CSRMatrix
from repro.matrices.stencil import anisotropic_laplacian_2d
from repro.perf.batched import BatchedAsyncJacobiModel
from repro.util.errors import ShapeError, SingularMatrixError
from repro.util.rng import as_rng
from tests.core.test_model import BAD_STEP_ARGS
from tests.core.test_model_digests import KINDS


def _trials(n, T, seed0=100):
    B = np.empty((n, T))
    X0 = np.empty((n, T))
    for t in range(T):
        rng = as_rng(seed0 + t)
        B[:, t] = rng.uniform(-1, 1, n)
        X0[:, t] = rng.uniform(-1, 1, n)
    return B, X0


def assert_bit_identical(A, make_schedule, T=4, method=None, **run_kwargs):
    """Batched run == per-trial sequential loop, bit for bit."""
    B, X0 = _trials(A.nrows, T)
    batched = BatchedAsyncJacobiModel(A, B, method=method).run(
        make_schedule(), X0=X0, **run_kwargs
    )
    for t in range(T):
        seq = AsyncJacobiModel(A, B[:, t].copy(), method=method).run(
            make_schedule(), x0=X0[:, t].copy(), **run_kwargs
        )
        tr = batched.trial(t)
        np.testing.assert_array_equal(tr.x, seq.x)
        assert tr.residual_norms == seq.residual_norms
        assert tr.times == seq.times
        assert tr.relaxation_counts == seq.relaxation_counts
        assert tr.converged == seq.converged
        assert tr.steps == seq.steps
        assert tr.relaxations == seq.relaxations


#: Residual cadences: the default, and a full recompute after every step.
CADENCES = [pytest.param(64, id="incremental"), pytest.param(1, id="full")]


class TestBitIdentity:
    @pytest.mark.parametrize("cadence", CADENCES)
    def test_synchronous_fd68(self, cadence):
        A = paper_fd_matrix(68)
        assert_bit_identical(
            A, lambda: SynchronousSchedule(68), tol=1e-3,
            max_steps=20_000, recompute_every=cadence,
        )

    @pytest.mark.parametrize("cadence", CADENCES)
    def test_delayed_row_fd68(self, cadence):
        A = paper_fd_matrix(68)
        assert_bit_identical(
            A, lambda: DelayedRowsSchedule(68, {34: 20}), tol=1e-3,
            max_steps=50_000, recompute_every=cadence,
        )

    @pytest.mark.parametrize("cadence", CADENCES)
    def test_sparse_subset_schedule(self, cadence):
        """Subset steps take the CSC scatter path, not the dense one."""
        A = paper_fd_matrix(68)
        assert_bit_identical(
            A, lambda: RandomSubsetSchedule(68, 0.2, seed=7), tol=1e-3,
            max_steps=50_000, recompute_every=cadence,
        )

    @pytest.mark.parametrize("cadence", [1, 64])
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_method_kind_anisotropic(self, kind, cadence):
        """Each update arm, SOR's sequential sweeps included, is bitwise
        the per-trial loop on a matrix with unequal off-diagonals."""
        A = anisotropic_laplacian_2d(10, 9, 0.1)
        assert_bit_identical(
            A, lambda: RandomSubsetSchedule(A.nrows, 0.3, seed=2), T=3,
            method=KINDS[kind], tol=1e-4, max_steps=300, recompute_every=cadence,
        )

    def test_record_every_and_recompute_every(self):
        A = fd_laplacian_2d(9, 8)
        assert_bit_identical(
            A, lambda: RandomSubsetSchedule(A.nrows, 0.15, seed=3),
            tol=5e-3, max_steps=50_000, record_every=3, recompute_every=16,
        )

    def test_staggered_convergence_freezes_trials(self):
        """Trials converging at different steps freeze with their history."""
        A = paper_fd_matrix(68)
        B, X0 = _trials(68, 4)
        # Make trial 0 start at the solution-adjacent iterate so it
        # converges long before the others.
        X0[:, 0] *= 1e-6
        B[:, 0] *= 1e-3
        res = BatchedAsyncJacobiModel(A, B).run(
            SynchronousSchedule(68), X0=X0, tol=1e-3, max_steps=20_000
        )
        assert res.converged.all()
        assert len(set(res.steps.tolist())) > 1
        for t in range(4):
            seq = AsyncJacobiModel(A, B[:, t].copy()).run(
                SynchronousSchedule(68), x0=X0[:, t].copy(), tol=1e-3,
                max_steps=20_000,
            )
            assert res.trial(t).residual_norms == seq.residual_norms

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=24),
        T=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=1_000),
        cadence=st.sampled_from([64, 1]),
    )
    def test_property_random_wdd_systems(self, n, T, seed, cadence):
        """Random diagonally dominant systems stay bitwise identical."""
        rng = np.random.default_rng(seed)
        dense = np.where(rng.random((n, n)) < 0.3, rng.standard_normal((n, n)), 0.0)
        dense[np.arange(n), np.arange(n)] = n + rng.uniform(1.0, 2.0, n)
        A = CSRMatrix.from_dense(dense)
        fraction = 0.3 + 0.4 * ((seed % 3) / 2.0)
        assert_bit_identical(
            A,
            lambda: RandomSubsetSchedule(n, fraction, seed=seed + 1),
            T=T, tol=1e-4, max_steps=20_000, recompute_every=cadence,
        )


class TestIncrementalAccuracy:
    def test_incremental_matches_full_on_paper_matrix(self):
        """Satellite criterion: <= 1e-12 relative at working tolerance."""
        A = paper_fd_matrix(68)
        B, X0 = _trials(68, 3)
        sched = lambda: RandomSubsetSchedule(68, 0.2, seed=11)
        kwargs = dict(X0=X0, tol=1e-4, max_steps=200_000)
        model = BatchedAsyncJacobiModel(A, B)
        inc = model.run(sched(), recompute_every=64, **kwargs)
        full = model.run(sched(), recompute_every=1, **kwargs)
        for t in range(3):
            a = np.asarray(inc.trial(t).residual_norms)
            b = np.asarray(full.trial(t).residual_norms)
            m = min(a.size, b.size)
            rel = np.abs(a[:m] - b[:m]) / np.maximum(np.abs(b[:m]), 1e-300)
            assert rel.max() <= 1e-12
            np.testing.assert_allclose(inc.trial(t).x, full.trial(t).x, rtol=1e-10)

    def test_dense_steps_are_exact(self):
        """Dense steps recompute the residual: zero drift by construction."""
        A = paper_fd_matrix(68)
        B, X0 = _trials(68, 2)
        model = BatchedAsyncJacobiModel(A, B)
        kwargs = dict(X0=X0, tol=1e-8, max_steps=50_000)
        inc = model.run(SynchronousSchedule(68), **kwargs)
        full = model.run(SynchronousSchedule(68), recompute_every=1, **kwargs)
        for t in range(2):
            assert inc.trial(t).residual_norms == full.trial(t).residual_norms


class TestValidation:
    def test_rejects_non_square(self):
        A = CSRMatrix.from_dense(np.ones((3, 4)))
        with pytest.raises(ShapeError):
            BatchedAsyncJacobiModel(A, np.ones((3, 2)))

    def test_rejects_zero_diagonal(self):
        dense = np.eye(4)
        dense[2, 2] = 0.0
        with pytest.raises(SingularMatrixError):
            BatchedAsyncJacobiModel(CSRMatrix.from_dense(dense), np.ones((4, 2)))

    def test_rejects_bad_b_shape(self):
        A = fd_laplacian_2d(3, 3)
        with pytest.raises(ShapeError):
            BatchedAsyncJacobiModel(A, np.ones(A.nrows))

    def test_rejects_bad_x0_shape(self):
        A = fd_laplacian_2d(3, 3)
        model = BatchedAsyncJacobiModel(A, np.ones((A.nrows, 2)))
        with pytest.raises(ShapeError):
            model.run(SynchronousSchedule(A.nrows), X0=np.ones((A.nrows, 3)))

    def test_rejects_schedule_size_mismatch(self):
        A = fd_laplacian_2d(3, 3)
        model = BatchedAsyncJacobiModel(A, np.ones((A.nrows, 2)))
        with pytest.raises(ShapeError):
            model.run(SynchronousSchedule(A.nrows + 1))

    @pytest.mark.parametrize("recompute_every", [-1, 2.5, True])
    def test_rejects_bad_recompute_every(self, recompute_every):
        A = fd_laplacian_2d(3, 3)
        model = BatchedAsyncJacobiModel(A, np.ones((A.nrows, 2)))
        with pytest.raises(ValueError, match="recompute_every"):
            model.run(SynchronousSchedule(A.nrows), recompute_every=recompute_every)
        model.run(SynchronousSchedule(A.nrows), recompute_every=np.int64(0))

    @pytest.mark.parametrize("name,value", BAD_STEP_ARGS)
    def test_rejects_malformed_step_arguments(self, name, value):
        A = fd_laplacian_2d(3, 3)
        model = BatchedAsyncJacobiModel(A, np.ones((A.nrows, 2)))
        with pytest.raises(ValueError, match=name):
            model.run(SynchronousSchedule(A.nrows), **{name: value})
        res = model.run(SynchronousSchedule(A.nrows), max_steps=np.int64(0))
        assert np.all(res.steps == 0)

    def test_rejects_bad_residual_mode(self):
        """The executor has one residual: there is no mode to pick."""
        A = fd_laplacian_2d(3, 3)
        model = BatchedAsyncJacobiModel(A, np.ones((A.nrows, 2)))
        with pytest.raises(TypeError):
            model.run(SynchronousSchedule(A.nrows), residual_mode="full")

    def test_rejects_bad_omega(self):
        A = fd_laplacian_2d(3, 3)
        with pytest.raises(ValueError):
            BatchedAsyncJacobiModel(A, np.ones((A.nrows, 2)), omega=2.5)
