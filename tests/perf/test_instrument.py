"""PerfCounters and the instrument=True hooks across executors."""

import numpy as np
import pytest

from repro.core.model import AsyncJacobiModel
from repro.core.schedules import SynchronousSchedule
from repro.matrices.laplacian import fd_laplacian_2d, paper_fd_matrix
from repro.perf.batched import BatchedAsyncJacobiModel
from repro.perf.instrument import PerfCounters
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi
from repro.util.rng import as_rng


class TestPerfCounters:
    def test_tick_tock_accumulates(self):
        perf = PerfCounters()
        perf.tock_spmv(perf.tick())
        perf.tock_residual(perf.tick())
        assert perf.spmv_calls == 1 and perf.residual_evals == 1
        assert perf.spmv_seconds >= 0.0 and perf.residual_seconds >= 0.0

    def test_dispatch_is_remainder_and_nonnegative(self):
        perf = PerfCounters(spmv_seconds=0.5, residual_seconds=0.3, total_seconds=1.0)
        assert perf.dispatch_seconds == pytest.approx(0.2)
        perf.total_seconds = 0.1
        assert perf.dispatch_seconds == 0.0

    def test_merge_sums_fields(self):
        a = PerfCounters(spmv_seconds=1.0, spmv_calls=2, events=3)
        b = PerfCounters(spmv_seconds=0.5, spmv_calls=1, events=4)
        assert a.merge(b) is a
        assert a.spmv_seconds == 1.5 and a.spmv_calls == 3 and a.events == 7

    def test_as_dict_and_summary(self):
        perf = PerfCounters(total_seconds=1.0, extra={"trials": 5})
        d = perf.as_dict()
        assert d["total_seconds"] == 1.0 and d["trials"] == 5
        assert "dispatch" in perf.summary()

    def test_delivery_counters_merge_and_digest(self):
        a = PerfCounters(
            puts_coalesced=3, delivery_flushes=4, delivery_edges_flushed=10,
            delivery_batch_max=5, ledger_scatter_width=7,
        )
        b = PerfCounters(
            puts_coalesced=1, delivery_flushes=2, delivery_edges_flushed=4,
            delivery_batch_max=3, ledger_scatter_width=1,
        )
        a.merge(b)
        assert a.puts_coalesced == 4 and a.delivery_flushes == 6
        assert a.delivery_edges_flushed == 14
        assert a.delivery_batch_max == 5  # widest flush, not a sum
        assert a.ledger_scatter_width == 8
        digest = a.delivery_summary()
        assert "4 puts coalesced" in digest and "max 5" in digest
        assert a.as_dict()["delivery_flushes"] == 6
        # No flushes -> empty digest, so callers can print conditionally.
        assert PerfCounters().delivery_summary() == ""

    def test_native_counters_merge_and_digest(self):
        a = PerfCounters(
            backend="native", native_calls=10, native_rows_relaxed=120,
            native_build_ms=1800.0,
        )
        b = PerfCounters(
            backend="native", native_calls=5, native_rows_relaxed=60,
        )
        a.merge(b)
        assert a.backend == "native"  # same backend survives the merge
        assert a.native_calls == 15 and a.native_rows_relaxed == 180
        assert a.native_build_ms == 1800.0
        digest = a.native_summary()
        assert "15 kernel calls" in digest and "180 rows" in digest
        assert "native 15 calls/180 rows" in a.summary()
        d = a.as_dict()
        assert d["backend"] == "native" and d["native_calls"] == 15
        # Mixed backends relabel; zero native calls keep digests silent.
        a.merge(PerfCounters(backend="numpy"))
        assert a.backend == "mixed"
        clean = PerfCounters()
        assert clean.native_summary() == ""
        assert "native" not in clean.summary()

    def test_merge_method_and_backend_mixing_semantics(self):
        # Same labels survive a merge unchanged.
        a = PerfCounters(method="jacobi", backend="numpy")
        a.merge(PerfCounters(method="jacobi", backend="numpy"))
        assert a.method == "jacobi" and a.backend == "numpy"
        # A mismatch on either axis relabels that axis (and only it).
        a.merge(PerfCounters(method="sor", backend="numpy"))
        assert a.method == "mixed" and a.backend == "numpy"
        a.merge(PerfCounters(method="sor", backend="native"))
        assert a.method == "mixed" and a.backend == "mixed"
        # "mixed" is sticky: no later merge can un-mix an axis, even one
        # whose label matches what the aggregate started as.
        a.merge(PerfCounters(method="jacobi", backend="numpy"))
        assert a.method == "mixed" and a.backend == "mixed"
        a.merge(PerfCounters(method="mixed", backend="mixed"))
        assert a.method == "mixed" and a.backend == "mixed"
        # Numeric accumulation is unaffected by label mixing.
        totals = PerfCounters(method="jacobi", spmv_calls=1, native_calls=2)
        totals.merge(PerfCounters(method="sor", spmv_calls=3, native_calls=4))
        assert totals.spmv_calls == 4 and totals.native_calls == 6
        assert totals.as_dict()["method"] == "mixed"

    def test_distributed_batched_run_fills_delivery_counters(self, rng):
        from repro.matrices.laplacian import fd_laplacian_2d
        from repro.runtime.distributed import DistributedJacobi

        A = fd_laplacian_2d(8, 8)
        b = rng.uniform(-1, 1, A.shape[0])
        sim = DistributedJacobi(A, b, n_ranks=4, seed=3)
        res = sim.run_async(tol=1e-8, max_iterations=300, instrument=True)
        perf = res.perf
        assert perf.delivery_flushes > 0
        assert perf.delivery_edges_flushed >= perf.delivery_flushes
        assert perf.delivery_batch_max >= 1
        assert "puts coalesced" in perf.delivery_summary()
        assert perf.backend in ("native", "numpy")


@pytest.fixture
def system(rng):
    A = paper_fd_matrix(68)
    b = rng.uniform(-1, 1, 68)
    x0 = rng.uniform(-1, 1, 68)
    return A, b, x0


class TestExecutorHooks:
    def test_model_run_attaches_perf(self, system):
        A, b, x0 = system
        res = AsyncJacobiModel(A, b).run(
            SynchronousSchedule(68), x0=x0, tol=1e-3, max_steps=5000,
            instrument=True,
        )
        assert res.perf is not None
        assert res.perf.events == res.steps
        assert res.perf.spmv_calls > 0
        assert res.perf.total_seconds > 0.0

    def test_model_run_default_has_no_perf(self, system):
        A, b, x0 = system
        res = AsyncJacobiModel(A, b).run(
            SynchronousSchedule(68), x0=x0, tol=1e-3, max_steps=5000
        )
        assert res.perf is None

    def test_batched_run_attaches_perf(self, system):
        A, _, _ = system
        rng = as_rng(0)
        B = rng.uniform(-1, 1, (68, 3))
        res = BatchedAsyncJacobiModel(A, B).run(
            SynchronousSchedule(68), tol=1e-3, max_steps=5000, instrument=True
        )
        assert res.perf is not None
        assert res.perf.spmv_calls > 0
        assert res.perf.events > 0

    def test_shared_run_async_attaches_perf(self, system):
        A, b, x0 = system
        sim = SharedMemoryJacobi(A, b, n_threads=4, seed=1)
        res = sim.run_async(
            x0=x0, tol=1e-3, max_iterations=2000, instrument=True
        )
        assert res.perf is not None
        assert res.perf.events > 0
        assert res.perf.residual_evals > 0

    def test_distributed_run_async_attaches_perf(self):
        A = fd_laplacian_2d(8, 8)
        rng = as_rng(2)
        b = rng.uniform(-1, 1, A.nrows)
        sim = DistributedJacobi(A, b, n_ranks=4, seed=3)
        res = sim.run_async(tol=1e-3, max_iterations=2000, instrument=True)
        assert res.perf is not None
        assert res.perf.events > 0
