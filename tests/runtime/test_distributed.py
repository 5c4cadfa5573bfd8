"""Distributed simulator: sync exactness, ghost correctness, failures."""

import numpy as np
import pytest

from repro.core.iteration import jacobi
from repro.matrices.laplacian import fd_laplacian_2d
from repro.matrices.suitesparse import dubcova2_like
from repro.partition.partitioner import bfs_bisection_partition
from repro.runtime.delays import ConstantDelay, HangDelay
from repro.runtime.distributed import DistributedJacobi
from repro.util.errors import PartitionError, ShapeError


@pytest.fixture
def system(rng):
    A = fd_laplacian_2d(9, 9)
    b = rng.uniform(-1, 1, 81)
    x0 = rng.uniform(-1, 1, 81)
    return A, b, x0


class TestSyncMode:
    def test_sync_is_exact_jacobi(self, system):
        """Per-sweep ghost exchange makes distributed sync == global Jacobi,
        independent of the partition."""
        A, b, x0 = system
        hist = jacobi(A, b, x0=x0, tol=1e-6, max_iterations=5000)
        for ranks, part in ((3, "contiguous"), (7, "bfs")):
            dj = DistributedJacobi(A, b, n_ranks=ranks, partition=part, seed=0)
            res = dj.run_sync(x0=x0, tol=1e-6, max_iterations=5000)
            assert res.iterations[0] == hist.iterations
            np.testing.assert_allclose(res.x, hist.x, rtol=1e-12)

    def test_sync_time_grows_with_ranks(self, system):
        """Allreduce + slowest-rank waiting: more ranks, more sync cost for a
        small fixed problem (Fig. 8's sync curves)."""
        A, b, x0 = system
        t = []
        for ranks in (2, 10):
            dj = DistributedJacobi(A, b, n_ranks=ranks, seed=0)
            t.append(dj.run_sync(x0=x0, tol=1e-4).total_time)
        assert t[1] > t[0] * 0.8  # never collapses; typically grows


class TestAsyncMode:
    def test_converges_to_solution(self, system):
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=6, seed=0)
        res = dj.run_async(x0=x0, tol=1e-8, max_iterations=50_000)
        assert res.converged
        np.testing.assert_allclose(A @ res.x, b, atol=1e-5)

    def test_single_rank_equals_jacobi(self, system):
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=1, seed=0)
        res = dj.run_async(x0=x0, tol=1e-6, max_iterations=5000, observe_every=1)
        hist = jacobi(A, b, x0=x0, tol=1e-6, max_iterations=5000)
        assert res.iterations[0] == hist.iterations
        np.testing.assert_allclose(res.x, hist.x, rtol=1e-12)

    def test_deterministic_given_seed(self, system):
        A, b, x0 = system
        r1 = DistributedJacobi(A, b, n_ranks=5, seed=9).run_async(x0=x0, tol=1e-5)
        r2 = DistributedJacobi(A, b, n_ranks=5, seed=9).run_async(x0=x0, tol=1e-5)
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_async_faster_wall_clock(self, system):
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=8, seed=0)
        ta = dj.run_async(x0=x0, tol=1e-4, max_iterations=50_000).time_to_tolerance(1e-4)
        ts = dj.run_sync(x0=x0, tol=1e-4, max_iterations=50_000).time_to_tolerance(1e-4)
        assert ta < ts

    def test_explicit_label_partition(self, system):
        A, b, x0 = system
        labels = bfs_bisection_partition(A, 4)
        dj = DistributedJacobi(A, b, n_ranks=4, partition=labels, seed=0)
        res = dj.run_async(x0=x0, tol=1e-5, max_iterations=20_000)
        assert res.converged


class TestFailureInjection:
    def test_dropped_puts_still_converge(self, system):
        """Lost ghost updates only delay information (racy overwrite
        semantics): convergence survives heavy drop rates."""
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=6, seed=0, drop_probability=0.3)
        res = dj.run_async(x0=x0, tol=1e-5, max_iterations=50_000)
        assert res.converged
        np.testing.assert_allclose(A @ res.x, b, atol=1e-2)

    def test_duplicated_puts_harmless(self, system):
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=6, seed=0, duplicate_probability=0.5)
        res = dj.run_async(x0=x0, tol=1e-5, max_iterations=50_000)
        assert res.converged

    def test_drops_slow_convergence(self, system):
        A, b, x0 = system
        clean = DistributedJacobi(A, b, n_ranks=6, seed=0)
        lossy = DistributedJacobi(A, b, n_ranks=6, seed=0, drop_probability=0.6)
        rc = clean.run_async(x0=x0, tol=1e-5, max_iterations=50_000)
        rl = lossy.run_async(x0=x0, tol=1e-5, max_iterations=50_000)
        assert rl.mean_iterations > rc.mean_iterations

    def test_hung_rank_freezes_subdomain(self, system):
        """A dead rank's rows freeze; the rest still reduce the residual."""
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=6, seed=0, delay=HangDelay({2: 0.0}))
        res = dj.run_async(x0=x0, tol=1e-300, max_iterations=300)
        assert res.iterations[2] == 0
        assert res.residual_norms[-1] < 0.7 * res.residual_norms[0]

    def test_delayed_rank_lags(self, system):
        A, b, x0 = system
        dj = DistributedJacobi(
            A, b, n_ranks=6, seed=0, delay=ConstantDelay({1: 2e-4})
        )
        res = dj.run_async(x0=x0, tol=1e-5, max_iterations=50_000)
        assert res.converged
        assert res.iterations[1] < np.delete(res.iterations, 1).min()

    def test_probability_validation(self, system):
        A, b, _ = system
        with pytest.raises(ValueError):
            DistributedJacobi(A, b, n_ranks=4, drop_probability=1.5)


class TestPaperBehaviours:
    def test_dubcova2_sync_fails_async_with_many_ranks_reduces(self, rng):
        """The Figure 9 mechanism at small scale."""
        A = dubcova2_like(400, stretch=6.0)
        n = A.nrows
        b = rng.uniform(-1, 1, n)
        x0 = rng.uniform(-1, 1, n)
        dj = DistributedJacobi(A, b, n_ranks=40, seed=13)
        rs = dj.run_sync(x0=x0, tol=1e-3, max_iterations=400)
        ra = dj.run_async(x0=x0, tol=1e-3, max_iterations=1200)
        assert not rs.converged
        assert rs.final_residual > rs.residual_norms[0]  # sync diverges
        assert ra.final_residual < 0.1 * ra.residual_norms[0]  # async reduces


class TestValidation:
    def test_rank_bounds(self, system):
        A, b, _ = system
        with pytest.raises(ShapeError):
            DistributedJacobi(A, b, n_ranks=0)
        with pytest.raises(ShapeError):
            DistributedJacobi(A, b, n_ranks=A.nrows + 1)

    def test_bad_partition_name(self, system):
        A, b, _ = system
        with pytest.raises(ValueError):
            DistributedJacobi(A, b, n_ranks=2, partition="magic")

    def test_label_count_mismatch(self, system):
        A, b, _ = system
        labels = np.zeros(A.nrows, dtype=np.int64)
        with pytest.raises(ShapeError):
            DistributedJacobi(A, b, n_ranks=3, partition=labels)

    @pytest.mark.parametrize("partition", ["bfs", "contiguous"])
    @pytest.mark.parametrize("n_ranks", [0, -1, 2.5, True])
    def test_rank_count_must_be_positive_int(self, system, n_ranks, partition):
        """2.5 once raised a TypeError inside the partitioner and True ran
        one rank."""
        A, b, _ = system
        with pytest.raises(ShapeError, match="n_ranks"):
            DistributedJacobi(A, b, n_ranks=n_ranks, partition=partition)

    def test_numpy_integer_rank_count_accepted(self, system):
        A, b, _ = system
        dj = DistributedJacobi(A, b, n_ranks=np.int64(3))
        assert dj.n_ranks == 3 and type(dj.n_ranks) is int
        assert dj.decomposition.n_parts == 3

    @pytest.mark.parametrize(
        "labels",
        [
            np.repeat([0.0, 1.7], [40, 41]),
            np.arange(81) % 2 == 1,
            np.zeros(0, dtype=np.int64),
            np.zeros(80, dtype=np.int64),
            np.zeros((81, 1), dtype=np.int64),
        ],
        ids=["float", "bool", "empty", "short", "2-d"],
    )
    def test_label_array_must_be_integer_and_one_per_row(self, system, labels):
        """Float labels used to be truncated (1.7 ran as rank 1), and an
        empty array failed inside ``labels.max()``."""
        A, b, _ = system
        with pytest.raises(PartitionError, match=r"integer label array of shape \(81,\)"):
            DistributedJacobi(A, b, n_ranks=2, partition=labels)

    @pytest.mark.parametrize("n_ranks", [4, 128])
    @pytest.mark.parametrize("legacy", [False, True])
    @pytest.mark.parametrize("observe_every", [0, -3, 2.5, True])
    def test_observe_every_must_be_positive_int(self, n_ranks, legacy, observe_every):
        """A non-positive cadence once hung 128-rank runs and observed
        every commit at 4 ranks."""
        A = fd_laplacian_2d(16, 16)
        b = np.ones(A.nrows)
        dj = DistributedJacobi(A, b, n_ranks=n_ranks, partition="contiguous", seed=0)
        with pytest.raises(ValueError, match="observe_every"):
            dj.run_async(
                tol=1e-3, max_iterations=4, observe_every=observe_every,
                legacy_engine=legacy,
            )

    @pytest.mark.parametrize("n_ranks", [4, 128])
    @pytest.mark.parametrize("legacy", [False, True])
    @pytest.mark.parametrize("mode", ["async", "sync"])
    @pytest.mark.parametrize("max_iterations", [0, -1, 2.5, True])
    def test_max_iterations_must_be_positive_int(
        self, n_ranks, legacy, mode, max_iterations
    ):
        """``max_iterations=0`` once ran one iteration per rank at 4 ranks
        and none at 128, and ``2.5`` ran three or raised ``TypeError``."""
        A = fd_laplacian_2d(16, 16)
        b = np.ones(A.nrows)
        dj = DistributedJacobi(A, b, n_ranks=n_ranks, partition="contiguous", seed=0)
        run = dj.run_async if mode == "async" else dj.run_sync
        with pytest.raises(ValueError, match="max_iterations"):
            run(tol=1e-3, max_iterations=max_iterations, legacy_engine=legacy)

    def test_observe_every_accepts_integer_types(self):
        A = fd_laplacian_2d(16, 16)
        b = np.ones(A.nrows)
        dj = DistributedJacobi(A, b, n_ranks=4, partition="contiguous", seed=0)
        a = dj.run_async(tol=1e-3, max_iterations=4, observe_every=np.int64(3))
        c = dj.run_async(tol=1e-3, max_iterations=4, observe_every=3)
        assert a.residual_norms == c.residual_norms

    @pytest.mark.parametrize("legacy", [False, True])
    @pytest.mark.parametrize("report_every", [0, -1, 2.5, True])
    def test_report_every_must_be_positive_int(self, system, legacy, report_every):
        """``0`` once raised a bare ``ZeroDivisionError`` under detection;
        ``-1`` and ``2.5`` ran silently at another cadence."""
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=4, seed=0)
        with pytest.raises(ValueError, match="report_every"):
            dj.run_async(
                x0=x0, tol=1e-3, max_iterations=4, termination="detect",
                report_every=report_every, legacy_engine=legacy,
            )

    @pytest.mark.parametrize("legacy", [False, True])
    @pytest.mark.parametrize("recompute_every", [-1, 2.5, True])
    def test_recompute_every_must_be_nonnegative_int(
        self, system, legacy, recompute_every
    ):
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=4, seed=0)
        with pytest.raises(ValueError, match="recompute_every"):
            dj.run_async(
                x0=x0, tol=1e-3, max_iterations=4,
                recompute_every=recompute_every, legacy_engine=legacy,
            )

    def test_run_integers_accept_numpy_and_zero_recompute(self, system):
        """``np.int64`` runs exactly as the Python int; ``recompute_every=0``
        (never recompute) stays valid."""
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=4, seed=0)
        kw = dict(x0=x0, tol=1e-3, max_iterations=8, termination="detect")
        a = dj.run_async(report_every=np.int64(2), recompute_every=np.int64(5), **kw)
        c = dj.run_async(report_every=2, recompute_every=5, **kw)
        assert a.residual_norms == c.residual_norms
        dj.run_async(recompute_every=0, **kw)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("heartbeat_miss", 0),
            ("heartbeat_miss", -1),
            ("heartbeat_miss", 2.5),
            ("heartbeat_miss", True),
            ("ranks_per_node", 0),
            ("ranks_per_node", -1),
            ("ranks_per_node", 2.5),
            ("ranks_per_node", True),
            ("max_put_retries", -1),
            ("max_put_retries", 2.5),
            ("max_put_retries", True),
        ],
    )
    def test_constructor_integers_are_checked(self, system, field, value):
        """These once truncated ``2.5`` to 2 and turned ``True`` into 1."""
        A, b, _ = system
        with pytest.raises(ValueError, match=field):
            DistributedJacobi(A, b, n_ranks=4, **{field: value})

    def test_constructor_integers_accept_numpy_and_zero_retries(self, system):
        A, b, _ = system
        dj = DistributedJacobi(
            A, b, n_ranks=4, heartbeat_miss=np.int64(2),
            ranks_per_node=np.int64(2), max_put_retries=0,
        )
        assert (dj.heartbeat_miss, dj.ranks_per_node, dj.max_put_retries) == (2, 2, 0)
        assert type(dj.heartbeat_miss) is int and type(dj.ranks_per_node) is int

    def test_mode_dispatch(self, system):
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=3, seed=0)
        assert dj.run("sync", x0=x0, tol=1e-3).mode == "sync"
        assert dj.run("async", x0=x0, tol=1e-3).mode == "async"
        with pytest.raises(ValueError):
            dj.run("chaotic")


class TestIncrementalResiduals:
    """Incremental residual observation in the distributed simulator."""

    def test_trajectory_bit_identical_across_modes(self, system):
        """The recompute cadence moves only the observer, never ``x``."""
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=4, seed=3)
        inc = dj.run_async(x0=x0, tol=1e-3, max_iterations=20_000)
        full = dj.run_async(x0=x0, tol=1e-3, max_iterations=20_000,
                            recompute_every=1)
        np.testing.assert_array_equal(inc.x, full.x)
        np.testing.assert_array_equal(inc.iterations, full.iterations)

    def test_observed_residuals_match_full_recompute(self, system):
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=4, seed=3)
        inc = dj.run_async(x0=x0, tol=1e-4, max_iterations=50_000,
                           recompute_every=64)
        full = dj.run_async(x0=x0, tol=1e-4, max_iterations=50_000,
                            recompute_every=1)
        a = np.asarray(inc.residual_norms)
        bb = np.asarray(full.residual_norms)
        m = min(a.size, bb.size)
        np.testing.assert_allclose(a[:m], bb[:m], rtol=1e-9)

    def test_rejects_bad_residual_mode(self, system):
        """The simulator has one observer: there is no mode to pick."""
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=3, seed=0)
        with pytest.raises(TypeError):
            dj.run_async(x0=x0, tol=1e-3, residual_mode="full")
