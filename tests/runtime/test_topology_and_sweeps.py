"""Node topology (intra/inter-node latency) and the SOR block sweep."""

import numpy as np
import pytest

from repro.matrices.laplacian import fd_laplacian_2d
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.machine import ARIES, HASWELL_CLUSTER


@pytest.fixture
def system(rng):
    A = fd_laplacian_2d(9, 9)
    b = rng.uniform(-1, 1, 81)
    x0 = rng.uniform(-1, 1, 81)
    return A, b, x0


class TestNodeTopology:
    def test_same_node_mapping(self, system):
        """Consecutive-rank placement: each put of the warm plan pays the
        intra-node latency exactly when both ranks sit on one node."""
        A, b, _ = system
        dj = DistributedJacobi(A, b, n_ranks=8, ranks_per_node=4, seed=0)
        net = dj.cluster.network
        assert net.intra_node_latency < net.latency
        plan = dj._warm_plan(dj._compile_ranks()).put_plan
        same_node = set()
        for p, puts in enumerate(plan):
            for q, _, local_rows, base in puts:
                same = p // 4 == q // 4
                lat = net.intra_node_latency if same else net.latency
                assert base == lat + local_rows.size * net.time_per_value, (p, q)
                same_node.add(same)
        assert same_node == {True, False}

    def test_default_from_cluster(self, system):
        A, b, _ = system
        dj = DistributedJacobi(A, b, n_ranks=8, seed=0)
        assert dj.ranks_per_node == HASWELL_CLUSTER.ranks_per_node

    def test_intra_node_messages_cheaper(self, rng):
        from dataclasses import replace

        net = replace(ARIES, jitter_sigma=0.0)
        intra = net.message_time(10, rng, intra_node=True)
        inter = net.message_time(10, rng, intra_node=False)
        assert intra < inter

    def test_colocated_ranks_converge_faster_in_time(self, system):
        """All ranks on one node (cheap messages) beats one rank per node
        for the same partition — fresher ghosts, same relaxations."""
        A, b, x0 = system
        one_node = DistributedJacobi(A, b, n_ranks=8, ranks_per_node=8, seed=0)
        spread = DistributedJacobi(A, b, n_ranks=8, ranks_per_node=1, seed=0)
        t_one = one_node.run_async(x0=x0, tol=1e-5, max_iterations=50_000)
        t_spread = spread.run_async(x0=x0, tol=1e-5, max_iterations=50_000)
        assert t_one.converged and t_spread.converged
        assert t_one.time_to_tolerance(1e-5) <= t_spread.time_to_tolerance(1e-5) * 1.05

    def test_ranks_per_node_validation(self, system):
        A, b, _ = system
        with pytest.raises(ValueError):
            DistributedJacobi(A, b, n_ranks=4, ranks_per_node=0)


class TestLocalSweeps:
    def test_gs_sweep_sync_matches_block_gs_reference(self, system):
        """One synchronous ``method="sor"`` sweep (a forward Gauss-Seidel
        solve per block) equals the dense block-GS-within-block-Jacobi
        reference."""
        A, b, x0 = system
        dj = DistributedJacobi(
            A, b, n_ranks=3, partition="contiguous", seed=0,
            method="sor",
        )
        res = dj.run_sync(x0=x0, tol=1e-300, max_iterations=1)
        # Reference: per block, a forward GS sweep where in-block rows see
        # earlier in-block updates and everything else stays at sweep-start.
        dense = A.to_dense()
        d = np.diag(dense)
        new = x0.copy()
        bounds = [0, 27, 54, 81]
        for lo, hi in zip(bounds, bounds[1:]):
            xs = x0.copy()
            for i in range(lo, hi):
                r_i = b[i] - dense[i] @ xs
                xs[i] += r_i / d[i]
            new[lo:hi] = xs[lo:hi]
        np.testing.assert_allclose(res.x, new, rtol=1e-12)

    def test_gs_sweep_converges_faster_per_relaxation(self, system):
        """In-block sequencing helps: GS local sweeps need fewer sweeps."""
        A, b, x0 = system
        jac = DistributedJacobi(A, b, n_ranks=4, seed=0)
        gs = DistributedJacobi(A, b, n_ranks=4, seed=0, method="sor")
        rj = jac.run_sync(x0=x0, tol=1e-5, max_iterations=10_000)
        rg = gs.run_sync(x0=x0, tol=1e-5, max_iterations=10_000)
        assert rg.converged
        assert rg.iterations[0] < rj.iterations[0]

    def test_gs_async_converges(self, system):
        A, b, x0 = system
        dj = DistributedJacobi(A, b, n_ranks=6, seed=0, method="sor")
        res = dj.run_async(x0=x0, tol=1e-6, max_iterations=50_000)
        assert res.converged
        np.testing.assert_allclose(A @ res.x, b, atol=1e-3)
