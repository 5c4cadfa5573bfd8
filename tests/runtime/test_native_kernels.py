"""Byte-for-byte checks of the compact native kernels and their layout.

``repro_residual`` must reproduce ``b - A.matvec(x)``, and the compact
relax and commit kernels must reproduce the NumPy closures of
``DistributedJacobi.run_async``, bit for bit, on matrices whose values
span many magnitudes (so any change of summation order would show). The
int32 layout guard is tested on its helper directly.

Tests that need the compiled library skip without a C toolchain; the
NumPy fallback of the residual is exercised under ``REPRO_NO_NATIVE=1``.
"""

import numpy as np
import pytest

from repro.matrices.laplacian import fd_laplacian_2d
from repro.matrices.sparse import CSRMatrix
from repro.perf import native
from repro.runtime.distributed import DistributedJacobi
from tests.runtime.equivalence import assert_results_identical, numpy_kernels

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="no C toolchain (or REPRO_NO_NATIVE set): compiled kernels absent",
)


def _random_csr(rng, n: int, ncols: int) -> CSRMatrix:
    """Random CSR with empty rows, signed zeros and wide magnitudes."""
    counts = rng.integers(0, 9, size=n)
    counts[rng.random(n) < 0.2] = 0  # empty rows
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    indices = np.concatenate(
        [np.sort(rng.choice(ncols, size=c, replace=False)) for c in counts]
    ).astype(np.int64)
    data = rng.standard_normal(indices.size) * 10.0 ** rng.integers(
        -8, 9, size=indices.size
    )
    data[rng.random(data.size) < 0.05] = 0.0
    data[rng.random(data.size) < 0.05] = -0.0
    return CSRMatrix(indptr, indices, data, (n, ncols))


def _vector(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, size=n)
    v[rng.random(n) < 0.1] = 0.0
    v[rng.random(n) < 0.1] = -0.0
    return v


def _wide_matrix(grid: int, seed: int) -> CSRMatrix:
    """A diagonally dominant stencil-pattern matrix with wide magnitudes."""
    pattern = fd_laplacian_2d(grid, grid)
    rng = np.random.default_rng(seed)
    data = -rng.uniform(0.0, 1.0, pattern.nnz) * 10.0 ** rng.integers(
        -6, 1, size=pattern.nnz
    )
    rows = np.repeat(np.arange(pattern.nrows), np.diff(pattern.indptr))
    diag = rows == pattern.indices
    data[diag] = 5.0 + rng.uniform(0.0, 1.0, int(diag.sum()))
    return CSRMatrix(pattern.indptr, pattern.indices, data, pattern.shape)


@needs_native
@pytest.mark.parametrize("seed", range(6))
def test_residual_kernel_matches_numpy_bytes(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    A = _random_csr(rng, n, n)
    b = _vector(rng, n)
    kernels = native.native_kernels()
    for x in (_vector(rng, n), np.zeros(n), -np.zeros(n)):
        expect = b - A.matvec(x)
        got = kernels.residual(A, x, b, np.empty(n))
        assert got.tobytes() == expect.tobytes()


@needs_native
def test_residual_kernel_rejects_bad_buffers():
    A = _wide_matrix(5, 0)
    n = A.nrows
    kernels = native.native_kernels()
    x, b = np.ones(n), np.ones(n)
    for bad in (np.ones(2 * n)[::2], np.ones(n, dtype=np.float32),
                np.ones(n + 1)):
        with pytest.raises(ValueError, match="contiguous float64"):
            kernels.residual(A, bad, b, np.empty(n))
        with pytest.raises(ValueError, match="contiguous float64"):
            kernels.residual(A, x, b, bad)
    with pytest.raises(ValueError, match="overlap"):
        kernels.residual(A, x, b, x)


def test_residual_fallback_matches_numpy_bytes(monkeypatch):
    """With REPRO_NO_NATIVE=1 the solver's residual is the NumPy line."""
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    native._reset_probe_cache()
    try:
        rng = np.random.default_rng(11)
        A = _wide_matrix(9, 11)
        b = _vector(rng, A.nrows)
        sim = DistributedJacobi(A, b, n_ranks=4, seed=0)
        residual = sim._residual_fn()
        for x in (_vector(rng, A.nrows), np.zeros(A.nrows)):
            expect = b - A.matvec(x)
            assert residual(x, np.empty(A.nrows)).tobytes() == expect.tobytes()
    finally:
        monkeypatch.delenv("REPRO_NO_NATIVE")
        native._reset_probe_cache()


@needs_native
@pytest.mark.parametrize("partition", ["bfs", "contiguous"])
@pytest.mark.parametrize("method", ["jacobi", "damped_jacobi", "richardson2"])
def test_compact_relax_and_commit_match_numpy_closures(partition, method):
    """Both packed-row entries per rank vs the run_async NumPy closures."""
    A = _wide_matrix(14, 3)
    rng = np.random.default_rng(5)
    b = _vector(rng, A.nrows)
    sim = DistributedJacobi(
        A, b, n_ranks=6, partition=partition, seed=0, method=method
    )
    ranks = sim._compile_ranks()
    tab = sim._warm_native(ranks)
    wp = sim._plan
    splans = sim._warm_splans(ranks)
    kernels = native.native_kernels()
    col = native.ROW_FIELDS.index
    momentum = sim.method.kind == "momentum"
    beta = float(sim.method.beta) if momentum else 0.0
    x = _vector(rng, A.nrows)
    r_vec = _vector(rng, A.nrows)
    if partition == "bfs":
        assert any(np.any(np.diff(rk.rows) != 1) for rk in ranks)

    def packed(r, x_buf, lb_buf, pend_buf, mom_buf, r_buf):
        """Rank r's warm row with this call's per-run buffers filled."""
        row = tab[r].copy()
        row[col("x")] = x_buf.ctypes.data
        row[col("local_x")] = lb_buf.ctypes.data
        row[col("pend")] = pend_buf.ctypes.data
        row[col("mom_prev")] = mom_buf.ctypes.data if momentum else 0
        row[col("r_vec")] = r_buf.ctypes.data
        return row

    for rk in ranks:
        r, m = rk.rank, rk.rows.size
        lb = _vector(rng, m + rk.ghost_cols.size)
        mom = _vector(rng, m)
        # NumPy reference: the buffered relax closure, then the commit.
        lb_ref, mom_ref = lb.copy(), mom.copy()
        own = x.take(rk.rows)
        lb_ref[:m] = own
        g = lb_ref.take(rk.local.indices)
        np.multiply(rk.local.data, g, out=g)
        mv = np.bincount(rk.local._row_of_nnz, weights=g, minlength=m)
        np.subtract(wp.b_loc[r], mv, out=mv)
        np.multiply(wp.dinv_loc[r], mv, out=mv)
        pend_ref = np.add(own, mv)
        if momentum:
            pend_ref += sim.method.beta * (own - mom_ref)
            np.copyto(mom_ref, own)
        x_ref, r_ref = x.copy(), r_vec.copy()
        dx = np.subtract(pend_ref, own)
        x_ref[rk.rows] = pend_ref
        splans[r].apply(r_ref, dx)
        # repro_relax: the relax alone leaves x and r_vec untouched.
        lb_nat, mom_nat, pend = lb.copy(), mom.copy(), np.empty(m)
        x_nat, r_nat = x.copy(), r_vec.copy()
        row = packed(r, x_nat, lb_nat, pend, mom_nat, r_nat)
        kernels.relax(row.ctypes.data, beta)
        assert pend.tobytes() == pend_ref.tobytes()
        assert lb_nat.tobytes() == lb_ref.tobytes()
        assert mom_nat.tobytes() == mom_ref.tobytes()
        assert x_nat.tobytes() == x.tobytes()
        assert r_nat.tobytes() == r_vec.tobytes()
        # repro_relax_commit: the relax, the x store, the residual scatter.
        lb_nat, mom_nat, pend = lb.copy(), mom.copy(), np.empty(m)
        row = packed(r, x_nat, lb_nat, pend, mom_nat, r_nat)
        kernels.relax_commit(row.ctypes.data, beta)
        assert pend.tobytes() == pend_ref.tobytes()
        assert lb_nat.tobytes() == lb_ref.tobytes()
        assert mom_nat.tobytes() == mom_ref.tobytes()
        assert x_nat.tobytes() == x_ref.tobytes()
        assert r_nat.tobytes() == r_ref.tobytes()
        assert not np.any(wp.native[0][r][-1])  # bins re-zeroed


def _trajectory(A, b, n_ranks, partition, method, **run):
    sim = DistributedJacobi(
        A, b, n_ranks=n_ranks, partition=partition, seed=4, method=method
    )
    return sim.run_async(**run)


@needs_native
@pytest.mark.parametrize("partition", ["bfs", "contiguous"])
@pytest.mark.parametrize("method", ["jacobi", "damped_jacobi", "richardson2"])
@pytest.mark.parametrize(
    "shape",
    [
        # (grid, ranks): big and small blocks on 8 ranks, and 128 ranks
        # of a few rows each.
        (48, 8),
        (24, 8),
        (16, 128),
    ],
)
# "full" recomputes the observer's residual at every observation.
@pytest.mark.parametrize("recompute_every", [64, 1], ids=["incremental", "full"])
def test_native_trajectories_match_numpy_block(
    partition, method, shape, recompute_every
):
    grid, n_ranks = shape
    A = _wide_matrix(grid, 8)
    b = _vector(np.random.default_rng(8), A.nrows)
    run = dict(
        tol=1e-12, max_iterations=12, observe_every=5,
        recompute_every=recompute_every,
    )
    nat = _trajectory(A, b, n_ranks, partition, method, **run)
    with numpy_kernels():
        ref = _trajectory(A, b, n_ranks, partition, method, **run)
    assert_results_identical(nat, ref)


def test_int32_guard_raises_at_two_to_the_31():
    idx = np.arange(5, dtype=np.int64)
    with pytest.raises(native.NativeLayoutError, match=r"2\*\*31"):
        native.int32_index(idx, native.INT32_LIMIT, "rank 0's local columns")
    out = native.int32_index(idx, native.INT32_LIMIT - 1, "rank 0's span")
    assert out.dtype == np.int32
    assert out.tolist() == idx.tolist()
    assert out.base is None or out.base is not idx  # a copy, not a view
