"""Matrix-property analysis: diagonal dominance, spectra, SPD checks.

The paper's theory is parameterized by three properties of the (unit-diagonal
scaled, symmetric) matrix A and its Jacobi iteration matrix G = I - A:

* **weak diagonal dominance (W.D.D.)** — per row, ``|a_ii| >= sum_{j != i}
  |a_ij|``; Theorem 1 needs this to hold for all rows;
* **irreducibility** — the matrix graph is connected, which together with
  W.D.D. (and at least one strict row) gives ``rho(G) < 1``;
* **the Jacobi spectral radius** ``rho(G)`` — sync Jacobi converges iff
  ``rho(G) < 1``.

The spectral estimates are implemented from scratch (power iteration with
deflation-by-shift for the symmetric case); tests cross-check them against
dense eigensolvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matrices.sparse import CSRMatrix
from repro.util.rng import as_rng


def wdd_rows(A: CSRMatrix, tol: float = 1e-12) -> np.ndarray:
    """Boolean mask of rows satisfying weak diagonal dominance.

    Row ``i`` is W.D.D. iff ``|a_ii| + tol >= sum_{j != i} |a_ij|``; the
    tolerance absorbs floating-point noise from scaling.
    """
    diag = np.abs(A.diagonal())
    off = A.off_diagonal_row_sums()
    return diag + tol >= off


def is_weakly_diagonally_dominant(A: CSRMatrix, tol: float = 1e-12) -> bool:
    """True iff every row is weakly diagonally dominant."""
    return bool(np.all(wdd_rows(A, tol=tol)))


def wdd_fraction(A: CSRMatrix, tol: float = 1e-12) -> float:
    """Fraction of rows with the W.D.D. property (paper: ~0.5 for FE)."""
    return float(np.mean(wdd_rows(A, tol=tol)))


def is_m_matrix_like(A: CSRMatrix, tol: float = 1e-12) -> bool:
    """Sufficient M-matrix check: sign pattern plus diagonal dominance.

    True when every diagonal entry is positive, every off-diagonal entry
    is nonpositive, and the matrix is weakly diagonally dominant — a
    standard sufficient condition for ``A`` to be a (possibly singular)
    M-matrix. This is the hypothesis of Vigna's step-asynchronous SOR
    sup-norm theorem (arXiv:1404.3327) as used by
    :meth:`repro.methods.StepAsyncSOR.guarantee`; the FD Laplacian
    families all satisfy it.
    """
    if np.any(A.diagonal() <= 0):
        return False
    off = A._row_of_nnz != A.indices
    if np.any(A.data[off] > tol):
        return False
    return is_weakly_diagonally_dominant(A, tol=tol)


def is_irreducible(A: CSRMatrix) -> bool:
    """True iff the matrix graph (off-diagonal sparsity) is connected.

    Implemented as a frontier BFS over CSR adjacency — vectorized per level.
    """
    n = A.nrows
    if n <= 1:
        return True
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        starts = A.indptr[frontier]
        counts = A.indptr[frontier + 1] - starts
        if counts.sum() == 0:
            break
        # Gather all neighbor column ids of the frontier rows.
        from repro.matrices.sparse import _concat_ranges, _sorted_unique

        nz = _concat_ranges(starts, counts)
        nbrs = A.indices[nz]
        nbrs = nbrs[~visited[nbrs]]
        visited[nbrs] = True
        frontier = _sorted_unique(nbrs)
    return bool(visited.all())


def symmetric_extreme_eigenvalues(
    A: CSRMatrix, iters: int = 2000, tol: float = 1e-10, seed=0
) -> tuple:
    """Estimate ``(lambda_min, lambda_max)`` of a symmetric matrix.

    Power iteration on A gives the eigenvalue of largest magnitude
    ``lambda_big``; a second power iteration on the shifted matrix
    ``lambda_big * I - A`` (resp. ``A - lambda_small * I``) recovers the other
    end of the spectrum. Deterministic given ``seed``.
    """
    n = A.nrows
    rng = as_rng(seed)

    def _power(mat_apply) -> float:
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = mat_apply(v)
            norm = np.linalg.norm(w)
            if norm == 0:
                return 0.0
            w /= norm
            new_lam = float(w @ mat_apply(w))
            if abs(new_lam - lam) <= tol * max(1.0, abs(new_lam)):
                return new_lam
            lam, v = new_lam, w
        return lam

    lam_big = _power(lambda v: A @ v)  # extreme of largest |.|
    if lam_big >= 0:
        lam_max = lam_big
        lam_min = lam_max - _power(lambda v: lam_max * v - (A @ v))
    else:
        lam_min = lam_big
        lam_max = lam_min + _power(lambda v: (A @ v) - lam_min * v)
    return lam_min, lam_max


def jacobi_spectral_radius(A: CSRMatrix, iters: int = 2000, seed=0) -> float:
    """``rho(G)`` for ``G = I - D^{-1} A``.

    For the paper's setting (symmetric A scaled to unit diagonal) G is
    symmetric and ``rho(G) = max(|1 - lambda_min(A)|, |1 - lambda_max(A)|)``.
    For general A this falls back to power iteration on G itself.
    """
    d = A.diagonal()
    if A.is_symmetric(tol=1e-12) and np.allclose(d, 1.0, atol=1e-9):
        lam_min, lam_max = symmetric_extreme_eigenvalues(A, iters=iters, seed=seed)
        return max(abs(1.0 - lam_min), abs(1.0 - lam_max))
    G = A.jacobi_iteration_matrix()
    rng = as_rng(seed)
    v = rng.standard_normal(A.nrows)
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(iters):
        w = G @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        rho, v = norm, w / norm
    return float(rho)


def chazan_miranker_radius(A: CSRMatrix, iters: int = 2000, seed=0) -> float:
    """``rho(|G|)`` for ``G = I - D^{-1} A`` — the Chazan-Miranker quantity.

    The foundational theorem of asynchronous iterations (cited as [14] in
    the paper): if ``rho(|G|) < 1``, *every* asynchronous execution of the
    method converges, under the standard liveness assumptions. Note that
    ``rho(G) <= rho(|G|)``, so this is a stronger requirement than
    synchronous convergence — the paper's point is that asynchronous Jacobi
    can nevertheless do *better* than synchronous in transient behaviour.

    ``|G|`` is entrywise absolute value and nonnegative, so plain power
    iteration from a positive vector converges to its Perron root.
    """
    d = A.diagonal()
    if np.any(d == 0):
        from repro.util.errors import SingularMatrixError

        raise SingularMatrixError("Chazan-Miranker radius requires a nonzero diagonal")
    G = A.jacobi_iteration_matrix()
    absG = CSRMatrix(G.indptr, G.indices, np.abs(G.data), G.shape)
    rng = as_rng(seed)
    v = rng.uniform(0.5, 1.0, A.nrows)
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(iters):
        w = absG @ v
        norm = float(np.linalg.norm(w))
        if norm == 0:
            return 0.0
        new_v = w / norm
        if abs(norm - rho) <= 1e-12 * max(1.0, norm):
            return norm
        rho, v = norm, new_v
    return float(rho)


def chazan_miranker_converges(A: CSRMatrix, iters: int = 2000, seed=0) -> bool:
    """Whether asynchronous iteration is *guaranteed* to converge
    (``rho(|G|) < 1``)."""
    return chazan_miranker_radius(A, iters=iters, seed=seed) < 1.0


def is_spd(A: CSRMatrix) -> bool:
    """Check symmetric positive definiteness (dense Cholesky; small A only)."""
    if not A.is_symmetric(tol=1e-10):
        return False
    try:
        np.linalg.cholesky(A.to_dense())
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class MatrixReport:
    """Summary of the properties the paper cares about for a test matrix."""

    name: str
    nrows: int
    nnz: int
    symmetric: bool
    wdd: bool
    wdd_fraction: float
    irreducible: bool
    jacobi_rho: float

    @property
    def jacobi_converges(self) -> bool:
        """Whether synchronous Jacobi converges (``rho(G) < 1``)."""
        return self.jacobi_rho < 1.0


def analyze(A: CSRMatrix, name: str = "matrix", rho_iters: int = 2000) -> MatrixReport:
    """Produce a :class:`MatrixReport` for ``A``."""
    return MatrixReport(
        name=name,
        nrows=A.nrows,
        nnz=A.nnz,
        symmetric=A.is_symmetric(tol=1e-10),
        wdd=is_weakly_diagonally_dominant(A),
        wdd_fraction=wdd_fraction(A),
        irreducible=is_irreducible(A),
        jacobi_rho=jacobi_spectral_radius(A, iters=rho_iters),
    )
