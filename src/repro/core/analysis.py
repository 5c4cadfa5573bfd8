"""Interlacing and submatrix analysis (Sections IV-C and IV-D).

When rows are delayed, the evolving part of the iteration is governed by the
principal submatrix ``G-tilde`` of the iteration matrix G restricted to the
*active* rows (Eq. 13-16). Two consequences the paper draws, both computed
here:

* **Cauchy interlacing**: the eigenvalues ``mu_i`` of ``G-tilde`` (m active
  rows out of n) satisfy ``lambda_i <= mu_i <= lambda_{i+n-m}`` where
  ``lambda`` are G's eigenvalues — so a few delayed rows cannot make the
  active part converge much slower than full Jacobi.
* **Decoupling**: deleting rows can split the active submatrix graph into
  independent blocks; interlacing applies per block, and with many small
  blocks ``rho`` of each block can be far below ``rho(G-tilde)`` — the
  paper's explanation for *more concurrency => better asynchronous
  convergence* (and convergence where sync Jacobi diverges).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matrices.sparse import CSRMatrix, _concat_ranges, _sorted_unique
from repro.util.errors import ShapeError


def jacobi_iteration_matrix_dense(A: CSRMatrix) -> np.ndarray:
    """Dense ``G = I - D^{-1} A`` (small matrices / analysis only)."""
    return np.eye(A.nrows) - (np.diag(1.0 / A.diagonal()) @ A.to_dense())


def active_submatrix(A: CSRMatrix, active_rows) -> CSRMatrix:
    """Principal submatrix ``A[active][:, active]`` (the G-tilde substrate)."""
    rows = np.asarray(active_rows, dtype=np.int64)
    return A.submatrix(rows)


def submatrix_eigenvalues(A: CSRMatrix, active_rows) -> np.ndarray:
    """Sorted eigenvalues of ``G-tilde = (I - A)[active][:, active]``.

    Assumes the paper's setting: symmetric A with unit diagonal, so
    ``G = I - A`` is symmetric and ``G-tilde`` is its principal submatrix.
    Dense computation — intended for analysis-scale matrices.
    """
    sub = active_submatrix(A, active_rows)
    Gt = np.eye(sub.nrows) - sub.to_dense()
    return np.sort(np.linalg.eigvalsh(Gt))


def full_eigenvalues(A: CSRMatrix) -> np.ndarray:
    """Sorted eigenvalues of ``G = I - A`` (symmetric unit-diagonal A)."""
    if A.nrows != A.ncols:
        raise ShapeError(f"matrix must be square, got {A.shape}")
    G = np.eye(A.nrows) - A.to_dense()
    return np.sort(np.linalg.eigvalsh(G))


@dataclass(frozen=True)
class InterlacingCheck:
    """Result of verifying the interlacing bounds for one active set."""

    n: int
    m: int
    violations: int
    max_violation: float
    mu: np.ndarray
    lam: np.ndarray

    @property
    def holds(self) -> bool:
        """Whether every bound holds to numerical tolerance."""
        return self.violations == 0


def check_interlacing(A: CSRMatrix, active_rows, atol: float = 1e-8) -> InterlacingCheck:
    """Verify ``lambda_i <= mu_i <= lambda_{i+n-m}`` for the active set.

    Follows the paper's indexing: with eigenvalues sorted ascending,
    ``mu_i`` of the m-by-m principal submatrix is bounded by ``lambda_i``
    and ``lambda_{i+n-m}`` of the full matrix.
    """
    lam = full_eigenvalues(A)
    mu = submatrix_eigenvalues(A, active_rows)
    n, m = lam.size, mu.size
    lower = lam[:m]
    upper = lam[n - m :]
    viol_low = np.maximum(lower - mu, 0.0)
    viol_high = np.maximum(mu - upper, 0.0)
    viol = np.maximum(viol_low, viol_high)
    bad = viol > atol
    return InterlacingCheck(
        n=n,
        m=m,
        violations=int(bad.sum()),
        max_violation=float(viol.max()) if viol.size else 0.0,
        mu=mu,
        lam=lam,
    )


def connected_components(A: CSRMatrix) -> list:
    """Connected components of the matrix graph, as arrays of row indices."""
    n = A.nrows
    comp = np.full(n, -1, dtype=np.int64)
    current = 0
    for seed in range(n):
        if comp[seed] >= 0:
            continue
        comp[seed] = current
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            starts = A.indptr[frontier]
            counts = A.indptr[frontier + 1] - starts
            nz = _concat_ranges(starts, counts)
            nbrs = A.indices[nz]
            nbrs = nbrs[comp[nbrs] < 0]
            comp[nbrs] = current
            frontier = _sorted_unique(nbrs)
        current += 1
    return [np.nonzero(comp == c)[0] for c in range(current)]


@dataclass(frozen=True)
class DecouplingReport:
    """Spectral consequences of restricting to an active row set."""

    m: int
    n_blocks: int
    block_sizes: list
    rho_full: float
    rho_submatrix: float
    rho_blocks: list

    @property
    def rho_max_block(self) -> float:
        """Largest block spectral radius (governs the decoupled iteration)."""
        return max(self.rho_blocks) if self.rho_blocks else 0.0


def propagation_norm_history(A: CSRMatrix, schedule, steps: int, omega: float = 1.0):
    """Per-step ``(||G-hat(k)||_inf, ||H-hat(k)||_1)`` along a schedule.

    The transient behaviour of an asynchronous run is governed by the norms
    of the propagation matrices actually applied (Section IV-C): for W.D.D.
    matrices every entry is exactly 1 whenever some row is delayed (Theorem
    1), and dips below 1 only when every row relaxes and the matrix is
    strictly dominant. Useful for checking whether a schedule can let the
    error grow on a *non*-W.D.D. matrix.
    """
    import itertools

    from repro.core.propagation import (
        error_propagation_matrix,
        matrix_norm_1,
        matrix_norm_inf,
        relaxation_mask,
        residual_propagation_matrix,
    )

    out = []
    for step in itertools.islice(schedule.steps(), int(steps)):
        mask = relaxation_mask(A.nrows, step.rows)
        G = error_propagation_matrix(A, mask, omega=omega)
        H = residual_propagation_matrix(A, mask, omega=omega)
        out.append((matrix_norm_inf(G), matrix_norm_1(H)))
    return out


def decoupling_report(A: CSRMatrix, active_rows) -> DecouplingReport:
    """Quantify submatrix decoupling for an active set (Section IV-D).

    Computes ``rho(G)``, ``rho(G-tilde)``, and the spectral radius of each
    decoupled diagonal block of ``G-tilde``, demonstrating the chain
    ``rho(block) <= rho(G-tilde) <= rho(G)`` (for the paper's symmetric
    case, where interlacing gives the second inequality in magnitude).
    """
    rows = np.asarray(active_rows, dtype=np.int64)
    lam = full_eigenvalues(A)
    rho_full = float(np.max(np.abs(lam)))
    sub = active_submatrix(A, rows)
    mu = np.linalg.eigvalsh(np.eye(sub.nrows) - sub.to_dense())
    rho_sub = float(np.max(np.abs(mu))) if mu.size else 0.0
    blocks = connected_components(sub)
    rho_blocks = []
    for blk in blocks:
        blk_mat = sub.submatrix(blk)
        eigs = np.linalg.eigvalsh(np.eye(blk_mat.nrows) - blk_mat.to_dense())
        rho_blocks.append(float(np.max(np.abs(eigs))))
    return DecouplingReport(
        m=rows.size,
        n_blocks=len(blocks),
        block_sizes=[int(b.size) for b in blocks],
        rho_full=rho_full,
        rho_submatrix=rho_sub,
        rho_blocks=rho_blocks,
    )
