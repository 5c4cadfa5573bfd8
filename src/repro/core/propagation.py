"""Propagation matrices — the paper's central construct (Section IV-A).

A synchronous stationary method has a fixed iteration matrix; an
asynchronous method does not. The paper instead writes one *parallel step*
of asynchronous Jacobi, in which only the rows in ``Psi(k)`` relax, as

    x(k+1) = (I - D-hat(k) A) x(k) + D-hat(k) b          (Eq. 6)

where ``D-hat(k)`` is the diagonal 0/1 mask of relaxed rows (Eq. 7). The
error and residual then propagate through

    G-hat(k) = I - D-hat(k) A      (error propagation matrix)
    H-hat(k) = I - A D-hat(k)      (residual propagation matrix)   (Eq. 8)

Structurally: a *non*-relaxed row i makes row i of G-hat a unit basis vector,
and column i of H-hat a unit basis vector.

This module builds these matrices explicitly (for analysis on small
problems), applies them matrix-free (for the model executor), and computes
the Theorem 1 quantities: for weakly diagonally dominant A with at least one
delayed row, ``rho(G-hat) = ||G-hat||_inf = 1`` and
``rho(H-hat) = ||H-hat||_1 = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matrices.sparse import CSRMatrix
from repro.util.errors import ScheduleError, ShapeError, SingularMatrixError


def relaxation_mask(n: int, active_rows) -> np.ndarray:
    """Boolean mask (the diagonal of ``D-hat``) from a set of active rows.

    Raises :class:`ScheduleError` on out-of-range or duplicate rows, since a
    row cannot relax twice within one parallel step.
    """
    rows = np.asarray(active_rows, dtype=np.int64)
    if rows.ndim != 1:
        raise ScheduleError(f"active rows must be 1-D, got {rows.ndim}-D")
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ScheduleError(f"active rows out of range [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[rows] = True
    if mask.sum() != rows.size:
        raise ScheduleError("active rows contain duplicates")
    return mask


def _check_mask(A: CSRMatrix, mask) -> np.ndarray:
    if A.nrows != A.ncols:
        raise ShapeError(f"matrix must be square, got {A.shape}")
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (A.nrows,):
        raise ShapeError(f"mask must be a boolean array of shape ({A.nrows},)")
    return mask


def _inv_diagonal(A: CSRMatrix) -> np.ndarray:
    d = A.diagonal()
    if np.any(d == 0):
        raise SingularMatrixError("propagation matrices require a nonzero diagonal")
    return 1.0 / d


def _omega_scale(A: CSRMatrix, omega: float) -> np.ndarray:
    """The (damped) Jacobi scale ``omega / d`` after the range checks."""
    omega = float(omega)
    if not 0 < omega < 2:
        raise ValueError(f"omega must lie in (0, 2), got {omega}")
    return omega * _inv_diagonal(A)


def error_propagation_matrix(A: CSRMatrix, mask, omega: float = 1.0) -> CSRMatrix:
    """``G-hat = I - omega D-hat D^{-1} A`` as an explicit CSR matrix.

    Rows where ``mask`` is False are unit basis vectors; rows where it is
    True are the corresponding rows of the (damped) Jacobi iteration matrix
    ``G = I - omega D^{-1} A``. (For the paper's unit-diagonal A and
    ``omega = 1``, this is ``I - A`` with masked rows.)
    """
    return scaled_error_propagation_matrix(A, mask, _omega_scale(A, omega))


def residual_propagation_matrix(A: CSRMatrix, mask, omega: float = 1.0) -> CSRMatrix:
    """``H-hat = I - omega A D-hat D^{-1}`` as an explicit CSR matrix.

    Columns where ``mask`` is False are unit basis vectors; the rest are
    columns of ``C = I - omega A D^{-1}``.
    """
    return scaled_residual_propagation_matrix(A, mask, _omega_scale(A, omega))


def apply_error_propagation(A: CSRMatrix, mask, e: np.ndarray, omega: float = 1.0) -> np.ndarray:
    """Matrix-free ``G-hat @ e``: only active rows change.

    Equivalent to ``error_propagation_matrix(A, mask, omega) @ e`` but costs
    only O(nnz of the active rows).
    """
    mask = _check_mask(A, mask)
    scale = _omega_scale(A, omega)
    active = np.nonzero(mask)[0]
    out = np.array(e, dtype=np.float64, copy=True)
    out[active] -= scale[active] * A.row_matvec(
        active, np.asarray(e, dtype=np.float64)
    )
    return out


def apply_residual_propagation(A: CSRMatrix, mask, r: np.ndarray, omega: float = 1.0) -> np.ndarray:
    """Matrix-free ``H-hat @ r = r - omega A D^{-1} (D-hat r)``."""
    mask = _check_mask(A, mask)
    scale = _omega_scale(A, omega)
    r = np.asarray(r, dtype=np.float64)
    z = np.where(mask, scale * r, 0.0)
    return r - A.matvec(z)


def matrix_norm_inf(M: CSRMatrix) -> float:
    """Induced infinity norm: max absolute row sum."""
    sums = np.bincount(M._row_of_nnz, weights=np.abs(M.data), minlength=M.nrows)
    return float(sums.max()) if sums.size else 0.0


def matrix_norm_1(M: CSRMatrix) -> float:
    """Induced 1-norm: max absolute column sum."""
    sums = np.bincount(M.indices, weights=np.abs(M.data), minlength=M.ncols)
    return float(sums.max()) if sums.size else 0.0


def spectral_radius_dense(M: CSRMatrix) -> float:
    """Exact spectral radius via dense eigendecomposition (small M only)."""
    return float(np.max(np.abs(np.linalg.eigvals(M.to_dense()))))


@dataclass(frozen=True)
class PropagationReport:
    """The Theorem 1 quantities for one parallel step's mask."""

    n_active: int
    n_delayed: int
    g_norm_inf: float
    h_norm_1: float
    g_spectral_radius: float
    h_spectral_radius: float

    @property
    def theorem1_holds(self) -> bool:
        """Whether all four quantities equal 1 (to 1e-9), as Theorem 1 states."""
        return all(
            abs(v - 1.0) < 1e-9
            for v in (
                self.g_norm_inf,
                self.h_norm_1,
                self.g_spectral_radius,
                self.h_spectral_radius,
            )
        )


def theorem1_report(A: CSRMatrix, mask, dense_radius: bool = True) -> PropagationReport:
    """Compute the Theorem 1 quantities for ``A`` and an activity mask.

    ``dense_radius=False`` skips the O(n^3) exact spectral radii (set them to
    NaN) for matrices too large to densify.
    """
    return scaled_theorem1_report(A, mask, _inv_diagonal(A), dense_radius)


def _check_scale(A: CSRMatrix, scale) -> np.ndarray:
    scale = np.asarray(scale, dtype=np.float64)
    if scale.shape != (A.nrows,):
        raise ShapeError(f"scale must be a vector of shape ({A.nrows},)")
    if np.any(scale < 0):
        raise ValueError("scale entries must be nonnegative")
    return scale


def scaled_error_propagation_matrix(A: CSRMatrix, mask, scale) -> CSRMatrix:
    """``G-hat = I - D-hat S A`` for a per-row scale vector ``S = diag(s)``.

    Generalizes :func:`error_propagation_matrix` from ``s = omega / d`` to
    any nonnegative scale — the parallel-step error propagator of every
    *scaled* method in :mod:`repro.methods` (Jacobi, damped Jacobi,
    Richardson). Pass ``scale = method.scale(A)``.
    """
    mask = _check_mask(A, mask)
    scale = _check_scale(A, scale)
    n = A.nrows
    rows_nz = A._row_of_nnz
    keep = mask[rows_nz]
    r = rows_nz[keep]
    c = A.indices[keep]
    v = -A.data[keep] * scale[r]
    all_rows = np.concatenate((r, np.arange(n, dtype=np.int64)))
    all_cols = np.concatenate((c, np.arange(n, dtype=np.int64)))
    all_vals = np.concatenate((v, np.ones(n)))
    return CSRMatrix.from_coo(all_rows, all_cols, all_vals, (n, n))


def scaled_residual_propagation_matrix(A: CSRMatrix, mask, scale) -> CSRMatrix:
    """``H-hat = I - A D-hat S`` for a per-row scale vector (Eq. 8 analog).

    Columns where ``mask`` is False are unit basis vectors, as in
    :func:`residual_propagation_matrix`; active columns are scaled by the
    method's ``s_j`` instead of ``omega / a_jj``.
    """
    mask = _check_mask(A, mask)
    scale = _check_scale(A, scale)
    n = A.nrows
    cols_nz = A.indices
    keep = mask[cols_nz]
    r = A._row_of_nnz[keep]
    c = cols_nz[keep]
    v = -A.data[keep] * scale[c]
    all_rows = np.concatenate((r, np.arange(n, dtype=np.int64)))
    all_cols = np.concatenate((c, np.arange(n, dtype=np.int64)))
    all_vals = np.concatenate((v, np.ones(n)))
    return CSRMatrix.from_coo(all_rows, all_cols, all_vals, (n, n))


def sequential_propagation_matrix(A: CSRMatrix, rows, scale) -> CSRMatrix:
    """Ordered-product error propagator of a sequential (SOR-like) step.

    Relaxing rows one at a time, each seeing all earlier in-step updates,
    composes single-row propagators ``E_i = I - e_i (s_i a_i)^T`` in
    visit order::

        G-hat = E_{r_m} ... E_{r_2} E_{r_1}

    which is exactly one step-asynchronous SOR parallel step over
    ``rows`` (Vigna, arXiv:1404.3327: the "steps" are the rows relaxed
    with latest values). Built densely — analysis-size matrices only.
    Duplicate rows are allowed (a row may relax twice in one sequential
    step); order matters.
    """
    if A.nrows != A.ncols:
        raise ShapeError(f"matrix must be square, got {A.shape}")
    scale = _check_scale(A, scale)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1:
        raise ScheduleError(f"rows must be 1-D, got {rows.ndim}-D")
    if rows.size and (rows.min() < 0 or rows.max() >= A.nrows):
        raise ScheduleError(f"rows out of range [0, {A.nrows})")
    n = A.nrows
    M = np.eye(n)
    for i in rows:
        i = int(i)
        cols_i, vals_i = A.row_entries(i)
        # (I - e_i v^T) M  =>  row i of M becomes  M[i] - s_i (a_i^T M).
        M[i] -= scale[i] * (vals_i @ M[cols_i])
    return CSRMatrix.from_dense(M)


def second_order_companion_matrix(A: CSRMatrix, mask, scale, beta: float) -> np.ndarray:
    """Dense companion (block) error propagator of a momentum step.

    One parallel step of the second-order (heavy-ball) Richardson
    iteration ``x+ = x + D-hat (S r + beta (x - x_prev))`` propagates the
    stacked error ``(e(k), e(k-1))`` through the ``2n x 2n`` matrix::

        [ I - D-hat S A + beta D-hat     -beta D-hat ]
        [ I                               0          ]

    Synchronous convergence (all rows active every step) is governed by
    its spectral radius; asynchronous steps chain different masks. Dense,
    analysis-size only.
    """
    mask = _check_mask(A, mask)
    scale = _check_scale(A, scale)
    beta = float(beta)
    if not 0 <= beta < 1:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    n = A.nrows
    d_hat = mask.astype(np.float64)
    top_left = np.eye(n) - (d_hat * scale)[:, None] * A.to_dense() + beta * np.diag(
        d_hat
    )
    top_right = -beta * np.diag(d_hat)
    C = np.zeros((2 * n, 2 * n))
    C[:n, :n] = top_left
    C[:n, n:] = top_right
    C[n:, :n] = np.eye(n)
    return C


def scaled_theorem1_report(
    A: CSRMatrix, mask, scale, dense_radius: bool = True
) -> PropagationReport:
    """Theorem 1 quantities for a scaled method's parallel step.

    Same report as :func:`theorem1_report` but with the per-row scale of
    an arbitrary scaled method. The norms equal 1 whenever every active
    row satisfies the generalized row condition
    ``|1 - s_i a_ii| + s_i sum_{j != i} |a_ij| <= 1`` (see
    :func:`repro.methods.scaled_rowsum_condition`) and at least one row
    is delayed.
    """
    mask = _check_mask(A, mask)
    scale = _check_scale(A, scale)
    G = scaled_error_propagation_matrix(A, mask, scale)
    H = scaled_residual_propagation_matrix(A, mask, scale)
    if dense_radius:
        g_rho = spectral_radius_dense(G)
        h_rho = spectral_radius_dense(H)
    else:
        g_rho = h_rho = float("nan")
    return PropagationReport(
        n_active=int(mask.sum()),
        n_delayed=int((~mask).sum()),
        g_norm_inf=matrix_norm_inf(G),
        h_norm_1=matrix_norm_1(H),
        g_spectral_radius=g_rho,
        h_spectral_radius=h_rho,
    )


def two_by_two_propagation(A: CSRMatrix, delayed_row: int) -> tuple:
    """The explicit 2x2 propagation matrices of Eq. 11.

    For a 2x2 system with ``delayed_row`` inactive, returns dense
    ``(G-hat, H-hat)``. Both have a one-dimensional nullspace, which is why
    repeated application changes nothing after the first step — the paper's
    explanation for why no speedup was observed in the 2x2 study it cites.
    """
    if A.shape != (2, 2):
        raise ShapeError(f"two_by_two_propagation requires a 2x2 matrix, got {A.shape}")
    if delayed_row not in (0, 1):
        raise ValueError(f"delayed_row must be 0 or 1, got {delayed_row}")
    mask = np.ones(2, dtype=bool)
    mask[delayed_row] = False
    G = error_propagation_matrix(A, mask).to_dense()
    H = residual_propagation_matrix(A, mask).to_dense()
    return G, H
