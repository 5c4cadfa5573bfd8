"""General finite-difference stencils: anisotropy, variable coefficients,
and the 9-point discretization.

The plain 5-point Laplacians (:mod:`repro.matrices.laplacian`) cover the
paper's FD matrices exactly; this module provides the standard harder test
problems a downstream user of an (a)synchronous relaxation library reaches
for next:

* :func:`anisotropic_laplacian_2d` — ``-(eps u_xx + u_yy)``: as ``eps``
  shrinks, Jacobi's spectral radius approaches 1 along the strong direction
  and point relaxation degrades — the classical motivation for line/block
  methods, and a stress test for the asynchronous simulators;
* :func:`variable_coefficient_laplacian_2d` — ``-div(a(x, y) grad u)`` with
  a user-supplied (or random lognormal "channelized") coefficient field,
  SPD with widely varying diagonal — exercises the non-unit-diagonal paths;
* :func:`nine_point_laplacian_2d` — the compact 9-point stencil, whose
  denser coupling changes partition ghost layers and coloring (4 colors
  instead of 2).

All generators return symmetric positive (semi)definite matrices with
Dirichlet boundaries; ``scaled=True`` applies the paper's unit-diagonal
convention.
"""

from __future__ import annotations

import numpy as np

from repro.matrices.laplacian import _stencil_csr
from repro.matrices.sparse import CSRMatrix
from repro.util.errors import ShapeError
from repro.util.rng import as_rng
from repro.util.validation import check_positive


def anisotropic_laplacian_2d(
    nx: int, ny: int, eps: float = 1.0, scaled: bool = True
) -> CSRMatrix:
    """5-point discretization of ``-(eps u_xx + u_yy)`` (Dirichlet).

    ``eps = 1`` reproduces :func:`~repro.matrices.laplacian.fd_laplacian_2d`.
    """
    check_positive(eps, "eps")
    legs = {(1, 0): -float(eps), (0, 1): -1.0}
    return _stencil_csr((nx, ny), legs, 2.0 * (eps + 1.0), scaled)


def variable_coefficient_laplacian_2d(
    nx: int,
    ny: int,
    coefficient=None,
    seed=None,
    contrast: float = 1.0,
    scaled: bool = False,
) -> CSRMatrix:
    """Cell-centered FV discretization of ``-div(a grad u)`` (Dirichlet).

    ``coefficient`` is a callable ``a(x, y) -> float`` evaluated at cell
    centers in the unit square; if None, a lognormal random field with
    standard deviation ``contrast`` (in log space) is drawn from ``seed``.
    Face conductances use the harmonic mean of the adjacent cells, giving a
    symmetric M-matrix with positive diagonal.
    """
    if nx < 1 or ny < 1:
        raise ShapeError(f"grid dimensions must be >= 1, got ({nx}, {ny})")
    n = nx * ny
    idx = np.arange(n, dtype=np.int64)
    ix, iy = np.divmod(idx, ny)
    if coefficient is None:
        rng = as_rng(seed)
        a = np.exp(contrast * rng.standard_normal(n))
    else:
        xs = (ix + 0.5) / nx
        ys = (iy + 0.5) / ny
        a = np.array([float(coefficient(x, y)) for x, y in zip(xs, ys)])
        if np.any(a <= 0):
            raise ValueError("coefficient must be strictly positive")

    def harmonic(u, v):
        return 2.0 * a[u] * a[v] / (a[u] + a[v])

    fr, fc, fv = [], [], []
    right = idx[ix < nx - 1]
    fr.append(right)
    fc.append(right + ny)
    fv.append(-harmonic(right, right + ny))
    up = idx[iy < ny - 1]
    fr.append(up)
    fc.append(up + 1)
    fv.append(-harmonic(up, up + 1))
    fr, fc, fv = np.concatenate(fr), np.concatenate(fc), np.concatenate(fv)
    # Diagonal: minus the off-diagonal sums plus the boundary conductances
    # (Dirichlet faces use the cell's own coefficient).
    diag = np.zeros(n)
    np.add.at(diag, fr, -fv)
    np.add.at(diag, fc, -fv)
    boundary_faces = (
        (ix == 0).astype(float)
        + (ix == nx - 1)
        + (iy == 0)
        + (iy == ny - 1)
    )
    diag += boundary_faces * a
    rows = np.concatenate((idx, fr, fc))
    cols = np.concatenate((idx, fc, fr))
    vals = np.concatenate((diag, fv, fv))
    A = CSRMatrix.from_coo(rows, cols, vals, (n, n))
    if scaled:
        A, _ = A.unit_diagonal_scaled()
    return A


def nine_point_laplacian_2d(nx: int, ny: int, scaled: bool = True) -> CSRMatrix:
    """Compact 9-point Laplacian: diagonal 20/6, edges -4/6, corners -1/6.

    Fourth-order accurate for smooth right-hand sides; its diagonal
    couplings make the matrix graph non-bipartite (greedy coloring needs
    4 colors) and thicken partition ghost layers.
    """
    edge, corner = -4.0 / 6.0, -1.0 / 6.0
    legs = {(1, 0): edge, (0, 1): edge, (1, 1): corner, (1, -1): corner}
    return _stencil_csr((nx, ny), legs, 20.0 / 6.0, scaled)
