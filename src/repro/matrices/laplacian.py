"""Finite-difference Laplacian generators (the paper's "FD" matrices).

The paper uses 5-point centered-difference discretizations of the Laplace
equation on rectangular grids with uniform spacing. These matrices are
irreducibly weakly diagonally dominant, SPD, and have Jacobi spectral radius
< 1. The specific test matrices are identified by their (rows, nnz) pairs:

====  ======  ===========  =====================
rows   nnz    grid         where it appears
====  ======  ===========  =====================
  40    174   5 x 8        Fig. 2 (CPU trace)
  68    298   4 x 17       Figs. 2-4 (68 threads)
 272   1294   16 x 17      Fig. 2 (Phi trace)
4624  22848   68 x 68      Figs. 5
====  ======  ===========  =====================

(The grid shapes are recovered from nnz = N + 2 * #edges; each is verified in
the test suite.)
"""

from __future__ import annotations

import math

import numpy as np

from repro.matrices.sparse import CSRMatrix
from repro.util.errors import ShapeError

#: Grid shapes that reproduce the paper's (rows, nnz) counts exactly.
PAPER_FD_GRIDS = {
    40: (5, 8),
    68: (4, 17),
    272: (16, 17),
    4624: (68, 68),
}


def _stencil_csr(dims, legs, diag: float, scaled: bool) -> CSRMatrix:
    """CSR matrix of a symmetric constant-coefficient stencil (Dirichlet).

    Node ``(i_0, ..., i_{d-1})`` of the ``dims`` grid is row
    ``(i_0 * dims[1] + i_1) * dims[2] + ...``; it carries ``diag`` and, for
    each forward offset ``o`` (per-axis steps) in ``legs``, the coupling
    ``legs[o]`` to its on-grid neighbours at ``+o`` and ``-o``. One pass
    writes every row: each stencil slot is a fixed column offset under a
    validity mask, visited in lexicographic offset order, so columns come
    out ascending. ``scaled=True`` multiplies every entry by
    ``1 / sqrt(diag)`` twice, rows then columns, as
    :meth:`CSRMatrix.unit_diagonal_scaled` does.
    """
    dims = tuple(int(k) for k in dims)
    if min(dims) < 1:
        raise ShapeError(f"grid dimensions must be >= 1, got {dims}")
    n, strides = math.prod(dims), [math.prod(dims[a + 1:]) for a in range(len(dims))]
    mirrored = [(tuple(-k for k in o), v) for o, v in legs.items()]
    slots = sorted([((0,) * len(dims), diag), *legs.items(), *mirrored])
    valid = np.ones(dims + (len(slots),), dtype=bool)
    for k, (o, _) in enumerate(slots):
        for axis, step in enumerate(o):
            if step:  # nodes whose neighbour along ``axis`` is off the grid
                cut = [slice(None)] * len(dims) + [k]
                cut[axis] = slice(0, -step) if step < 0 else slice(max(dims[axis] - step, 0), None)
                valid[tuple(cut)] = False
    valid = valid.reshape(n, len(slots))
    offsets = np.array([np.dot(o, strides) for o, _ in slots], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(valid.sum(axis=1))))
    indices = (np.arange(n, dtype=np.int64)[:, None] + offsets)[valid]
    data = np.broadcast_to(np.array([v for _, v in slots]), valid.shape)[valid]
    if scaled:
        s = 1.0 / np.sqrt(np.float64(diag))
        data *= s
        data *= s
    return CSRMatrix(indptr, indices, data, (n, n))


def fd_laplacian_1d(n: int, scaled: bool = True) -> CSRMatrix:
    """Tridiagonal [-1, 2, -1] Laplacian on ``n`` interior points.

    With ``scaled=True`` (the paper's convention) the matrix is symmetrically
    scaled to unit diagonal, i.e. tridiag(-1/2, 1, -1/2).
    """
    if n < 1:
        raise ShapeError(f"n must be >= 1, got {n}")
    return _stencil_csr((n,), {(1,): -1.0}, 2.0, scaled)


def fd_laplacian_2d(nx: int, ny: int, scaled: bool = True) -> CSRMatrix:
    """5-point Laplacian on an ``nx``-by-``ny`` grid (Dirichlet boundary).

    Rows are ordered lexicographically: node ``(ix, iy)`` has index
    ``ix * ny + iy``. The unscaled matrix has 4 on the diagonal and -1 for
    each of the up-to-four grid neighbors; with ``scaled=True`` it is
    symmetrically scaled to unit diagonal (diagonal 1, off-diagonals -1/4).
    """
    return _stencil_csr((nx, ny), {(1, 0): -1.0, (0, 1): -1.0}, 4.0, scaled)


def fd_laplacian_3d(nx: int, ny: int, nz: int, scaled: bool = True) -> CSRMatrix:
    """7-point Laplacian on an ``nx``-by-``ny``-by-``nz`` grid (Dirichlet).

    Used by the apache2 stand-in (a 3-D structured-mesh problem).
    """
    legs = {(1, 0, 0): -1.0, (0, 1, 0): -1.0, (0, 0, 1): -1.0}
    return _stencil_csr((nx, ny, nz), legs, 6.0, scaled)


def paper_fd_matrix(rows: int, scaled: bool = True) -> CSRMatrix:
    """One of the paper's four FD test matrices, by row count.

    Raises ``KeyError`` with the valid sizes if ``rows`` is not one of the
    paper's matrices (40, 68, 272, 4624).
    """
    try:
        nx, ny = PAPER_FD_GRIDS[rows]
    except KeyError:
        raise KeyError(
            f"no paper FD matrix with {rows} rows; valid sizes: "
            f"{sorted(PAPER_FD_GRIDS)}"
        ) from None
    return fd_laplacian_2d(nx, ny, scaled=scaled)


def near_square_grid(n: int) -> tuple:
    """Factor ``n`` as ``nx * ny`` with the aspect ratio closest to 1.

    Falls back to ``(n, 1)`` for primes. Useful for building FD matrices of
    arbitrary size outside the paper's fixed list.
    """
    if n < 1:
        raise ShapeError(f"n must be >= 1, got {n}")
    best = (n, 1)
    for d in range(int(np.sqrt(n)), 0, -1):
        if n % d == 0:
            best = (n // d, d)
            break
    return best
