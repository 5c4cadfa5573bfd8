"""A from-scratch CSR sparse-matrix type with vectorized kernels.

The simulators and the propagation-matrix model need a handful of sparse
operations (SpMV, row-subset SpMV for relaxing a set of rows, principal
submatrices for the interlacing analysis, graph adjacency for partitioning).
They are implemented here directly on top of NumPy; :mod:`scipy.sparse` is
used only in tests as an independent oracle.

All kernels are fully vectorized — the per-element work happens inside NumPy
(`bincount`, fancy indexing), never in Python loops over nonzeros — following
the "vectorize the hot loop" rule for numerical Python.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ShapeError, SingularMatrixError


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Vectorized ``np.concatenate([np.arange(s, s+c) ...])``.

    Each output entry is its own output position plus its segment's shift
    (the segment's start minus its offset in the output): one ``arange``
    and one ``repeat`` of the per-segment shifts.
    """
    total = int(counts.sum())
    out = np.arange(total, dtype=np.int64)
    if total:
        out += np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return out


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` for an integer array, by one sort and a neighbour
    compare (NumPy 2.4's hash-based ``np.unique`` is several times slower
    on the BFS frontiers this serves)."""
    a = np.sort(a)
    if a.size > 1:
        a = a[np.concatenate(([True], a[1:] != a[:-1]))]
    return a


class ColumnScatterPlan:
    """Precompiled in-place ``r -= A[:, cols] @ dx`` for a fixed column set.

    :meth:`CSRMatrix.subtract_columns_update` recomputes the CSC gather
    (``_concat_ranges`` + touched-row min/max) on every call; for the
    simulators the column set is a fixed block per agent, so the engine
    compiles it once via :meth:`CSRMatrix.column_scatter_plan` and
    :meth:`apply` reduces to one gather, one multiply (both into a reused
    scratch buffer) and one ``bincount`` scatter over the touched row
    span. The per-entry accumulation order is identical to
    ``subtract_columns_update``, so the results are bit-for-bit equal.
    """

    __slots__ = ("base", "span", "local", "vals", "rep_idx", "pairs", "_scratch")

    def __init__(self, base: int, span: int, local, vals, rep_idx, n_cols: int = 0):
        self.base = base
        self.span = span
        self.local = local
        self.vals = vals
        self.rep_idx = rep_idx
        self._scratch = np.empty(vals.size)
        # Single-column plans admit a pure-scalar apply: a CSC column's
        # rows are unique, so each touched entry receives exactly one
        # contribution and :meth:`apply1` needs no accumulation buffer.
        self.pairs = (
            list(zip((base + local).tolist(), vals.tolist()))
            if n_cols == 1
            else None
        )

    def apply(self, r, dx) -> None:
        """``r[base:base+span] -= (A[:, cols] @ dx)`` over the touched span.

        ``dx`` is the dense update for the plan's columns, in plan order.
        """
        if self.vals.size == 0:
            return
        s = self._scratch
        dx.take(self.rep_idx, out=s)
        np.multiply(self.vals, s, out=s)
        r[self.base : self.base + self.span] -= np.bincount(
            self.local, weights=s, minlength=self.span
        )

    def apply1(self, r, d0) -> None:
        """Scalar form of :meth:`apply` for a single-column plan.

        ``d0`` is the (scalar) update of the plan's one column; the result
        is bit-identical to ``apply(r, [d0])`` — untouched rows in the
        span would only ever subtract ``0.0``, an IEEE no-op.
        """
        for i, v in self.pairs:
            r[i] -= v * d0


class CSRMatrix:
    """Compressed-sparse-row matrix (float64 values, int64 indices).

    Parameters
    ----------
    indptr, indices, data
        Standard CSR arrays. Column indices within each row must be sorted
        and unique (enforced on construction).
    shape
        ``(nrows, ncols)``.

    Notes
    -----
    Instances are immutable by convention: kernels never modify the CSR
    arrays, so a matrix can be shared freely between simulated agents.
    """

    __slots__ = (
        "indptr", "indices", "data", "shape", "_row_of_nnz", "_csc", "_matmat_bins",
    )

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if len(shape) != 2:
            raise ShapeError(f"shape must be (nrows, ncols), got {shape}")
        self.shape = (int(shape[0]), int(shape[1]))
        self._validate()
        # Row id of each stored nonzero; used by SpMV via bincount.
        self._row_of_nnz = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )
        # Lazily built CSC (transpose) view; see :meth:`csc_arrays`.
        self._csc = None
        # Per-T flattened bincount bins for :meth:`matmat`, built on demand.
        self._matmat_bins = {}

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def _from_validated(cls, indptr, indices, data, shape, row_of_nnz=None):
        """Trusted construction from already-validated CSR arrays.

        Internal fast path for callers that transform an existing (hence
        valid) matrix — e.g. the per-rank compaction in
        ``DistributedJacobi._compile_ranks`` — where re-running
        :meth:`_validate` and rebuilding ``_row_of_nnz`` per block is pure
        overhead. The arrays are adopted as-is (no copy, no dtype
        coercion): the caller guarantees CSR invariants, int64/float64
        dtypes, and, if ``row_of_nnz`` is given, that it matches
        ``indptr``.
        """
        m = cls.__new__(cls)
        m.indptr = indptr
        m.indices = indices
        m.data = data
        m.shape = (int(shape[0]), int(shape[1]))
        m._row_of_nnz = (
            np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(indptr))
            if row_of_nnz is None
            else row_of_nnz
        )
        m._csc = None
        m._matmat_bins = {}
        return m

    def _validate(self) -> None:
        nrows, ncols = self.shape
        if self.indptr.ndim != 1 or self.indptr.shape[0] != nrows + 1:
            raise ShapeError(
                f"indptr must have length nrows+1={nrows + 1}, got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise ShapeError("indptr must start at 0 and be nondecreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise ShapeError(
                f"indices/data must have length indptr[-1]={nnz}, got "
                f"{self.indices.shape}/{self.data.shape}"
            )
        if nnz and (self.indices.min() < 0 or self.indices.max() >= ncols):
            raise ShapeError("column indices out of range")
        # Sorted, unique columns within each row: diff >= 1 except at row
        # boundaries.
        if nnz > 1:
            d = np.diff(self.indices)
            boundary = np.zeros(nnz - 1, dtype=bool)
            inner_ptr = self.indptr[1:-1]
            boundary[inner_ptr[(inner_ptr > 0) & (inner_ptr < nnz)] - 1] = True
            if np.any((d < 1) & ~boundary):
                raise ShapeError("column indices must be sorted and unique per row")

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "CSRMatrix":
        """Build from COO triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ShapeError("rows, cols, vals must be 1-D arrays of equal length")
        nrows, ncols = int(shape[0]), int(shape[1])
        if rows.size and (rows.min() < 0 or rows.max() >= nrows):
            raise ShapeError("row indices out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= ncols):
            raise ShapeError("column indices out of range")
        # Sort by (row, col) and merge duplicates.
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            new_group = np.concatenate(
                ([True], (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]))
            )
            group_ids = np.cumsum(new_group) - 1
            merged_vals = np.bincount(group_ids, weights=vals)
            rows = rows[new_group]
            cols = cols[new_group]
            vals = merged_vals
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(indptr, cols, vals, (nrows, ncols))

    @classmethod
    def from_dense(cls, dense) -> "CSRMatrix":
        """Build from a 2-D array, dropping exact zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError(f"dense must be 2-D, got {dense.ndim}-D")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The n-by-n identity."""
        idx = np.arange(n, dtype=np.int64)
        return cls(np.arange(n + 1), idx, np.ones(n), (n, n))

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Convert any scipy.sparse matrix."""
        m = mat.tocsr().sorted_indices()
        m.sum_duplicates()
        return cls(m.indptr, m.indices, m.data, m.shape)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array."""
        out = np.zeros(self.shape)
        out[self._row_of_nnz, self.indices] = self.data
        return out

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (used by tests/analysis)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()), shape=self.shape
        )

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape
        )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def nrows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def ncols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    def row_nnz(self) -> np.ndarray:
        """Stored entries per row."""
        return np.diff(self.indptr)

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal as a dense vector (zeros where absent)."""
        diag = np.zeros(min(self.shape))
        on_diag = np.flatnonzero(self._row_of_nnz == self.indices)
        diag[self.indices[on_diag]] = self.data[on_diag]
        return diag

    def transpose(self) -> "CSRMatrix":
        """Return the transpose (CSR of A^T)."""
        return CSRMatrix.from_coo(
            self.indices, self._row_of_nnz, self.data, (self.shape[1], self.shape[0])
        )

    def is_symmetric(self, tol: float = 0.0) -> bool:
        """Check structural+numeric symmetry within ``tol``."""
        if self.shape[0] != self.shape[1]:
            return False
        t = self.transpose()
        if not (
            np.array_equal(t.indptr, self.indptr)
            and np.array_equal(t.indices, self.indices)
        ):
            return False
        return bool(np.all(np.abs(t.data - self.data) <= tol))

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def matvec(self, x) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ShapeError(
                f"x must have shape ({self.shape[1]},), got {x.shape}"
            )
        prods = self.data * x[self.indices]
        return np.bincount(self._row_of_nnz, weights=prods, minlength=self.shape[0])

    def matmat(self, x) -> np.ndarray:
        """Sparse matrix times dense ``(ncols, T)`` block: ``A @ X``.

        One flattened ``bincount`` over ``nnz * T`` products — no Python loop
        over columns. Per output entry the accumulation order is the row's
        nonzero order, exactly as in :meth:`matvec`, so column ``t`` of the
        result is bit-identical to ``matvec(x[:, t])``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ShapeError(
                f"operand must have shape ({self.shape[1]}, T), got {x.shape}"
            )
        ncols_out = x.shape[1]
        if ncols_out == 0:
            return np.zeros((self.shape[0], 0))
        prods = self.data[:, None] * x[self.indices]
        bins = self._matmat_bins.get(ncols_out)
        if bins is None:
            bins = (
                self._row_of_nnz[:, None] * ncols_out + np.arange(ncols_out)
            ).ravel()
            self._matmat_bins[ncols_out] = bins
        flat = np.bincount(
            bins, weights=prods.ravel(), minlength=self.shape[0] * ncols_out
        )
        return flat.reshape(self.shape[0], ncols_out)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return self.matvec(x)
        if x.ndim == 2:
            return self.matmat(x)
        raise ShapeError(f"cannot multiply CSR by {x.ndim}-D operand")

    def row_matvec(self, rows, x) -> np.ndarray:
        """``A[rows, :] @ x`` without materializing the row slice.

        This is the hot kernel of every relaxation: relaxing the set ``rows``
        needs exactly these inner products. ``x`` may also be a 2-D
        ``(ncols, T)`` block of T iterates — one vectorized pass computes all
        T products with the same per-entry accumulation order as the 1-D
        path, so the batched trial engine stays bit-identical to a per-trial
        loop.
        """
        rows = np.asarray(rows, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            if x.shape[0] != self.shape[1]:
                raise ShapeError(
                    f"x must have shape ({self.shape[1]}, T), got {x.shape}"
                )
            nt = x.shape[1]
            if rows.size == 0 or nt == 0:
                return np.zeros((rows.size, nt))
            starts = self.indptr[rows]
            counts = self.indptr[rows + 1] - starts
            nz = _concat_ranges(starts, counts)
            prods = self.data[nz][:, None] * x[self.indices[nz]]
            seg = np.repeat(np.arange(rows.size), counts)
            bins = seg[:, None] * nt + np.arange(nt)
            flat = np.bincount(
                bins.ravel(), weights=prods.ravel(), minlength=rows.size * nt
            )
            return flat.reshape(rows.size, nt)
        if x.shape != (self.shape[1],):
            raise ShapeError(f"x must have shape ({self.shape[1]},), got {x.shape}")
        if rows.size == 0:
            return np.zeros(0)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        nz = _concat_ranges(starts, counts)
        prods = self.data[nz] * x[self.indices[nz]]
        seg = np.repeat(np.arange(rows.size), counts)
        return np.bincount(seg, weights=prods, minlength=rows.size)

    def csc_arrays(self) -> tuple:
        """Cached CSC (transpose) view: ``(colptr, row_indices, values)``.

        Entry ``k`` in ``colptr[j]:colptr[j+1]`` says ``A[row_indices[k], j]
        = values[k]``; within a column the rows are sorted. Built once and
        cached — the matrix is immutable by convention — and used by the
        incremental residual maintenance: changing ``x[cols]`` only touches
        residual entries in the row support of those columns.
        """
        if self._csc is None:
            order = np.argsort(self.indices, kind="stable")
            counts = np.bincount(self.indices, minlength=self.shape[1])
            colptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            self._csc = (colptr, self._row_of_nnz[order], self.data[order])
        return self._csc

    def subtract_columns_update(self, r, cols, dx) -> None:
        """In-place ``r -= A[:, cols] @ dx`` via the cached CSC view.

        The incremental-residual kernel: after ``x[cols] += dx`` the residual
        ``r = b - A x`` changes only on the rows with a nonzero in ``cols``.
        ``dx`` may be 1-D (``r`` a vector) or ``(cols.size, T)`` with ``r`` of
        shape ``(nrows, T)`` for the batched engine; the per-entry
        accumulation order matches the 1-D path column by column.
        """
        cols = np.asarray(cols, dtype=np.int64)
        dx = np.asarray(dx, dtype=np.float64)
        if cols.size == 0:
            return
        colptr, row_ind, vals = self.csc_arrays()
        starts = colptr[cols]
        counts = colptr[cols + 1] - starts
        nz = _concat_ranges(starts, counts)
        if nz.size == 0:
            return
        touched = row_ind[nz]
        # Scatter into the touched row *span* only: for a localized column
        # set (a thread's block, a rank's rows) the span is tiny compared to
        # n, so the update costs O(nnz_touched + span) instead of O(n).
        base = int(touched.min())
        span = int(touched.max()) - base + 1
        local = touched - base
        if dx.ndim == 1:
            contrib = vals[nz] * np.repeat(dx, counts)
            r[base : base + span] -= np.bincount(
                local, weights=contrib, minlength=span
            )
            return
        nt = dx.shape[1]
        if nt == 0:
            return
        contrib = vals[nz][:, None] * np.repeat(dx, counts, axis=0)
        bins = local[:, None] * nt + np.arange(nt)
        flat = np.bincount(bins.ravel(), weights=contrib.ravel(), minlength=span * nt)
        r[base : base + span] -= flat.reshape(span, nt)

    def column_scatter_plan(self, cols) -> ColumnScatterPlan:
        """Compile :meth:`subtract_columns_update` for a fixed column set.

        Returns a :class:`ColumnScatterPlan` whose ``apply(r, dx)`` is
        bit-identical to ``subtract_columns_update(r, cols, dx)`` (1-D
        ``dx``) but skips the per-call gather construction — the hot-path
        variant for the simulators, where each agent updates the same
        column block thousands of times.
        """
        cols = np.asarray(cols, dtype=np.int64)
        empty_i = np.empty(0, dtype=np.int64)
        if cols.size == 0:
            return ColumnScatterPlan(0, 0, empty_i, np.empty(0), empty_i)
        colptr, row_ind, vals = self.csc_arrays()
        starts = colptr[cols]
        counts = colptr[cols + 1] - starts
        nz = _concat_ranges(starts, counts)
        if nz.size == 0:
            return ColumnScatterPlan(0, 0, empty_i, np.empty(0), empty_i)
        touched = row_ind[nz]
        base = int(touched.min())
        span = int(touched.max()) - base + 1
        rep_idx = np.repeat(np.arange(cols.size, dtype=np.int64), counts)
        return ColumnScatterPlan(
            base, span, touched - base, vals[nz], rep_idx, n_cols=int(cols.size)
        )

    def row_slice(self, rows) -> "CSRMatrix":
        """``A[rows, :]`` as a new CSR matrix (rows in the given order)."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        nz = _concat_ranges(starts, counts)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return CSRMatrix(indptr, self.indices[nz], self.data[nz], (rows.size, self.shape[1]))

    def submatrix(self, rows, cols=None) -> "CSRMatrix":
        """``A[rows][:, cols]`` (``cols`` defaults to ``rows``: principal submatrix).

        Used by the interlacing analysis (Section IV-C of the paper), which
        studies principal submatrices of the iteration matrix corresponding
        to the *active* (non-delayed) rows.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = rows if cols is None else np.asarray(cols, dtype=np.int64)
        sliced = self.row_slice(rows)
        # Map old column ids -> new ids (or -1 to drop).
        col_map = np.full(self.shape[1], -1, dtype=np.int64)
        col_map[cols] = np.arange(cols.size)
        new_cols = col_map[sliced.indices]
        keep = new_cols >= 0
        seg = np.repeat(np.arange(rows.size), np.diff(sliced.indptr))[keep]
        return CSRMatrix.from_coo(
            seg, new_cols[keep], sliced.data[keep], (rows.size, cols.size)
        )

    def scale_rows(self, scale) -> "CSRMatrix":
        """Return ``diag(scale) @ A``."""
        scale = np.asarray(scale, dtype=np.float64)
        if scale.shape != (self.shape[0],):
            raise ShapeError(f"scale must have shape ({self.shape[0]},)")
        return CSRMatrix(
            self.indptr, self.indices, self.data * scale[self._row_of_nnz], self.shape
        )

    def scale_columns(self, scale) -> "CSRMatrix":
        """Return ``A @ diag(scale)``."""
        scale = np.asarray(scale, dtype=np.float64)
        if scale.shape != (self.shape[1],):
            raise ShapeError(f"scale must have shape ({self.shape[1]},)")
        return CSRMatrix(self.indptr, self.indices, self.data * scale[self.indices], self.shape)

    def add_scaled_identity(self, alpha: float, beta: float = 1.0) -> "CSRMatrix":
        """Return ``beta * A + alpha * I`` (square matrices only)."""
        if self.shape[0] != self.shape[1]:
            raise ShapeError("add_scaled_identity requires a square matrix")
        n = self.shape[0]
        rows = np.concatenate((self._row_of_nnz, np.arange(n, dtype=np.int64)))
        cols = np.concatenate((self.indices, np.arange(n, dtype=np.int64)))
        vals = np.concatenate((beta * self.data, np.full(n, float(alpha))))
        return CSRMatrix.from_coo(rows, cols, vals, self.shape)

    def off_diagonal_row_sums(self) -> np.ndarray:
        """``sum_{j != i} |a_ij|`` for each row; used by W.D.D. checks."""
        absdata = np.abs(self.data)
        off = self._row_of_nnz != self.indices
        return np.bincount(
            self._row_of_nnz[off], weights=absdata[off], minlength=self.shape[0]
        )

    def neighbors(self, i: int) -> np.ndarray:
        """Column indices of row ``i`` excluding the diagonal.

        This is the matrix-graph adjacency used for partitioning and for
        ghost-layer discovery in the distributed simulator.
        """
        lo, hi = self.indptr[i], self.indptr[i + 1]
        cols = self.indices[lo:hi]
        return cols[cols != i]

    def row_entries(self, i: int):
        """``(columns, values)`` of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    # ------------------------------------------------------------------
    # transformations used by the solvers
    # ------------------------------------------------------------------
    def unit_diagonal_scaled(self):
        """Symmetrically scale to unit diagonal: ``D^{-1/2} A D^{-1/2}``.

        The paper assumes throughout that A is symmetric and "scaled to have
        unit diagonal values", under which the error and residual iteration
        matrices coincide (B = C = G = I - A). Returns ``(scaled, dsqrt)``
        where ``dsqrt`` is the vector of square roots of the original
        diagonal, so solutions can be mapped back:
        ``A x = b  <=>  (SAS)(S^{-1} x) = S b`` with ``S = D^{-1/2}``.
        """
        d = self.diagonal()
        if np.any(d <= 0):
            raise SingularMatrixError(
                "unit-diagonal scaling requires strictly positive diagonal"
            )
        s = 1.0 / np.sqrt(d)
        return self.scale_rows(s).scale_columns(s), np.sqrt(d)

    def jacobi_iteration_matrix(self) -> "CSRMatrix":
        """``G = I - D^{-1} A``: the Jacobi iteration matrix.

        For unit-diagonal A this is simply ``I - A`` with an empty diagonal.
        """
        d = self.diagonal()
        if np.any(d == 0):
            raise SingularMatrixError("Jacobi requires a nonzero diagonal")
        scaled = self.scale_rows(1.0 / d)  # D^{-1} A, unit diagonal
        # G = I - D^{-1}A: negate and knock out the diagonal.
        off = scaled._row_of_nnz != scaled.indices
        rows = scaled._row_of_nnz[off]
        cols = scaled.indices[off]
        vals = -scaled.data[off]
        return CSRMatrix.from_coo(rows, cols, vals, self.shape)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    # Unhashable: instances wrap mutable ndarrays.
    __hash__ = None
