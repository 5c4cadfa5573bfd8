"""Per-rank set-up loops: the oracle for the distributed solver's set-up.

The solver builds its split of ``A`` in whole-matrix passes
(:class:`~repro.partition.subdomain.DomainDecomposition` and
``DistributedJacobi``'s warm plan). These are the per-rank loops those
passes replaced, one iteration per rank over the rank's rows, kept
unchanged as a test-only oracle: a row slice, a column gather and two
``np.unique`` calls per subdomain; a column remap and a ``lexsort`` per
template; one :meth:`~repro.matrices.sparse.CSRMatrix.column_scatter_plan`
per scatter plan; and one native compact row per rank. Every array they
return must equal the solver's, dtype and bytes.
"""

import numpy as np

from repro.matrices.sparse import CSRMatrix, _concat_ranges
from repro.partition.subdomain import Subdomain
from repro.perf.native import ROW_FIELDS, int32_index


def subdomains(A, labels) -> list:
    """Each rank's :class:`Subdomain`, built by scanning all labels per rank."""
    subs = []
    for rank in range(int(labels.max()) + 1):
        rows = np.nonzero(labels == rank)[0].astype(np.int64)
        local = A.row_slice(rows)
        starts = A.indptr[rows]
        counts = A.indptr[rows + 1] - starts
        cols = A.indices[_concat_ranges(starts, counts)]
        external = np.unique(cols[labels[cols] != rank])
        recv_from = {}
        if external.size:
            owners = labels[external]
            for nbr in np.unique(owners):
                recv_from[int(nbr)] = external[owners == nbr]
        subs.append(Subdomain(rank=rank, rows=rows, matrix=local, recv_from=recv_from))
    for sub in subs:
        for nbr, cols in sub.recv_from.items():
            subs[nbr].send_to[sub.rank] = cols
    return subs


def templates(subs, n) -> list:
    """``[rank, rows, local, ghost_cols, send_plan]`` per rank."""
    local_index = np.empty(n, dtype=np.int64)
    for sub in subs:
        local_index[sub.rows] = np.arange(sub.size)
    tmpl = []
    col_map = np.empty(n, dtype=np.int64)
    for sub in subs:
        gcols = sub.ghost_columns
        col_map[sub.rows] = np.arange(sub.size)
        col_map[gcols] = sub.size + np.arange(gcols.size)
        sliced = sub.matrix
        new_cols = col_map[sliced.indices]
        order = np.lexsort((new_cols, sliced._row_of_nnz))
        local = CSRMatrix._from_validated(
            sliced.indptr,
            new_cols[order],
            sliced.data[order],
            (sub.size, sub.size + gcols.size),
            row_of_nnz=sliced._row_of_nnz,
        )
        tmpl.append([sub.rank, sub.rows, local, gcols, []])
    for sub in subs:
        for q, cols in sub.send_to.items():
            slots_q = np.searchsorted(tmpl[q][3], cols)
            tmpl[sub.rank][4].append((q, slots_q, local_index[cols]))
    return tmpl


def scatter_plans(A, subs) -> list:
    """One :meth:`~repro.matrices.sparse.CSRMatrix.column_scatter_plan` per rank."""
    return [A.column_scatter_plan(sub.rows) for sub in subs]


def native_arrays(tmpl, splans, b_loc, dinv_loc) -> tuple:
    """``(keep, tab)``: each rank's compact arrays and its packed row."""
    col = ROW_FIELDS.index
    tab = np.zeros((len(tmpl), len(ROW_FIELDS)), dtype=np.int64)
    cols = [col(f) for f in (
        "rows", "indptr", "indices", "data", "b", "dinv",
        "colptr", "local", "vals", "binc")]
    keep = []
    for (rank, rows, loc, _, _), sp in zip(tmpl, splans):
        colptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(sp.rep_idx, minlength=rows.size), out=colptr[1:])
        arrs = (
            np.ascontiguousarray(rows, dtype=np.int64),
            np.ascontiguousarray(loc.indptr),
            int32_index(loc.indices, loc.ncols, f"rank {rank}'s local columns"),
            np.ascontiguousarray(loc.data),
            b_loc[rank],
            dinv_loc[rank],
            colptr,
            int32_index(sp.local, sp.span, f"rank {rank}'s residual span"),
            sp.vals,
            np.zeros(max(int(sp.span), 1)),
        )
        keep.append(arrs)
        tab[rank, cols] = [a.ctypes.data for a in arrs]
        tab[rank, [col("m"), col("base"), col("span")]] = (
            rows.size, int(sp.base), int(sp.span))
    return keep, tab
