"""Subdomains, neighbor discovery, and ghost layers.

Mirrors Section VI of the paper: each process owns a contiguous block of
rows (its *subdomain*); a process ``p_j`` is a *neighbor* of ``p_i`` if some
row of ``p_i`` has a nonzero whose column lies in ``p_j``'s subdomain.
During a SpMV ``p_i`` needs those columns of ``x``, which ``p_j`` sends —
``p_i`` keeps a local *ghost layer* holding the last values received.

:class:`DomainDecomposition` precomputes, for every pair of neighbors, which
global indices flow between them, so both simulators (and any real backend)
can exchange ghost data without touching the matrix again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.matrices.sparse import CSRMatrix, _concat_ranges
from repro.util.errors import PartitionError


@dataclass(frozen=True)
class Subdomain:
    """Everything one rank needs to relax its rows.

    Attributes
    ----------
    rank
        Owner id.
    rows
        Global row indices owned (sorted).
    matrix
        The local row slice ``A[rows, :]`` (columns still global).
    recv_from
        ``{neighbor rank: global column indices needed from that rank}``.
    send_to
        ``{neighbor rank: global row indices of ours that the neighbor needs}``.
    """

    rank: int
    rows: np.ndarray
    matrix: CSRMatrix
    recv_from: dict = field(default_factory=dict)
    send_to: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of owned rows."""
        return int(self.rows.size)

    @property
    def neighbors(self) -> list:
        """Sorted neighbor ranks (union of send and receive partners)."""
        return sorted(set(self.recv_from) | set(self.send_to))

    @property
    def ghost_columns(self) -> np.ndarray:
        """All global column indices needed from other ranks (sorted)."""
        if not self.recv_from:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(list(self.recv_from.values())))

    def local_nnz(self) -> int:
        """Stored entries in the local row block (compute cost proxy)."""
        return self.matrix.nnz


class DomainDecomposition:
    """Partition of a square matrix into per-rank subdomains with ghost maps.

    Parameters
    ----------
    A
        Global (square) matrix.
    labels
        Partition label per row (``labels[i]`` = owning rank).

    The split is built in whole-matrix passes; every subdomain's arrays
    are slices of these rank-by-rank concatenations (rank ``r`` owns
    ``order[row_ptr[r]:row_ptr[r + 1]]``), which the simulators reuse:
    ``local_index`` (a row's position among its rank's rows); ``A[order]``
    as ``indptr``/``indices``/``data``, each entry's ``local_row`` and
    each rank's ``nnz_ptr`` offsets; the ghost layers ``ghost_cols``
    (ascending per rank, offsets ``ghost_ptr``); and the ``external``
    entries (a ghost column) with their ``external_slot`` in the layer.
    """

    def __init__(self, A: CSRMatrix, labels):
        labels = np.asarray(labels, dtype=np.int64)
        if A.nrows != A.ncols:
            raise PartitionError("domain decomposition requires a square matrix")
        if labels.shape != (A.nrows,):
            raise PartitionError(
                f"labels must have shape ({A.nrows},), got {labels.shape}"
            )
        if labels.min() < 0:
            raise PartitionError("labels must be nonnegative")
        self.matrix = A
        self.labels = labels
        self.n_parts = int(labels.max()) + 1
        counts = np.bincount(labels, minlength=self.n_parts)
        if np.any(counts == 0):
            empty = np.nonzero(counts == 0)[0]
            raise PartitionError(f"parts {empty.tolist()} own no rows")
        self.row_ptr = np.zeros(self.n_parts + 1, dtype=np.int64)
        np.cumsum(counts, out=self.row_ptr[1:])
        self.subdomains = self._build()

    def _build(self) -> list:
        A, labels, parts = self.matrix, self.labels, self.n_parts
        n, row_ptr = A.nrows, self.row_ptr
        # Every rank's rows from one stable sort, and A gathered in that order.
        self.order = order = np.argsort(labels, kind="stable")
        self.local_index = np.empty(n, dtype=np.int64)
        self.local_index[order] = np.arange(n) - np.repeat(row_ptr[:-1], np.diff(row_ptr))
        nz, counts = self.rank_order_entries(A.indptr)
        self.indptr = np.concatenate(([0], np.cumsum(counts)))
        self.nnz_ptr = self.indptr[row_ptr]
        self.indices, self.data = A.indices[nz], A.data[nz]
        del nz
        self.local_row = np.repeat(self.local_index[order], counts)
        # External entries (another rank owns the column), then one sorted,
        # deduplicated pass over their (rank, column) keys: every ghost layer.
        rank_of = np.repeat(np.arange(parts), np.diff(self.nnz_ptr))
        self.external = np.flatnonzero(labels[self.indices] != rank_of)
        ext_rank = rank_of[self.external]
        del rank_of
        ext_keys = ext_rank * n + self.indices[self.external]
        keys = np.sort(ext_keys)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.ghost_ptr = np.searchsorted(keys, np.arange(parts + 1) * n)
        ghost_rank = np.repeat(np.arange(parts), np.diff(self.ghost_ptr))
        self.ghost_cols = keys - ghost_rank * n
        self.external_slot = np.searchsorted(keys, ext_keys) - self.ghost_ptr[ext_rank]
        # Ghost columns grouped by (rank, owner): one receive list per group.
        owner = labels[self.ghost_cols]
        by_owner = np.lexsort((owner, ghost_rank))
        pair = ghost_rank[by_owner] * parts + owner[by_owner]
        first = np.flatnonzero(np.diff(pair, prepend=-1))
        recv_from, send_to = [{} for _ in range(parts)], [{} for _ in range(parts)]
        groups = np.split(self.ghost_cols[by_owner], first[1:])
        receivers, owners = np.divmod(pair[first], parts)
        for p, q, cols in zip(receivers.tolist(), owners.tolist(), groups):
            recv_from[p][q] = send_to[q][p] = cols
        bounds = zip(row_ptr[:-1].tolist(), row_ptr[1:].tolist(),
                     self.nnz_ptr[:-1].tolist(), self.nnz_ptr[1:].tolist())
        return [
            Subdomain(
                rank=r, rows=order[r0:r1], recv_from=recv_from[r], send_to=send_to[r],
                matrix=CSRMatrix._from_validated(
                    self.indptr[r0 : r1 + 1] - lo, self.indices[lo:hi],
                    self.data[lo:hi], (r1 - r0, n), row_of_nnz=self.local_row[lo:hi],
                ),
            )
            for r, (r0, r1, lo, hi) in enumerate(bounds)
        ]

    def rank_order_entries(self, indptr) -> tuple:
        """``(positions, counts)`` of the entries of each row of ``order``,
        for per-row (or per-column) offsets ``indptr``; ``positions`` is a
        full slice (gathers become views) when ``order`` is the identity."""
        starts = indptr[self.order]
        counts = indptr[self.order + 1] - starts
        if np.array_equal(self.order, np.arange(self.order.size)):
            return slice(None), counts
        return _concat_ranges(starts, counts), counts

    def __len__(self) -> int:
        return self.n_parts

    def __getitem__(self, rank: int) -> Subdomain:
        return self.subdomains[rank]

    def __iter__(self):
        return iter(self.subdomains)

    def total_ghost_values(self) -> int:
        """Total ghost-layer size across ranks (communication volume proxy)."""
        return int(sum(s.ghost_columns.size for s in self.subdomains))

    def max_local_nnz(self) -> int:
        """Largest per-rank nnz (the sync-mode critical path per iteration)."""
        return max(s.local_nnz() for s in self.subdomains)
