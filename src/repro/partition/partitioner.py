"""Graph partitioning: the METIS substitute.

The paper partitions its distributed test matrices with METIS and assigns
each MPI process a contiguous block of (reordered) rows. METIS is not
available offline, so we provide:

* :func:`contiguous_partition` — split ``range(n)`` into ``parts`` nearly
  equal contiguous blocks (what the shared-memory implementation uses, and
  exactly right for grid-ordered FD matrices);
* :func:`bfs_bisection_partition` — a recursive BFS ("graph growing")
  bisection over the matrix graph, the classic cheap METIS substitute: each
  half is grown breadth-first from a peripheral vertex, yielding connected,
  low-cut parts. The recursion runs level by level: one multi-source BFS
  over the edges inside the current parts bisects every part of a level
  at once;
* :func:`rcm_ordering` — reverse Cuthill-McKee, sharing the same BFS
  distance helper for its pseudo-peripheral start;
* :func:`partition_permutation` — renumber rows so every part is contiguous,
  matching the paper's "each process owns contiguous rows" layout.

Partitions are represented as an int64 label array ``part[i] in [0, parts)``.
"""

from __future__ import annotations

import numpy as np

from repro.matrices.sparse import CSRMatrix, _concat_ranges, _sorted_unique
from repro.util.errors import PartitionError
from repro.util.validation import check_positive_int


def contiguous_partition(n: int, parts: int) -> np.ndarray:
    """Labels for splitting ``range(n)`` into nearly equal contiguous blocks.

    The first ``n % parts`` blocks get one extra row, so block sizes differ
    by at most one.
    """
    parts = check_positive_int(parts, "parts", PartitionError)
    if parts > n:
        raise PartitionError(f"cannot split {n} rows into {parts} parts")
    base, extra = divmod(n, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.repeat(np.arange(parts, dtype=np.int64), sizes)


def part_sizes(labels: np.ndarray, parts: int) -> np.ndarray:
    """Rows per part for a label array."""
    return np.bincount(labels, minlength=parts)


def _bfs_distances(indptr: np.ndarray, indices: np.ndarray, sources) -> np.ndarray:
    """Hop distances from the nearest of ``sources`` over a CSR graph (-1: unreached).

    One NumPy frontier step per BFS level advances every source at once, so
    sources in disconnected pieces of the graph share the same steps.
    """
    dist = np.full(indptr.size - 1, -1, dtype=np.int64)
    frontier = np.asarray(sources, dtype=np.int64)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        starts = indptr[frontier]
        nbrs = indices[_concat_ranges(starts, indptr[frontier + 1] - starts)]
        nbrs = nbrs[dist[nbrs] < 0]
        dist[nbrs] = level
        frontier = _sorted_unique(nbrs)
    return dist


def bfs_bisection_partition(A: CSRMatrix, parts: int) -> np.ndarray:
    """Recursive BFS bisection of the matrix graph into ``parts`` parts.

    Each part still to be cut into ``k > 1`` parts is ordered breadth-first
    from a pseudo-peripheral vertex (the far end of two BFS sweeps started
    at its lowest-index row) and split after ``size * (k // 2) // k`` rows
    (clamped so each side keeps a row per part), producing connected,
    roughly balanced parts with modest edge cuts — the behaviour the paper
    relies on METIS for. Rows at equal distance are ordered by index, and
    rows the sweep cannot reach go last, in index order. ``parts`` need not
    be a power of two.

    The bisection is level-synchronous: the edges inside every part of a
    level form one graph with no edge between parts, so one multi-source
    BFS sweeps all of that level's parts together.
    """
    parts = check_positive_int(parts, "parts", PartitionError)
    n = A.nrows
    if parts > n:
        raise PartitionError(f"cannot split {n} rows into {parts} parts")
    # A part is named by its first label; k[label] parts remain to cut from it.
    labels = np.zeros(n, dtype=np.int64)
    k = np.zeros(parts, dtype=np.int64)
    k[0] = parts
    rows, cols = A._row_of_nnz, A.indices
    while True:
        cutting = k[labels] > 1
        nodes = np.flatnonzero(cutting)
        if not nodes.size:
            return labels
        keep = cutting[rows] & (labels[rows] == labels[cols])
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
        indices = cols[keep]
        group = labels[nodes]
        heads, first, sizes = np.unique(group, return_index=True, return_counts=True)
        last = np.cumsum(sizes) - 1
        # Three sweeps: from each part's lowest index, from the farthest row
        # found, then from the pseudo-peripheral row; order by (part, dist, index).
        start = nodes[first]
        for _ in range(3):
            dist = _bfs_distances(indptr, indices, start)[nodes]
            dist[dist < 0] = n
            order = nodes[np.argsort(group * (n + 1) + dist, kind="stable")]
            start = order[last]
        kp = k[heads]
        k_left = kp // 2
        n_left = np.minimum(np.maximum(sizes * k_left // kp, k_left), sizes - (kp - k_left))
        # Rows past n_left in their part's order take the right half's labels.
        rank = np.arange(nodes.size) - np.repeat(last + 1 - sizes, sizes)
        right = rank >= np.repeat(n_left, sizes)
        labels[order[right]] += np.repeat(k_left, sizes)[right]
        k[heads + k_left] = kp - k_left
        k[heads] = k_left


def rcm_ordering(A: CSRMatrix) -> np.ndarray:
    """Reverse Cuthill-McKee ordering of the matrix graph.

    Returns a permutation ``perm`` (apply with ``A.submatrix(perm)``) that
    clusters each row's neighbors nearby, shrinking the bandwidth. Useful
    before :func:`contiguous_partition`: contiguous blocks of an
    RCM-reordered matrix have small ghost layers, approximating a graph
    partition without the bisection machinery — handy for the shared-memory
    simulator, whose threads own contiguous blocks by construction.

    Handles disconnected graphs by restarting from the lowest-degree
    unvisited vertex.
    """
    n = A.nrows
    degree = A.row_nnz() - (A.diagonal() != 0)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    while pos < n:
        unvisited = np.nonzero(~visited)[0]
        start = int(unvisited[np.argmin(degree[unvisited])])
        # Pseudo-peripheral refinement: restart from the unvisited vertex
        # farthest from ``start`` (highest index among ties; unreached
        # vertices count as farthest). Visited vertices are closed under
        # neighbors, so a sweep over the whole graph gives the same distances
        # as one over the unvisited subgraph.
        dist = _bfs_distances(A.indptr, A.indices, [start])[unvisited]
        dist[dist < 0] = n
        queue = [int(unvisited[np.flatnonzero(dist == dist.max())[-1]])]
        visited[queue[0]] = True
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order[pos] = v
            pos += 1
            nbrs = A.neighbors(v)
            nbrs = nbrs[~visited[nbrs]]
            visited[nbrs] = True
            # Cuthill-McKee visits neighbors in increasing degree order.
            queue.extend(nbrs[np.argsort(degree[nbrs], kind="stable")].tolist())
    return order[::-1].copy()


def bandwidth(A: CSRMatrix) -> int:
    """Maximum ``|i - j|`` over stored entries (0 for diagonal matrices)."""
    if A.nnz == 0:
        return 0
    return int(np.max(np.abs(A._row_of_nnz - A.indices)))


def partition_permutation(labels: np.ndarray) -> np.ndarray:
    """Permutation ``perm`` making parts contiguous: new row k = old ``perm[k]``.

    A stable sort by label, so row order within a part is preserved. Apply
    with ``A.submatrix(perm)``; the permuted matrix then has part ``p``
    owning a contiguous row range, as the paper's distributed layout assumes.
    """
    return np.argsort(labels, kind="stable").astype(np.int64)


def edge_cut(A: CSRMatrix, labels: np.ndarray) -> int:
    """Number of (undirected) matrix-graph edges crossing part boundaries."""
    rows = A._row_of_nnz
    cols = A.indices
    off = rows != cols
    crossing = labels[rows[off]] != labels[cols[off]]
    # Each undirected edge appears twice in a symmetric matrix.
    return int(np.count_nonzero(crossing) // 2)
