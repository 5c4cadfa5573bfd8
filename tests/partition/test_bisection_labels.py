"""Frozen partitioner output: label digests and a pure-Python BFS oracle.

``partition_digests.json`` pins sha256 digests of the labels
:func:`bfs_bisection_partition` and the permutations :func:`rcm_ordering`
return on grids, the Table I stand-ins and a disconnected matrix. Every
distributed figure inherits these labels, so any drift is a behaviour
change. Regenerate (only for a deliberate change) with::

    PYTHONPATH=src python tests/partition/test_bisection_labels.py --write
"""

import hashlib
import json
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matrices.laplacian import fd_laplacian_1d, fd_laplacian_2d, fd_laplacian_3d
from repro.matrices.sparse import CSRMatrix
from repro.matrices.suitesparse import PAPER_PROBLEMS, load_problem
from repro.partition.partitioner import bfs_bisection_partition, rcm_ordering

DIGESTS = Path(__file__).with_name("partition_digests.json")
REGENERATE = "PYTHONPATH=src python tests/partition/test_bisection_labels.py --write"


def _block_diagonal(*blocks):
    """Block-diagonal CSR matrix: a graph with one component per block."""
    rows, cols, vals, off = [], [], [], 0
    for block in blocks:
        coo = block.to_dense()
        r, c = np.nonzero(coo)
        rows.append(r + off)
        cols.append(c + off)
        vals.append(coo[r, c])
        off += block.nrows
    return CSRMatrix.from_coo(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (off, off)
    )


def _shuffled_grid():
    A = fd_laplacian_2d(20, 20)
    return A.submatrix(np.random.default_rng(0).permutation(A.nrows))


MATRICES = {
    "grid63x63": lambda: fd_laplacian_2d(63, 63),
    "grid7x5": lambda: fd_laplacian_2d(7, 5),
    "grid12^3": lambda: fd_laplacian_3d(12, 12, 12),
    "disconnected": lambda: _block_diagonal(
        fd_laplacian_2d(5, 6), CSRMatrix.identity(3), fd_laplacian_1d(9), fd_laplacian_2d(4, 4)
    ),
    "shuffled20x20": _shuffled_grid,
    **{name: (lambda name=name: load_problem(name)) for name in PAPER_PROBLEMS},
}

LABEL_CASES = [
    *(("grid63x63", p) for p in (4, 16, 64, 256)),
    *((name, p) for name in PAPER_PROBLEMS for p in (3, 16, 100)),
    *(("disconnected", p) for p in (1, 2, 5, 7, 58)),
    ("grid12^3", 100),
    ("grid7x5", 35),  # parts == n
]
RCM_CASES = ["grid63x63", "shuffled20x20", "disconnected"]


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<i8").tobytes()).hexdigest()


def _compute():
    cache = {}

    def matrix(name):
        if name not in cache:
            cache[name] = MATRICES[name]()
        return cache[name]

    return {
        "regenerate": REGENERATE,
        "labels": {
            f"{name}/{parts}": _digest(bfs_bisection_partition(matrix(name), parts))
            for name, parts in LABEL_CASES
        },
        "rcm": {name: _digest(rcm_ordering(matrix(name))) for name in RCM_CASES},
    }


@pytest.fixture(scope="module")
def frozen():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name,parts", LABEL_CASES, ids=[f"{n}-{p}" for n, p in LABEL_CASES])
def test_bisection_labels_match_frozen_digest(frozen, name, parts):
    labels = bfs_bisection_partition(MATRICES[name](), parts)
    assert _digest(labels) == frozen["labels"][f"{name}/{parts}"]


@pytest.mark.parametrize("name", RCM_CASES)
def test_rcm_ordering_matches_frozen_digest(frozen, name):
    assert _digest(rcm_ordering(MATRICES[name]())) == frozen["rcm"][name]


def test_digest_file_names_its_regeneration_command(frozen):
    assert frozen["regenerate"] == REGENERATE
    assert set(frozen["labels"]) == {f"{n}/{p}" for n, p in LABEL_CASES}


def _oracle(n, adj, parts):
    """Recursive bisection, one part at a time, with a deque BFS per sweep."""
    labels = [0] * n

    def order_from(nodes, start):
        members, dist, queue = set(nodes), {start: 0}, deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w in members and w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return sorted(nodes, key=lambda v: (dist.get(v, n), v))

    def split(nodes, label0, k):
        if k == 1:
            for v in nodes:
                labels[v] = label0
            return
        far = order_from(nodes, nodes[0])[-1]
        order = order_from(nodes, order_from(nodes, far)[-1])
        k_left = k // 2
        n_left = min(max(len(nodes) * k_left // k, k_left), len(nodes) - (k - k_left))
        split(sorted(order[:n_left]), label0, k_left)
        split(sorted(order[n_left:]), label0 + k_left, k - k_left)

    split(list(range(n)), 0, parts)
    return labels


@st.composite
def _patterns(draw):
    """A random sparse pattern (often disconnected, often non-symmetric)."""
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.03, 0.08, 0.2]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    if draw(st.booleans()):
        mask |= mask.T
    np.fill_diagonal(mask, True)
    parts = draw(st.integers(1, n))
    return CSRMatrix.from_dense(mask.astype(np.float64)), parts


@settings(max_examples=200, deadline=None)
@given(_patterns())
def test_property_bisection_matches_pure_python_oracle(case):
    A, parts = case
    adj = [A.neighbors(i).tolist() for i in range(A.nrows)]
    expected = _oracle(A.nrows, adj, parts)
    np.testing.assert_array_equal(bfs_bisection_partition(A, parts), expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    DIGESTS.write_text(json.dumps(_compute(), indent=1) + "\n")
    print(f"wrote {DIGESTS}")
