"""Partitioner invariants: balance, coverage, cut quality, permutations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matrices.laplacian import fd_laplacian_2d
from repro.partition.partitioner import (
    bfs_bisection_partition,
    contiguous_partition,
    edge_cut,
    part_sizes,
    partition_permutation,
)
from repro.util.errors import PartitionError


class TestContiguousPartition:
    def test_balanced_sizes(self):
        labels = contiguous_partition(10, 3)
        np.testing.assert_array_equal(part_sizes(labels, 3), [4, 3, 3])

    def test_exact_division(self):
        labels = contiguous_partition(12, 4)
        np.testing.assert_array_equal(part_sizes(labels, 4), [3, 3, 3, 3])

    def test_labels_nondecreasing(self):
        labels = contiguous_partition(17, 5)
        assert np.all(np.diff(labels) >= 0)

    def test_one_part(self):
        assert np.all(contiguous_partition(7, 1) == 0)

    def test_one_row_per_part(self):
        np.testing.assert_array_equal(contiguous_partition(4, 4), [0, 1, 2, 3])

    @pytest.mark.parametrize("n,parts", [(3, 5), (0, 1), (4, 0)])
    def test_infeasible(self, n, parts):
        with pytest.raises(PartitionError):
            contiguous_partition(n, parts)

    @pytest.mark.parametrize("parts", [0, -1, 2.5, True])
    def test_part_count_must_be_positive_int(self, parts):
        """2.5 used to raise a TypeError from ``np.full``."""
        with pytest.raises(PartitionError, match="parts must be"):
            contiguous_partition(36, parts)

    def test_numpy_integer_part_count_accepted(self):
        np.testing.assert_array_equal(
            contiguous_partition(6, np.int64(3)), contiguous_partition(6, 3)
        )


class TestBFSBisection:
    @pytest.mark.parametrize("parts", [1, 2, 3, 5, 8, 13])
    def test_covers_all_rows_balanced(self, parts):
        A = fd_laplacian_2d(9, 9)
        labels = bfs_bisection_partition(A, parts)
        sizes = part_sizes(labels, parts)
        assert sizes.sum() == 81
        assert sizes.min() >= 81 // parts - 1  # near-balance
        assert sizes.max() <= -(-81 // parts) + 1

    def test_parts_are_connected(self):
        """Graph-grown parts of a connected grid must be connected."""
        from repro.matrices.properties import is_irreducible

        A = fd_laplacian_2d(8, 8)
        labels = bfs_bisection_partition(A, 4)
        for p in range(4):
            rows = np.nonzero(labels == p)[0]
            assert is_irreducible(A.submatrix(rows))

    def test_better_cut_than_random(self, rng):
        A = fd_laplacian_2d(12, 12)
        labels = bfs_bisection_partition(A, 6)
        random_labels = rng.permutation(np.repeat(np.arange(6), 24))
        assert edge_cut(A, labels) < edge_cut(A, random_labels)

    def test_infeasible(self):
        A = fd_laplacian_2d(2, 2)
        with pytest.raises(PartitionError):
            bfs_bisection_partition(A, 5)

    @pytest.mark.parametrize("parts", [0, -1, 2.5, True])
    def test_part_count_must_be_positive_int(self, parts):
        """True used to return one part and 2.5 to raise a TypeError."""
        with pytest.raises(PartitionError, match="parts must be"):
            bfs_bisection_partition(fd_laplacian_2d(6, 6), parts)

    def test_numpy_integer_part_count_accepted(self):
        A = fd_laplacian_2d(6, 6)
        np.testing.assert_array_equal(
            bfs_bisection_partition(A, np.int64(5)), bfs_bisection_partition(A, 5)
        )


class TestEdgeCut:
    def test_zero_for_single_part(self, small_fd):
        labels = np.zeros(small_fd.nrows, dtype=np.int64)
        assert edge_cut(small_fd, labels) == 0

    def test_known_cut_1d_chain(self):
        from repro.matrices.laplacian import fd_laplacian_1d

        A = fd_laplacian_1d(6)
        labels = contiguous_partition(6, 2)
        assert edge_cut(A, labels) == 1  # one chain edge crosses the split

    def test_grid_split_cut(self):
        # 4x4 grid split into two 8-row halves along x: cut = ny = 4.
        A = fd_laplacian_2d(4, 4)
        labels = contiguous_partition(16, 2)
        assert edge_cut(A, labels) == 4


class TestPermutation:
    def test_permutation_makes_parts_contiguous(self, rng):
        labels = rng.integers(0, 4, size=30)
        labels[:4] = [0, 1, 2, 3]  # ensure all parts nonempty
        perm = partition_permutation(labels)
        permuted = labels[perm]
        assert np.all(np.diff(permuted) >= 0)

    def test_stable_within_part(self):
        labels = np.array([1, 0, 1, 0, 1])
        perm = partition_permutation(labels)
        np.testing.assert_array_equal(perm, [1, 3, 0, 2, 4])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(1, 10))
def test_property_contiguous_partition_invariants(n, parts):
    """Sizes differ by at most 1 and every row is assigned exactly once."""
    if parts > n:
        with pytest.raises(PartitionError):
            contiguous_partition(n, parts)
        return
    labels = contiguous_partition(n, parts)
    sizes = part_sizes(labels, parts)
    assert sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    assert labels.min() == 0 and labels.max() == parts - 1
