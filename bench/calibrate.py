"""The calibration reference ops: fixed work timed around every measured op.

Timings are reported as ``median(op_i / cal_i) * cal_ref_s``, where
``cal_i`` is the mean of a reference op timed immediately before and
after op ``i`` and ``cal_ref_s`` is that reference's time frozen in
``bench/pins.json``. A busy shared machine does not slow every kind of
work alike, so a workload is scaled by the reference most like its own
work:

* :class:`Calibrator` (``"python"``, ~20 ms) mixes pure-Python heap
  push/pop (the event queue) and a small dense NumPy kernel, the work of
  the dispatch-bound simulators and the service;
* :class:`SparseCalibrator` (``"sparse"``, ~30 ms) is a CSR matvec over
  a 10^6-row stencil in NumPy: native, memory-bound gathers and streams,
  the work of ``scale-1e6``. Under neighbour load that op slows about as
  the square root of the Python reference; scaled by this one instead,
  its median over 15 s windows spread 1.7% rather than 5%.

This module must never import ``repro``: the reference has to stay the
same while the code under test changes (``bench/tests`` checks this).
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Heap entries pushed and popped per reference op.
HEAP_ITEMS = 20_000
#: Side of the square matrices multiplied per reference op.
DOT_DIM = 96
#: Dense products per reference op.
DOT_REPS = 240
#: Side of the grid whose 5-point stencil the sparse reference multiplies.
SPARSE_SIDE = 1000
#: Rows per chunk of the sparse product, so its temporaries stay small.
SPARSE_CHUNK = 100_000


class Calibrator:
    """Holds the fixed inputs of the reference op; :meth:`run` times it."""

    #: Key of this reference's frozen time in ``cal_ref_s``.
    name = "python"

    def __init__(self):
        rng = np.random.default_rng(20_180_521)
        self._keys = rng.random(HEAP_ITEMS).tolist()
        self._a = rng.standard_normal((DOT_DIM, DOT_DIM))
        # Entries of variance 1/DOT_DIM keep repeated products near unit
        # scale, so no run drifts into slow denormal arithmetic.
        self._b = rng.standard_normal((DOT_DIM, DOT_DIM)) / np.sqrt(DOT_DIM)

    def op(self) -> float:
        """The reference work; returns a checksum so nothing is skipped."""
        heap = []
        push, pop = heapq.heappush, heapq.heappop
        for i, key in enumerate(self._keys):
            push(heap, (key, i, None))
        acc = 0.0
        while heap:
            acc += pop(heap)[0]
        m = self._a
        for _ in range(DOT_REPS):
            m = np.dot(m, self._b)
        return acc + float(m[0, 0])

    def run(self) -> float:
        """Seconds one reference op takes now."""
        start = time.perf_counter()
        self.op()
        return time.perf_counter() - start


class SparseCalibrator(Calibrator):
    """Reference for native, memory-bound work: a CSR matvec in NumPy.

    The matrix is the 5-point stencil of a ``SPARSE_SIDE`` x
    ``SPARSE_SIDE`` grid (~5x10^6 nonzeros, ~80 MB with ``x``), the size
    of the ``scale-1e6`` problem, so its streams and gathers touch a
    working set like that workload's.
    """

    name = "sparse"

    def __init__(self):
        n = SPARSE_SIDE
        rows = np.arange(n * n)
        cols = np.stack([rows - n, rows - 1, rows, rows + 1, rows + n], axis=1)
        keep = np.stack(
            [rows >= n, rows % n != 0, np.ones(n * n, bool),
             rows % n != n - 1, rows < n * n - n],
            axis=1,
        )
        self._indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        self._indices = cols[keep].astype(np.int32)
        self._data = np.where(cols == rows[:, None], 1.0, -0.25)[keep]
        self._x = np.random.default_rng(20_180_521).standard_normal(n * n)

    def op(self) -> float:
        """One product ``A @ x``, chunk by chunk; returns a checksum."""
        acc = 0.0
        indptr, n_rows = self._indptr, len(self._indptr) - 1
        for lo in range(0, n_rows, SPARSE_CHUNK):
            hi = min(lo + SPARSE_CHUNK, n_rows)
            a, b = indptr[lo], indptr[hi]
            prod = self._data[a:b] * self._x[self._indices[a:b]]
            acc += float(np.add.reduceat(prod, indptr[lo:hi] - a)[0])
        return acc
