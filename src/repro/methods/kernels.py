"""Per-row update kernels shared by every executor.

The scaled ("simultaneous") update needs no kernel — every executor's
historical Jacobi hot path already *is* ``x[rows] += scale[rows] *
r[rows]``. What lives here are the two non-simultaneous shapes:

* sequential (Gauss-Seidel-ordered) block updates for step-async SOR, in
  three flavors matching how each executor tracks the residual:
  in-place on the global iterate (the model executors at
  ``recompute_every=1``, sync sweeps), residual-maintained (the model
  executors at every other cadence), and pending-buffer (the
  shared-memory simulator relaxes into a buffer published later);
* the momentum combination for second-order Richardson, which is simple
  enough that executors inline it — :func:`momentum_dx` is the reference
  used by tests and docs.

All kernels are plain NumPy row loops: sequential updates are inherently
ordered, and the method family's non-scaled members trade the vectorized
fast paths for their convergence properties (see docs/methods.md).
"""

from __future__ import annotations

import numpy as np


def sor_step_dense(A, b, scale, x, rows) -> np.ndarray:
    """Sequential block update in place on ``x``; returns the per-row dx.

    Row ``i`` reads the *current* ``x`` — including the rows of this block
    already updated — so the block is a forward Gauss-Seidel sweep over
    ``rows`` in the given order.
    """
    rows = np.asarray(rows)
    dx = np.empty(rows.size)
    for j in range(rows.size):
        i = int(rows[j])
        cols, vals = A.row_entries(i)
        d = scale[i] * (b[i] - vals @ x[cols])
        x[i] += d
        dx[j] = d
    return dx


def sor_step_incremental(A, scale, x, r, rows) -> np.ndarray:
    """Sequential block update that keeps ``r = b - A x`` maintained.

    Each row consumes the maintained residual directly (``dx_i = s_i *
    r_i``) and scatters its own change through the CSC view before the
    next row reads — a chain of single-row incremental steps, which is
    exactly the sequential sweep.
    """
    rows = np.asarray(rows)
    dx = np.empty(rows.size)
    for j in range(rows.size):
        i = int(rows[j])
        d = scale[i] * r[i]
        x[i] += d
        dx[j] = d
        A.subtract_columns_update(r, rows[j : j + 1], dx[j : j + 1])
    return dx


def sor_block_pending(A, b, scale, x, lo, hi, out) -> None:
    """Sequential update of block ``[lo, hi)`` into ``out`` (len hi-lo).

    For simulators that must not touch the shared iterate before commit:
    reads outside the block come from ``x`` (the committed state the
    relaxing agent sees), reads inside the block come from ``out`` — the
    fresh in-sweep values.
    """
    out[:] = x[lo:hi]
    for i in range(lo, hi):
        cols, vals = A.row_entries(i)
        gathered = x[cols].copy()
        local = (cols >= lo) & (cols < hi)
        if local.any():
            gathered[local] = out[cols[local] - lo]
        out[i - lo] += scale[i] * (b[i] - vals @ gathered)


def momentum_dx(scale, r, x, x_prev, rows, beta: float) -> np.ndarray:
    """Second-order Richardson step on ``rows``; updates ``x_prev`` in place.

    ``dx = scale * r + beta * (x - x_prev)`` evaluated before ``x`` moves;
    the caller applies ``x[rows] += dx``. ``x_prev[rows]`` is refreshed to
    the pre-update ``x[rows]`` (momentum state advances at relax time).
    """
    rows = np.asarray(rows)
    dx = scale[rows] * r[rows] + beta * (x[rows] - x_prev[rows])
    x_prev[rows] = x[rows]
    return dx
