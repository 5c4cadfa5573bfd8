"""Paper-scale Figure-3-style sweep: async vs sync Jacobi at 10^6 rows.

The paper's headline async-over-sync comparisons run on paper-scale
problems that the seed deliberately shrank. This sweep restores that
regime on the distributed simulator: a 1000x1000 five-point stencil
(10^6 rows, ~5e6 nonzeros) across 256 ranks, with one straggler rank
sleeping a constant ``delta`` per iteration exactly as Figure 3 delays
one row owner. Synchronous Jacobi pays the sleep at every barrier;
asynchronous Jacobi lets the other 255 ranks run ahead, so the speedup
grows with the delay until staleness limits convergence — the Figure 3
shape, three orders of magnitude above the 68-row original.

The async runs are plain, so they take the distributed simulator's block
loop: one event per whole-rank relax and commit, mailbox delivery, and
the compiled kernels whenever the library loads (NumPy otherwise, with
the same bits) — which is what makes a 10^6-row sweep a
minutes-not-hours computation (see docs/performance.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.experiments.report import format_table
from repro.matrices.laplacian import fd_laplacian_2d
from repro.runtime.delays import NO_DELAY, ConstantDelay
from repro.runtime.distributed import DistributedJacobi
from repro.util.rng import as_rng

#: Injected per-iteration sleeps for the straggler rank (milliseconds).
#: The zero point anchors the no-delay speedup; the tail shows the
#: Figure 3 plateau without paying for a dense sweep at this scale.
DELAYS_MS = (0.0, 2.0, 10.0)

GRID = (1000, 1000)
N_RANKS = 256
#: Convergence target: first sync residual divided by this factor.
TOL_REDUCTION = 10.0


@dataclass
class ScalePoint:
    """One delay's paper-scale measurement."""

    n: int
    n_ranks: int
    delay_ms: float
    speedup: float  # sync time-to-tol / async time-to-tol (simulated)
    sync_time: float  # simulated seconds
    async_time: float  # simulated seconds
    wall_seconds: float  # wall-clock cost of the sync+async pair
    commit_rate: float  # async block commits per wall second
    matrix: str = ""  # Table I problem name when --matrix is used
    source: str = ""  # "suitesparse" (real file) or "stand-in"


def run(
    grid=GRID,
    n_ranks: int = N_RANKS,
    delays_ms=DELAYS_MS,
    tol_reduction: float = TOL_REDUCTION,
    seed: int = 1,
    max_iterations: int = 500,
    matrix: str | None = None,
) -> list:
    """The sweep. Returns one :class:`ScalePoint` per delay.

    ``grid`` may be shrunk (e.g. ``(100, 100)``) for smoke runs; the
    default is the paper-scale 10^6-row stencil, sized to finish in a
    few minutes on one core. ``matrix`` selects a Table I problem
    instead of the stencil (``python -m repro scale --matrix thermal2``):
    the real SuiteSparse file is read when ``$REPRO_SUITESPARSE_DIR``
    holds it, the verified synthetic stand-in is built otherwise (see
    :func:`repro.matrices.suitesparse.load_real`).
    """
    rng = as_rng(seed)
    matrix_name = source = ""
    if matrix is not None:
        from repro.matrices.suitesparse import load_real

        A, info = load_real(matrix, seed=seed)
        matrix_name, source = info["name"], info["source"]
    else:
        A = fd_laplacian_2d(*grid)
    n = A.shape[0]
    b = rng.uniform(-1, 1, n)
    delayed_rank = n_ranks // 2
    points = []
    # Every point shares one solver's warm plan (per-rank tables, scatter
    # plans, native layouts): it depends on (A, b, partition), not on the
    # delay, so only the first point pays for it.
    base = DistributedJacobi(
        A, b, n_ranks=n_ranks, partition="contiguous", seed=seed
    )
    for delay_ms in delays_ms:
        delay = (
            ConstantDelay({delayed_rank: delay_ms * 1e-3})
            if delay_ms
            else NO_DELAY
        )
        sim = base.with_delay(delay)
        t0 = time.perf_counter()
        probe = sim.run_sync(max_iterations=1)
        tol = probe.residual_norms[0] / tol_reduction
        rs = sim.run_sync(tol=tol, max_iterations=max_iterations)
        ra = sim.run_async(
            tol=tol,
            max_iterations=max_iterations,
            observe_every=n_ranks,
        )
        wall = time.perf_counter() - t0
        st = rs.time_to_tolerance(tol)
        at = ra.time_to_tolerance(tol)
        commits = int(np.sum(ra.iterations))
        points.append(
            ScalePoint(
                n=n,
                n_ranks=n_ranks,
                delay_ms=float(delay_ms),
                speedup=st / at if at > 0 else float("nan"),
                sync_time=st,
                async_time=at,
                wall_seconds=wall,
                commit_rate=commits / wall if wall > 0 else float("nan"),
                matrix=matrix_name,
                source=source,
            )
        )
    return points


def format_report(points: list) -> str:
    """The sweep as a speedup table plus a wall-clock footer."""
    if not points:
        return "scale: no points"
    head = points[0]
    problem = (
        f"{head.matrix} ({head.source}), " if head.matrix else ""
    )
    out = [
        f"Paper-scale Figure-3-style sweep: {problem}n={head.n:,} rows, "
        f"{head.n_ranks} ranks, one straggler rank"
    ]
    out.append(
        format_table(
            ["delay (ms)", "speedup", "sync time", "async time",
             "wall (s)", "commits/s"],
            [
                (p.delay_ms, p.speedup, p.sync_time, p.async_time,
                 p.wall_seconds, p.commit_rate)
                for p in points
            ],
        )
    )
    total = sum(p.wall_seconds for p in points)
    out.append(f"total sweep wall time: {total:.1f}s")
    return "\n\n".join(out)


def main() -> None:  # pragma: no cover - CLI convenience
    print(format_report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
