"""Figure 2: fraction of propagated relaxations vs thread count.

The paper records asynchronous OpenMP relaxation histories — which version
of each neighbor every relaxation read — and asks how many relaxations can
be expressed as applications of propagation matrices (Section IV-A). It
reports the propagated fraction for two platforms:

* CPU panel: FD matrix with 40 rows / 174 nonzeros, 5-40 threads;
* Phi panel: FD matrix with 272 rows / 1294 nonzeros, 17-272 threads;

with fractions between ~0.8 (worst) and ~0.99 (best), increasing with
thread count.

Here the traces come from the shared-memory simulator using an
*instrumented* machine profile: the paper's tracing runs print every read
set, so the per-iteration overhead dwarfs the relaxation compute of these
tiny (cache-hot) matrices. That small read-to-write duty cycle is what
keeps most relaxations expressible. The read sets are captured by a
:class:`~repro.observability.Tracer` with ``trace_reads=True`` and turned
into the Section IV-A trace by
:func:`~repro.observability.replay.to_execution_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.reconstruct import reconstruct_propagation_steps
from repro.experiments.report import format_table
from repro.matrices.laplacian import paper_fd_matrix
from repro.observability import Tracer
from repro.observability.replay import to_execution_trace
from repro.runtime.machine import CPU20, KNL, MachineModel
from repro.runtime.shared import SharedMemoryJacobi
from repro.util.rng import as_rng

#: Thread counts used in the paper's two panels.
CPU_THREADS = (5, 10, 20, 40)
PHI_THREADS = (17, 34, 68, 136, 272)


def instrumented(machine: MachineModel) -> MachineModel:
    """The tracing-run profile: cache-hot compute, heavy per-iteration I/O."""
    return replace(
        machine,
        time_per_nnz=5e-9,
        time_per_row=10e-9,
        iteration_overhead=30e-6,
    )


@dataclass
class Fig2Point:
    """One (platform, thread count) measurement."""

    platform: str
    n_threads: int
    fraction_propagated: float
    total_relaxations: int


def run(iterations: int = 25, seed: int = 21) -> list:
    """Generate traces and reconstruct propagation steps for both panels."""
    rng = as_rng(seed)
    points = []
    for platform, machine, matrix_rows, thread_counts in (
        ("CPU", instrumented(CPU20), 40, CPU_THREADS),
        ("Phi", instrumented(KNL), 272, PHI_THREADS),
    ):
        A = paper_fd_matrix(matrix_rows)
        b = rng.uniform(-1, 1, matrix_rows)
        x0 = rng.uniform(-1, 1, matrix_rows)
        for n_threads in thread_counts:
            sim = SharedMemoryJacobi(A, b, n_threads=n_threads, machine=machine, seed=seed)
            tracer = Tracer(trace_reads=True)
            sim.run_async(x0=x0, tol=1e-12, max_iterations=iterations, tracer=tracer)
            rec = reconstruct_propagation_steps(to_execution_trace(tracer.events(), A))
            points.append(
                Fig2Point(
                    platform=platform,
                    n_threads=n_threads,
                    fraction_propagated=rec.fraction_propagated,
                    total_relaxations=rec.total,
                )
            )
    return points


def format_report(points: list) -> str:
    """Figure 2's two curves as a table."""
    table = format_table(
        ["platform", "threads", "fraction propagated", "relaxations"],
        [
            (p.platform, p.n_threads, p.fraction_propagated, p.total_relaxations)
            for p in points
        ],
    )
    return (
        "Figure 2: fraction of propagated relaxations vs thread count\n"
        "(paper: 0.8 worst case, 0.99 best, increasing with threads)\n" + table
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(format_report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
