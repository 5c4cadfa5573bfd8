"""The trace→reconstruction bridge: check a real run against Theorem 1.

Section IV-A's reconstruction decides which relaxations of a *real*
execution trace can be expressed as propagation matrices
``G-hat(k) = I - D-hat(k) A``. The simulators emit that trace through the
:class:`~repro.observability.tracer.Tracer` (``trace_reads=True``); this
module closes the loop:

1. :func:`to_execution_trace` converts relax events into the
   :class:`~repro.core.reconstruct.ExecutionTrace` the reconstruction
   consumes. Events that carry explicit per-row ``reads`` (the simulators'
   racy reads) are used verbatim; events without reads (the model
   executor, whose relaxations always read the current state) have
   exact-information reads synthesized from the matrix graph.
2. :func:`replay_report` runs the reconstruction, replays the full
   reconstructed application order — propagated parallel steps and
   out-of-band relaxations alike, each one a propagation-matrix
   application — through :class:`~repro.core.model.AsyncJacobiModel` via a
   :class:`~repro.core.schedules.TraceSchedule`, and checks Theorem 1's
   prediction for weakly diagonally dominant systems: the residual 1-norm
   never increases. Violating steps are reported individually.

The check is method-aware (``method=`` mirrors the run flag): scaled
methods keep the Theorem-1 residual 1-norm check, step-async SOR replays
sequentially and checks Vigna's error sup-norm bound on M-matrices, and
momentum methods replay without a per-step assertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import AsyncJacobiModel
from repro.core.reconstruct import (
    ExecutionTrace,
    ReconstructionResult,
    reconstruct_propagation_steps,
)
from repro.core.schedules import TraceSchedule
from repro.matrices.sparse import CSRMatrix
from repro.methods import Guarantee, make_method
from repro.methods.kernels import sor_step_dense
from repro.observability import events as ev
from repro.util.errors import ScheduleError
from repro.util.norms import relative_residual_norm


def relax_events(events) -> list:
    """The relax events of a captured stream, in emission order."""
    return sorted(
        (e for e in events if e.kind == ev.RELAX), key=lambda e: e.seq
    )


def to_execution_trace(events, A: CSRMatrix) -> ExecutionTrace:
    """Convert captured relax events into a Section IV-A execution trace.

    Each relax event contributes one recorded relaxation per row. Events
    carrying explicit ``reads`` (one ``{neighbor: version}`` dict per row,
    as the simulators capture with ``trace_reads=True``) are recorded
    verbatim. Events without reads are treated as exact-information steps:
    every row reads the current version of each matrix-graph neighbor as of
    the start of its step — precisely the model executor's semantics — with
    the version ledger maintained here.

    Raises :class:`~repro.util.errors.ScheduleError` when an event reads a
    version of a row that the stream never relaxed that often: the stream
    lost events (an evicting ring buffer, say), and reconstructing it would
    silently misattribute every later read. A prefix of a complete stream
    stays legal — reads only ever name earlier commits.
    """
    rels = relax_events(events)
    n = A.nrows
    trace = ExecutionTrace(n)
    version = [0] * n
    for e in rels:
        rows = [int(row) for row in e.data["rows"]]
        reads = e.data.get("reads")
        if reads is not None:
            if len(reads) != len(rows):
                raise ScheduleError(
                    f"relax event at t={e.time} has {len(rows)} rows but "
                    f"{len(reads)} read dicts"
                )
            for row, row_reads in zip(rows, reads):
                for j, v in row_reads.items():
                    if v > version[int(j)]:
                        raise ScheduleError(
                            f"relax event seq={e.seq} reads version {v} of row "
                            f"{j}, but only {version[int(j)]} relaxation(s) of "
                            f"row {j} were captured: the event stream is "
                            "truncated"
                        )
                trace.record(row, e.time, row_reads)
        else:
            # Exact information: all rows of the step read the pre-step
            # state of their neighbors.
            for row in rows:
                row_reads = {int(j): version[j] for j in A.neighbors(row)}
                trace.record(row, e.time, row_reads)
        for row in rows:
            version[row] += 1
    return trace


@dataclass
class ReplayReport:
    """Outcome of replaying a captured trace against the model.

    Attributes
    ----------
    n_relaxations
        Row relaxations in the trace.
    n_steps
        Applications in the reconstructed order (parallel steps plus
        out-of-band single relaxations).
    fraction_propagated
        The Figure 2 metric: share of relaxations expressible as
        propagation-matrix steps.
    valid_sequence
        True when every reconstructed application is a well-formed
        propagation step (non-empty, in-range, duplicate-free rows) —
        checked by construction via the schedule/model validation.
    residuals
        Relative residual 1-norm after each replayed application
        (index 0 = initial state).
    errors
        Error sup-norm against the dense solution after each application
        — populated only for the ``"error_sup"`` check (step-async SOR).
    method
        Name of the iteration method the trace was replayed as.
    norm
        Which per-step norm check ran: ``"residual_l1"`` (Theorem 1
        family), ``"error_sup"`` (Vigna's SOR bound) or ``None`` (no
        check — e.g. momentum methods).
    guarantee
        The method's :class:`~repro.methods.Guarantee` on this matrix.
    monotone
        The per-method check: no step increased the checked norm beyond
        floating-point slack (vacuously True when ``norm`` is None).
    violations
        ``(step, before, after)`` for each step that increased the
        checked norm beyond the slack (empty when ``monotone``).
    reconstruction
        The underlying :class:`ReconstructionResult`.
    x
        The replayed final iterate.
    """

    n_relaxations: int = 0
    n_steps: int = 0
    fraction_propagated: float = 1.0
    valid_sequence: bool = True
    residuals: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    method: str = "jacobi"
    norm: str | None = "residual_l1"
    guarantee: Guarantee | None = None
    monotone: bool = True
    violations: list = field(default_factory=list)
    reconstruction: ReconstructionResult = None
    x: np.ndarray = None

    @property
    def verdict(self) -> str:
        """One-line human-readable verdict."""
        if self.norm is None:
            state = f"no per-step norm check for method {self.method!r}"
        elif self.monotone:
            what = (
                "error sup-norm" if self.norm == "error_sup"
                else "residual 1-norm"
            )
            state = f"{what} non-increasing ({self.method} bound holds)"
        else:
            what = (
                "error sup-norm" if self.norm == "error_sup"
                else "residual 1-norm"
            )
            state = f"{len(self.violations)} step(s) increased the {what}"
        return (
            f"{self.n_relaxations} relaxations -> {self.n_steps} propagation "
            f"steps, {self.fraction_propagated:.2%} propagated; {state}"
        )


def replay_report(
    events,
    A: CSRMatrix,
    b,
    x0=None,
    omega: float = 1.0,
    method=None,
    rtol: float = 1e-9,
    atol: float = 1e-13,
) -> ReplayReport:
    """Reconstruct a captured trace and verify its method's bound stepwise.

    ``A``, ``b``, ``x0``, ``omega`` and ``method`` must match the captured
    run (the trace records schedules and reads, not data). The
    non-increase check on each step is ``after <= before * (1 + rtol) +
    atol``: norms are recomputed in floating point, so exact ties wobble
    at machine precision, and once the value is deep below 1 the noise
    floor of one recomputation dominates any ``rtol`` proportional to the
    value itself; ``atol`` absorbs it.

    Which norm is checked follows the method's
    :meth:`~repro.methods.Method.guarantee`:

    * scaled methods (Jacobi, damped Jacobi, Richardson) replay through
      the model and check the Theorem-1 residual 1-norm non-increase —
      for a weakly diagonally dominant ``A`` (generally: when the
      generalized row condition holds) a violation beyond the slack means
      the captured execution cannot be explained by the paper's model
      with the recorded reads;
    * step-async SOR replays each reconstructed application as a
      *sequential* step (rows in recorded order, latest values) and
      checks Vigna's error sup-norm non-increase against the dense
      solution — enforced only when the matrix is M-matrix-like and
      ``omega <= 1`` (the theorem's hypotheses);
    * momentum methods (richardson2) replay for the record but assert
      nothing: momentum legitimately overshoots per-step.
    """
    method_obj = make_method(method, omega=omega)
    guarantee = method_obj.guarantee(A)
    trace = to_execution_trace(events, A)
    rec = reconstruct_propagation_steps(trace)
    report = ReplayReport(
        n_relaxations=len(trace),
        n_steps=len(rec.applied),
        fraction_propagated=rec.fraction_propagated,
        reconstruction=rec,
        method=method_obj.name,
        norm=guarantee.norm,
        guarantee=guarantee,
    )
    if not rec.applied:
        AsyncJacobiModel(A, b, omega=omega, method=method_obj)  # validates A
        x = np.zeros(A.nrows) if x0 is None else np.asarray(x0, dtype=float)
        report.x = x.copy()
        report.residuals = [relative_residual_norm(A, x, b, ord=1)]
        return report

    steps_rows = [rows for rows, _propagated in rec.applied]

    if guarantee.norm == "error_sup":
        # Vigna's bound is on the error, so the replay tracks the iterate
        # against the dense solution (analysis-size systems only — same
        # regime as the reconstruction itself). Each application relaxes
        # its rows sequentially with latest values, matching the
        # simulators' in-block sweeps.
        b_arr = np.asarray(b, dtype=np.float64)
        x = (
            np.zeros(A.nrows)
            if x0 is None
            else np.asarray(x0, dtype=np.float64).copy()
        )
        x_true = np.linalg.solve(A.to_dense(), b_arr)
        scale = method_obj.scale(A)
        report.errors = [float(np.max(np.abs(x - x_true)))]
        report.residuals = [relative_residual_norm(A, x, b_arr, ord=1)]
        try:
            for rows in steps_rows:
                rows_arr = np.asarray(rows, dtype=np.int64)
                if rows_arr.size and (
                    rows_arr.min() < 0 or rows_arr.max() >= A.nrows
                ):
                    raise ScheduleError("replayed rows out of range")
                sor_step_dense(A, b_arr, scale, x, rows_arr)
                report.errors.append(float(np.max(np.abs(x - x_true))))
                report.residuals.append(
                    relative_residual_norm(A, x, b_arr, ord=1)
                )
        except ScheduleError:
            report.valid_sequence = False
            report.monotone = False
            return report
        report.x = x
        if guarantee.holds:
            for k in range(1, len(report.errors)):
                before, after = report.errors[k - 1], report.errors[k]
                if after > before * (1.0 + rtol) + atol:
                    report.violations.append((k, before, after))
            report.monotone = not report.violations
        return report

    # Replay the full reconstructed order (propagated and out-of-band
    # applications alike — each is one propagation-matrix application)
    # through the model under the run's own method.
    steps = [(float(k + 1), rows) for k, rows in enumerate(steps_rows)]
    schedule = TraceSchedule(A.nrows, steps)
    try:
        model = AsyncJacobiModel(A, b, omega=omega, method=method_obj)
        result = model.run(
            schedule,
            x0=x0,
            tol=np.finfo(float).tiny,
            max_steps=len(steps),
            record_every=1,
            residual_norm_ord=1,
            recompute_every=1,
        )
    except ScheduleError:
        report.valid_sequence = False
        report.monotone = False
        return report
    report.residuals = list(result.residual_norms)
    report.x = result.x
    if guarantee.norm == "residual_l1":
        for k in range(1, len(report.residuals)):
            before, after = report.residuals[k - 1], report.residuals[k]
            if after > before * (1.0 + rtol) + atol:
                report.violations.append((k, before, after))
        report.monotone = not report.violations
    return report
