"""Iteration-method claims: async Richardson and step-async SOR headlines.

``python -m repro methods`` reproduces one headline claim from each of the
two papers behind the pluggable method family (:mod:`repro.methods`):

* **Asynchronous Richardson** (Chow, Frommer, Szyld — arXiv:2009.02015).
  Richardson's method is Jacobi without the diagonal scaling: on a
  unit-diagonal system the two coincide, so asynchronous Richardson
  inherits asynchronous Jacobi's behavior wholesale. The experiment checks
  this *bitwise* on the shared-memory simulator (same seed, method
  ``richardson(alpha=1)`` vs ``jacobi`` on the diagonally pre-scaled
  Laplacian), then the classical sharp rate: synchronous Richardson at the
  optimal ``alpha* = 2/(lambda_min + lambda_max)`` contracts per sweep at
  ``(kappa - 1)/(kappa + 1)``, and *diverges* for any ``alpha`` outside
  the spectral window ``(0, 2/lambda_max)``.

* **Step-asynchronous SOR** (Vigna — arXiv:1404.3327). For an M-matrix
  and ``omega <= 1``, step-asynchronous SOR's error sup-norm never
  increases, no matter how stale or interleaved the updates. The
  experiment traces a distributed run with an eight-fold straggler rank,
  replays the captured schedule through the method-aware bridge
  (:func:`repro.observability.replay.replay_report`) and checks the
  sup-norm against the dense solution after every reconstructed step.

Each claim prints its measured numbers next to the paper's prediction and
a PASS/FAIL verdict; the test suite asserts every claim passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import AsyncJacobiModel
from repro.core.schedules import SynchronousSchedule
from repro.experiments.report import format_table
from repro.matrices.laplacian import fd_laplacian_2d
from repro.matrices.properties import is_m_matrix_like
from repro.matrices.sparse import CSRMatrix
from repro.methods import Richardson, StepAsyncSOR
from repro.observability import Tracer
from repro.observability.replay import replay_report
from repro.runtime.delays import StragglerDelay
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi

#: Grid for the synchronous-rate and window claims (SPD 2-D Laplacian).
RATE_GRID = (12, 12)
#: Grid for the bitwise Richardson==Jacobi and SOR sup-norm claims.
SIM_GRID = (8, 8)
N_THREADS = 4
N_RANKS = 4
SEED = 2015  # arXiv:2009.02015's year, and a fixed simulator seed
#: Sweeps used to measure the asymptotic contraction rate (tail window).
RATE_STEPS = 400
RATE_TAIL = 150
#: SOR relaxation parameter — inside Vigna's ``omega <= 1`` hypothesis.
SOR_OMEGA = 0.9


@dataclass
class MethodClaim:
    """One reproduced claim: what the paper predicts vs what we measured."""

    name: str
    source: str
    statement: str
    predicted: float
    measured: float
    passed: bool
    detail: str = ""
    rows: list = field(default_factory=list)


def _unit_diagonal(A: CSRMatrix) -> tuple:
    """Diagonally pre-scale ``A x = b`` so the system has unit diagonal."""
    d = A.diagonal()
    data = A.data / d[A._row_of_nnz]
    return (
        CSRMatrix(A.indptr.copy(), A.indices.copy(), data, A.shape),
        1.0 / d,
    )


def _sync_rate(A: CSRMatrix, alpha: float, steps: int, tail: int) -> float:
    """Observed per-sweep contraction of synchronous Richardson."""
    b = np.zeros(A.nrows)
    rng = np.random.default_rng(SEED)
    x0 = rng.standard_normal(A.nrows)
    model = AsyncJacobiModel(A, b, method=Richardson(alpha=alpha))
    result = model.run(
        SynchronousSchedule(A.nrows),
        x0=x0,
        tol=np.finfo(float).tiny,
        max_steps=steps,
        residual_norm_ord=2,
        recompute_every=1,
    )
    res = np.asarray(result.residual_norms)
    k0 = len(res) - 1 - tail
    return float((res[-1] / res[k0]) ** (1.0 / tail))


def richardson_identity_claim() -> MethodClaim:
    """Async Richardson(alpha=1) == async Jacobi on a unit-diagonal system."""
    A = fd_laplacian_2d(*SIM_GRID)
    Ahat, dinv = _unit_diagonal(A)
    b = dinv * np.ones(A.nrows)

    finals = []
    histories = []
    for method in ("jacobi", {"kind": "richardson", "alpha": 1.0}):
        sim = SharedMemoryJacobi(
            Ahat, b, n_threads=N_THREADS, seed=SEED, method=method
        )
        result = sim.run_async(tol=1e-10, max_iterations=400)
        finals.append(result.x)
        histories.append(np.asarray(result.residual_norms))
    same_x = bool(np.array_equal(finals[0], finals[1]))
    same_hist = bool(np.array_equal(histories[0], histories[1]))
    max_diff = float(np.max(np.abs(finals[0] - finals[1])))
    return MethodClaim(
        name="richardson==jacobi",
        source="arXiv:2009.02015",
        statement=(
            "async Richardson (alpha=1) is bitwise async Jacobi on a "
            "unit-diagonal system"
        ),
        predicted=0.0,
        measured=max_diff,
        passed=same_x and same_hist,
        detail=(
            f"final iterates {'identical' if same_x else 'DIFFER'}, "
            f"residual histories {'identical' if same_hist else 'DIFFER'} "
            f"({len(histories[0])} observations, max |dx| = {max_diff:.1e})"
        ),
    )


def richardson_rate_claim() -> MethodClaim:
    """Optimal synchronous rate (kappa-1)/(kappa+1), divergence outside."""
    A = fd_laplacian_2d(*RATE_GRID)
    lam_lo, lam_hi = Richardson.spectral_window(A)
    alpha_star = Richardson.optimal_alpha(A)
    predicted = Richardson.optimal_rate(A)
    observed = _sync_rate(A, alpha_star, RATE_STEPS, RATE_TAIL)
    rate_ok = abs(observed - predicted) <= 0.02 * predicted

    alpha_bad = 1.1 * lam_hi  # past the window's upper edge 2/lambda_max
    bad_rate = _sync_rate(A, alpha_bad, 100, 50)
    diverged = bad_rate > 1.0
    # rho(I - alpha A) = |1 - alpha*lambda_max| once alpha leaves the window.
    bad_predicted = abs(1.0 - alpha_bad * (2.0 / lam_hi))

    rows = [
        ("alpha* = 2/(l_min+l_max)", alpha_star, predicted, observed),
        ("1.1 * window edge", alpha_bad, bad_predicted, bad_rate),
    ]
    return MethodClaim(
        name="richardson-rate",
        source="arXiv:2009.02015",
        statement=(
            "synchronous Richardson contracts at (kappa-1)/(kappa+1) at "
            "the optimal alpha and diverges outside (0, 2/lambda_max)"
        ),
        predicted=predicted,
        measured=observed,
        passed=rate_ok and diverged,
        detail=(
            f"window (0, {lam_hi:.4f}); observed/predicted rate = "
            f"{observed / predicted:.4f}; alpha={alpha_bad:.3f} "
            f"{'diverges' if diverged else 'FAILS TO DIVERGE'}"
        ),
        rows=rows,
    )


def sor_supnorm_claim() -> MethodClaim:
    """Vigna: error sup-norm never increases (M-matrix, omega <= 1)."""
    A = fd_laplacian_2d(*SIM_GRID)
    b = np.ones(A.nrows)
    assert is_m_matrix_like(A)
    tracer = Tracer(trace_reads=True)
    sim = DistributedJacobi(
        A,
        b,
        n_ranks=N_RANKS,
        seed=SEED,
        method={"kind": "sor", "omega": SOR_OMEGA},
        delay=StragglerDelay({1: 8.0}),
    )
    sim.run_async(tol=1e-8, max_iterations=200, tracer=tracer)
    report = replay_report(
        tracer.events(), A, b, method=StepAsyncSOR(omega=SOR_OMEGA)
    )
    assert report.norm == "error_sup" and report.guarantee.holds
    errors = report.errors
    worst = 0.0
    for k in range(1, len(errors)):
        worst = max(worst, errors[k] - errors[k - 1])
    return MethodClaim(
        name="sor-supnorm",
        source="arXiv:1404.3327",
        statement=(
            "step-async SOR error sup-norm is non-increasing on an "
            "M-matrix with omega <= 1, even under an 8x straggler"
        ),
        predicted=0.0,
        measured=worst,
        passed=report.valid_sequence and report.monotone,
        detail=(
            f"{report.n_steps} replayed steps, sup-norm error "
            f"{errors[0]:.3e} -> {errors[-1]:.3e}, worst per-step "
            f"increase {worst:.1e}"
        ),
    )


def run() -> list:
    """Measure all three method claims."""
    return [
        richardson_identity_claim(),
        richardson_rate_claim(),
        sor_supnorm_claim(),
    ]


def format_report(claims: list) -> str:
    """Per-claim verdicts plus the rate table."""
    lines = ["iteration-method claims (see docs/methods.md):", ""]
    for c in claims:
        verdict = "PASS" if c.passed else "FAIL"
        lines.append(f"[{verdict}] {c.name} ({c.source})")
        lines.append(f"  claim: {c.statement}")
        lines.append(f"  {c.detail}")
        if c.rows:
            lines.append(
                "  "
                + format_table(
                    ["choice of alpha", "alpha", "predicted rate", "observed"],
                    c.rows,
                ).replace("\n", "\n  ")
            )
        lines.append("")
    ok = all(c.passed for c in claims)
    lines.append(
        "methods verdict: "
        + ("PASS — all claims reproduced" if ok else "FAIL")
    )
    return "\n".join(lines)
