"""Convergence properties the new methods are on the hook for.

Vigna's sup-norm bound for step-async SOR across the M-matrix ladder,
Richardson's spectral window (convergence inside, divergence outside),
and the ``python -m repro methods`` experiment claims as assertions.
"""

import numpy as np
import pytest

from repro.core.model import AsyncJacobiModel
from repro.core.schedules import SynchronousSchedule
from repro.experiments import methods as methods_experiment
from repro.matrices.laplacian import fd_laplacian_1d, fd_laplacian_2d
from repro.matrices.properties import is_m_matrix_like
from repro.methods import Richardson, StepAsyncSOR
from repro.methods.kernels import sor_step_dense

#: The M-matrix ladder Vigna's bound is checked on (all FD Laplacians are
#: M-matrices: positive diagonal, nonpositive off-diagonals, WDD).
M_MATRIX_LADDER = [
    ("fd1d_8", lambda: fd_laplacian_1d(8)),
    ("fd1d_24", lambda: fd_laplacian_1d(24)),
    ("fd2d_4x4", lambda: fd_laplacian_2d(4, 4)),
    ("fd2d_5x7", lambda: fd_laplacian_2d(5, 7)),
    ("fd2d_6x6", lambda: fd_laplacian_2d(6, 6)),
]


@pytest.mark.parametrize(
    "name,build", M_MATRIX_LADDER, ids=[n for n, _ in M_MATRIX_LADDER]
)
@pytest.mark.parametrize("omega", [1.0, 0.8])
def test_sor_sup_norm_never_increases_on_m_matrix(name, build, omega):
    """Random stale blocks in random order: the error sup-norm is monotone."""
    A = build()
    assert is_m_matrix_like(A)
    method = StepAsyncSOR(omega=omega)
    assert method.guarantee(A).holds
    rng = np.random.default_rng(17)
    b = rng.uniform(-1, 1, A.nrows)
    x_true = np.linalg.solve(A.to_dense(), b)
    scale = method.scale(A)
    x = rng.standard_normal(A.nrows)  # arbitrary start, large error
    err0 = err = np.max(np.abs(x - x_true))
    for _ in range(200):
        k = int(rng.integers(1, A.nrows + 1))
        rows = rng.choice(A.nrows, size=k, replace=False)
        sor_step_dense(A, b, scale, x, rows)
        new_err = np.max(np.abs(x - x_true))
        assert new_err <= err * (1 + 1e-9) + 1e-13
        err = new_err
    # Real progress too, not just a stall (rate varies with conditioning:
    # the 1-D n=24 rung contracts slowly but still strictly).
    assert err < err0 * 0.7


def test_sor_sup_norm_bound_voided_above_omega_one():
    A = fd_laplacian_2d(4, 4)
    assert not StepAsyncSOR(omega=1.7).guarantee(A).holds


def _sync_richardson_residuals(A, alpha, steps):
    b = np.zeros(A.nrows)
    x0 = np.random.default_rng(5).standard_normal(A.nrows)
    model = AsyncJacobiModel(A, b, method=Richardson(alpha=alpha))
    result = model.run(
        SynchronousSchedule(A.nrows),
        x0=x0,
        tol=np.finfo(float).tiny,
        max_steps=steps,
        residual_norm_ord=2,
        recompute_every=1,
    )
    return np.asarray(result.residual_norms)


def test_richardson_converges_inside_window_diverges_outside():
    A = fd_laplacian_2d(6, 6)
    lo, hi = Richardson.spectral_window(A)
    assert lo == 0.0 and hi > 0.0

    inside = _sync_richardson_residuals(A, 0.9 * hi, 120)
    assert inside[-1] < inside[0] * 1e-2

    outside = _sync_richardson_residuals(A, 1.2 * hi, 120)
    assert outside[-1] > outside[0] * 1e2


def test_richardson_optimal_rate_is_sharp():
    A = fd_laplacian_2d(6, 6)
    res = _sync_richardson_residuals(A, Richardson.optimal_alpha(A), 300)
    tail = 100
    observed = (res[-1] / res[-1 - tail]) ** (1.0 / tail)
    predicted = Richardson.optimal_rate(A)
    assert abs(observed - predicted) <= 0.02 * predicted


def test_methods_experiment_claims_all_pass():
    claims = methods_experiment.run()
    assert [c.name for c in claims] == [
        "richardson==jacobi",
        "richardson-rate",
        "sor-supnorm",
    ]
    for claim in claims:
        assert claim.passed, f"{claim.name}: {claim.detail}"
    report = methods_experiment.format_report(claims)
    assert "PASS — all claims reproduced" in report
