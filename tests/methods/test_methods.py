"""Unit tests for the iteration-method family itself.

Construction and round-tripping (:func:`repro.methods.make_method`),
parameter validation, scale vectors, per-matrix guarantees, the
sequential/momentum kernels, and the executor legality rules.
"""

import numpy as np
import pytest

from repro.matrices.laplacian import fd_laplacian_1d, fd_laplacian_2d
from repro.matrices.sparse import CSRMatrix
from repro.methods import (
    DampedJacobi,
    Jacobi,
    Method,
    MethodError,
    Richardson,
    Richardson2,
    StepAsyncSOR,
    legal_method_kinds,
    make_method,
    scaled_rowsum_condition,
)
from repro.methods.kernels import (
    momentum_dx,
    sor_block_pending,
    sor_step_dense,
    sor_step_incremental,
)
from repro.methods.registry import METHODS
from repro.runtime.distributed import DistributedJacobi
from repro.util.errors import ReproError, SingularMatrixError


@pytest.fixture
def lap():
    return fd_laplacian_2d(4, 4)


# ---------------------------------------------------------------- make_method


def test_none_resolves_to_jacobi_at_executor_omega():
    m = make_method(None, omega=0.75)
    assert isinstance(m, Jacobi) and m.omega == 0.75


def test_string_specs_use_omega_as_primary_knob():
    assert make_method("jacobi", omega=0.5) == Jacobi(omega=0.5)
    assert make_method("sor", omega=0.9) == StepAsyncSOR(omega=0.9)
    assert make_method("richardson", omega=0.25) == Richardson(alpha=0.25)
    assert make_method("richardson2", omega=0.25).alpha == 0.25
    assert make_method("damped_jacobi", omega=0.5) == DampedJacobi(omega=0.5)


def test_dict_spec_round_trips_every_method():
    examples = [
        Jacobi(omega=0.8),
        DampedJacobi(),
        Richardson(alpha=0.3),
        Richardson2(alpha=0.3, beta=0.4),
        StepAsyncSOR(omega=1.0),
    ]
    assert {type(m).__name__ for m in examples} == {
        cls.__name__ for cls in METHODS.values()
    }
    for m in examples:
        again = make_method(m.spec())
        assert again == m and again.spec() == m.spec()


def test_method_instances_pass_through():
    m = StepAsyncSOR(omega=0.7)
    assert make_method(m) is m


@pytest.mark.parametrize(
    "bad",
    [
        "gauss_seidel_but_misspelled",
        {"kind": "nope"},
        {"omega": 1.0},  # missing kind
        {"kind": "jacobi", "alpha": 1.0},  # wrong parameter name
        3.14,
    ],
)
def test_bad_specs_raise_method_error(bad):
    with pytest.raises(MethodError):
        make_method(bad)


def test_method_error_is_value_error_and_repro_error():
    assert issubclass(MethodError, ValueError)
    assert issubclass(MethodError, ReproError)


# ----------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: Jacobi(omega=0.0),
        lambda: Jacobi(omega=2.0),
        lambda: DampedJacobi(omega=1.5),
        lambda: Richardson(alpha=0.0),
        lambda: Richardson(alpha=-1.0),
        lambda: Richardson2(alpha=0.5, beta=1.0),
        lambda: Richardson2(alpha=0.5, beta=-0.1),
        lambda: StepAsyncSOR(omega=2.0),
    ],
)
def test_out_of_range_parameters_raise(ctor):
    with pytest.raises(MethodError):
        ctor()


def test_richardson_tolerates_zero_diagonal_jacobi_does_not():
    A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 2.0]]))
    Richardson(alpha=0.1).validate(A)
    with pytest.raises(SingularMatrixError):
        Jacobi().validate(A)
    with pytest.raises(SingularMatrixError):
        StepAsyncSOR().validate(A)


# -------------------------------------------------------- scales & kind flags


def test_jacobi_scale_is_exactly_omega_over_diag(lap):
    m = Jacobi(omega=0.75)
    assert np.array_equal(m.scale(lap), 0.75 / lap.diagonal())


def test_richardson_scale_is_uniform(lap):
    assert np.array_equal(
        Richardson(alpha=0.3).scale(lap), np.full(lap.nrows, 0.3)
    )


def test_kind_flags():
    assert Jacobi().is_scaled and Richardson().is_scaled
    assert DampedJacobi().is_scaled
    assert not StepAsyncSOR().is_scaled
    assert StepAsyncSOR().kind == "sequential"
    assert not Richardson2().is_scaled
    assert Richardson2().kind == "momentum"
    assert Jacobi().beta == 0.0 and Richardson2(beta=0.3).beta == 0.3


def test_eq_and_hash_follow_spec():
    assert Jacobi(omega=1.0) == Jacobi(omega=1.0)
    assert Jacobi(omega=1.0) != Jacobi(omega=0.9)
    # Same arithmetic, different name: deliberately distinct specs.
    assert DampedJacobi(omega=0.5) != Jacobi(omega=0.5)
    assert len({Jacobi(), Jacobi(), StepAsyncSOR()}) == 2


# ----------------------------------------------------------------- guarantees


def test_jacobi_guarantee_on_wdd_matrix(lap):
    g = Jacobi().guarantee(lap)
    assert g.norm == "residual_l1" and g.holds


def test_jacobi_guarantee_fails_off_dominance():
    A = CSRMatrix.from_dense(np.array([[1.0, 3.0], [0.5, 1.0]]))
    g = Jacobi().guarantee(A)
    assert g.norm == "residual_l1" and not g.holds


def test_richardson_guarantee_tracks_rowsum_condition(lap):
    # alpha small enough: |1 - alpha*d| + alpha*offdiag = 1 on a Laplacian.
    assert Richardson(alpha=0.1).guarantee(lap).holds
    assert not Richardson(alpha=1.9).guarantee(lap).holds


def test_sor_guarantee_needs_m_matrix_and_omega_at_most_one(lap):
    assert StepAsyncSOR(omega=1.0).guarantee(lap).holds
    g = StepAsyncSOR(omega=1.5).guarantee(lap)
    assert g.norm == "error_sup" and not g.holds
    pos_offdiag = CSRMatrix.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert not StepAsyncSOR(omega=1.0).guarantee(pos_offdiag).holds


def test_momentum_has_no_guarantee(lap):
    g = Richardson2(alpha=0.1, beta=0.3).guarantee(lap)
    assert g.norm is None and not g.holds


def test_scaled_rowsum_condition_matches_manual(lap):
    scale = 1.0 / lap.diagonal()
    dense = lap.to_dense()
    manual = []
    for i in range(lap.nrows):
        off = np.sum(np.abs(dense[i])) - abs(dense[i, i])
        manual.append(abs(1 - scale[i] * dense[i, i]) + scale[i] * off <= 1 + 1e-12)
    assert np.array_equal(scaled_rowsum_condition(lap, scale), manual)


def test_base_method_guarantee_is_none(lap):
    assert Method().guarantee(lap).norm is None


# -------------------------------------------------------------------- kernels


def _reference_gs(A, b, scale, x0, rows):
    """Forward Gauss-Seidel over ``rows`` on a dense copy."""
    dense = A.to_dense()
    x = x0.copy()
    for i in rows:
        x[i] += scale[i] * (b[i] - dense[i] @ x)
    return x


def test_sor_step_dense_is_forward_gauss_seidel(lap):
    rng = np.random.default_rng(0)
    b = rng.uniform(-1, 1, lap.nrows)
    scale = 1.0 / lap.diagonal()
    rows = np.array([3, 0, 7, 4, 3])  # out of order, with a repeat
    x = rng.standard_normal(lap.nrows)
    want = _reference_gs(lap, b, scale, x, rows)
    dx = sor_step_dense(lap, b, scale, x, rows)
    # Sparse gather vs dense dot sum in different orders: last-bit slack.
    np.testing.assert_allclose(x, want, rtol=0, atol=1e-14)
    assert dx.shape == (rows.size,)


def test_sor_step_incremental_matches_dense(lap):
    rng = np.random.default_rng(1)
    b = rng.uniform(-1, 1, lap.nrows)
    scale = 0.9 / lap.diagonal()
    rows = np.arange(5)
    x_dense = rng.standard_normal(lap.nrows)
    x_inc = x_dense.copy()
    r = b - lap.matvec(x_inc)
    sor_step_dense(lap, b, scale, x_dense, rows)
    sor_step_incremental(lap, scale, x_inc, r, rows)
    np.testing.assert_allclose(x_inc, x_dense, rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        r, b - lap.matvec(x_inc), rtol=0, atol=1e-12
    )


def test_sor_block_pending_matches_dense_without_committing(lap):
    rng = np.random.default_rng(2)
    b = rng.uniform(-1, 1, lap.nrows)
    scale = 1.0 / lap.diagonal()
    lo, hi = 4, 9
    x = rng.standard_normal(lap.nrows)
    x_ref = x.copy()
    sor_step_dense(lap, b, scale, x_ref, np.arange(lo, hi))
    out = np.empty(hi - lo)
    before = x.copy()
    sor_block_pending(lap, b, scale, x, lo, hi, out)
    assert np.array_equal(x, before)  # pending buffer, no commit
    assert np.array_equal(out, x_ref[lo:hi])


def test_momentum_dx_reference_semantics(lap):
    rng = np.random.default_rng(3)
    scale = np.full(lap.nrows, 0.2)
    x = rng.standard_normal(lap.nrows)
    x_prev = rng.standard_normal(lap.nrows)
    r = rng.standard_normal(lap.nrows)
    rows = np.array([1, 5, 6])
    want = scale[rows] * r[rows] + 0.4 * (x[rows] - x_prev[rows])
    pre = x[rows].copy()
    dx = momentum_dx(scale, r, x, x_prev, rows, 0.4)
    assert np.array_equal(dx, want)
    assert np.array_equal(x_prev[rows], pre)  # state advances at relax time


# ------------------------------------------------------------------- legality


def test_legal_method_kinds_cover_family():
    for executor in ("model", "shared", "distributed"):
        assert legal_method_kinds(executor) == tuple(METHODS)
    with pytest.raises(MethodError):
        legal_method_kinds("gpu")


def test_sor_forces_sequential_sweep(lap):
    # A one-rank ``method="sor"`` relaxation is one forward sweep over
    # every row: exactly ``sor_step_dense`` at the same omega.
    b = np.ones(lap.nrows)
    sim = DistributedJacobi(lap, b, n_ranks=1, method="sor", omega=0.8)
    (rk,) = sim._compile_ranks()
    x0 = np.linspace(-1.0, 1.0, lap.nrows)
    want = x0.copy()
    sor_step_dense(lap, b, sim.dinv, want, np.arange(lap.nrows))
    assert sim._relax_block(rk, x0).tolist() == want.tolist()


def test_fd_1d_is_in_family_domain():
    # The 1-D ladder rung used by convergence tests satisfies both
    # guarantee hypotheses, so methods agree it is a friendly matrix.
    A = fd_laplacian_1d(12)
    assert Jacobi().guarantee(A).holds
    assert StepAsyncSOR().guarantee(A).holds
