"""Utility helpers: norms, RNG policy, validation, error hierarchy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matrices.laplacian import fd_laplacian_1d
from repro.util import (
    ConvergenceError,
    PartitionError,
    ReproError,
    ScheduleError,
    ShapeError,
    SimulationError,
    SingularMatrixError,
    as_rng,
    check_index,
    check_nonnegative,
    check_positive,
    check_probability,
    check_square,
    check_vector,
    norm_1,
    norm_2,
    norm_inf,
    relative_residual_norm,
    residual,
    spawn_rngs,
)
from repro.util.norms import vector_norm


class TestNorms:
    def test_known_values(self):
        v = [3.0, -4.0]
        assert norm_1(v) == 7.0
        assert norm_2(v) == 5.0
        assert norm_inf(v) == 4.0

    def test_empty_inf_norm(self):
        assert norm_inf([]) == 0.0

    def test_vector_norm_dispatch(self):
        v = [1.0, -2.0]
        assert vector_norm(v, 1) == 3.0
        assert vector_norm(v, "inf") == 2.0
        with pytest.raises(ValueError):
            vector_norm(v, 3)

    def test_residual_and_relative(self):
        A = fd_laplacian_1d(5)
        x = np.ones(5)
        b = A @ x
        np.testing.assert_allclose(residual(A, x, b), np.zeros(5), atol=1e-15)
        assert relative_residual_norm(A, x, b) < 1e-14

    def test_relative_residual_zero_rhs(self):
        A = fd_laplacian_1d(3)
        x = np.ones(3)
        # ||b|| = 0: falls back to the absolute norm.
        assert relative_residual_norm(A, x, np.zeros(3)) == norm_1(A @ x)


class TestRng:
    def test_as_rng_idempotent(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_as_rng_seed_reproducible(self):
        assert as_rng(7).random() == as_rng(7).random()

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.random() != b.random()

    def test_spawn_reproducible(self):
        xs = [g.random() for g in spawn_rngs(3, 4)]
        ys = [g.random() for g in spawn_rngs(3, 4)]
        assert xs == ys

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(1), 3)
        assert len(children) == 3

    def test_spawn_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestValidation:
    def test_check_positive(self):
        assert check_positive(2, "x") == 2.0
        for bad in (0, -1, float("nan"), float("inf"), "a"):
            with pytest.raises(ValueError):
                check_positive(bad, "x")

    def test_check_nonnegative(self):
        assert check_nonnegative(0, "x") == 0.0
        with pytest.raises(ValueError):
            check_nonnegative(-0.1, "x")

    def test_check_nonnegative_int(self):
        from repro.util.validation import check_nonnegative_int

        assert check_nonnegative_int(0, "k") == 0
        v = check_nonnegative_int(np.int64(3), "k")
        assert v == 3 and type(v) is int
        for bad in (-1, 2.5, True, "3"):
            with pytest.raises(ValueError, match="k"):
                check_nonnegative_int(bad, "k")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.01, "p")

    def test_check_square(self):
        check_square(np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            check_square(np.zeros((2, 3)))

    def test_check_vector(self):
        v = check_vector([1, 2, 3], 3)
        assert v.dtype == np.float64
        with pytest.raises(ShapeError):
            check_vector([1, 2], 3)

    def test_check_index(self):
        assert check_index(2, 5) == 2
        with pytest.raises(IndexError):
            check_index(5, 5)
        with pytest.raises(ValueError):
            check_index(1.5, 5)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ShapeError, SingularMatrixError, ConvergenceError, ScheduleError,
         PartitionError, SimulationError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_value_errors_catchable_as_builtin(self):
        assert issubclass(ShapeError, ValueError)
        assert issubclass(SimulationError, RuntimeError)

    def test_convergence_error_carries_history(self):
        err = ConvergenceError("no", history=[1.0, 0.5])
        assert err.history == [1.0, 0.5]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
def test_property_norm_inequalities(values):
    """||v||_inf <= ||v||_2 <= ||v||_1 for every vector."""
    assert norm_inf(values) <= norm_2(values) + 1e-9
    assert norm_2(values) <= norm_1(values) + 1e-9
