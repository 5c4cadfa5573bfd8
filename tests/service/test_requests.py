"""SolveRequest validation, canonical specs and content-hash keys."""

import numpy as np
import pytest

from repro.service.requests import (
    BadRequestError,
    SolveRequest,
    group_key,
    spec_key,
)


def req(**overrides):
    base = dict(
        matrix={"family": "fd_2d", "args": {"nx": 6, "ny": 6}},
        schedule={"kind": "random_subset", "fraction": 0.5, "seed": 1},
    )
    base.update(overrides)
    return SolveRequest(**base)


class TestValidation:
    def test_minimal_request_builds(self):
        r = req()
        assert r.tol == 1e-6 and r.b_seed == 0

    def test_unknown_matrix_family_rejected(self):
        with pytest.raises(BadRequestError, match="family"):
            req(matrix={"family": "hilbert", "args": {}})

    def test_matrix_must_be_spec_dict(self):
        with pytest.raises(BadRequestError):
            req(matrix="fd_2d")

    def test_unknown_schedule_kind_rejected(self):
        with pytest.raises(BadRequestError, match="schedule kind"):
            req(schedule={"kind": "round_robin"})

    def test_fault_masked_needs_plan(self):
        with pytest.raises(BadRequestError, match="plan"):
            req(schedule={"kind": "fault_masked", "dt": 1.0, "seed": 0})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("omega", 0.0),
            ("omega", 2.0),
            ("tol", 0.0),
            ("tol", -1e-6),
            ("max_steps", 0),
            ("max_steps", 2.5),
            ("max_steps", "7"),
            ("record_every", 0),
            ("record_every", 1.9),
            ("agents", 0),
            ("agents", True),
            ("recompute_every", -1),
            ("recompute_every", "x"),
            ("b_seed", 1.5),
            ("b_seed", -1),
            ("x0_seed", 2.5),
            ("deadline", 0.0),
        ],
    )
    def test_bad_parameters_rejected(self, field, value):
        with pytest.raises(BadRequestError):
            req(**{field: value})

    def test_residual_mode_is_not_a_field(self):
        """The residual cadence is ``recompute_every``; there is no mode."""
        with pytest.raises(TypeError):
            req(residual_mode="full")

    def test_numpy_integers_accepted(self):
        r = req(max_steps=np.int64(7), agents=np.int64(2), b_seed=np.int64(3))
        assert r.spec()["max_steps"] == 7 and r.spec()["b_seed"] == 3

    def test_bad_method_rejected(self):
        with pytest.raises(BadRequestError, match="method"):
            req(method="conjugate_gradient")

    def test_typed_errors_are_value_errors_too(self):
        with pytest.raises(ValueError):
            req(tol=-1.0)


class TestKeys:
    def test_key_is_content_hash_of_spec(self):
        assert req().key() == spec_key(req().spec())

    def test_equal_requests_share_a_key(self):
        assert req(b_seed=3).key() == req(b_seed=3).key()

    def test_b_seed_changes_key_not_group(self):
        a, b = req(b_seed=0), req(b_seed=1)
        assert a.key() != b.key()
        assert a.group_key() == b.group_key()

    def test_x0_seed_changes_key_not_group(self):
        a, b = req(x0_seed=None), req(x0_seed=5)
        assert a.key() != b.key()
        assert a.group_key() == b.group_key()

    def test_schedule_seed_changes_group(self):
        a = req()
        b = req(schedule={"kind": "random_subset", "fraction": 0.5, "seed": 2})
        assert a.group_key() != b.group_key()

    def test_tol_changes_group(self):
        assert req(tol=1e-4).group_key() != req(tol=1e-6).group_key()

    def test_method_changes_group(self):
        assert req(method="damped_jacobi").group_key() != req().group_key()

    def test_deadline_not_part_of_identity(self):
        # The deadline shapes scheduling, never the computation: requests
        # differing only in deadline are the same cache/dedup entry.
        assert req(deadline=1.0).key() == req(deadline=9.0).key()
        assert "deadline" not in req(deadline=1.0).spec()

    def test_group_key_strips_only_trial_fields(self):
        spec = req(b_seed=7, x0_seed=9).spec()
        assert group_key(spec) == group_key({**spec, "b_seed": 0, "x0_seed": None})

    def test_method_forms_canonicalize_to_one_key(self):
        # None, the name, the spec dict and a live instance are all the
        # same computation; they must share cache/dedup/coalescing keys.
        from repro.methods import make_method

        keys = {
            req(method=None).key(),
            req(method="jacobi").key(),
            req(method={"kind": "jacobi", "omega": 1.0}).key(),
            req(method=make_method("jacobi")).key(),
        }
        assert len(keys) == 1
