"""Determinism and well-formedness of the chaos scenario generator."""

import json

import pytest

from repro.chaos import build_scenario, generate_spec, generate_specs
from repro.chaos.generator import MATRIX_LADDERS, _matrix_rows
from repro.chaos.harness import _MATRIX_FAMILIES
from repro.matrices import is_weakly_diagonally_dominant
from tests.runtime.equivalence import numpy_kernels


class TestDeterminism:
    def test_same_seed_same_specs(self):
        assert generate_specs(0, 25) == generate_specs(0, 25)
        assert generate_specs(3, 10) == generate_specs(3, 10)

    def test_budget_is_a_prefix(self):
        assert generate_specs(0, 25)[:10] == generate_specs(0, 10)

    def test_different_seeds_differ(self):
        assert generate_specs(0, 10) != generate_specs(1, 10)

    def test_index_independence(self):
        # Scenario i does not depend on scenarios before it.
        assert generate_spec(0, 7) == generate_specs(0, 8)[7]

    def test_specs_are_plain_json(self):
        specs = generate_specs(0, 25)
        assert specs == json.loads(json.dumps(specs))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            generate_specs(0, -1)


class TestGeneratedSpace:
    def test_all_specs_buildable(self):
        # Every generated spec satisfies executor contracts by construction.
        for spec in generate_specs(0, 60):
            build_scenario(spec)

    def test_executor_mix(self):
        kinds = {s["executor"] for s in generate_specs(0, 60)}
        assert kinds == {"shared", "distributed", "model"}

    def test_plan_kinds_match_executor(self):
        for spec in generate_specs(0, 60):
            kinds = {e["kind"] for e in spec["plan"]["events"]}
            if spec["executor"] == "shared":
                assert kinds <= {"crash"}
            elif spec["executor"] == "model":
                assert kinds <= {"crash", "drop"}

    def test_crash_agents_within_range(self):
        for spec in generate_specs(0, 60):
            for event in spec["plan"]["events"]:
                if event["kind"] == "crash":
                    assert 0 <= event["agent"] < spec["agents"]

    def test_ladder_matrices_are_wdd(self):
        for family, ladder in MATRIX_LADDERS.items():
            for args in ladder:
                A = _MATRIX_FAMILIES[family](**args)
                assert is_weakly_diagonally_dominant(A), (family, args)
                assert A.nrows == _matrix_rows(family, args)

    def test_ladders_ordered_small_to_large(self):
        for family, ladder in MATRIX_LADDERS.items():
            sizes = [_matrix_rows(family, args) for args in ladder]
            assert sizes == sorted(sizes), family


class TestToolchainIndependence:
    """Specs name no engine knobs, so they never depend on the toolchain."""

    def test_specs_do_not_depend_on_native_probe(self):
        with_probe = generate_specs(3, 60)
        with numpy_kernels():
            assert generate_specs(3, 60) == with_probe
        for spec in with_probe:
            assert not set(spec.get("distributed", {})) & {
                "queue_backend", "delivery", "relax_backend"
            }
