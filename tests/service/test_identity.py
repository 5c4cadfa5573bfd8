"""Bit-identity: service answers equal direct model execution exactly.

The service's core guarantee: whether a request runs alone through
:class:`~repro.core.model.AsyncJacobiModel`, pooled through
``run_cells``, or coalesced into a
:class:`~repro.perf.batched.BatchedAsyncJacobiModel` column, the response
bytes are identical — coalescing is scheduling, never arithmetic.
"""

import asyncio

import numpy as np
import pytest

from repro.core.model import AsyncJacobiModel
from repro.service import executor
from repro.service.requests import BadRequestError, SolveRequest
from repro.service.server import SolverService


def request(b_seed=0, x0_seed=None, seed=7, **overrides):
    base = dict(
        matrix={"family": "fd_2d", "args": {"nx": 5, "ny": 5}},
        schedule={"kind": "random_subset", "fraction": 0.5, "seed": seed},
        b_seed=b_seed,
        x0_seed=x0_seed,
        tol=1e-8,
        max_steps=3000,
    )
    base.update(overrides)
    return SolveRequest(**base)


def assert_identical(got: dict, want: dict):
    """Field-by-field exact equality of two result dicts."""
    assert np.array_equal(np.asarray(got["x"]), np.asarray(want["x"]))
    assert got["converged"] == want["converged"]
    assert got["steps"] == want["steps"]
    assert got["relaxations"] == want["relaxations"]
    assert got["times"] == want["times"]
    assert got["residual_norms"] == want["residual_norms"]
    assert got["relaxation_counts"] == want["relaxation_counts"]


class TestExecutorIdentity:
    def test_run_single_matches_direct_model(self):
        spec = request(b_seed=3).spec()
        built = executor.build_problem(spec)
        model = AsyncJacobiModel(built["A"], built["b"], omega=spec["omega"])
        res = model.run(
            built["schedule"],
            x0=built["x0"],
            tol=spec["tol"],
            max_steps=spec["max_steps"],
            record_every=spec["record_every"],
            recompute_every=spec["recompute_every"],
        )
        assert_identical(executor.run_single(spec), executor._result_dict(res))

    @pytest.mark.parametrize("recompute_every", [1, 64])
    def test_run_group_matches_run_single_for_sor(self, recompute_every):
        """SOR's sequential sweeps coalesce bit-identically too."""
        specs = [
            request(
                b_seed=b, method="sor", recompute_every=recompute_every,
                matrix={"family": "anisotropic",
                        "args": {"nx": 10, "ny": 9, "eps": 0.1}},
                tol=1e-4, max_steps=300,
            ).spec()
            for b in range(3)
        ]
        for spec, got in zip(specs, executor.run_group(specs)):
            assert_identical(got, executor.run_single(spec))

    def test_run_group_matches_run_single_per_trial(self):
        specs = [
            request(b_seed=0).spec(),
            request(b_seed=1).spec(),
            request(b_seed=2, x0_seed=11).spec(),
        ]
        grouped = executor.run_group(specs)
        assert len(grouped) == 3
        for spec, got in zip(specs, grouped):
            assert_identical(got, executor.run_single(spec))

    def test_run_group_rejects_mixed_classes(self):
        with pytest.raises(BadRequestError, match="coalescing class"):
            executor.run_group([request(seed=1).spec(), request(seed=2).spec()])

    def test_run_group_empty(self):
        assert executor.run_group([]) == []


class TestServiceIdentity:
    def test_coalesced_responses_equal_direct_execution(self):
        reqs = [request(b_seed=t) for t in range(4)]
        direct = [executor.run_single(r.spec()) for r in reqs]

        async def drive():
            async with SolverService(
                use_cache=False, batch_window=0.05, max_queue=16
            ) as svc:
                results = await asyncio.gather(*(svc.submit(r) for r in reqs))
                return results, svc.stats()

        results, stats = asyncio.run(drive())
        # The whole class must actually have been coalesced, so this
        # compares the batched path, not four singleton runs.
        assert stats["batches"] >= 1 and stats["max_coalesced"] == 4
        for got, want in zip(results, direct):
            assert_identical(got, want)

    def test_singleton_response_equals_direct_execution(self):
        req = request(b_seed=9)

        async def drive():
            async with SolverService(
                use_cache=False, batch_window=0.0, max_queue=4
            ) as svc:
                result = await svc.submit(req)
                return result, svc.stats()

        result, stats = asyncio.run(drive())
        assert stats["batches"] == 0 and stats["executions"] == 1
        assert_identical(result, executor.run_single(req.spec()))

    def test_cache_token_matches_run_cells_namespace(self):
        """All dispatch paths must share one cache namespace."""
        from repro.perf.runner import _cell_token

        spec = request().spec()
        assert executor.cache_token(spec) == _cell_token(executor.run_single, spec)
