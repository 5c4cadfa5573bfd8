"""Request execution: the cell functions behind the solver service.

:func:`run_single` is a module-level, picklable cell — spec in, plain
result dict out — so the server can dispatch it three ways with one
implementation:

* directly (in a worker thread) for a lone request;
* through :func:`repro.perf.runner.run_cells` for a *set* of mutually
  incompatible singletons, which adds memoization in the shared
  :class:`~repro.perf.cache.ExperimentCache` and optional process-pool
  fan-out;
* implicitly via :func:`run_group`, which stacks a whole coalescing
  class into one :class:`~repro.perf.batched.BatchedAsyncJacobiModel`
  execution and splits the trials back out.

**Bit-identity contract.** ``run_group(specs)[i] == run_single(specs[i])``
exactly — same final iterate bytes, same histories — because the batched
engine is bit-identical to the sequential model executor for every method
kind and cadence (re-tested at the service boundary in
``tests/service/test_identity.py``). The batching layer may reorder
*scheduling*, never arithmetic, so a client cannot observe whether its
request was coalesced.

Problem construction reuses the chaos harness builders
(:func:`~repro.chaos.harness.build_matrix`,
:func:`~repro.chaos.harness.build_schedule`, ...): request specs share
their sub-spec shapes, and their validation taxonomy maps onto
:class:`~repro.service.requests.BadRequestError`.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.harness import ChaosSpecError, build_b, build_matrix, build_schedule
from repro.core.model import AsyncJacobiModel, ModelResult
from repro.perf.batched import BatchedAsyncJacobiModel
from repro.service.requests import BadRequestError, group_key

#: Cache-token ``cell`` label; matches ``run_cells``'s token for
#: :func:`run_single` so every dispatch path shares one cache namespace.
CELL_NAME = f"{__name__}.run_single"


def cache_token(spec: dict) -> dict:
    """The shared-cache key token for one request spec.

    Identical to the token :func:`repro.perf.runner.run_cells` derives
    for ``run_single``, so results computed by any path — direct, pooled
    singleton, or split out of a batch — land under the same cache entry
    and are interchangeable.
    """
    return {"cell": CELL_NAME, "config": spec}


def build_problem(spec: dict) -> dict:
    """Instantiate the live objects one spec needs (matrix, b, x0, schedule).

    Raises
    ------
    BadRequestError
        If any sub-spec cannot be built (wrapping the harness's
        :class:`~repro.chaos.harness.ChaosSpecError`).
    """
    try:
        A = build_matrix(spec["matrix"])
        schedule = build_schedule(spec)
        b = build_b(spec, A.nrows)
    except ChaosSpecError as exc:
        raise BadRequestError(str(exc)) from exc
    x0 = None
    if spec.get("x0_seed") is not None:
        x0 = np.random.default_rng(int(spec["x0_seed"])).standard_normal(A.nrows)
    return {"A": A, "b": b, "x0": x0, "schedule": schedule}


def _result_dict(res: ModelResult) -> dict:
    """Plain-data view of a model result (picklable, cache-friendly)."""
    return {
        "x": res.x,
        "converged": bool(res.converged),
        "steps": int(res.steps),
        "relaxations": int(res.relaxations),
        "times": list(res.times),
        "residual_norms": list(res.residual_norms),
        "relaxation_counts": list(res.relaxation_counts),
    }


def run_single(spec: dict) -> dict:
    """Execute one request spec sequentially (the reference path).

    This is the module-level cell function the process-pool path pickles;
    its result dict is the service's unit of caching and response.
    """
    built = build_problem(spec)
    model = AsyncJacobiModel(
        built["A"], built["b"], omega=spec["omega"], method=spec.get("method")
    )
    res = model.run(
        built["schedule"],
        x0=built["x0"],
        tol=spec["tol"],
        max_steps=spec["max_steps"],
        record_every=spec["record_every"],
        recompute_every=spec["recompute_every"],
    )
    return _result_dict(res)


def run_group(specs: list) -> list:
    """Execute one coalescing class as a single batched computation.

    All ``specs`` must share a group key (same matrix, schedule
    realization, method and stopping parameters); they become the T
    columns of one ``(n, T)`` batched run. Returns one result dict per
    spec, in input order, each bit-identical to ``run_single(spec)``.
    """
    if not specs:
        return []
    heads = {group_key(s) for s in specs}
    if len(heads) != 1:
        raise BadRequestError(f"run_group needs one coalescing class, got {len(heads)}")
    base = specs[0]
    try:
        A = build_matrix(base["matrix"])
        schedule = build_schedule(base)
    except ChaosSpecError as exc:
        raise BadRequestError(str(exc)) from exc
    n = A.nrows
    B = np.empty((n, len(specs)), dtype=np.float64)
    X0 = None
    if any(s.get("x0_seed") is not None for s in specs):
        X0 = np.zeros((n, len(specs)))
    for t, spec in enumerate(specs):
        B[:, t] = build_b(spec, n)
        if spec.get("x0_seed") is not None:
            X0[:, t] = np.random.default_rng(int(spec["x0_seed"])).standard_normal(n)
    batched = BatchedAsyncJacobiModel(
        A, B, omega=base["omega"], method=base.get("method")
    )
    res = batched.run(
        schedule,
        X0=X0,
        tol=base["tol"],
        max_steps=base["max_steps"],
        record_every=base["record_every"],
        recompute_every=base["recompute_every"],
    )
    return [_result_dict(res.trial(t)) for t in range(len(specs))]
