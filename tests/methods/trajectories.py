"""Scenario matrix shared by the golden fixture and the bit-identity test.

Each scenario names one executor configuration exercised by the
``method="jacobi"`` bit-identity guarantee. ``run_scenario(name)`` runs it
with the executor's *default* relaxation rule (exactly what pre-refactor
main executed — the goldens in ``golden_jacobi.json`` were generated from
that code); ``run_scenario(name, method_kwargs=True)`` re-runs it asking
for the same rule explicitly through the ``method=`` flag. Both must agree
with the golden bit for bit.

The ``dist_gs_*`` scenarios pin step-asynchronous SOR: ``method="sor"``
relaxes each rank's block by a forward Gauss-Seidel sweep at scale
``omega/d``, and their goldens were recorded from that same arithmetic
before it became a method, so both runs use ``method="sor"`` and must
reproduce them exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.model import AsyncJacobiModel
from repro.core.schedules import RandomSubsetSchedule, SynchronousSchedule
from repro.matrices.laplacian import fd_laplacian_2d
from repro.perf.batched import BatchedAsyncJacobiModel
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi
from repro.util.rng import as_rng

GOLDEN_PATH = Path(__file__).with_name("golden_jacobi.json")

_GRID = (4, 5)
_TOL = 1e-8
_MODEL_TOL = 1e-12


def _problem():
    A = fd_laplacian_2d(*_GRID)
    b = as_rng(3).uniform(-1, 1, A.nrows)
    return A, b


#: name -> (executor, ctor kwargs, run kwargs, method ctor override).
#: The override is what the bit-identity test passes instead of relying on
#: the default rule; for Jacobi scenarios it is simply ``method="jacobi"``.
SCENARIOS = {
    "model_incremental_w1": (
        "model", {"omega": 1.0}, {}, {"method": "jacobi"},
    ),
    "model_full_w075": (
        "model", {"omega": 0.75}, {"recompute_every": 1}, {"method": "jacobi"},
    ),
    "model_dense_steps_w1": (
        "model", {"omega": 1.0}, {"schedule": "sync"}, {"method": "jacobi"},
    ),
    "batched_w1": ("batched", {"omega": 1.0}, {}, {"method": "jacobi"}),
    "shared_engine_w1": ("shared", {"omega": 1.0}, {}, {"method": "jacobi"}),
    "shared_engine_w075": ("shared", {"omega": 0.75}, {}, {"method": "jacobi"}),
    "shared_sync_w1": ("shared", {"omega": 1.0}, {"sync": True}, {"method": "jacobi"}),
    # A plain async run: the block loop (native kernels when the library
    # loads; CI also runs this file under REPRO_NO_NATIVE=1).
    "dist_block_w1": (
        "distributed", {"omega": 1.0}, {}, {"method": "jacobi"},
    ),
    "dist_sync_w1": ("distributed", {"omega": 1.0}, {"sync": True}, {"method": "jacobi"}),
    # Gauss-Seidel block-sweep goldens: the step-async SOR oracle.
    "dist_gs_w1": (
        "distributed", {"omega": 1.0, "method": "sor"}, {}, {"method": "sor"},
    ),
    "dist_gs_w075": (
        "distributed", {"omega": 0.75, "method": "sor"}, {}, {"method": "sor"},
    ),
}


def run_scenario(name: str, method_kwargs: bool = False) -> dict:
    """Run one scenario; returns exact-roundtrip floats for comparison."""
    executor, ctor, runkw, override = SCENARIOS[name]
    A, b = _problem()
    n = A.nrows
    ctor = dict(ctor)
    runkw = dict(runkw)
    if method_kwargs:
        ctor = {**ctor, **override}
    if executor == "model":
        sched_kind = runkw.pop("schedule", "random")
        if sched_kind == "sync":
            sched = SynchronousSchedule(n)
        else:
            sched = RandomSubsetSchedule(n, fraction=0.6, seed=11)
        res = AsyncJacobiModel(A, b, **ctor).run(
            sched, tol=_MODEL_TOL, max_steps=160, **runkw
        )
        return _pack(res.x, res.residual_norms)
    if executor == "batched":
        B = np.column_stack([b, 2.0 * b, as_rng(4).uniform(-1, 1, n)])
        sched = RandomSubsetSchedule(n, fraction=0.6, seed=11)
        res = BatchedAsyncJacobiModel(A, B, **ctor).run(
            sched, tol=_MODEL_TOL, max_steps=160, **runkw
        )
        flat = np.concatenate([np.asarray(h) for h in res.residual_norms])
        return _pack(res.x.ravel(), flat)
    if executor == "shared":
        sync = runkw.pop("sync", False)
        sim = SharedMemoryJacobi(A, b, n_threads=3, seed=5, **ctor)
        if sync:
            res = sim.run_sync(tol=_TOL, max_iterations=200)
        else:
            res = sim.run_async(tol=_TOL, max_iterations=120, **runkw)
        return _pack(res.x, res.residual_norms)
    sync = runkw.pop("sync", False)
    sim = DistributedJacobi(A, b, n_ranks=3, seed=7, **ctor)
    if sync:
        res = sim.run_sync(tol=_TOL, max_iterations=200)
    else:
        res = sim.run_async(tol=_TOL, max_iterations=120, **runkw)
    return _pack(res.x, res.residual_norms)


def _pack(x, residual_norms) -> dict:
    return {
        "x": [float(v) for v in np.asarray(x).ravel()],
        "residual_norms": [float(v) for v in residual_norms],
    }


def load_goldens() -> dict:
    """The committed pre-refactor trajectories."""
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    """Regenerate the golden fixture (run only on pre-refactor main)."""
    goldens = {name: run_scenario(name) for name in SCENARIOS}
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(goldens)} scenarios)")


if __name__ == "__main__":
    main()
