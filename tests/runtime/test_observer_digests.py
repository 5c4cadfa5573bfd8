"""Frozen observer output: the residual observer, pinned by digest.

Both machine simulators keep the relative residual ``‖b − Ax‖₁/‖b‖₁`` up
to date at every commit and recompute it from scratch every
``recompute_every`` observations; ``recompute_every=1`` recomputes at
every observation, the drift-free reference. ``observer_digests.json``
pins sha256 digests of ``x``, ``residual_norms``, ``times`` and
``relaxation_counts`` for such runs across the distributed block loop
(compiled and NumPy kernels), the general loop (eager, detect, a fault
plan under a read-tracing tracer) and the shared loop (multi-row blocks
and one thread per row). The ``recompute_every=1`` digests (keyed by the
bare case name) were first recorded from the simulators' former
from-scratch observer mode, which made exactly these observations. The
same cases also run at the default cadence ``64`` and at ``0`` (never
recompute), keyed ``<case>@<cadence>``; those pin the drifting
maintained residual, the periodic recompute and the confirmation of a
tolerance crossing. Regenerate (only for a deliberate change) with::

    PYTHONPATH=src python -m tests.runtime.test_observer_digests --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.faults import Crash, DropBurst, FaultPlan
from repro.matrices.laplacian import fd_laplacian_2d
from repro.observability import RingBufferSink, Tracer
from repro.runtime.delays import StochasticStall
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi

from tests.runtime.equivalence import numpy_kernels, sha

DIGESTS = Path(__file__).with_name("observer_digests.json")
REGENERATE = "PYTHONPATH=src python -m tests.runtime.test_observer_digests --write"
#: Observer cadences (``recompute_every``) every case is pinned at: the
#: drift-free reference, the default and never.
CADENCES = (1, 64, 0)

A = fd_laplacian_2d(12, 12)
B = np.random.default_rng(0).standard_normal(A.nrows)
SMALL = fd_laplacian_2d(6, 6)
B_SMALL = np.random.default_rng(1).standard_normal(SMALL.nrows)
PLAN = FaultPlan(
    [Crash(2, 0.0004, restart_after=0.0008), DropBurst(0.0002, 0.0006, 0.4)],
    seed=11,
)


# name -> () -> (simulator, run_async keyword arguments)
CASES = {
    "distributed/jacobi-4": lambda: (
        DistributedJacobi(A, B, n_ranks=4, seed=3), dict(tol=1e-3)
    ),
    "distributed/jacobi-16": lambda: (DistributedJacobi(A, B, n_ranks=16, seed=5), {}),
    "distributed/richardson2-8": lambda: (
        DistributedJacobi(A, B, n_ranks=8, seed=3, method="richardson2"), {}
    ),
    "distributed/sor-8": lambda: (
        DistributedJacobi(A, B, n_ranks=8, seed=3, method="sor"), {}
    ),
    "distributed/eager-8": lambda: (
        DistributedJacobi(A, B, n_ranks=8, seed=3), dict(eager=True)
    ),
    "distributed/detect-8": lambda: (
        DistributedJacobi(A, B, n_ranks=8, seed=3),
        dict(termination="detect", report_every=3),
    ),
    "distributed/faults-traced-8": lambda: (
        DistributedJacobi(A, B, n_ranks=8, seed=3, fault_plan=PLAN),
        dict(max_iterations=60, tracer=Tracer(
            sinks=[RingBufferSink(capacity=200_000)], trace_reads=True
        )),
    ),
    "shared/threads-8": lambda: (
        SharedMemoryJacobi(A, B, n_threads=8, seed=4), dict(observe_every=1)
    ),
    "shared/threads-8-stall": lambda: (
        SharedMemoryJacobi(A, B, n_threads=8, seed=4,
                           delay=StochasticStall(0.3, 5e-5)),
        {},
    ),
    "shared/thread-per-row": lambda: (
        SharedMemoryJacobi(SMALL, B_SMALL, n_threads=SMALL.nrows, seed=2), {}
    ),
}


# digest key -> (case name, cadence); the drift-free runs keep bare names.
KEYS = {
    (name if cadence == 1 else f"{name}@{cadence}"): (name, cadence)
    for cadence in CADENCES
    for name in CASES
}
#: Cases that cross ``tol``, so the crossing confirmation is pinned.
CROSSING = ("distributed/jacobi-4", "shared/thread-per-row")


def _result(name, cadence):
    sim, run_kwargs = CASES[name]()
    return sim.run_async(**{"tol": 1e-6, "max_iterations": 200,
                            "recompute_every": cadence, **run_kwargs})


def _run(key):
    res = _result(*KEYS[key])
    return {
        "x": sha(np.asarray(res.x, dtype="<f8")),
        "residual_norms": sha(np.asarray(res.residual_norms, dtype="<f8")),
        "times": sha(np.asarray(res.times, dtype="<f8")),
        "relaxation_counts": sha(np.asarray(res.relaxation_counts, dtype="<i8")),
    }


def _compute():
    return {"regenerate": REGENERATE,
            "runs": {key: _run(key) for key in KEYS}}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("key", KEYS)
def test_observer_matches_frozen_digest(frozen, key):
    assert _run(key) == frozen["runs"][key]


@pytest.mark.parametrize("key", [k for k in KEYS if k.startswith("distributed/")])
def test_numpy_kernels_match_frozen_digest(frozen, key):
    with numpy_kernels():
        assert _run(key) == frozen["runs"][key]


@pytest.mark.parametrize("name", CROSSING)
def test_default_cadence_crosses_tolerance(name):
    assert _result(name, 64).converged


def test_digest_file_names_its_regeneration_command(frozen):
    assert frozen["regenerate"] == REGENERATE
    assert set(frozen["runs"]) == set(KEYS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    DIGESTS.write_text(json.dumps(_compute(), indent=1) + "\n")
    print(f"wrote {DIGESTS}")
