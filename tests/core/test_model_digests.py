"""Frozen model trajectories: both model executors, pinned by digest.

``model_digests.json`` pins sha256 digests of ``x``, ``residual_norms``,
``times`` and ``relaxation_counts`` for :class:`AsyncJacobiModel` and
:class:`BatchedAsyncJacobiModel` (T=3 trials) runs on two matrices,
across all five method kinds and three schedules (random subset, one
delayed row, synchronous). A 1-D entry stacks the three per-trial runs
the way the batched result holds them, so the two executors' entries for
one case are directly comparable, and are equal: the batched executor is
bit-identical to a per-trial loop. Every case runs at two residual
cadences, keyed ``<case>@<recompute_every>``: ``1`` recomputes the
residual from scratch after every step and ``64`` is the default. The
``@1`` digests were first recorded from the executors' former
``residual_mode="full"``, which made exactly these runs; only batched SOR
moved, onto the 1-D digests, when its cadence-1 row sums became the 1-D
kernel's. One ``record_every=5``, 2-norm case per method kind and
executor pins the sparse history and the per-column norm path.
Regenerate (only for a deliberate change) with::

    PYTHONPATH=src python -m tests.core.test_model_digests --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.model import AsyncJacobiModel
from repro.core.schedules import (
    DelayedRowsSchedule,
    RandomSubsetSchedule,
    SynchronousSchedule,
)
from repro.matrices.laplacian import fd_laplacian_2d
from repro.matrices.stencil import anisotropic_laplacian_2d
from repro.perf.batched import BatchedAsyncJacobiModel

from tests.runtime.equivalence import sha

DIGESTS = Path(__file__).with_name("model_digests.json")
REGENERATE = "PYTHONPATH=src python -m tests.core.test_model_digests --write"
#: Residual cadences (``recompute_every``) every case is pinned at.
CADENCES = (1, 64)
T = 3

MATRICES = {
    "fd12": fd_laplacian_2d(12, 12),
    "aniso": anisotropic_laplacian_2d(10, 9, 0.1),
}
#: One spec per method kind, parametrised so that no two kinds share
#: arithmetic on these unit-diagonal matrices.
KINDS = {
    "jacobi": "jacobi",
    "damped_jacobi": {"kind": "damped_jacobi", "omega": 2 / 3},
    "richardson": {"kind": "richardson", "alpha": 0.9},
    "richardson2": {"kind": "richardson2", "alpha": 1.0, "beta": 0.1},
    "sor": {"kind": "sor", "omega": 1.2},
}
SCHEDULES = {
    "random": lambda n: RandomSubsetSchedule(n, 0.5, seed=5),
    "delayed": lambda n: DelayedRowsSchedule(n, {n // 2: 4}),
    "sync": lambda n: SynchronousSchedule(n),
}
EXECUTORS = ("model", "batched")
#: Extra run arguments per history variant.
VARIANTS = {"": {}, "every5-ord2": dict(record_every=5, residual_norm_ord=2)}

# case name -> (executor, matrix, kind, schedule, variant)
CASES = {
    f"{ex}/{mat}/{kind}/{sched}": (ex, mat, kind, sched, "")
    for ex in EXECUTORS
    for mat in MATRICES
    for kind in KINDS
    for sched in SCHEDULES
}
CASES.update({
    f"{ex}/aniso/{kind}/random/every5-ord2": (ex, "aniso", kind, "random", "every5-ord2")
    for ex in EXECUTORS
    for kind in KINDS
})
KEYS = {
    f"{name}@{cadence}": (name, cadence) for name in CASES for cadence in CADENCES
}


def _run(key):
    name, cadence = KEYS[key]
    executor, mat, kind, sched, variant = CASES[name]
    A = MATRICES[mat]
    n = A.nrows
    B = np.random.default_rng(0).standard_normal((n, T))
    X0 = np.random.default_rng(1).standard_normal((n, T))
    kwargs = dict(tol=1e-4, max_steps=300, recompute_every=cadence,
                  **VARIANTS[variant])
    if executor == "batched":
        res = BatchedAsyncJacobiModel(A, B, method=KINDS[kind]).run(
            SCHEDULES[sched](n), X0=X0, **kwargs
        )
        trials = [res.trial(t) for t in range(T)]
    else:
        trials = [
            AsyncJacobiModel(A, B[:, t].copy(), method=KINDS[kind]).run(
                SCHEDULES[sched](n), x0=X0[:, t].copy(), **kwargs
            )
            for t in range(T)
        ]
    return {
        "x": sha(np.column_stack([tr.x for tr in trials]).astype("<f8")),
        "residual_norms": sha(np.asarray(
            [v for tr in trials for v in tr.residual_norms], dtype="<f8")),
        "times": sha(np.asarray([v for tr in trials for v in tr.times], dtype="<f8")),
        "relaxation_counts": sha(np.asarray(
            [v for tr in trials for v in tr.relaxation_counts], dtype="<i8")),
    }


def _compute():
    return {"regenerate": REGENERATE, "runs": {key: _run(key) for key in KEYS}}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("key", KEYS)
def test_model_matches_frozen_digest(frozen, key):
    assert _run(key) == frozen["runs"][key]


@pytest.mark.parametrize("key", [k for k in KEYS if k.startswith("batched/")])
def test_batched_digest_equals_its_sequential_twin(frozen, key):
    assert frozen["runs"][key] == frozen["runs"]["model/" + key[len("batched/"):]]


def test_digest_file_names_its_regeneration_command(frozen):
    assert frozen["regenerate"] == REGENERATE
    assert set(frozen["runs"]) == set(KEYS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    DIGESTS.write_text(json.dumps(_compute(), indent=1) + "\n")
    print(f"wrote {DIGESTS}")
