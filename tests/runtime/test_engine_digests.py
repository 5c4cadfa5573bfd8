"""Frozen engine trajectories: both machine simulators, pinned by digest.

``engine_digests.json`` pins, for every case of the engine bit-identity
suite (``test_engine_equivalence.py``: distributed async and sync runs
across fault plans, recovery policies, delay models and jitter settings,
shared-memory runs, traced runs, the 100-rank exact-tie layout and the
non-Jacobi method kinds), sha256 digests of every result field a
bit-identity comparison covers: ``x``, ``times``, ``residual_norms``,
``relaxation_counts``, ``iterations``, ``total_time`` and the
:class:`~repro.runtime.results.FaultTelemetry` fields, with
``converged`` kept as a bool. Traced cases also pin the
``(kind, time, seq, agent, data)`` stream of their ``TraceEvent`` s.

The corpus was recorded while the pre-engine loops still existed: the
writer ran every case on the engine and on those loops and wrote nothing
unless both gave the same digests, so the corpus carries their
authority now that they are deleted. The writer still runs two arms, the
engine on the compiled kernels and on the NumPy kernels, and refuses to
write unless they agree. Regenerate (only for a deliberate change) with::

    PYTHONPATH=src python -m tests.runtime.test_engine_digests --write
"""

import json
import sys

import pytest

from repro.perf.native import native_available
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi

from tests.runtime.equivalence import (
    ENGINE_DIGESTS,
    assert_matches_corpus,
    numpy_kernels,
    run_digests,
)
from tests.runtime.test_engine_equivalence import RUNS, A, B

REGENERATE = "PYTHONPATH=src python -m tests.runtime.test_engine_digests --write"
#: Corpus cases no test of ``test_engine_equivalence.py`` runs: they are
#: checked on the compiled kernels by ``test_native_backend.py``, and here
#: on the NumPy kernels.
NATIVE_SUITE_ONLY = [k for k in RUNS if k.startswith("methods/")] + [
    "traced/distributed-plain-reads"
]


def _record(key):
    compiled = run_digests(*RUNS[key]())
    with numpy_kernels():
        numpy_arm = run_digests(*RUNS[key]())
    if compiled != numpy_arm:
        sys.exit(f"{key}: the compiled and NumPy kernels disagree; nothing written")
    return compiled


@pytest.fixture(scope="module")
def frozen():
    return json.loads(ENGINE_DIGESTS.read_text())


def test_digest_file_names_its_regeneration_command(frozen):
    assert frozen["regenerate"] == REGENERATE
    assert set(frozen["runs"]) == set(RUNS)


#: Each entry point that keeps the ``legacy_engine`` keyword, with the
#: corpus case its ``legacy_engine=False`` call reproduces.
ENTRY_POINTS = {
    "distributed-async/plain": lambda: DistributedJacobi(
        A, B, n_ranks=8, seed=3).run_async,
    "distributed-sync/plain": lambda: DistributedJacobi(
        A, B, n_ranks=8, seed=3).run_sync,
    "shared-async/plain": lambda: SharedMemoryJacobi(
        A, B, n_threads=8, seed=3).run_async,
}


@pytest.mark.parametrize("key", ENTRY_POINTS)
def test_legacy_engine_keyword_is_refused(key):
    """``legacy_engine=True`` raises and names the corpus; ``False`` (the
    ``bench/`` harness's call) runs the corpus trajectory."""
    run = ENTRY_POINTS[key]()
    max_iterations = 40 if key.startswith("distributed-async") else 60
    with pytest.raises(ValueError, match="engine_digests.json"):
        run(tol=1e-6, max_iterations=max_iterations, legacy_engine=True)
    result = run(tol=1e-6, max_iterations=max_iterations, legacy_engine=False)
    assert_matches_corpus(key, result)


@pytest.mark.parametrize("key", NATIVE_SUITE_ONLY)
def test_numpy_kernels_match_frozen_digest(key):
    with numpy_kernels():
        assert_matches_corpus(key, *RUNS[key]())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    print(f"compiled kernels: {native_available()}")
    runs = {key: _record(key) for key in RUNS}
    ENGINE_DIGESTS.write_text(
        json.dumps({"regenerate": REGENERATE, "runs": runs}, indent=1) + "\n"
    )
    print(f"wrote {ENGINE_DIGESTS} ({len(runs)} runs)")
