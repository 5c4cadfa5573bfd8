"""Performance layer: batched trials, caching, parallel fan-out, native kernels.

Three cooperating pieces (see docs/performance.md):

* :mod:`repro.perf.batched` — :class:`BatchedAsyncJacobiModel` runs T
  independent trials of the Section IV-A model as one ``(n, T)`` NumPy
  computation, bit-identical to a sequential per-trial loop;
* :mod:`repro.perf.runner` / :mod:`repro.perf.cache` — a process-pool
  experiment runner with an on-disk content-hash cache (keyed by config +
  code version, disabled by ``REPRO_NO_CACHE=1`` or ``--no-cache``);
* :mod:`repro.perf.native` — compiled C relax/commit kernels for the
  distributed simulator, bit-identical to its NumPy paths.

Submodules are imported lazily, so importing the package loads none of
them. Profiling is ``python -m repro <experiment> --profile`` (cProfile);
run-time observability is the tracer (:mod:`repro.observability`).
"""

from __future__ import annotations

_SUBMODULES = {
    "BatchedAsyncJacobiModel": "repro.perf.batched",
    "BatchedModelResult": "repro.perf.batched",
    "ExperimentCache": "repro.perf.cache",
    "cache_enabled": "repro.perf.cache",
    "code_version": "repro.perf.cache",
    "run_cells": "repro.perf.runner",
}

__all__ = sorted(_SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        import importlib

        module = importlib.import_module(_SUBMODULES[name])
        return getattr(module, name)
    raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")
