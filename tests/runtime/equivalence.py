"""Statistical-equivalence helpers for large-n backend comparisons.

At small n the engine is held to bit-identity against the legacy oracle
(``test_engine_equivalence``): every float in every trajectory must match
byte for byte. At paper scale that comparison is unaffordable — the
oracle's per-event Python loop takes minutes per arm — so large-n
coverage asserts *statistical* equivalence instead: seeded ensembles of
runs from two configurations must trace overlapping residual envelopes
and reach tolerance in comparable simulated time.

The helpers are deterministic end to end (fixed seed lists, no wall-clock
dependence), so a divergence is reproducible from the failing seed alone.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from repro.perf import native


@contextlib.contextmanager
def numpy_kernels():
    """Run the body with the native probe off (``REPRO_NO_NATIVE=1``).

    No run option picks a kernel family: runs use the compiled kernels
    whenever the library loads, so the NumPy arm of a native-vs-NumPy
    comparison is reached by disabling the probe and resetting its memo.
    """
    old = os.environ.get("REPRO_NO_NATIVE")
    os.environ["REPRO_NO_NATIVE"] = "1"
    native._reset_probe_cache()
    try:
        yield
    finally:
        if old is None:
            del os.environ["REPRO_NO_NATIVE"]
        else:
            os.environ["REPRO_NO_NATIVE"] = old
        native._reset_probe_cache()


def run_ensemble(run_one, seeds):
    """``[run_one(seed) for seed in seeds]`` — one result per seed."""
    return [run_one(seed) for seed in seeds]


def residual_envelope(results):
    """Elementwise ``(lower, upper)`` residual bounds across an ensemble.

    Histories are truncated to the shortest run so the envelope compares
    like observation indices; returns two arrays of that common length.
    """
    if not results:
        raise ValueError("residual_envelope needs at least one result")
    n_obs = min(len(r.residual_norms) for r in results)
    stack = np.array([r.residual_norms[:n_obs] for r in results], dtype=float)
    return stack.min(axis=0), stack.max(axis=0)


def envelopes_overlap(env_a, env_b, slack: float = 0.0):
    """Index of the first observation where the envelopes separate.

    Envelope ``a`` is widened by ``slack`` (relative) before the check;
    returns ``None`` when the intervals intersect at every index. Both
    envelopes are truncated to their common length first.
    """
    lo_a, hi_a = env_a
    lo_b, hi_b = env_b
    n = min(lo_a.size, lo_b.size)
    lo_a, hi_a = lo_a[:n] * (1.0 - slack), hi_a[:n] * (1.0 + slack)
    disjoint = (hi_a < lo_b[:n]) | (hi_b[:n] < lo_a)
    where = np.nonzero(disjoint)[0]
    return int(where[0]) if where.size else None


def assert_envelopes_agree(results_a, results_b, slack: float = 0.25):
    """Both ensembles must trace intersecting residual envelopes."""
    env_a = residual_envelope(results_a)
    env_b = residual_envelope(results_b)
    sep = envelopes_overlap(env_a, env_b, slack=slack)
    assert sep is None, (
        f"residual envelopes separate at observation {sep}: "
        f"a=[{env_a[0][sep]:.3e}, {env_a[1][sep]:.3e}] vs "
        f"b=[{env_b[0][sep]:.3e}, {env_b[1][sep]:.3e}] (slack {slack})"
    )


def times_to_tolerance(results, tol: float):
    """Simulated time each run first observed a residual below ``tol``."""
    times = np.array([r.time_to_tolerance(tol) for r in results], dtype=float)
    assert np.all(np.isfinite(times)), (
        f"some runs never reached tol={tol:.3e}: {times}"
    )
    return times


def assert_times_comparable(results_a, results_b, tol: float, ratio: float = 1.5):
    """Median times-to-tolerance must agree within a factor of ``ratio``."""
    med_a = float(np.median(times_to_tolerance(results_a, tol)))
    med_b = float(np.median(times_to_tolerance(results_b, tol)))
    assert med_a <= ratio * med_b and med_b <= ratio * med_a, (
        f"median time-to-tolerance differs beyond {ratio}x: "
        f"{med_a:.3e} vs {med_b:.3e}"
    )
