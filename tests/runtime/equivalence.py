"""Bit-identity and statistical-equivalence helpers for the simulators.

At small n the engine is held to bit-identity against a frozen corpus:
``engine_digests.json`` pins sha256 digests of every result field (and
trace stream) of each case in ``test_engine_equivalence``, and
:func:`assert_matches_corpus` checks a run against its entry; the
observer and model-executor digest tests hash with the same :func:`sha`.
At paper scale a frozen case per configuration is
not worth its cost, so large-n coverage asserts *statistical*
equivalence instead: seeded ensembles of runs from two configurations
must trace overlapping residual envelopes and reach tolerance in
comparable simulated time.

The helpers are deterministic end to end (fixed seed lists, no wall-clock
dependence), so a divergence is reproducible from the failing seed alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.perf import native

#: The frozen engine corpus (see ``tests/runtime/test_engine_digests.py``).
ENGINE_DIGESTS = Path(__file__).with_name("engine_digests.json")


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


def sha(arr) -> str:
    """sha256 hex digest of an array's contiguous bytes."""
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def canon(v):
    """Hashable, bitwise-faithful form of a result field or trace payload."""
    if isinstance(v, np.ndarray):
        return ("nd", v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, (list, tuple)):
        return tuple(canon(e) for e in v)
    if isinstance(v, dict):
        return tuple(sorted((k, canon(x)) for k, x in v.items()))
    return v


def assert_results_identical(a, c):
    """Two simulation results agree bit for bit in every field."""
    assert canon(a.x) == canon(c.x)
    assert a.converged == c.converged
    assert a.times == c.times
    assert a.residual_norms == c.residual_norms
    assert a.relaxation_counts == c.relaxation_counts
    assert canon(a.iterations) == canon(c.iterations)
    assert a.total_time == c.total_time
    ta, tc = a.telemetry, c.telemetry
    if ta is None or tc is None:
        assert ta is None and tc is None
    else:
        assert canon(vars(ta)) == canon(vars(tc))


def _repr_sha(v) -> str:
    """sha256 of ``repr(canon(v))``: Python float reprs round-trip exactly."""
    return hashlib.sha256(repr(canon(v)).encode()).hexdigest()


def run_digests(res, events=None) -> dict:
    """Digests of every field :func:`assert_results_identical` compares.

    ``x``, the ``times``/``residual_norms``/``relaxation_counts`` history,
    the per-agent ``iterations``, ``total_time`` and the
    :class:`~repro.runtime.results.FaultTelemetry` fields (``None`` when
    the run carries no telemetry); ``converged`` is kept as a plain bool.
    Given a ``TraceEvent`` stream, ``trace`` digests its
    ``(kind, time, seq, agent, data)`` tuples.
    """
    tm = res.telemetry
    out = {
        "x": sha(np.asarray(res.x, dtype="<f8")),
        "converged": bool(res.converged),
        "times": sha(np.asarray(res.times, dtype="<f8")),
        "residual_norms": sha(np.asarray(res.residual_norms, dtype="<f8")),
        "relaxation_counts": sha(np.asarray(res.relaxation_counts, dtype="<i8")),
        "iterations": sha(np.asarray(res.iterations, dtype="<i8")),
        "total_time": sha(np.asarray([res.total_time], dtype="<f8")),
        "telemetry": None if tm is None else _repr_sha(vars(tm)),
    }
    if events is not None:
        out["trace"] = _repr_sha(
            [(e.kind, e.time, e.seq, e.agent, e.data) for e in events]
        )
    return out


def assert_matches_corpus(key, result, events=None):
    """One run's digests must equal the engine corpus entry ``key``."""
    frozen = json.loads(ENGINE_DIGESTS.read_text())["runs"][key]
    assert run_digests(result, events) == frozen, key


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
