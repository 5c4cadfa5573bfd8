"""Compiled relax kernels (:mod:`repro.perf.native`): identity and fallback.

Distributed runs use the compiled kernels whenever the library loads, and
their contract is the strongest the repo offers: at small n they must be
*bit-identical* to the legacy oracle across the same feature matrix the
engine-equivalence suite covers (methods, fault plans, tracing), at turbo
scale bit-identical to the plain block loop, and at 10^4 rows
bit-identical to the NumPy kernels. When the toolchain probe fails — no
``cc``, or ``REPRO_NO_NATIVE=1`` — every entry point must fall back
silently and reproduce the same trajectories exactly.

Tests that need the compiled library skip (not fail) on machines without a
C compiler, so the suite stays green in toolchain-less environments.
"""

import inspect

import pytest

from repro.matrices.laplacian import fd_laplacian_2d
from repro.methods import make_method
from repro.perf import native
from repro.runtime.distributed import DistributedJacobi
from repro.util.rng import as_rng
from tests.runtime.equivalence import (
    assert_envelopes_agree,
    assert_times_comparable,
    numpy_kernels,
    run_ensemble,
)
from tests.runtime.test_engine_equivalence import (
    DIST_ASYNC_CASES,
    A,
    B,
    assert_results_identical,
)

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="no C toolchain (or REPRO_NO_NATIVE set): compiled kernels absent",
)

#: Every engine-equivalence async case the native kernels cover — the
#: whole matrix minus Gauss-Seidel, which always runs NumPy (BLAS
#: accumulation order is not reproducible in C).
NATIVE_CASES = {k: v for k, v in DIST_ASYNC_CASES.items() if k != "gauss_seidel"}


def _run_pair(kwargs, run_kwargs):
    """(engine run, legacy-oracle run) for one configuration."""
    run_kwargs = dict({"tol": 1e-6, "max_iterations": 40}, **run_kwargs)
    engine_run = DistributedJacobi(A, B, n_ranks=8, seed=3, **kwargs).run_async(
        **run_kwargs
    )
    legacy_run = DistributedJacobi(A, B, n_ranks=8, seed=3, **kwargs).run_async(
        legacy_engine=True, **run_kwargs
    )
    return engine_run, legacy_run


@needs_native
@pytest.mark.parametrize("case", NATIVE_CASES)
def test_native_bit_identical_to_legacy(case):
    kwargs, run_kwargs = NATIVE_CASES[case]
    assert_results_identical(*_run_pair(kwargs, run_kwargs))


@needs_native
@pytest.mark.parametrize(
    "method",
    ["damped_jacobi", "richardson", "richardson2"],
)
def test_native_bit_identical_all_legal_methods(method):
    """Scaled and momentum method kinds run the compiled kernels bitwise."""
    kwargs = {"method": make_method(method)}
    assert_results_identical(*_run_pair(kwargs, {}))


@needs_native
def test_native_traced_run_matches_untraced_trajectory():
    """A traced native run yields the same trajectory as the oracle's.

    Tracing forces the general event loop; the native relax closure must
    keep the bitwise contract there too.
    """
    from repro.observability import RingBufferSink, Tracer

    run_kwargs = {"tol": 1e-6, "max_iterations": 30}
    streams = []
    results = []
    for legacy in (False, True):
        sink = RingBufferSink(capacity=200_000)
        tracer = Tracer(sinks=[sink], trace_reads=True)
        sim = DistributedJacobi(A, B, n_ranks=8, seed=3)
        results.append(
            sim.run_async(tracer=tracer, legacy_engine=legacy, **run_kwargs)
        )
        streams.append(
            [(e.kind, e.time, e.seq, e.agent) for e in sink._ring]
        )
    assert len(streams[0]) > 0
    assert streams[0] == streams[1]
    assert_results_identical(*results)


TURBO_A = fd_laplacian_2d(16, 16)
TURBO_RANKS = 128  # >= _TURBO_MIN_RANKS: the turbo pre-pass runs


def _turbo_run(turbo, **extra):
    """A 128-rank plain run, with or without the turbo pre-pass.

    Returns the result and whether the turbo pre-pass ran (it is the only
    user of the warm plan's turbo edge maps).
    """
    b = as_rng(7).uniform(-1, 1, TURBO_A.shape[0])
    sim = DistributedJacobi(
        TURBO_A, b, n_ranks=TURBO_RANKS, partition="contiguous", seed=7
    )
    if not turbo:
        sim._TURBO_MIN_RANKS = TURBO_RANKS + 1
    res = sim.run_async(
        tol=1e-8, max_iterations=60, observe_every=TURBO_RANKS, **extra
    )
    return res, sim._plan.turbo_edges is not None


@needs_native
@pytest.mark.parametrize("extra", [{}, {"residual_mode": "full"}])
def test_native_turbo_bit_identical_to_block(extra):
    """At turbo rank counts the fused batch kernel matches the block loop."""
    fast, ran_turbo = _turbo_run(True, **extra)
    plain, ran_plain = _turbo_run(False, **extra)
    assert ran_turbo and not ran_plain
    assert_results_identical(fast, plain)


@needs_native
def test_native_counters_populated_on_instrumented_run():
    sim = DistributedJacobi(A, B, n_ranks=8, seed=3)
    res = sim.run_async(tol=1e-6, max_iterations=40, instrument=True)
    perf = res.perf
    assert perf.backend == "native"
    assert perf.native_calls > 0
    assert perf.native_rows_relaxed >= perf.native_calls
    assert "native" in perf.summary()
    assert "kernel calls" in perf.native_summary()


SEEDS = (1, 2, 3)
LARGE_A = fd_laplacian_2d(100, 100)  # 10^4 rows
LARGE_RANKS = 128


def _large_run(seed):
    b = as_rng(seed).uniform(-1, 1, LARGE_A.shape[0])
    sim = DistributedJacobi(
        LARGE_A, b, n_ranks=LARGE_RANKS, partition="contiguous", seed=seed
    )
    tol = sim.run_sync(max_iterations=1).residual_norms[0] / 10.0
    result = sim.run_async(
        tol=tol, max_iterations=400, observe_every=LARGE_RANKS
    )
    result.tol = tol
    return result


@needs_native
def test_native_statistically_equivalent_at_large_n():
    """10^4 rows, 128 ranks: native traces the NumPy kernels' envelope.

    Bit-identity against the legacy oracle is unaffordable here; the
    ensemble contract (envelope overlap + comparable time-to-tolerance)
    is the paper-scale check, and per-seed bit-identity against the NumPy
    kernels rides along because it is nearly free.
    """
    nat = run_ensemble(_large_run, SEEDS)
    with numpy_kernels():
        ref = run_ensemble(_large_run, SEEDS)
    assert_envelopes_agree(nat, ref, slack=0.02)
    tol = min(r.tol for r in nat)
    assert_times_comparable(nat, ref, tol, ratio=1.05)
    for r_nat, r_ref in zip(nat, ref):
        assert_results_identical(r_nat, r_ref)


class TestFallbackAndValidation:
    def test_env_knob_disables_and_falls_back_bitwise(self):
        """REPRO_NO_NATIVE=1: runs silently use the NumPy kernels."""
        reference = DistributedJacobi(A, B, n_ranks=8, seed=3).run_async(
            tol=1e-6, max_iterations=40
        )
        with numpy_kernels():
            assert native.native_available() is False
            res = DistributedJacobi(A, B, n_ranks=8, seed=3).run_async(
                tol=1e-6, max_iterations=40, instrument=True
            )
        assert res.perf.backend == "numpy"
        assert res.perf.native_calls == 0
        assert_results_identical(res, reference)

    @staticmethod
    def _assert_numpy_only(**kwargs):
        """The native_ok rule: Gauss-Seidel sweeps silently run NumPy."""
        runs = [
            DistributedJacobi(A, B, n_ranks=8, seed=3, **kwargs).run_async(
                tol=1e-6, max_iterations=5, instrument=True,
                legacy_engine=legacy,
            )
            for legacy in (False, True)
        ]
        assert runs[0].perf.backend == "numpy"
        assert runs[0].perf.native_calls == 0
        assert_results_identical(*runs)

    def test_gauss_seidel_sweep_rejects_native(self):
        self._assert_numpy_only(local_sweep="gauss_seidel")

    def test_sor_method_rejects_native(self):
        self._assert_numpy_only(method=make_method("sor"))

    def test_run_async_has_no_path_knobs(self):
        params = inspect.signature(DistributedJacobi.run_async).parameters
        assert not {"delivery", "relax_backend", "queue_backend"} & set(params)


class TestBuildMachinery:
    def test_probe_is_memoized_and_resettable(self):
        first = native.native_kernels()
        assert native.native_kernels() is first
        native._reset_probe_cache()
        again = native.native_kernels()
        assert (again is None) == (first is None)

    def test_build_info_shape(self):
        info = native.build_info()
        assert set(info) >= {
            "available", "disabled", "compiler", "cache_dir",
            "source_hash", "library", "build_ms",
        }
        assert len(native.source_hash()) == 16

    @needs_native
    def test_clean_cache_dir_rebuild(self, tmp_path, monkeypatch):
        """A cold cache dir compiles from scratch and logs the build."""
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        native._reset_probe_cache()
        try:
            kernels = native.native_kernels()
            assert kernels is not None
            assert kernels.build_ms > 0.0  # actually compiled, not cached
            assert str(kernels.path).startswith(str(tmp_path))
            assert (tmp_path / "build.log").exists()
            # Same content hash -> second probe reuses the library.
            native._reset_probe_cache()
            warm = native.native_kernels()
            assert warm is not None and warm.build_ms == 0.0
        finally:
            monkeypatch.delenv("REPRO_NATIVE_DIR")
            native._reset_probe_cache()

    def test_disabled_env_values(self, monkeypatch):
        for value, disabled in (("1", True), ("0", False), ("", False)):
            monkeypatch.setenv("REPRO_NO_NATIVE", value)
            assert native._disabled() is disabled
        monkeypatch.delenv("REPRO_NO_NATIVE")
        assert native._disabled() is False


def test_module_import_has_no_side_effects():
    """Importing repro.perf.native never compiles; only the probe does."""
    # The memo list is the only module state; importing again is a no-op.
    import importlib

    assert isinstance(native._cache, list) and len(native._cache) == 2
    assert importlib.import_module("repro.perf.native") is native
