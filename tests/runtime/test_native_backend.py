"""Compiled relax kernels (:mod:`repro.perf.native`): identity and fallback.

Distributed runs use the compiled kernels whenever the library loads, and
their contract is the strongest the repo offers: at small n they must
reproduce the frozen engine corpus (``engine_digests.json``, the
pre-engine loops' trajectories) bit for bit across the same feature
matrix the engine-equivalence suite covers (methods, fault plans,
tracing), and at 10^4 rows be bit-identical to the NumPy kernels. When the toolchain probe fails — no
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
    assert_matches_corpus,
    assert_results_identical,
    assert_times_comparable,
    numpy_kernels,
    run_ensemble,
)
from tests.runtime.test_engine_equivalence import DIST_ASYNC_CASES, A, B, check

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="no C toolchain (or REPRO_NO_NATIVE set): compiled kernels absent",
)

#: Every engine-equivalence async case the native kernels cover — the
#: whole matrix minus Gauss-Seidel, which always runs NumPy (BLAS
#: accumulation order is not reproducible in C).
NATIVE_CASES = {k: v for k, v in DIST_ASYNC_CASES.items() if k != "gauss_seidel"}


@needs_native
@pytest.mark.parametrize("case", NATIVE_CASES)
def test_native_bit_identical_to_legacy(case):
    """The compiled kernels reproduce the pre-engine loops' frozen digests."""
    check(f"distributed-async/{case}")


@needs_native
@pytest.mark.parametrize(
    "method",
    ["damped_jacobi", "richardson", "richardson2"],
)
def test_native_bit_identical_all_legal_methods(method):
    """Scaled and momentum method kinds run the compiled kernels bitwise."""
    check(f"methods/{method}")


@needs_native
def test_native_traced_run_matches_untraced_trajectory():
    """A traced native run yields the corpus's trajectory and stream.

    Tracing forces the general event loop; the native relax closure must
    keep the bitwise contract there too.
    """
    _, events = check("traced/distributed-plain-reads")
    assert len(events) > 0


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

    No corpus entry exists at this size; the ensemble contract (envelope overlap + comparable time-to-tolerance)
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


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count calls into the compiled packed-row relax and relax-commit entries.

    Wraps the ``NativeKernels`` slots class-wide, so every loaded library
    instance — including one re-probed during the test — is counted.
    """
    calls = {"relax": 0, "relax_commit": 0}
    for name in calls:
        slot = getattr(native.NativeKernels, name)

        def counted(self, _slot=slot, _name=name):
            fn = _slot.__get__(self)

            def call(*args):
                calls[_name] += 1
                return fn(*args)

            return call

        monkeypatch.setattr(
            native.NativeKernels, name, property(counted, slot.__set__)
        )
    return calls


NO_CALLS = {"relax": 0, "relax_commit": 0}


class TestFallbackAndValidation:
    def test_env_knob_disables_and_falls_back_bitwise(self, kernel_calls):
        """REPRO_NO_NATIVE=1: runs silently use the NumPy kernels."""
        reference = DistributedJacobi(A, B, n_ranks=8, seed=3).run_async(
            tol=1e-6, max_iterations=40
        )
        if native.native_available():
            # A plain run takes the block loop: one fused call per commit.
            assert kernel_calls["relax_commit"] > 0
            assert kernel_calls["relax"] == 0
        kernel_calls.update(NO_CALLS)
        with numpy_kernels():
            assert native.native_available() is False
            res = DistributedJacobi(A, B, n_ranks=8, seed=3).run_async(
                tol=1e-6, max_iterations=40
            )
        assert kernel_calls == NO_CALLS
        assert_results_identical(res, reference)

    @needs_native
    def test_general_loop_relaxes_natively_and_commits_in_numpy(
        self, kernel_calls
    ):
        """An eager run takes the general loop: relax-only native calls."""
        DistributedJacobi(A, B, n_ranks=8, seed=3).run_async(
            tol=1e-6, max_iterations=10, eager=True
        )
        assert kernel_calls["relax"] > 0
        assert kernel_calls["relax_commit"] == 0

    @staticmethod
    def _assert_numpy_only(kernel_calls, method):
        """The native_ok rule: Gauss-Seidel sweeps silently run NumPy."""
        result = DistributedJacobi(A, B, n_ranks=8, seed=3, method=method).run_async(
            tol=1e-6, max_iterations=5,
        )
        assert kernel_calls == NO_CALLS
        assert_matches_corpus("numpy-only/sor", result)

    def test_gauss_seidel_sweep_rejects_native(self, kernel_calls):
        self._assert_numpy_only(kernel_calls, "sor")

    def test_sor_method_rejects_native(self, kernel_calls):
        self._assert_numpy_only(kernel_calls, make_method("sor"))

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
