"""Event-engine benchmark: simulator event rates on a calibrated scale.

Times the simulator-dominated paper workloads through the event engine
(``repro.runtime.engine``) and archives their event rates in
``benchmarks/results/engine.json``:

* ``fig3_simulator`` — the Figure 3 shared-memory scenario (FD-68, one
  thread per row, a constant-delay sleeper mid-domain), fixed iteration
  budget;
* ``fig4`` — the Figure 4 delay sweep (same machine, three delay
  magnitudes spanning the saw-tooth regime), fixed budget per delay;
* ``fig8`` — the Figure 8 distributed scaling grid (2-D FD Laplacian,
  4..256 ranks, synchronous and asynchronous to a 10x residual
  reduction). The ``new`` arm runs the engine with the native probe
  disabled in-process (the NumPy kernels). When a C toolchain is
  present a second ``native`` arm runs the engine as shipped (compiled
  kernels) over the same grid — bit-identical to the ``new`` arm on every
  rep — and the measured ``native_speedup_vs_block`` (native over the
  NumPy ``new`` arm) is archived to ``benchmarks/results/native.json``
  (plus build provenance), so the honest compiled-kernel number lives
  next to the engine's;
* ``scaling`` — the size-scaling curve (n = 10^4 -> 10^6 stencil rows,
  fixed rank count and iteration budget) of the block loop with the
  NumPy kernels (``block`` columns) and, when the toolchain probe
  succeeds, the compiled kernels (``native`` columns, bit-identical).
  The 10^6 point is full-size locally and smoke-sized (tiny budget,
  ungated) under ``REPRO_BENCH_SMOKE=1``, which the CI benchmarks job
  sets.

Every rep's trajectory is asserted bit-identical to the first (and the
arms to each other), so the arms provably do the same work. Arms are
interleaved round-robin and each takes its best-of-N, so slow drift hits
all alike. Absolute times are machine-dependent, so
``benchmarks/compare.py`` gates only ratios. Every round also times a
calibration kernel (the ``matvec_fd4624`` SpMV of ``kernels.json``), and
each workload's ``*_calibrated_speedup`` is an arm's events per second
times the best calibration time: events simulated per SpMV on the same
host, in the same run.
"""

import contextlib
import os
import time

import numpy as np

from conftest import publish, publish_json

from repro.experiments.fig3 import DELAYED_ROW, N_ROWS, N_THREADS
from repro.perf import native
from repro.perf.native import build_info, native_available
from repro.matrices.laplacian import fd_laplacian_2d, paper_fd_matrix
from repro.runtime import KNL
from repro.runtime.delays import ConstantDelay
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi
from repro.util.rng import as_rng

REPS = 15  # best-of-N per arm, interleaved
#: Calibration kernel, timed in every round next to the arms: the
#: ``matvec_fd4624`` SpMV of ``kernels.json``. An arm's events per second
#: times its best matvec time (events simulated per matvec) is the gated
#: ``*_calibrated_speedup``: a throughput in units of this host's speed.
CAL_A = paper_fd_matrix(4624)
CAL_X = np.random.default_rng(0).standard_normal(CAL_A.nrows)
CAL_MATVECS = 100  # per round; the best round's mean is the calibration
FIG8_RANKS = (4, 16, 64, 256)  # the fig8 experiment's scaled grid
FIG8_GRID = (63, 63)
FIG8_REDUCTION = 10.0
SHARED_BUDGET = 250  # fixed iteration budget: identical work per arm
TOL_NEVER = 1e-30

#: CI sets this to shrink the 10^6 scaling point to a smoke run.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SCALING_GRIDS = ((100, 100), (316, 316), (1000, 1000))  # 1e4 -> 1e6 rows
SCALING_RANKS = 256  # delivery-heavy: ~2 puts per commit, 6144 commits
SCALING_BUDGET = 24  # iterations per rank: identical event count per size
SCALING_REPS = 3


@contextlib.contextmanager
def _kernels(numpy_only):
    """Run the body on the NumPy kernels when ``numpy_only`` is set.

    No run option selects a kernel family, so the NumPy arm disables the
    native probe in-process and re-enables it on exit. Both toggles and
    the re-probe happen here, outside the timed region.
    """
    if not numpy_only:
        yield
        return
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
        native.native_kernels()


def _matvec_seconds():
    """Mean seconds of one calibration SpMV over ``CAL_MATVECS`` calls."""
    start = time.perf_counter()
    for _ in range(CAL_MATVECS):
        CAL_A.matvec(CAL_X)
    return (time.perf_counter() - start) / CAL_MATVECS


def _interleaved_best(runs, reps=REPS):
    """Best-of-``reps`` for each (name, fn, numpy_only) with round-robin
    interleaving.

    Every ``fn`` returns its result object; per-rep results are checked
    bitwise against the first rep so the arms provably did the same work.
    ``numpy_only`` arms run with the native probe disabled (:func:`_kernels`).
    Every round also times the calibration SpMV; its best is returned
    under ``"matvec"``.
    """
    best = {name: float("inf") for name, _, _ in runs}
    best["matvec"] = float("inf")
    reference = {}
    _matvec_seconds()
    for name, fn, numpy_only in runs:
        with _kernels(numpy_only):
            fn()  # warm-up: imports, allocator, lazy compile steps
    for _ in range(reps):
        best["matvec"] = min(best["matvec"], _matvec_seconds())
        for name, fn, numpy_only in runs:
            with _kernels(numpy_only):
                start = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - start
            best[name] = min(best[name], elapsed)
            key = (
                result.x.tobytes(),
                tuple(result.times),
                tuple(result.residual_norms),
            )
            reference.setdefault(name, key)
            assert reference[name] == key, f"{name}: non-deterministic rerun"
    return best, reference


def _assert_arms_match(reference, name, other):
    assert reference[name] == reference[other], (
        f"{name} and {other} trajectories diverged"
    )


def _shared_sim(delay_us):
    rng = as_rng(5)
    A = paper_fd_matrix(N_ROWS)
    b = rng.uniform(-1, 1, N_ROWS)
    x0 = rng.uniform(-1, 1, N_ROWS)
    kwargs = dict(n_threads=N_THREADS, machine=KNL, seed=5)
    if delay_us:
        kwargs["delay"] = ConstantDelay({DELAYED_ROW: delay_us * 1e-6})
    return SharedMemoryJacobi(A, b, **kwargs), x0


def _bench_shared(delays_us):
    """Best-of-REPS over the summed delay sweep.

    Returns the best times plus the sweep's commit count, for
    events-per-second reporting.
    """
    sims = [_shared_sim(d) for d in delays_us]

    def fn():
        return [
            sim.run_async(
                x0=x0, tol=TOL_NEVER, max_iterations=SHARED_BUDGET,
                observe_every=N_THREADS,
            )
            for sim, x0 in sims
        ]

    events = sum(int(np.sum(res.iterations)) for res in fn())
    best, _ = _interleaved_best([("new", lambda: fn()[-1], False)])
    return best, events


def _bench_fig8():
    """The fig8 grid: sync + async to a 10x reduction, all rank counts.

    The new arm runs the engine on the NumPy kernels. A second ``native``
    arm (the engine as shipped, compiled kernels) joins when the toolchain
    probe succeeds, bitwise-asserted against the new arm on every rep.
    Returns the best times plus the composite's block-commit event count
    (identical in both arms), for events-per-second reporting.
    """
    A = fd_laplacian_2d(*FIG8_GRID)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    configs = []
    for n_ranks in FIG8_RANKS:
        sim = DistributedJacobi(A, b, n_ranks=n_ranks, seed=1)
        probe = sim.run_sync(max_iterations=1)
        tol = probe.residual_norms[0] / FIG8_REDUCTION
        configs.append((sim, n_ranks, tol))

    events = 0

    def run(count=False):
        def fn():
            nonlocal events
            last = None
            for sim, n_ranks, tol in configs:
                rs = sim.run_sync(tol=tol, max_iterations=5000)
                last = sim.run_async(
                    tol=tol, max_iterations=5000, observe_every=n_ranks,
                )
                if count:
                    events += int(np.sum(rs.iterations))
                    events += int(np.sum(last.iterations))
            return last

        return fn

    run(count=True)()  # one counted pass, outside the timing loop
    arms = [("new", run(), True)]
    if native_available():
        arms.insert(0, ("native", run(), False))
    best, ref = _interleaved_best(arms)
    if "native" in best:
        _assert_arms_match(ref, "native", "new")
    return best, events


def _bench_scaling():
    """The size-scaling curve of the block loop: NumPy vs native kernels.

    Fixed rank count and iteration budget, so every size and both arms
    process the same number of block-commit events; the curve isolates
    how per-commit cost scales with problem size. Under ``SMOKE`` the
    10^6-row point shrinks to a tiny budget and publishes no gated
    metrics (compare.py then skips it as absent from the results).
    """
    out = {}
    for grid in SCALING_GRIDS:
        n = grid[0] * grid[1]
        smoke_point = SMOKE and n >= 10**6
        budget = 2 if smoke_point else SCALING_BUDGET
        A = fd_laplacian_2d(*grid)
        b = np.random.default_rng(0).standard_normal(n)
        sim = DistributedJacobi(
            A, b, n_ranks=SCALING_RANKS, partition="contiguous", seed=1
        )

        def fn():
            return sim.run_async(
                tol=TOL_NEVER, max_iterations=budget,
                observe_every=SCALING_RANKS,
            )

        arms = [("block", fn, True)]
        if native_available():
            arms.insert(0, ("native", fn, False))
        best, ref = _interleaved_best(arms, reps=1 if smoke_point else SCALING_REPS)
        if "native" in best:
            _assert_arms_match(ref, "native", "block")
        events = SCALING_RANKS * budget
        if smoke_point:
            # Info only — names avoid the _seconds/speedup gating suffixes.
            out[f"n{n}"] = {"smoke_only": True, "block_wall": best["block"]}
            if "native" in best:
                out[f"n{n}"]["native_wall"] = best["native"]
        else:
            out[f"n{n}"] = {
                "block_seconds": best["block"],
                "block_events_per_second": events / best["block"],
            }
            if "native" in best:
                out[f"n{n}"]["native_seconds"] = best["native"]
                out[f"n{n}"]["native_events_per_second"] = events / best["native"]
                out[f"n{n}"]["native_speedup_vs_block"] = (
                    best["block"] / best["native"]
                )
    return out


def _rates(best, events, arm):
    """``arm``'s seconds, events per second and calibrated event rate."""
    return {
        f"{arm}_seconds": best[arm],
        f"{arm}_events_per_second": events / best[arm],
        f"{arm}_calibrated_speedup": events / best[arm] * best["matvec"],
    }


def _row(name, best, events, arm):
    return (
        f"{name:>16} {best[arm]:>10.4f} {events / best[arm]:>12,.0f} "
        f"{best['matvec'] * 1e6:>10.1f} "
        f"{events / best[arm] * best['matvec']:>11.2f}"
    )


def test_engine_speedups(benchmark):
    workloads = {
        "fig3_simulator": lambda: _bench_shared((250,)),
        "fig4": lambda: _bench_shared((0, 1000, 10000)),
        "fig8": _bench_fig8,
    }
    payload, rows = {}, []
    for name, bench in workloads.items():
        best, events = bench()
        payload[name] = {"matvec_seconds": best["matvec"], **_rates(best, events, "new")}
        rows.append(_row(name, best, events, "new"))

    # ``best`` and ``events`` are fig8's, the one workload with a native arm.
    if "native" in best:
        # Compiled-kernel arm: bit-identical to the NumPy arm (asserted
        # in _bench_fig8), so the ratio isolates pure relax/commit kernel
        # cost. Archived separately so machines without a toolchain skip
        # the gate (compare.py treats absent metrics as skipped).
        native_vs_block = best["new"] / best["native"]
        payload["fig8"]["native_seconds"] = best["native"]
        payload["fig8"]["native_events_per_second"] = events / best["native"]
        payload["fig8"]["native_speedup_vs_block"] = native_vs_block
        rows.append(_row("fig8 (native)", best, events, "native"))
        info = build_info()
        publish_json(
            "native",
            {
                "fig8": {
                    "block_seconds": best["new"],
                    "matvec_seconds": best["matvec"],
                    "native_speedup_vs_block": native_vs_block,
                    **_rates(best, events, "native"),
                },
                "build": {
                    "compiler": info.get("compiler"),
                    "source_hash": info.get("source_hash"),
                    "library": info.get("library"),
                    "build_millis": info.get("build_ms") or 0.0,
                },
            },
        )
        assert native_vs_block > 0.9, (
            "fig8: native kernels slower than the NumPy kernels"
        )

    def measured():  # archive the headline number under pytest-benchmark
        return payload["fig8"]["new_seconds"]

    benchmark.pedantic(measured, rounds=1, iterations=1)

    report = "\n".join(
        [
            "Event-engine event rates, calibrated by the matvec_fd4624 SpMV "
            f"(best of {REPS}, interleaved):",
            "",
            f"{'workload':>16} {'time (s)':>10} {'events/s':>12} "
            f"{'SpMV (us)':>10} {'events/SpMV':>11}",
            *rows,
        ]
    )
    publish("engine", report)
    publish_json("engine", payload)


def test_engine_scaling(benchmark):
    payload = _bench_scaling()
    rows = []
    for key, entry in payload.items():
        if entry.get("smoke_only"):
            rows.append(
                f"{key:>10} {entry['block_wall']:>10.4f}"
                "    (smoke budget, ungated)"
            )
            continue
        native = (
            f"  native {entry['native_seconds']:.4f}s "
            f"({entry['native_speedup_vs_block']:.2f}x vs NumPy)"
            if "native_seconds" in entry
            else ""
        )
        rows.append(
            f"{key:>10} {entry['block_seconds']:>10.4f} "
            f"{entry['block_events_per_second']:>12,.0f} ev/s{native}"
        )

    gated = [k for k, e in payload.items() if not e.get("smoke_only")]

    def measured():  # largest gated size's block time
        return payload[gated[-1]]["block_seconds"]

    benchmark.pedantic(measured, rounds=1, iterations=1)

    report = "\n".join(
        [
            "Block-loop scaling: NumPy vs native kernels "
            f"({SCALING_RANKS} ranks, {SCALING_BUDGET} iterations/rank, "
            f"best of {SCALING_REPS}, interleaved):",
            "",
            f"{'size':>10} {'numpy (s)':>10} {'throughput':>17}",
            *rows,
        ]
    )
    publish("engine_scaling", report)
    publish_json("engine_scaling", payload)
