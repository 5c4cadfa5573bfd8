"""Engine vs legacy bit-identity: trajectories, telemetry, trace streams.

The fast engine (``repro.runtime.engine`` + the ported simulator loops)
must produce *exactly* the outputs of the pre-engine implementations kept
in ``repro.runtime.legacy`` — same RNG call order, same tie-breaking, so
every float in the x history, residual history, event times, telemetry
counters, and ``TraceEvent`` stream is byte-for-byte equal. These tests
run both arms across the feature matrix (fault plans, recovery policies,
delay models, sweep variants; plain distributed runs take the block loop,
the rest the general loop) and compare everything. The engine arm runs
the compiled kernels whenever they load; CI also runs this file under
``REPRO_NO_NATIVE=1`` to pin the NumPy kernels to the same oracle.
"""

import numpy as np
import pytest

from repro.faults import CorruptBurst, Crash, DropBurst, FaultPlan, PartitionWindow
from repro.matrices.laplacian import fd_laplacian_2d
from repro.observability import RingBufferSink, Tracer
from repro.runtime.delays import (
    CompositeDelay,
    ConstantDelay,
    StochasticStall,
    StragglerDelay,
)
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi

A = fd_laplacian_2d(10, 10)
N = A.shape[0]
B = np.random.default_rng(0).standard_normal(N)

PLAN = FaultPlan(
    [
        Crash(2, 0.0004, restart_after=0.0008),
        DropBurst(0.0002, 0.0006, 0.4),
        PartitionWindow(frozenset({0, 1, 2, 3}), 0.0003, 0.0004),
    ],
    seed=11,
)
CORRUPT_PLAN = FaultPlan(
    [Crash(5, 0.0005), CorruptBurst(0.0001, 0.001, 0.3)], seed=7
)
THREAD_PLAN = FaultPlan([Crash(1, 2e-4, restart_after=4e-4)], seed=5)


def canon(v):
    """Hashable, bitwise-faithful form of a result field."""
    if isinstance(v, np.ndarray):
        return ("nd", v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, (list, tuple)):
        return tuple(canon(e) for e in v)
    if isinstance(v, dict):
        return tuple(sorted((k, canon(x)) for k, x in v.items()))
    return v


def assert_results_identical(a, c):
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
        assert {k: canon(v) for k, v in vars(ta).items()} == {
            k: canon(v) for k, v in vars(tc).items()
        }


DIST_ASYNC_CASES = {
    "plain": (dict(), dict()),
    "eager": (dict(), dict(eager=True)),
    "detect": (dict(), dict(termination="detect", report_every=3)),
    "drops": (dict(drop_probability=0.15, fault_seed=5), dict()),
    "reliable_drops": (
        dict(drop_probability=0.15, fault_seed=5, reliable=True),
        dict(max_iterations=25),
    ),
    "duplicates": (dict(duplicate_probability=0.2, fault_seed=9), dict()),
    "faultplan": (dict(fault_plan=PLAN, reliable=False), dict()),
    "faults_reliable": (dict(fault_plan=PLAN), dict(max_iterations=25)),
    "corrupt_reliable": (dict(fault_plan=CORRUPT_PLAN), dict(max_iterations=25)),
    "adopt_detect": (
        dict(fault_plan=PLAN, recovery="adopt"),
        dict(termination="detect", report_every=2, max_iterations=25),
    ),
    "freeze_eager": (
        dict(fault_plan=PLAN, recovery="freeze"),
        dict(eager=True, max_iterations=25),
    ),
    "full_residual": (dict(), dict(residual_mode="full")),
    "gauss_seidel": (dict(local_sweep="gauss_seidel"), dict()),
    "constant_delay": (dict(delay=ConstantDelay({1: 2e-5, 3: 2e-5})), dict()),
    "stoch_stall": (dict(delay=StochasticStall(0.3, 5e-5)), dict()),
    "composite_delay": (
        dict(delay=CompositeDelay(ConstantDelay({0: 1e-5}), StragglerDelay({5: 2.0}))),
        dict(),
    ),
    "omega": (dict(omega=0.8), dict()),
    "instrumented": (dict(), dict(instrument=True)),
}


@pytest.mark.parametrize("case", DIST_ASYNC_CASES)
def test_distributed_async_bit_identical(case):
    kwargs, run_kwargs = DIST_ASYNC_CASES[case]
    run_kwargs = dict({"tol": 1e-6, "max_iterations": 40}, **run_kwargs)
    outs = []
    for legacy in (False, True):
        solver = DistributedJacobi(A, B, n_ranks=8, seed=3, **kwargs)
        outs.append(solver.run_async(legacy_engine=legacy, **run_kwargs))
    assert_results_identical(*outs)


DIST_SYNC_CASES = {
    "plain": dict(),
    "gauss_seidel": dict(local_sweep="gauss_seidel"),
    "straggler": dict(delay=StragglerDelay({2: 2.5})),
    "stoch_stall": dict(delay=StochasticStall(0.3, 5e-5)),
    "omega": dict(omega=1.2),
    "one_rank": dict(n_ranks=1),
}


@pytest.mark.parametrize("case", DIST_SYNC_CASES)
def test_distributed_sync_bit_identical(case):
    kwargs = dict(dict(n_ranks=8), **DIST_SYNC_CASES[case])
    outs = []
    for legacy in (False, True):
        solver = DistributedJacobi(A, B, seed=3, **kwargs)
        outs.append(
            solver.run_sync(tol=1e-6, max_iterations=60, legacy_engine=legacy)
        )
    assert_results_identical(*outs)


SHARED_CASES = {
    "plain": (dict(n_threads=8), dict()),
    "oversubscribed": (dict(n_threads=16), dict()),
    "record_trace": (dict(n_threads=6), dict(record_trace=True)),
    "straggler": (dict(n_threads=8, delay=StragglerDelay({3: 3.0})), dict()),
    "stoch_stall": (dict(n_threads=8, delay=StochasticStall(0.3, 5e-5)), dict()),
    "faultplan": (dict(n_threads=8, fault_plan=THREAD_PLAN), dict()),
    "run_until_all": (
        dict(n_threads=8),
        dict(run_until_all_reach=True, max_iterations=12),
    ),
    "full_residual": (dict(n_threads=8), dict(residual_mode="full")),
    "instrumented": (dict(n_threads=8), dict(instrument=True)),
}


@pytest.mark.parametrize("case", SHARED_CASES)
def test_shared_async_bit_identical(case):
    kwargs, run_kwargs = SHARED_CASES[case]
    run_kwargs = dict({"tol": 1e-6, "max_iterations": 60}, **run_kwargs)
    outs = []
    for legacy in (False, True):
        solver = SharedMemoryJacobi(A, B, seed=3, **kwargs)
        res = solver.run_async(legacy_engine=legacy, **run_kwargs)
        outs.append(res)
    a, c = outs
    assert_results_identical(a, c)
    if a.trace is not None or c.trace is not None:
        ra = [(r.row, r.index, r.time, r.reads) for r in a.trace._all]
        rc = [(r.row, r.index, r.time, r.reads) for r in c.trace._all]
        assert ra == rc


def _trace_events(solver_fn, legacy, **run_kwargs):
    sink = RingBufferSink(capacity=200_000)
    tracer = Tracer(sinks=[sink], trace_reads=run_kwargs.pop("trace_reads"))
    solver_fn().run_async(tracer=tracer, legacy_engine=legacy, **run_kwargs)
    return [
        (e.kind, e.time, e.seq, e.agent, canon(e.data)) for e in sink._ring
    ]


@pytest.mark.parametrize("trace_reads", [False, True])
def test_tracing_compat_shared_fig3_style(trace_reads):
    """Figure 3-style traced shared-memory run: identical TraceEvent stream."""

    def make():
        return SharedMemoryJacobi(A, B, n_threads=8, seed=3)

    streams = [
        _trace_events(
            make, legacy, tol=1e-6, max_iterations=40, trace_reads=trace_reads
        )
        for legacy in (False, True)
    ]
    assert len(streams[0]) > 0
    assert streams[0] == streams[1]


@pytest.mark.parametrize("trace_reads", [False, True])
def test_tracing_compat_distributed_fault_plan(trace_reads):
    """Traced distributed run under a fault plan: identical TraceEvent stream.

    This is what keeps observability replay and the Theorem 1 residual
    checks valid on the new engine.
    """

    def make():
        return DistributedJacobi(A, B, n_ranks=8, seed=3, fault_plan=PLAN)

    streams = [
        _trace_events(
            make, legacy, tol=1e-6, max_iterations=30, trace_reads=trace_reads
        )
        for legacy in (False, True)
    ]
    assert len(streams[0]) > 0
    assert streams[0] == streams[1]


def test_turbo_bail_reruns_bit_identical_to_legacy(monkeypatch):
    """An exact time tie aborts the turbo pre-pass; the rerun on the plain
    block loop still matches the oracle bit for bit.

    Ranks 1 and 2 of this layout have the same block size, nnz, put sizes
    and node, so giving them the same generator makes their whole
    timelines coincide: every commit of one ties the other's exactly.
    """
    import copy

    from repro.runtime import distributed as dist

    real_spawn = dist.spawn_rngs

    def twin_rngs(seed, n):
        rngs = real_spawn(seed, n)
        rngs[2] = copy.deepcopy(rngs[1])
        return rngs

    monkeypatch.setattr(dist, "spawn_rngs", twin_rngs)
    turbo_args = []
    real_run = DistributedJacobi._run_async

    def spy(self, *, turbo, **kwargs):
        turbo_args.append(turbo)
        return real_run(self, turbo=turbo, **kwargs)

    monkeypatch.setattr(DistributedJacobi, "_run_async", spy)
    A2 = fd_laplacian_2d(32, 50)
    b2 = np.random.default_rng(0).uniform(-1, 1, A2.nrows)
    n_ranks = 100
    assert n_ranks >= DistributedJacobi._TURBO_MIN_RANKS
    outs = [
        DistributedJacobi(
            A2, b2, n_ranks=n_ranks, partition="contiguous", seed=2
        ).run_async(tol=1e-30, max_iterations=6, legacy_engine=legacy)
        for legacy in (False, True)
    ]
    assert turbo_args == [True, False], "the tie did not abort the turbo pass"
    assert_results_identical(*outs)
    assert outs[0].telemetry.puts_delivered > 0
