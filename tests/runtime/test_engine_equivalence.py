"""Engine bit-identity: trajectories, telemetry, trace streams.

Both machine simulators must reproduce, byte for byte, the trajectories
of their pre-engine implementations: same RNG call order, same
tie-breaking, so every float in the x history, residual history, event
times, telemetry counters and ``TraceEvent`` stream is equal. Those
trajectories are frozen as sha256 digests in ``engine_digests.json``,
recorded while the pre-engine loops still existed (see
``test_engine_digests.py``). These tests run the engine once per case
across the feature matrix (fault plans, recovery policies, delay models,
sweep variants; plain distributed runs take the block loop, the rest the
general loop) and check each run against its corpus entry. The engine
runs the compiled kernels whenever they load, except in the distributed
asynchronous cases, which force the NumPy kernels (``test_native_backend.py``
runs them on the compiled ones); CI also runs this file under
``REPRO_NO_NATIVE=1`` to pin the NumPy kernels to the same corpus.
"""

import contextlib
import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import CorruptBurst, Crash, DropBurst, FaultPlan, PartitionWindow
from repro.matrices.laplacian import fd_laplacian_2d
from repro.methods import make_method
from repro.observability import RingBufferSink, Tracer
from repro.runtime import distributed as dist
from repro.runtime.delays import (
    CompositeDelay,
    ConstantDelay,
    StochasticStall,
    StragglerDelay,
)
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.machine import HASWELL_CLUSTER, KNL
from repro.runtime.shared import SharedMemoryJacobi

from tests.runtime.equivalence import assert_matches_corpus, numpy_kernels

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


def _cluster(sigma_m, sigma_net):
    """HASWELL_CLUSTER with the machine and network jitter sigmas replaced."""
    return replace(
        HASWELL_CLUSTER,
        node=replace(HASWELL_CLUSTER.node, jitter_sigma=sigma_m),
        network=replace(HASWELL_CLUSTER.network, jitter_sigma=sigma_net),
    )


# A zero sigma yields a factor of exactly 1.0 and draws nothing, in every
# loop; these clusters pin that each jitter can be off on its own.
NO_JITTER = _cluster(0.0, 0.0)
NET_JITTER_ONLY = _cluster(0.0, HASWELL_CLUSTER.network.jitter_sigma)
MACHINE_JITTER_ONLY = _cluster(HASWELL_CLUSTER.node.jitter_sigma, 0.0)
STALL = StochasticStall(0.3, 5e-5)


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
    # Recompute the residual from scratch at every observation.
    "full_residual": (dict(), dict(recompute_every=1)),
    "gauss_seidel": (dict(method="sor"), dict()),
    "constant_delay": (dict(delay=ConstantDelay({1: 2e-5, 3: 2e-5})), dict()),
    "stoch_stall": (dict(delay=StochasticStall(0.3, 5e-5)), dict()),
    "composite_delay": (
        dict(delay=CompositeDelay(ConstantDelay({0: 1e-5}), StragglerDelay({5: 2.0}))),
        dict(),
    ),
    "omega": (dict(omega=0.8), dict()),
    "no_jitter": (dict(cluster=NO_JITTER), dict()),
    "net_jitter_only": (dict(cluster=NET_JITTER_ONLY), dict()),
    "machine_jitter_only": (dict(cluster=MACHINE_JITTER_ONLY), dict()),
    "no_jitter_stoch_stall": (dict(cluster=NO_JITTER, delay=STALL), dict()),
    "net_jitter_only_stoch_stall": (
        dict(cluster=NET_JITTER_ONLY, delay=STALL), dict()
    ),
    "machine_jitter_only_stoch_stall": (
        dict(cluster=MACHINE_JITTER_ONLY, delay=STALL), dict()
    ),
    # A delay model that draws from the rank's generator, in the general
    # loop: its jitter stream then draws one normal per call.
    "drops_stoch_stall": (
        dict(drop_probability=0.15, fault_seed=5, delay=STALL), dict()
    ),
    "eager_stoch_stall": (dict(delay=STALL), dict(eager=True)),
    "detect_stoch_stall": (
        dict(delay=STALL), dict(termination="detect", report_every=3)
    ),
    "reliable_stoch_stall": (
        dict(drop_probability=0.15, fault_seed=5, reliable=True, delay=STALL),
        dict(max_iterations=25),
    ),
}

DIST_SYNC_CASES = {
    "plain": dict(),
    "gauss_seidel": dict(method="sor"),
    "straggler": dict(delay=StragglerDelay({2: 2.5})),
    "stoch_stall": dict(delay=StochasticStall(0.3, 5e-5)),
    "omega": dict(omega=1.2),
    "one_rank": dict(n_ranks=1),
    "no_jitter": dict(cluster=NO_JITTER),
    "net_jitter_only": dict(cluster=NET_JITTER_ONLY),
    "machine_jitter_only": dict(cluster=MACHINE_JITTER_ONLY),
    "no_jitter_stoch_stall": dict(cluster=NO_JITTER, delay=STALL),
    "net_jitter_only_stoch_stall": dict(cluster=NET_JITTER_ONLY, delay=STALL),
    "machine_jitter_only_stoch_stall": dict(
        cluster=MACHINE_JITTER_ONLY, delay=STALL
    ),
}

SHARED_CASES = {
    "plain": (dict(n_threads=8), dict()),
    "oversubscribed": (dict(n_threads=16), dict()),
    "straggler": (dict(n_threads=8, delay=StragglerDelay({3: 3.0})), dict()),
    "stoch_stall": (dict(n_threads=8, delay=StochasticStall(0.3, 5e-5)), dict()),
    "faultplan": (dict(n_threads=8, fault_plan=THREAD_PLAN), dict()),
    "run_until_all": (
        dict(n_threads=8),
        dict(run_until_all_reach=True, max_iterations=12),
    ),
    "full_residual": (dict(n_threads=8), dict(recompute_every=1)),
    "no_jitter": (dict(n_threads=8, machine=replace(KNL, jitter_sigma=0.0)), dict()),
    "no_jitter_stoch_stall": (
        dict(n_threads=8, machine=replace(KNL, jitter_sigma=0.0), delay=STALL),
        dict(),
    ),
}

#: Distributed method kinds beyond Jacobi and SOR, on the async matrix's
#: default set-up.
METHOD_CASES = {
    kind: (dict(method=make_method(kind)), dict())
    for kind in ("damped_jacobi", "richardson", "richardson2")
}


def run_distributed_async(kwargs, run_kwargs):
    """One 8-rank ``run_async`` of the shared problem."""
    run_kwargs = dict({"tol": 1e-6, "max_iterations": 40}, **run_kwargs)
    return DistributedJacobi(A, B, n_ranks=8, seed=3, **kwargs).run_async(**run_kwargs)


def run_distributed_sync(kwargs):
    """One ``run_sync`` of the shared problem (8 ranks unless overridden)."""
    solver = DistributedJacobi(A, B, seed=3, **dict(dict(n_ranks=8), **kwargs))
    return solver.run_sync(tol=1e-6, max_iterations=60)


def run_shared_async(kwargs, run_kwargs):
    """One shared-memory ``run_async`` of the shared problem."""
    run_kwargs = dict({"tol": 1e-6, "max_iterations": 60}, **run_kwargs)
    return SharedMemoryJacobi(A, B, seed=3, **kwargs).run_async(**run_kwargs)


def run_traced(make, trace_reads, **run_kwargs):
    """``(result, TraceEvent list)`` of one traced ``run_async``."""
    sink = RingBufferSink(capacity=200_000)
    tracer = Tracer(sinks=[sink], trace_reads=trace_reads)
    result = make().run_async(tracer=tracer, **run_kwargs)
    return result, list(sink._ring)


def _fig3_shared():
    return SharedMemoryJacobi(A, B, n_threads=8, seed=3)


def _fault_plan_distributed():
    return DistributedJacobi(A, B, n_ranks=8, seed=3, fault_plan=PLAN)


def _plain_distributed():
    return DistributedJacobi(A, B, n_ranks=8, seed=3)


@contextlib.contextmanager
def _twin_generators():
    """Give ranks 1 and 2 the same generator for the run's duration."""
    real_spawn = dist.spawn_rngs

    def twin_rngs(seed, n):
        rngs = real_spawn(seed, n)
        rngs[2] = copy.deepcopy(rngs[1])
        return rngs

    dist.spawn_rngs = twin_rngs
    try:
        yield
    finally:
        dist.spawn_rngs = real_spawn


def run_exact_ties():
    """100 contiguous ranks whose ranks 1 and 2 share one timeline."""
    A2 = fd_laplacian_2d(32, 50)
    b2 = np.random.default_rng(0).uniform(-1, 1, A2.nrows)
    with _twin_generators():
        return DistributedJacobi(
            A2, b2, n_ranks=100, partition="contiguous", seed=2
        ).run_async(tol=1e-30, max_iterations=6)


def _untraced(fn, *args):
    return lambda: (fn(*args), None)


def _traced(make, trace_reads, **run_kwargs):
    return lambda: run_traced(make, trace_reads, **run_kwargs)


#: corpus key -> ``() -> (result, trace events or None)``.
RUNS = {
    **{f"distributed-async/{case}": _untraced(run_distributed_async, *spec)
       for case, spec in DIST_ASYNC_CASES.items()},
    **{f"distributed-sync/{case}": _untraced(run_distributed_sync, spec)
       for case, spec in DIST_SYNC_CASES.items()},
    **{f"shared-async/{case}": _untraced(run_shared_async, *spec)
       for case, spec in SHARED_CASES.items()},
    **{f"methods/{kind}": _untraced(run_distributed_async, *spec)
       for kind, spec in METHOD_CASES.items()},
    # Gauss-Seidel sweeps always run the NumPy kernels.
    "numpy-only/sor": _untraced(
        run_distributed_async, dict(method="sor"), dict(max_iterations=5)
    ),
    "exact-ties/100-ranks": _untraced(run_exact_ties),
    **{f"traced/shared-fig3{tag}": _traced(
        _fig3_shared, reads, tol=1e-6, max_iterations=40)
       for tag, reads in (("", False), ("-reads", True))},
    **{f"traced/distributed-fault-plan{tag}": _traced(
        _fault_plan_distributed, reads, tol=1e-6, max_iterations=30)
       for tag, reads in (("", False), ("-reads", True))},
    "traced/distributed-plain-reads": _traced(
        _plain_distributed, True, tol=1e-6, max_iterations=30
    ),
}


def check(key):
    """Run corpus case ``key`` and compare it with its frozen digests."""
    result, events = RUNS[key]()
    assert_matches_corpus(key, result, events)
    return result, events


@pytest.mark.parametrize("case", DIST_ASYNC_CASES)
def test_distributed_async_bit_identical(case):
    """On the NumPy kernels: ``test_native_backend.py`` runs the same cases
    on the compiled ones, so tier-1 pins both families to the corpus."""
    with numpy_kernels():
        check(f"distributed-async/{case}")


@pytest.mark.parametrize("case", DIST_SYNC_CASES)
def test_distributed_sync_bit_identical(case):
    check(f"distributed-sync/{case}")


@pytest.mark.parametrize("case", SHARED_CASES)
def test_shared_async_bit_identical(case):
    check(f"shared-async/{case}")


@pytest.mark.parametrize("trace_reads", [False, True])
def test_tracing_compat_shared_fig3_style(trace_reads):
    """Figure 3-style traced shared-memory run: identical TraceEvent stream."""
    _, events = check(f"traced/shared-fig3{'-reads' if trace_reads else ''}")
    assert len(events) > 0


@pytest.mark.parametrize("trace_reads", [False, True])
def test_tracing_compat_distributed_fault_plan(trace_reads):
    """Traced distributed run under a fault plan: identical TraceEvent stream.

    This is what keeps observability replay and the Theorem 1 residual
    checks valid on the new engine.
    """
    tag = "-reads" if trace_reads else ""
    _, events = check(f"traced/distributed-fault-plan{tag}")
    assert len(events) > 0


def test_block_loop_exact_ties_bit_identical_to_legacy():
    """Exact time ties at 100 ranks: the block loop matches the corpus.

    Ranks 1 and 2 of this layout have the same block size, nnz, put sizes
    and node, so giving them the same generator makes their whole
    timelines coincide: every commit of one ties the other's exactly, and
    the block loop must order them by their virtual read cursors.
    """
    result, _ = check("exact-ties/100-ranks")
    assert result.telemetry.puts_delivered > 0
