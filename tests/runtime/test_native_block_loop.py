"""The compiled block loop against the Python block loop, and loop selection.

A plain distributed run (no faults, loss rolls, tracer, reliable puts,
eager/detect/heartbeat machinery or hang-capable delay) takes the block
loop. With the native library loaded, a non-sequential method and a delay
model whose per-rank extra time is known up front, that loop runs in C
(``repro_block_loop``); otherwise it runs in Python. Both must produce the
same bits, and ``SimulationResult.loop`` says which one ran.

The property test runs random small plain configurations through both
loops — the Python one under ``numpy_kernels()`` — and compares every
result field and the ``FaultTelemetry`` counters. Its configuration space
holds the cases where the two loops could drift apart: exact-time ties
(no-jitter clusters; a no-overhead cluster on which every rank starts at
t = 0; and one whose costs are powers of two, so ranks with different
blocks and read cursors commit, and puts arrive, at the same instants), a
tolerance that converges inside a same-time batch, an
observation cadence of one commit, iteration budgets on both sides of a
factor-chunk refill (8 and 40 steps), and one strongly delayed rank whose
incoming mailboxes outgrow the pool's first capacity.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.matrices.laplacian import fd_laplacian_2d
from repro.methods import make_method
from repro.observability import RingBufferSink, Tracer
from repro.perf import native
from repro.runtime.delays import ConstantDelay, StochasticStall, StragglerDelay
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.machine import HASWELL_CLUSTER

from tests.runtime.equivalence import assert_results_identical, numpy_kernels

needs_native = pytest.mark.skipif(
    not native.native_available(), reason="no C toolchain for the native kernels"
)


def _cluster(sigma_m, sigma_net, overhead=None):
    node = replace(HASWELL_CLUSTER.node, jitter_sigma=sigma_m)
    net = replace(HASWELL_CLUSTER.network, jitter_sigma=sigma_net)
    if overhead is not None:
        node = replace(node, iteration_overhead=overhead)
        net = replace(net, put_overhead=overhead)
    return replace(HASWELL_CLUSTER, node=node, network=net)


#: No jitter, every rank starting at t = 0 and every cost a power of two:
#: event times are exact dyadic sums, so commits of ranks with different
#: block sizes, neighbour counts and read cursors land on the same instant,
#: and put arrivals land exactly on read cursors.
DYADIC = replace(
    HASWELL_CLUSTER,
    node=replace(HASWELL_CLUSTER.node, jitter_sigma=0.0, iteration_overhead=0.0,
                 time_per_nnz=2.0**-24, time_per_row=2.0**-23),
    network=replace(HASWELL_CLUSTER.network, jitter_sigma=0.0,
                    put_overhead=2.0**-20, latency=2.0**-20,
                    intra_node_latency=2.0**-21, time_per_value=2.0**-24),
)

CLUSTERS = {
    "haswell": HASWELL_CLUSTER,
    "no_jitter": _cluster(0.0, 0.0),
    "net_jitter_only": _cluster(0.0, HASWELL_CLUSTER.network.jitter_sigma),
    "machine_jitter_only": _cluster(HASWELL_CLUSTER.node.jitter_sigma, 0.0),
    # Every rank starts at t = 0 and equal blocks keep tying afterwards.
    "ties": _cluster(0.0, 0.0, overhead=0.0),
    "dyadic": DYADIC,
}

A = fd_laplacian_2d(10, 10)
B = np.random.default_rng(0).standard_normal(A.nrows)


def _run_both(grid, n_ranks, partition, cluster, delay, method, seed,
              observe_every, max_iterations, tol):
    """``(compiled, python)`` results of one plain configuration."""
    A_ = fd_laplacian_2d(*grid)
    rng = np.random.default_rng(seed)
    b, x0 = rng.uniform(-1, 1, (2, A_.nrows))

    def run():
        sim = DistributedJacobi(
            A_, b, n_ranks=n_ranks, partition=partition, seed=seed,
            cluster=CLUSTERS[cluster], delay=delay, method=method,
        )
        return sim.run_async(
            x0=x0, tol=tol, max_iterations=max_iterations,
            observe_every=observe_every,
        )

    compiled = run()
    with numpy_kernels():
        python = run()
    return compiled, python


@st.composite
def plain_configs(draw):
    nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    n_ranks = draw(st.integers(1, min(64, nx * ny)))
    slow_rank = draw(st.integers(0, n_ranks - 1))
    delay = draw(st.sampled_from([
        ConstantDelay({}),
        ConstantDelay({slow_rank: 2e-4}),  # strongly delayed: boxes pile up
        ConstantDelay({slow_rank: 2.0**-18}),  # dyadic, keeps exact ties
        StragglerDelay({slow_rank: 3.0}),
        StragglerDelay({slow_rank: 2.0}),
    ]))
    return dict(
        grid=(nx, ny),
        n_ranks=n_ranks,
        partition=draw(st.sampled_from(["bfs", "contiguous"])),
        cluster=draw(st.sampled_from(sorted(CLUSTERS))),
        delay=delay,
        method=draw(st.sampled_from(["jacobi", "damped_jacobi", "richardson2"])),
        seed=draw(st.integers(0, 2**16)),
        observe_every=draw(st.one_of(st.none(), st.integers(1, 3 * n_ranks))),
        max_iterations=draw(st.sampled_from([1, 2, 7, 8, 9, 20, 39, 40, 41, 60])),
        tol=draw(st.sampled_from([1e-30, 1e-3, 0.02, 0.1, 0.3])),
    )


@needs_native
@settings(max_examples=80, deadline=None)
@given(plain_configs())
# Ties at every event, converging mid-batch at a one-commit cadence.
@example(dict(grid=(8, 8), n_ranks=16, partition="contiguous", cluster="ties",
              delay=ConstantDelay({}), method="jacobi", seed=1,
              observe_every=1, max_iterations=40, tol=0.1))
# Different block sizes tying on exact dyadic times.
@example(dict(grid=(9, 7), n_ranks=10, partition="bfs", cluster="dyadic",
              delay=ConstantDelay({}), method="jacobi", seed=2,
              observe_every=3, max_iterations=40, tol=1e-30))
# Rank 1's last put to rank 0 arrives exactly at rank 0's next read
# cursor, and no seq is consumed between that put and the cursor's: the
# one place where a put's stamp decides delivery (2 ** -23 s = 2 time
# units; rank 1's 60th commit precedes rank 0's 59th by 6 units).
@example(dict(grid=(2, 16), n_ranks=2, partition="contiguous", cluster="dyadic",
              delay=ConstantDelay({0: 2.0**-23}), method="jacobi", seed=1,
              observe_every=1, max_iterations=60, tol=1e-30))
# One rank 100x slower than a commit: its in-edges hold ~40 records each.
@example(dict(grid=(12, 12), n_ranks=64, partition="bfs", cluster="haswell",
              delay=ConstantDelay({5: 2e-4}), method="jacobi", seed=3,
              observe_every=None, max_iterations=41, tol=1e-30))
def test_compiled_block_loop_matches_python_block_loop(cfg):
    compiled, python = _run_both(**cfg)
    assert compiled.loop == "native-block"
    assert python.loop == "block"
    assert compiled.mode == python.mode
    assert_results_identical(compiled, python)


@needs_native
def test_convergence_inside_a_tie_batch():
    """The ``ties`` cluster converging on a commit that is not the last of
    its same-time batch: the rest of the batch must not run."""
    cfg = dict(grid=(8, 8), n_ranks=16, partition="contiguous", cluster="ties",
               delay=ConstantDelay({}), method="jacobi", seed=1,
               observe_every=1, max_iterations=40)
    full, _ = _run_both(**cfg, tol=1e-30)
    times, res = full.times, full.residual_norms
    # An observation sharing its time with the next one lies inside a
    # batch; take the first such one that sets a new minimum residual.
    k = next(
        j for j in range(1, len(times) - 1)
        if times[j] == times[j + 1] and res[j] < min(res[:j])
    )
    compiled, python = _run_both(**cfg, tol=(res[k] + min(res[:k])) / 2)
    assert compiled.converged and python.converged
    assert compiled.times[-1] == times[k]
    assert_results_identical(compiled, python)


def _expected_plain_loop():
    return "native-block" if native.native_available() else "block"


SELECTION = {
    "plain": (dict(), dict(), _expected_plain_loop),
    "constant_delay": (dict(delay=ConstantDelay({1: 2e-5})), dict(),
                       _expected_plain_loop),
    "sor": (dict(method=make_method("sor")), dict(), lambda: "block"),
    "stoch_stall": (dict(delay=StochasticStall(0.3, 5e-5)), dict(),
                    lambda: "block"),
    "tracer": (dict(), dict(tracer=Tracer(sinks=[RingBufferSink()])),
               lambda: "general"),
    "drops": (dict(drop_probability=0.1, fault_seed=1), dict(),
              lambda: "general"),
    "eager": (dict(), dict(eager=True), lambda: "general"),
}


@pytest.mark.parametrize("case", SELECTION)
def test_result_names_the_loop_that_ran(case):
    kwargs, run_kwargs, expected = SELECTION[case]
    sim = DistributedJacobi(A, B, n_ranks=8, seed=3, **kwargs)
    res = sim.run_async(tol=1e-6, max_iterations=10, **run_kwargs)
    assert res.loop == expected()
    assert sim.run_sync(tol=1e-6, max_iterations=5).loop == "sync"


def test_numpy_kernels_take_the_python_block_loop():
    with numpy_kernels():
        res = DistributedJacobi(A, B, n_ranks=8, seed=3).run_async(
            tol=1e-6, max_iterations=10
        )
    assert res.loop == "block"
