"""Event-engine unit tests: the event queue, jitter streams, allocations.

The engine's contract is *bit-identity*: the typed queue must pop in
exactly the reference heapq order (time, then insertion seq), and the
chunked jitter streams must consume a generator exactly like the scalar
draws they replace. These tests pin that contract down with randomized
interleavings and direct draw-sequence comparisons.
"""

import heapq
import math

import numpy as np
import pytest

from repro.matrices.laplacian import fd_laplacian_2d
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.engine import (
    HeapEventQueue,
    JitterStream,
    NormalStream,
    PatternJitterStream,
    make_event_queue,
)
from repro.util.errors import SimulationError

BACKENDS = [HeapEventQueue]


class _ReferenceQueue:
    """Plain heapq of (time, seq) keys — the ordering oracle."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0.0

    def push(self, time, kind, agent, obj=None):
        heapq.heappush(self._heap, (time, self._seq, kind, agent, obj))
        self._seq += 1

    def pop(self):
        time, _, kind, agent, obj = heapq.heappop(self._heap)
        self.now = time
        return time, kind, agent, obj

    def __len__(self):
        return len(self._heap)


@pytest.mark.parametrize("backend", BACKENDS)
class TestQueueMatchesReference:
    def test_randomized_interleavings(self, backend):
        """Random push/pop schedules pop byte-for-byte like the oracle.

        Times are drawn from a coarse grid so equal timestamps (seq
        tie-breaks) occur constantly, and payloads are identity-checked.
        """
        rng = np.random.default_rng(42)
        for trial in range(12):
            q, ref = backend(), _ReferenceQueue()
            for step in range(400):
                if len(ref) == 0 or rng.random() < 0.6:
                    t = ref.now + float(rng.integers(0, 12)) * 0.125
                    kind = int(rng.integers(0, 4))
                    agent = int(rng.integers(0, 8))
                    obj = (trial, step)  # unique identity per event
                    q.push(t, kind, agent, obj)
                    ref.push(t, kind, agent, obj)
                else:
                    got, want = q.pop(), ref.pop()
                    assert got == want
                    assert got[3] is want[3]
            while len(ref):
                assert q.pop() == ref.pop()
            assert len(q) == 0 and not q

    def test_fifo_on_equal_times(self, backend):
        q = backend()
        for i in range(50):
            q.push(1.0, 0, i)
        assert [q.pop()[2] for _ in range(50)] == list(range(50))

    def test_rejects_nan_time(self, backend):
        q = backend()
        with pytest.raises(SimulationError, match="NaN"):
            q.push(float("nan"), 0, 0)
        assert len(q) == 0

    def test_rejects_past_time(self, backend):
        q = backend()
        q.push(2.0, 0, 0)
        assert q.pop()[0] == 2.0
        with pytest.raises(SimulationError):
            q.push(1.0, 0, 0)
        q.push(2.0, 0, 0)  # rescheduling at now is allowed
        assert q.now == 2.0

    def test_pop_empty_raises(self, backend):
        with pytest.raises(SimulationError):
            backend().pop()

    def test_pending_payloads_visibility(self, backend):
        q = backend()
        events = [(0.5 * i, i % 3, i, ("payload", i)) for i in range(20)]
        for t, kind, agent, obj in events:
            q.push(t, kind, agent, obj)
        q.pop()  # consume the earliest
        pending = sorted(q.pending_payloads(), key=lambda e: e[1])
        assert pending == [(k, a, o) for _, k, a, o in events[1:]]


class TestMakeEventQueue:
    def test_backend_selection(self):
        assert isinstance(make_event_queue("heap"), HeapEventQueue)
        assert isinstance(make_event_queue("auto", size_hint=2), HeapEventQueue)
        assert isinstance(
            make_event_queue("auto", size_hint=1 << 20), HeapEventQueue
        )

    def test_unknown_backend(self):
        for name in ("fifo", "calendar"):
            with pytest.raises(ValueError, match="backend"):
                make_event_queue(name)


class TestStreamsBitIdentical:
    """Chunked streams must reproduce the scalar draw sequence exactly."""

    def test_jitter_stream(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        st = JitterStream(a, 0.3, chunk=7)  # force mid-sequence refills
        assert [st.next() for _ in range(40)] == [
            float(b.lognormal(0.0, 0.3)) for _ in range(40)
        ]

    def test_normal_stream(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        st = NormalStream(a, chunk=7)
        assert [math.exp(0.2 * st.next()) for _ in range(40)] == [
            float(b.lognormal(0.0, 0.2)) for _ in range(40)
        ]

    def test_pattern_stream_mixed_sigmas(self):
        pattern = [0.1, 0.25, 0.25, 0.05]
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        st = PatternJitterStream(a, pattern, steps=6)  # several refills
        for _ in range(50):
            got = st.next_step()
            want = [float(b.lognormal(0.0, s)) for s in pattern]
            assert got == want

    @staticmethod
    def _scalar_step(rng, pattern):
        """One step of scalar draws: an inactive jitter draws nothing."""
        return [float(rng.lognormal(0.0, s)) if s > 0 else 1.0 for s in pattern]

    @pytest.mark.parametrize(
        "pattern", [[0.1, 0.0, 0.25, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0]]
    )
    def test_zero_sigma_positions_make_no_draw(self, pattern):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        st = PatternJitterStream(a, pattern, steps=1)
        for _ in range(20):
            assert st.next_step() == self._scalar_step(b, pattern)
        # Nothing was drawn beyond the scalar draws: both generators agree.
        assert a.bit_generator.state == b.bit_generator.state

    def test_jitter_stream_zero_sigma_makes_no_draw(self):
        a = np.random.default_rng(3)
        before = a.bit_generator.state
        st = JitterStream(a, 0.0, chunk=7)
        assert [st.next() for _ in range(20)] == [1.0] * 20
        assert a.bit_generator.state == before

    def test_unprefetched_streams_interleave_with_foreign_draws(self):
        """``steps=1`` / ``chunk=1`` streams draw at the call, so another
        consumer of the same generator (a stochastic delay model) sees
        exactly the scalar sequence."""
        pattern = [0.08, 0.25, 0.0, 0.08]
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        st = PatternJitterStream(a, pattern, steps=1)
        js = JitterStream(a, 0.3, chunk=1)
        for _ in range(30):
            assert st.next_step() == self._scalar_step(b, pattern)
            assert a.random() == b.random()
            assert js.next() == float(b.lognormal(0.0, 0.3))
            assert a.exponential(2.0) == b.exponential(2.0)

    @pytest.mark.parametrize("pattern", [[0.08, 0.25, 0.25, 0.08], [0.08, 0.0, 0.08]])
    def test_block_draws_equal_repeated_steps(self, pattern):
        a, b = np.random.default_rng(21), np.random.default_rng(21)
        st = PatternJitterStream(a, pattern, steps=16)
        ref = PatternJitterStream(b, pattern, steps=16)
        # Blocks that start mid-buffer, span refills and start fresh.
        for kind, k in [("step", 3), ("block", 4), ("block", 30), ("step", 9),
                        ("block", 1), ("step", 1), ("block", 7)]:
            want = [ref.next_step() for _ in range(k)]
            if kind == "step":
                got = [st.next_step() for _ in range(k)]
            else:
                blk = PatternJitterStream.next_blocks([st], k)[0]
                assert blk.shape == (k, len(pattern))
                got = blk.tolist()
            assert got == want

    def test_stacked_blocks_equal_per_stream_steps(self):
        pattern = [0.08, 0.25, 0.08]
        rngs = [np.random.default_rng(s) for s in range(4)]
        refs = [PatternJitterStream(np.random.default_rng(s), pattern) for s in range(4)]
        sts = [PatternJitterStream(r, pattern) for r in rngs]
        sts[2].next_step()  # one stream holds buffered steps
        refs[2].next_step()
        for k in (5, 12, 20):  # the last call finds every buffer drained
            blocks = PatternJitterStream.next_blocks(sts, k)
            assert blocks.shape == (4, k, 3)
            for i, ref in enumerate(refs):
                assert blocks[i].tolist() == [ref.next_step() for _ in range(k)]


class TestNoPerRelaxationConcatenate:
    """The relax hot path must not rebuild ``local_x`` per relaxation.

    The legacy loop called ``np.concatenate((x[rows], ghosts))`` for every
    relaxation *and* every residual report; the engine writes into
    preallocated per-rank buffers instead. Counting ``np.concatenate``
    calls across two run lengths pins this down: any per-iteration use
    would scale with ``max_iterations``, setup-only use would not.
    """

    def _concat_count(self, monkeypatch, max_iterations, legacy):
        A = fd_laplacian_2d(8, 8)
        b = np.random.default_rng(0).standard_normal(A.shape[0])
        solver = DistributedJacobi(A, b, n_ranks=4, seed=1)
        real, calls = np.concatenate, [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counting)
        try:
            solver.run_async(
                tol=1e-300, max_iterations=max_iterations, legacy_engine=legacy,
                termination="detect", report_every=4,
            )
        finally:
            monkeypatch.setattr(np, "concatenate", real)
        return calls[0]

    def test_engine_concatenate_is_setup_only(self, monkeypatch):
        short = self._concat_count(monkeypatch, 8, legacy=False)
        long = self._concat_count(monkeypatch, 32, legacy=False)
        assert long == short  # O(ranks) setup, independent of iterations

    def test_legacy_scales_with_iterations(self, monkeypatch):
        # The oracle still concatenates per relaxation — the contrast that
        # makes the test above meaningful.
        short = self._concat_count(monkeypatch, 8, legacy=True)
        long = self._concat_count(monkeypatch, 32, legacy=True)
        assert long > short + 48

    def test_peak_memory_does_not_scale_with_iterations(self):
        import tracemalloc

        A = fd_laplacian_2d(8, 8)
        b = np.random.default_rng(0).standard_normal(A.shape[0])

        def peak(iters):
            solver = DistributedJacobi(A, b, n_ranks=4, seed=1)
            solver.run_async(tol=1e-300, max_iterations=8)  # warm imports/caches
            tracemalloc.start()
            solver.run_async(tol=1e-300, max_iterations=iters)
            _, p = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return p

        lo, hi = peak(8), peak(128)
        assert hi < 2 * lo + 65536
