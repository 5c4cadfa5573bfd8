"""The trace→reconstruction bridge, end to end against both simulators.

The acceptance checks for the observability layer: a real shared-memory
run and a real distributed run, captured through the tracer with per-row
read versions, must replay through the Section IV-A reconstruction into a
valid propagation-matrix sequence whose residual 1-norm never increases
(Theorem 1 — both systems are weakly diagonally dominant Laplacians), and
tracing itself must never perturb a simulated trajectory.
"""

import numpy as np
import pytest

from repro.core.model import AsyncJacobiModel
from repro.core.schedules import SynchronousSchedule
from repro.faults import FaultPlan, RankCrash
from repro.matrices.laplacian import fd_laplacian_1d, fd_laplacian_2d
from repro.observability import JSONLSink, Metrics, NullSink, RingBufferSink, Tracer
from repro.observability.replay import replay_report, to_execution_trace
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi
from repro.util.errors import ScheduleError


@pytest.fixture(scope="module")
def system():
    A = fd_laplacian_2d(6, 6)
    return A, np.ones(A.nrows)


class TestSharedMemoryReplay:
    def test_wdd_trace_replays_monotone(self, system):
        A, b = system
        tracer = Tracer(trace_reads=True)
        sim = SharedMemoryJacobi(A, b, n_threads=4, seed=11)
        result = sim.run_async(tol=1e-6, max_iterations=150, tracer=tracer)
        report = replay_report(tracer.events(), A, b)
        assert report.valid_sequence
        assert report.monotone, report.violations[:5]
        assert report.n_relaxations == result.relaxation_counts[-1]
        assert 0.0 < report.fraction_propagated <= 1.0
        # The replayed trajectory ends at least as converged as observed.
        assert report.residuals[-1] <= report.residuals[0]

    def test_trajectory_invariance(self, system):
        A, b = system
        kwargs = dict(tol=1e-6, max_iterations=100)
        base = SharedMemoryJacobi(A, b, n_threads=4, seed=3).run_async(**kwargs)
        traced = SharedMemoryJacobi(A, b, n_threads=4, seed=3).run_async(
            tracer=Tracer(trace_reads=True), **kwargs
        )
        assert np.array_equal(base.x, traced.x)
        assert base.times == traced.times
        assert base.residual_norms == traced.residual_norms

    def test_null_tracer_emits_nothing(self, system):
        A, b = system
        tracer = Tracer(sinks=[NullSink()])
        SharedMemoryJacobi(A, b, n_threads=2, seed=0).run_async(
            tol=1e-4, max_iterations=20, tracer=tracer
        )
        assert tracer.events() == []
        assert tracer._seq == 0  # resolved away: no event was even built

    def test_metrics_count_each_relaxation_once(self, system):
        """One instrumentation path: the tracer feeds metrics exactly once."""
        A, b = system
        metrics = Metrics()
        traced = SharedMemoryJacobi(A, b, n_threads=4, seed=9).run_async(
            tol=1e-6, max_iterations=60,
            tracer=Tracer(metrics=metrics, trace_reads=True),
        )
        # No double-counting: metrics relaxations == the result's own count.
        assert metrics.counter("relaxations").value == traced.relaxation_counts[-1]
        assert metrics.counter("steps").value == int(traced.iterations.sum())


class TestDistributedReplay:
    def test_wdd_trace_replays_monotone(self, system):
        A, b = system
        metrics = Metrics()
        tracer = Tracer(metrics=metrics, trace_reads=True)
        sim = DistributedJacobi(A, b, n_ranks=4, seed=7)
        result = sim.run_async(tol=1e-6, max_iterations=80, tracer=tracer)
        report = replay_report(tracer.events(), A, b)
        assert report.valid_sequence
        assert report.monotone, report.violations[:5]
        assert report.n_relaxations == result.relaxation_counts[-1]
        assert metrics.counter("messages_sent").value > 0
        assert metrics.histogram("message_latency").count > 0

    def test_trajectory_invariance(self, system):
        A, b = system
        kwargs = dict(tol=1e-6, max_iterations=80)
        base = DistributedJacobi(A, b, n_ranks=4, seed=2).run_async(**kwargs)
        traced = DistributedJacobi(A, b, n_ranks=4, seed=2).run_async(
            tracer=Tracer(trace_reads=True), **kwargs
        )
        assert np.array_equal(base.x, traced.x)
        assert base.times == traced.times

    def test_reliable_faulty_run_replays_monotone(self, system):
        """Crash + reliable puts + detection still yields a Theorem 1 trace."""
        A, b = system
        tracer = Tracer(trace_reads=True)
        plan = FaultPlan([RankCrash(agent=2, at=2e-5)])
        sim = DistributedJacobi(
            A, b, n_ranks=4, seed=4, fault_plan=plan, fault_seed=13,
            recovery="freeze",
        )
        result = sim.run_async(tol=1e-8, max_iterations=40, tracer=tracer)
        kinds = {e.kind for e in tracer.events()}
        assert "ack" in kinds  # the reliable protocol was on
        report = replay_report(tracer.events(), A, b)
        assert report.monotone, report.violations[:5]
        assert report.n_relaxations == result.relaxation_counts[-1]

    def test_detection_events_emitted(self, system):
        A, b = system
        tracer = Tracer(trace_reads=False)
        plan = FaultPlan([RankCrash(agent=1, at=1e-5)])
        sim = DistributedJacobi(
            A, b, n_ranks=3, seed=6, fault_plan=plan, fault_seed=1,
            recovery="freeze", heartbeat_interval=2e-5,
        )
        sim.run_async(tol=1e-10, max_iterations=200, tracer=tracer)
        events = tracer.events()
        dead = [e for e in events if e.kind == "detect"]
        assert any(e.data["target"] == 1 and e.data["status"] == "dead" for e in dead)
        assert any(
            e.kind == "fault" and e.data["reason"] == "crash" and e.agent == 1
            for e in events
        )

    def test_jsonl_roundtrip_replays(self, system, tmp_path):
        """An archived trace replays identically to the in-memory one."""
        A, b = system
        path = tmp_path / "dist.jsonl"
        tracer = Tracer(
            sinks=[JSONLSink(path)], trace_reads=True
        )
        DistributedJacobi(A, b, n_ranks=3, seed=8).run_async(
            tol=1e-5, max_iterations=40, tracer=tracer
        )
        tracer.close()
        report = replay_report(JSONLSink.read(path), A, b)
        assert report.valid_sequence and report.monotone


class TestModelExecutorReplay:
    def test_synchronous_model_trace_replays_exactly(self):
        A = fd_laplacian_1d(16)
        b = np.ones(16)
        tracer = Tracer()
        model = AsyncJacobiModel(A, b)
        result = model.run(
            SynchronousSchedule(16), tol=1e-8, max_steps=50,
            record_every=1, tracer=tracer,
        )
        report = replay_report(tracer.events(), A, b)
        assert report.valid_sequence and report.monotone
        # Exact-information synthesis: the replay IS the original run.
        assert report.fraction_propagated == 1.0
        np.testing.assert_allclose(report.x, result.x, rtol=1e-12)

    def test_truncated_stream_rejected(self, system):
        """A ring that evicted the front of a run fails loudly on replay."""
        A, b = system
        sink = RingBufferSink(capacity=200)
        tracer = Tracer(sinks=[sink], trace_reads=True)
        SharedMemoryJacobi(A, b, n_threads=4, seed=11).run_async(
            tol=1e-6, max_iterations=150, tracer=tracer
        )
        assert sink.dropped > 0
        with pytest.raises(ScheduleError, match=r"seq=\d+ .*truncated"):
            to_execution_trace(tracer.events(), A)
        with pytest.raises(ScheduleError, match="truncated"):
            replay_report(tracer.events(), A, b)

    def test_prefix_cut_stays_legal(self, system):
        """Dropping the *tail* of a complete stream is not truncation."""
        A, b = system
        tracer = Tracer(trace_reads=True)
        SharedMemoryJacobi(A, b, n_threads=4, seed=11).run_async(
            tol=1e-6, max_iterations=30, tracer=tracer
        )
        events = tracer.events()
        cut = events[len(events) // 2].seq
        report = replay_report([e for e in events if e.seq <= cut], A, b)
        assert report.valid_sequence and report.monotone
        assert 0 < report.n_relaxations < replay_report(events, A, b).n_relaxations

    def test_mismatched_reads_rejected(self):
        A = fd_laplacian_1d(4)
        tracer = Tracer(trace_reads=True)
        tracer.relax(0.0, 0, [0, 1], reads=[{1: 0}])  # 2 rows, 1 read dict
        with pytest.raises(ScheduleError, match="read dicts"):
            to_execution_trace(tracer.events(), A)

    def test_empty_trace_report(self):
        A = fd_laplacian_1d(4)
        report = replay_report([], A, np.ones(4))
        assert report.n_relaxations == 0
        assert report.monotone and report.valid_sequence
        assert len(report.residuals) == 1
        assert "0 relaxations" in report.verdict
