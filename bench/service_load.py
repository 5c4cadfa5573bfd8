"""The ``service-sweeps`` workload: an open loop of independent users.

The generator sends on a schedule whatever the service does: one arrival
per slot of ``1 / RATE`` seconds, placed uniformly within the middle
``JITTER`` share of its slot, so arrivals are paced but never in
lockstep. (A Poisson schedule was tried first: its tail latency over
~80 arrivals is set by chance bunching and spread 20-70% between seeds.)
The mix is fixed in count and shuffled: 70% of arrivals are a
16-request seed sweep (one coalescing class), 20% a singleton and 10%
an exact repeat of an earlier request. Every request is a 12x12 model
solve to 1e-5. Fixing the counts keeps the offered load the same on
every seed, so a seed changes which requests arrive when, not how many.

Each request is timed from the moment it was due, not from when the
generator sent it, so a stall in the generator or the service is charged
to every request it delays; the generator's own lateness is reported
separately. While the service is idle and the next arrival is far
enough away, the generator runs calibration ops; latencies are scaled by
the ones nearest in time (see ``worker.run_service``). Goodput counts
requests whose calibrated latency is within ``LIMIT_S``, per second of
the phase's span, from the schedule's start to the last response. The
service runs on the asyncio loop plus one executor thread
(``singleton_workers=0``: no process pool).
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.observability import JSONLSink
from repro.perf.cache import ExperimentCache
from repro.service import SolveRequest, SolverService, executor
from repro.service.requests import ServiceError

#: Arrivals per second of schedule (~50% of the measured capacity).
RATE = 8.0
#: Each arrival lands uniformly within this share of its slot of
#: ``1 / RATE`` seconds, centred on the slot.
JITTER = 0.5
#: Requests in one seed sweep.
SWEEP = 16
#: Side of the square grid every request solves on.
GRID = 12
#: Shares of sweep, singleton and repeat arrivals.
MIX = (0.7, 0.2, 0.1)
#: Latency limit in calibrated seconds: a request answered later than
#: this misses goodput. It sits between the measured p95 (0.06-0.08 s)
#: and p99 (0.07-0.14 s), about twice the median, so goodput falls when
#: the tail grows, not only when most requests slow down.
LIMIT_S = 0.1
#: Idle seconds before the next arrival needed to run a calibration op.
CAL_SLACK_S = 0.06
#: Each latency is calibrated by the median of this many calibration ops
#: nearest to its due time.
CAL_NEAREST = 5
#: Every this-many-th response is recomputed with ``run_single`` and
#: compared bit for bit.
SPOT_EVERY = 32


def request(schedule_seed: int, b_seed: int) -> SolveRequest:
    """One ``GRID`` x ``GRID`` random-subset model solve to 1e-5."""
    return SolveRequest(
        matrix={"family": "fd_2d", "args": {"nx": GRID, "ny": GRID}},
        schedule={"kind": "random_subset", "fraction": 0.5, "seed": schedule_seed},
        b_seed=b_seed,
        tol=1e-5,
        max_steps=4000,
        record_every=8,
    )


def make_schedule(seed: int, seconds: float) -> list:
    """``[(due_s, [SolveRequest, ...]), ...]`` sorted by due time."""
    rng = np.random.default_rng(seed)
    n = max(3, round(RATE * seconds))
    gap = seconds / n
    due = (np.arange(n) + rng.uniform(0.5 - JITTER / 2, 0.5 + JITTER / 2, n)) * gap
    n_sweep = round(MIX[0] * n)
    n_single = round(MIX[1] * n)
    kinds = ["sweep"] * n_sweep + ["single"] * n_single
    kinds += ["repeat"] * (n - len(kinds))
    rng.shuffle(kinds)
    if kinds[0] == "repeat":  # a repeat needs an earlier request
        j = kinds.index("sweep")
        kinds[0], kinds[j] = kinds[j], kinds[0]
    arrivals, issued = [], []
    for due_s, kind in zip(due.tolist(), kinds):
        if kind == "sweep":
            class_seed = int(rng.integers(2**31))
            reqs = [request(class_seed, b) for b in range(SWEEP)]
        elif kind == "single":
            reqs = [request(int(rng.integers(2**31)), int(rng.integers(1000)))]
        else:
            reqs = [issued[int(rng.integers(len(issued)))]]
        issued += reqs
        arrivals.append((due_s, reqs))
    return arrivals


def patches():
    """Public callables on the service path, with span names."""
    return [
        (SolverService, "submit", "service.submit"),
        (executor, "run_group", "service.executor.run_group"),
        (executor, "run_single", "service.executor.run_single"),
        (ExperimentCache, "lookup", "perf.cache.lookup"),
        (ExperimentCache, "store", "perf.cache.store"),
    ]


class Service:
    """A fresh service over a fresh cache directory."""

    def __init__(self, workdir: Path, trace_path=None):
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
        self.svc = SolverService(
            cache=ExperimentCache(root=self.cache_dir, enabled=True),
            max_queue=1024,
            singleton_workers=0,
            trace_path=trace_path,
        )

    async def start(self):
        await self.svc.start()

    async def close(self):
        await self.svc.stop()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


async def setup(workdir: Path, seed: int, trace_path=None) -> Service:
    """One fresh set-up: cache, service, and a first (warm-up) request."""
    service = Service(workdir, trace_path)
    await service.start()
    result = await service.svc.submit(request(seed + 7_919_000, 0))
    if not result["converged"]:
        raise RuntimeError("warm-up request did not converge")
    return service


async def drive(service: Service, arrivals: list, calibrator) -> dict:
    """Send ``arrivals`` on schedule; collect per-request outcomes.

    While no request is outstanding and the next arrival is at least
    ``CAL_SLACK_S`` away, the generator runs calibration ops on the loop
    thread, so the phase's machine speed is measured without delaying
    any request.
    """
    t0 = time.perf_counter()
    outstanding = 0
    idle = asyncio.Event()
    idle.set()

    async def one(req, due_s):
        nonlocal outstanding
        try:
            result = await service.svc.submit(req)
        except ServiceError as exc:
            return due_s, None, None, type(exc).__name__
        finally:
            outstanding -= 1
            if not outstanding:
                idle.set()
        return due_s, time.perf_counter() - t0 - due_s, result, None

    tasks, lags, sent, cals = [], [], [], []
    for due_s, reqs in arrivals:
        while (slack := due_s - (time.perf_counter() - t0)) > 0:
            if not idle.is_set():
                try:
                    await asyncio.wait_for(idle.wait(), slack)
                except asyncio.TimeoutError:
                    pass
            elif slack >= CAL_SLACK_S:
                at = time.perf_counter() - t0
                cals.append((at, calibrator.run()))
            else:
                await asyncio.sleep(slack)
        lags.append(time.perf_counter() - t0 - due_s)
        for req in reqs:
            outstanding += 1
            idle.clear()
            tasks.append(asyncio.create_task(one(req, due_s)))
            sent.append(req)
    outcomes = await asyncio.gather(*tasks)
    return {"requests": sent, "outcomes": outcomes, "lags": lags, "cals": cals,
            "span_s": time.perf_counter() - t0, "stats": service.svc.stats()}


def spot_check(phase: dict) -> list:
    """Every ``SPOT_EVERY``-th response must equal ``run_single`` bitwise."""
    problems = []
    for i in range(0, len(phase["requests"]), SPOT_EVERY):
        _due, _lat, got, _err = phase["outcomes"][i]
        if got is None:
            continue
        ref = executor.run_single(phase["requests"][i].spec())
        same = (
            got["x"].tobytes() == ref["x"].tobytes()
            and got["residual_norms"] == ref["residual_norms"]
            and got["steps"] == ref["steps"]
        )
        if not same:
            problems.append(f"response {i} differs from run_single")
    return problems


def failures(phase: dict) -> tuple:
    """``(failed request count, problems)``: errors, sheds, non-convergence."""
    failed, problems = 0, []
    for i, (_due, _lat, result, err) in enumerate(phase["outcomes"]):
        if err is not None:
            failed += 1
            problems.append(f"request {i}: {err}")
        elif not result["converged"]:
            failed += 1
            problems.append(f"request {i} did not converge")
    return failed, problems


def queue_waits(trace_path: Path) -> list:
    """Submit-to-dispatch seconds per dispatched request, from ``request`` events."""
    submitted, waits = {}, []
    for event in JSONLSink.read(trace_path):
        if event.kind != "request":
            continue
        key, phase = event.data.get("key"), event.data.get("phase")
        if phase == "submit":
            submitted.setdefault(key, event.time)
        elif phase == "dispatch" and key in submitted:
            waits.append(event.time - submitted.pop(key))
    return waits


def run_loop(coro_factory):
    """Run a coroutine on a fresh loop whose executor has one thread."""

    async def main():
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="service")
        asyncio.get_running_loop().set_default_executor(pool)
        try:
            return await coro_factory()
        finally:
            pool.shutdown(wait=True)

    return asyncio.run(main())
