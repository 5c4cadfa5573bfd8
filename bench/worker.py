"""Child process: run one workload and print its result as one JSON line.

``bench/run.py`` starts this script once per workload with the thread
caps, ``PYTHONPATH`` and cache directories set (see ``run.worker_env``).
Modes:

* ``run`` (default) -- set up several times, warm up, then time ops for
  ``--seconds`` (longer if needed to reach the minimum sample count),
  each op and set-up between two calibration ops; check every output.
* ``pin`` -- the default-seed digests and counts, cross-checked against
  ``legacy_engine=True`` runs where the workload supports it.
* ``probe`` -- load (or build) the native kernel library, report its
  provenance and compile time.
* ``fallback`` -- the ``scale-1e6`` op under ``REPRO_NO_NATIVE=1``, for
  ``perf.native.speedup_vs_fallback``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from calibrate import Calibrator
from spans import OP, Spans
from stats import percentile

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"

#: Fresh set-ups per run: at least ``MIN_SETUPS``, then more while their
#: total stays under ``SETUP_BUDGET_S``; ``setup_s`` is their median. A
#: cheap set-up (the service's takes ~20 ms) needs many to give a steady
#: median; an expensive one (``scale-1e6``, ~1.4 s) stops at the minimum.
MIN_SETUPS = 3
MAX_SETUPS = 15
SETUP_BUDGET_S = 1.5
#: Timed ops per run at least: p80 needs 50 samples. A run is otherwise
#: bounded by ``--seconds``, so its length does not grow with machine load
#: (15 s holds 60-130 ops of each simulator workload).
MIN_OPS = 50
#: Timed ops per variant at least in a trace run: p50 needs 20.
MIN_TRACE_OPS = 20
#: Measuring stops here even if the minimum sample count is not reached.
MEASURE_CAP_S = 120.0


def calibrator_for(wl):
    """The reference op class whose ops scale ``wl``'s timings."""
    return getattr(wl, "calibrator", Calibrator)


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts later, on one CPU.

    The service solves on an executor thread while its calibration ops
    run on the event-loop thread. Neighbours on a shared machine can slow
    one CPU more than another, so unpinned, a request and the
    calibration op that scales it may be timed on different CPUs (the
    service's p50 spread between seeds fell from ~9% to ~6% pinned).
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(seed) -> dict:
    """Where a number came from: code, native build, versions, caps."""
    from repro.perf.cache import code_version
    from repro.perf.native import build_info, native_available

    return {
        "code_version": code_version(),
        "native_available": native_available(),
        "native_source_hash": build_info()["source_hash"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "thread_caps": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def setup_rounds(smoke: bool):
    """Indices of the fresh set-ups to time (one under ``--smoke``)."""
    start = time.perf_counter()
    k = 0
    while True:
        yield k
        k += 1
        if smoke or k >= MAX_SETUPS:
            return
        if k >= MIN_SETUPS and time.perf_counter() - start >= SETUP_BUDGET_S:
            return


# -- checks ------------------------------------------------------------------
class Tally:
    """Ops attempted and failed, with the first problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def error(self, exc) -> None:
        """Count an op that raised."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{type(exc).__name__}: {exc}")


class Checker(Tally):
    """Every op must repeat its key's first digest, and match the pin on the default seed."""

    def __init__(self, wl, seed, pins):
        from workloads import DEFAULT_SEED

        super().__init__()
        self.wl = wl
        self.pin = pins.get("workloads", {}).get(wl.name) if seed == DEFAULT_SEED else None
        self.reference = {}

    def __call__(self, out) -> bool:
        self.attempted += 1
        problems = []
        ref = self.reference.setdefault(out.key, out.digest)
        if out.digest != ref:
            problems.append(f"op key {out.key}: digest differs from the run's first op")
        if self.pin is not None:
            problems += pin_problems(self.wl, out, self.pin)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems += problems
        return not problems


def pin_problems(wl, out, pin) -> list:
    """Differences between one op's outcome and the workload's pin."""
    problems = []
    digests = pin.get("digests", [])
    if out.key >= len(digests) or out.digest != digests[out.key]:
        problems.append(f"op key {out.key}: digest differs from the pin")
    if "telemetry" in pin and wl.telemetry_pin(out) != pin["telemetry"]:
        problems.append("fault telemetry differs from the pin")
    for name, want in pin.get("floats", {}).items():
        got = out.floats.get(name, out.counts.get(name))
        if got is None or abs(got - want) > 1e-9 * abs(want):
            problems.append(f"{name} {got!r} differs from the pin {want!r}")
    return problems


def pin_entry(wl, outs) -> dict:
    """The pin recorded for a workload from its default-seed ops."""
    entry = {"digests": [o.digest for o in outs], "floats": {}}
    if "sim_time_s" in outs[0].counts:
        entry["floats"]["sim_time_s"] = outs[0].counts["sim_time_s"]
    entry["floats"].update(outs[0].floats)
    if hasattr(wl, "telemetry_pin"):
        entry["telemetry"] = wl.telemetry_pin(outs[0])
    return entry


# -- per-layer micro measurements -------------------------------------------
def engine_rates(n_agents: int) -> dict:
    """Push+pop rate of the auto event queue and jitter draw rate."""
    from repro.runtime.engine import PatternJitterStream, make_event_queue

    rng = np.random.default_rng(0)
    steps = rng.random(100_000).tolist()
    queue = make_event_queue("auto", size_hint=n_agents)
    for a in range(n_agents):
        queue.push(steps[a], 0, a)
    start = time.perf_counter()
    for dt in steps:
        t, _kind, agent, _obj = queue.pop()
        queue.push(t + dt, 0, agent)
    queue_s = time.perf_counter() - start
    stream = PatternJitterStream(rng, [0.08, 0.08, 0.25, 0.25], steps=64)
    n_steps = 25_000
    start = time.perf_counter()
    for _ in range(n_steps):
        stream.next_step()
    jitter_s = time.perf_counter() - start
    return {
        "runtime.engine.queue_ops_per_s": 2 * len(steps) / queue_s,
        "runtime.engine.jitter_draws_per_s": 4 * n_steps / jitter_s,
    }


def matvec_gbs(A) -> float:
    """``CSRMatrix.matvec`` rate in GB/s of *computed* array traffic.

    Bytes are the arrays the product reads and writes once each: values,
    column indices and row ids (8 bytes per nonzero each), plus ``x`` and
    the result. Cache misses are not counted.
    """
    x = np.random.default_rng(0).standard_normal(A.ncols)
    nbytes = 24 * A.nnz + 8 * (A.ncols + A.nrows)
    A.matvec(x)
    reps, start = 0, time.perf_counter()
    while True:
        A.matvec(x)
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= 0.2 and reps >= 3:
            return reps * nbytes / elapsed / 1e9


# -- simulator workloads -----------------------------------------------------
def run_simulator(wl, args, pins, cal_ref):
    from repro.perf.native import build_info, native_kernels

    spans = Spans()
    trace = bool(args.trace)
    if trace:
        for owner, attr, name in wl.patches():
            spans.patch(owner, attr, name)
    check = Checker(wl, args.seed, pins)
    cal = calibrator_for(wl)()
    cal.run()

    start = time.perf_counter()
    native_kernels()
    probe_s = time.perf_counter() - start

    setup_ratios, setup_raw, first_raw = [], [], []
    state = None
    for k in setup_rounds(args.smoke):
        state = None
        gc.collect()
        c = cal.run()
        spans.active, spans.op_id = trace, f"setup{k}"
        t0 = time.perf_counter()
        with spans.span("setup"):
            state = wl.setup(args.seed, spans)
            t1 = time.perf_counter()
            first = wl.op(state, 0)
        t2 = time.perf_counter()
        spans.active = False
        setup_ratios.append((t2 - t0) / ((c + cal.run()) / 2))
        setup_raw.append(t2 - t0)
        first_raw.append(t2 - t1)
        check(first)

    replay_s = 0.0
    if hasattr(wl, "extra_check"):
        extra_problems, replay_s = wl.extra_check(state, first)
        check.attempted += 1
        check.failed += bool(extra_problems)
        check.problems += extra_problems
    check(wl.op(state, 1))  # warm-up

    variants = ["plain"]
    if trace:
        variants = ["plain", "spans", *getattr(wl, "trace_variants", ())]
    min_ops = 3 if args.smoke else (MIN_TRACE_OPS if trace else MIN_OPS)
    timed = []  # (variant, seconds, calibration op right before it)
    first_counts = first.counts
    i = 2
    start = time.perf_counter()
    broken = False
    while not broken:
        elapsed = time.perf_counter() - start
        enough = len(timed) >= min_ops * len(variants)
        if (enough and elapsed >= args.seconds) or elapsed >= MEASURE_CAP_S:
            break
        for variant in variants:
            c = cal.run()
            spans.active, spans.op_id = variant == "spans", i
            t0 = time.perf_counter()
            try:
                with spans.span(OP):
                    out = wl.op(state, i, variant=variant)
            except Exception as exc:  # recorded as a failed op; the run stops
                check.error(exc)
                broken = True
                break
            finally:
                spans.active = False
            timed.append((variant, time.perf_counter() - t0, c))
            check(out)
            i += 1

    # Each op is scaled by the mean of the calibration ops right before
    # and right after it (the next op's "before"), which follows a change
    # of machine speed during the op better than the one before alone.
    cals = [c for _, _, c in timed] + [cal.run()]
    samples = {v: [] for v in variants}
    for k, (variant, dt, _) in enumerate(timed):
        samples[variant].append((dt, (cals[k] + cals[k + 1]) / 2))

    min_beyond = 0 if args.smoke else 10
    plain = samples["plain"]
    ratios = [dt / c for dt, c in plain]
    p50 = percentile(ratios, 50, min_beyond) * cal_ref
    info = {
        "ops": len(plain),
        "op_p50_raw_s": percentile([dt for dt, _ in plain], 50, min_beyond),
        "setup_raw_s": _median(setup_raw),
        "cal_op_s": _median(c for _, c in plain),
        "peak_rss_mb": peak_rss_mb(),
        "solves_per_op": wl.solves,
        "counts_per_op": first_counts,
    }
    if not trace:
        metrics = {
            "setup_s": _median(setup_ratios) * cal_ref,
            "op_p50_s": p50,
            "op_p80_s": percentile(ratios, 80, min_beyond) * cal_ref,
            "goodput_per_s": wl.solves / p50,
            "peak_rss_mb": peak_rss_mb(),
        }
        return metrics, info, check, None

    # -- per-layer metrics of a trace run --------------------------------
    traced = [dt / c for dt, c in samples["spans"]]
    breakdown = [b for b in spans.op_breakdown() if isinstance(b["op"], int)]

    def self_med(name):
        return _median(b["self_s"].get(name, 0.0) for b in breakdown)

    def setup_total(name):
        per_setup = {}
        for rec in spans.records:
            if rec[1] == name and isinstance(rec[5], str) and rec[3] is not None:
                per_setup[rec[5]] = per_setup.get(rec[5], 0.0) + rec[3] - rec[2]
        return _median(per_setup.values())

    plain_med = statistics.median(ratios)
    layers = {
        "bench.trace_overhead": statistics.median(traced) / plain_med,
        "bench.unattributed_share": _median(
            b["self_s"].get("unattributed", 0.0) / b["wall_s"] for b in breakdown
        ),
        "bench.cal_op_s": info["cal_op_s"],
        "matrices.build_s": setup_total("matrices.build"),
        "matrices.matvec_gbs": matvec_gbs(state["A"]),
        "partition.bfs_s": setup_total("partition.bfs"),
        "perf.native.available": float(build_info()["available"]),
        "perf.native.probe_s": probe_s,
    }
    layers.update(engine_rates(wl.agents))
    c = first_counts
    if "commits" in c:
        async_s = self_med("runtime.distributed.run_async")
        layers.update({
            "runtime.distributed.sync_s": self_med("runtime.distributed.run_sync"),
            "runtime.distributed.async_s": async_s,
            "runtime.distributed.us_per_commit": 1e6 * async_s / max(1, c["async_commits"]),
            "runtime.distributed.commits": c["commits"],
            "runtime.distributed.rows_relaxed": c["rows_relaxed"],
            "runtime.distributed.puts_computed": c["puts_computed"],
            "runtime.distributed.sim_time_s": c["sim_time_s"],
            "runtime.distributed.construct_s": setup_total("runtime.distributed.construct"),
            "runtime.distributed.first_run_extra_s": (
                _median(first_raw) - _median(dt for dt, _ in plain)
            ),
        })
    if "relaxations" in c:
        shared_s = self_med("runtime.shared.run_async")
        layers.update({
            "runtime.shared.async_s": shared_s,
            "runtime.shared.us_per_relaxation": 1e6 * shared_s / c["relaxations"],
            "runtime.shared.relaxations": c["relaxations"],
        })
    if "events" in c:
        bare = [dt / cc for dt, cc in samples["no_tracer"]]
        layers.update({
            "faults.puts_sent": c["puts_sent"],
            "faults.delivery_ratio": c["puts_delivered"] / max(1, c["puts_sent"]),
            "faults.retries": c["retries"],
            "faults.restarts": c["restarts"],
            "observability.events": c["events"],
            "observability.trace_overhead": plain_med / statistics.median(bare),
            "observability.ns_per_event": (
                1e9 * (plain_med - statistics.median(bare)) * cal_ref / max(1, c["events"])
            ),
            "observability.replay_s": replay_s,
        })
    if wl.name == "scale-1e6":
        layers.update(native_side_runs(args, plain_med))
    spans.unpatch()
    return layers, info, check, spans


def native_side_runs(args, native_ratio) -> dict:
    """Cold native build time, and the same op with native disabled."""
    from run import spawn_worker

    root = Path(args.root)
    cold_dir = tempfile.mkdtemp(prefix="native-cold-")
    cold = spawn_worker(root, ["--mode", "probe"], extra_env={"REPRO_NATIVE_DIR": cold_dir})
    fallback = spawn_worker(
        root,
        ["--mode", "fallback", "--workload", args.workload, "--seed", str(args.seed),
         *(["--smoke"] if args.smoke else [])],
        extra_env={"REPRO_NO_NATIVE": "1"},
    )
    shutil.rmtree(cold_dir, ignore_errors=True)
    return {
        "perf.native.cold_build_s": (cold["build_ms"] or 0.0) / 1e3,
        "perf.native.speedup_vs_fallback": fallback["ratio"] / native_ratio,
    }


def run_fallback(wl, args) -> dict:
    """Median op/cal ratio of the workload's op in this (native-less) process."""
    cal = calibrator_for(wl)()
    state = wl.setup(args.seed, Spans())
    wl.op(state, 0)
    ratios = []
    for i in range(1, 4 if args.smoke else 16):
        c = cal.run()
        t0 = time.perf_counter()
        wl.op(state, i)
        ratios.append((time.perf_counter() - t0) / c)
    return {"ratio": statistics.median(ratios)}


# -- the service workload ----------------------------------------------------
def run_service(args, cal_ref):
    import service_load as sl

    workdir = Path(tempfile.gettempdir())
    spans = Spans()
    trace = bool(args.trace)
    cal = Calibrator()
    cal.run()
    tally = Tally()
    setup_ratios, setup_raw = [], []
    cal_before = cal.run()

    async def setups():
        for _ in setup_rounds(args.smoke):
            c = cal.run()
            t0 = time.perf_counter()
            service = await sl.setup(workdir, args.seed)
            setup_raw.append(time.perf_counter() - t0)
            setup_ratios.append(setup_raw[-1] / ((c + cal.run()) / 2))
            await service.close()

    sl.run_loop(setups)
    tally.attempted += len(setup_raw)

    def phase(seconds, trace_path=None):
        async def go():
            service = await sl.setup(workdir, args.seed, trace_path)
            try:
                return await sl.drive(
                    service, sl.make_schedule(args.seed, seconds), cal
                )
            finally:
                await service.close()

        return sl.run_loop(go)

    if trace:
        for owner, attr, name in sl.patches():
            spans.patch(owner, attr, name)
        plain_phase = phase(args.seconds / 2)
        trace_path = workdir / f"service-trace-{os.getpid()}.jsonl"
        spans.active = True
        traced_phase = phase(args.seconds / 2, trace_path)
        spans.active = False
        spans.unpatch()
        phases = [plain_phase, traced_phase]
    else:
        phases = [phase(args.seconds)]
    cal_after = cal.run()

    for ph in phases:
        n_failed, found = sl.failures(ph)
        mismatched = sl.spot_check(ph)
        tally.attempted += len(ph["outcomes"])
        tally.failed += n_failed + len(mismatched)
        tally.problems += (found + mismatched)[:20]

    def calibrated_latencies(ph) -> list:
        """Latencies scaled by ``cal_ref_s`` over the calibration ops nearest in time.

        Contention on a shared machine comes in bursts of a second or
        two, so each request is scaled by the median of the
        ``sl.CAL_NEAREST`` calibration ops run closest to its due time,
        the service's analogue of timing calibration ops right before
        and after each simulator op.
        """
        times = [t for t, _ in ph["cals"]]
        durs = [c for _, c in ph["cals"]]
        fallback = [cal_before, cal_after]
        out = []
        for due, latency, _result, _err in ph["outcomes"]:
            if latency is None:
                continue
            near = sorted(range(len(times)), key=lambda k: abs(times[k] - due))
            local = [durs[k] for k in near[: sl.CAL_NEAREST]] or fallback
            out.append(latency * cal_ref / statistics.median(local))
        return out

    min_beyond = 0 if args.smoke else 10
    main = phases[0]
    raw = [o[1] for o in main["outcomes"] if o[1] is not None]
    lat = calibrated_latencies(main)
    within = sum(1 for x in lat if x <= sl.LIMIT_S)
    info = {
        "requests": len(main["outcomes"]),
        "arrivals": len(main["lags"]),
        "op_p50_raw_s": percentile(raw, 50, min_beyond),
        "cal_op_s": _median(c for _, c in main["cals"]),
        "cal_ops": len(main["cals"]),
        "cal_before_s": cal_before,
        "cal_after_s": cal_after,
        "setup_raw_s": _median(setup_raw),
        "latency_p95_s": (
            percentile(lat, 95, min_beyond) if len(lat) >= 200 or args.smoke else None
        ),
        "latency_p99_s": (
            percentile(lat, 99, min_beyond) if len(lat) >= 1000 or args.smoke else None
        ),
        "gen_lag_max_s": max(main["lags"]),
        "stats": main["stats"],
        "peak_rss_mb": peak_rss_mb(),
    }
    if not trace:
        metrics = {
            "setup_s": _median(setup_ratios) * cal_ref,
            "op_p50_s": percentile(lat, 50, min_beyond),
            "op_p80_s": percentile(lat, 80, min_beyond),
            "goodput_per_s": within / main["span_s"],
            "peak_rss_mb": peak_rss_mb(),
        }
        return metrics, info, tally, None

    traced_lat = calibrated_latencies(traced_phase)
    waits = sl.queue_waits(trace_path)
    trace_path.unlink(missing_ok=True)
    stats = traced_phase["stats"]
    layers = {
        "bench.trace_overhead": (
            percentile(traced_lat, 50, min_beyond) / percentile(lat, 50, min_beyond)
        ),
        "bench.cal_op_s": _median(c for _, c in main["cals"]) or cal_before,
        "service.queue_wait_p50_s": percentile(waits, 50, min_beyond),
        "service.queue_wait_p90_s": percentile(waits, 90, min_beyond),
        "service.exec_group_s": _median(spans.durations("service.executor.run_group")),
        "service.exec_single_s": _median(spans.durations("service.executor.run_single")),
        "service.coalescing_factor": stats["coalescing_factor"],
        "service.single_flight_joins": stats["single_flight_joins"],
        "service.shed": stats["rejected"],
        "service.expired": stats["expired"],
        "service.gen_lag_max_s": max(traced_phase["lags"]),
        "perf.cache.lookup_s_p50": _median(spans.durations("perf.cache.lookup")),
        "perf.cache.store_s_p50": _median(spans.durations("perf.cache.store")),
        "perf.cache.hit_rate": stats["cache_hit_rate"],
    }
    return layers, info, tally, spans


# -- modes -------------------------------------------------------------------
def mode_pin(wl, args) -> dict:
    from workloads import DEFAULT_SEED

    spans = Spans()
    state = wl.setup(DEFAULT_SEED, spans)
    outs = [wl.op(state, k) for k in range(wl.pin_keys)]
    problems = []
    if wl.legacy:
        legacy = [wl.op(state, k, legacy=True) for k in range(wl.pin_keys)]
        for new, old in zip(outs, legacy):
            if new.digest != old.digest:
                problems.append(f"op key {new.key}: differs from the legacy engine")
        if hasattr(wl, "telemetry_pin") and wl.telemetry_pin(outs[0]) != wl.telemetry_pin(legacy[0]):
            problems.append("fault telemetry differs from the legacy engine")
    cal = calibrator_for(wl)()
    cal.run()
    return {
        "pin": pin_entry(wl, outs),
        "legacy_checked": wl.legacy,
        "problems": problems,
        "cal_ref_s": {cal.name: statistics.median(cal.run() for _ in range(51))},
    }


def mode_probe() -> dict:
    from repro.perf.native import build_info

    info = build_info()
    return {"available": info["available"], "build_ms": info["build_ms"],
            "source_hash": info["source_hash"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", default="run", choices=("run", "pin", "probe", "fallback"))
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--root", type=Path, default=BENCH_DIR.parent)
    p.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    args = p.parse_args(argv)

    pin_to_one_cpu()
    if args.mode == "probe":
        payload = mode_probe()
    else:
        pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}
        if args.workload == "service-sweeps":
            wl = None
        else:
            from workloads import SIMULATORS

            wl = SIMULATORS[args.workload]
        if args.mode == "pin":
            payload = mode_pin(wl, args)
        elif args.mode == "fallback":
            payload = run_fallback(wl, args)
        else:
            ref_name = calibrator_for(wl).name
            cal_ref = pins.get("cal_ref_s", {}).get(ref_name)
            if cal_ref is None:
                print(f"bench/pins.json has no cal_ref_s for the {ref_name!r} reference; "
                      "run bench/run.py --pin", file=sys.stderr)
                return 2
            if wl is None:
                metrics, info, check, spans = run_service(args, cal_ref)
            else:
                metrics, info, check, spans = run_simulator(wl, args, pins, cal_ref)
            if spans is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                trace_file = args.out / f"trace-{args.workload}.json"
                trace_file.write_text(json.dumps(
                    {"workload": args.workload, "seed": args.seed, **spans.to_json()}
                ))
                info["trace_file"] = str(trace_file)
            payload = {
                "metrics": metrics,
                "info": info,
                "attempted": check.attempted,
                "failed": check.failed,
                "problems": check.problems,
                "provenance": {**provenance(args.seed), "cal_ref_s": cal_ref},
            }
    print(json.dumps(payload, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
