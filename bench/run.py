"""The benchmark: five workloads, each in its own child process.

Usage (from the repository root)::

    python3 bench/run.py                          # all five workloads
    python3 bench/run.py --workload fig8-dispatch --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --trace                  # per-layer metrics + span files
    python3 bench/run.py --repeat 10              # spreads and proposed bounds
    python3 bench/run.py --pin [--repin]          # record default-seed pins

Every metric prints by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the ``end_to_end`` metrics of
``BENCHMARK.json``, ``--trace 1`` its ``per_layer`` metrics. Each run is
also written to ``bench/out/<timestamp>.json``.

The source under test is ``<root>/src`` (``--root``, default: the
directory above ``bench/``). Without it the benchmark exits with code 2
and prints no result. This file imports nothing from ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
PINS_PATH = BENCH_DIR / "pins.json"
#: Which end-to-end metric each per-layer metric should move, and where.
LAYERS_PATH = BENCH_DIR / "layers.json"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("fig8-dispatch", "scale-1e6", "fig4-shared", "faults-traced", "service-sweeps")
#: Workloads with default-seed pins (the service checks against run_single).
PINNED = ("fig8-dispatch", "scale-1e6", "fig4-shared", "faults-traced")
#: Seconds a worker may take; the first build of the native library may
#: take longer than a warm run.
WORKER_TIMEOUT_S = 175
FIRST_BUILD_TIMEOUT_S = 880
#: ``--repeat`` never proposes a bound above this share.
BOUND_CAP = 0.25
BOUND_FLOOR = 0.05


class WorkerError(RuntimeError):
    """A worker exited non-zero, timed out, or printed no JSON result."""


def worker_env(root: Path, extra_env=None) -> dict:
    """Environment of a workload child: one thread, caches inside ``root``."""
    build = root / ".bench_build"
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_NATIVE_DIR=str(build / "native"),
        REPRO_CACHE_DIR=str(build / "cache"),
        TMPDIR=str(tmp),
    )
    env.update(extra_env or {})
    return env


def spawn_worker(root: Path, argv, extra_env=None) -> dict:
    """Run ``bench/worker.py`` to completion and return its JSON result."""
    root = Path(root)
    native = worker_env(root, extra_env)["REPRO_NATIVE_DIR"]
    built = any(Path(native).glob("repro_native_*.so"))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(root), *argv]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=worker_env(root, extra_env),
            timeout=WORKER_TIMEOUT_S if built else FIRST_BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out: {' '.join(argv)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {' '.join(argv)}")
    return json.loads(lines[-1])


def git_rev(root: Path):
    """The checked-out commit, read from ``root/.git`` (None without one)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(root, name, seed, seconds, trace, smoke=False) -> dict:
    """One workload's worker payload (``problems`` set when it failed)."""
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--out", str(OUT_DIR)]
    if smoke:
        argv.append("--smoke")
    try:
        return spawn_worker(root, argv)
    except WorkerError as exc:
        return {"metrics": {}, "info": {}, "attempted": 1, "failed": 1,
                "problems": [str(exc)], "provenance": {}}


def with_units(payload: dict, spec: dict, trace: bool) -> dict:
    """``{name: {"value", "unit"}}`` for every declared metric.

    A per-layer metric of a layer that is not on the workload's path is
    reported as 0. A missing end-to-end metric is a failure.
    """
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = payload["metrics"].get(m["name"])
        if value is None:
            if not trace:
                payload["problems"].append(f"end-to-end metric {m['name']} missing")
                continue
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def moves_note(entry: dict) -> str:
    """``moves op_p50_s on a, b; not on c`` for one per-layer metric."""
    if entry["moves"] == "none":
        return "moves nothing"
    note = f"moves {entry['moves']} on {', '.join(entry['on'])}"
    if entry.get("not_on"):
        note += f"; not on {', '.join(entry['not_on'])}"
    return note


def print_workload(name, payload, metrics, seed, trace) -> None:
    """Human-readable block for one workload."""
    info = payload.get("info", {})
    layers = json.loads(LAYERS_PATH.read_text()) if trace else {}
    print(f"== {name}  seed {seed}  trace {int(trace)} ==")
    for key, m in metrics.items():
        if key not in payload["metrics"]:
            note = "  (not on this workload's path)"
        elif key in layers:
            note = f"  [{moves_note(layers[key])}]"
        else:
            note = ""
        print(f"  {key:<38} {m['value']:>14.6g} {m['unit']}{note}")
    for key in ("ops", "requests", "arrivals", "op_p50_raw_s", "setup_raw_s",
                "cal_op_s", "cal_ops", "cal_before_s", "cal_after_s",
                "latency_p95_s", "latency_p99_s", "gen_lag_max_s", "trace_file"):
        if info.get(key) is not None:
            print(f"  info {key:<33} {info[key]}")
    print(f"  attempted {payload['attempted']}, failed {payload['failed']}")
    for problem in payload.get("problems", [])[:10]:
        print(f"  PROBLEM {problem}")


def cmd_run(args, spec, root) -> int:
    names = args.workload or list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    results = {}
    for name in names:
        payload = run_workload(root, name, args.seed, seconds, args.trace, args.smoke)
        payload["metrics_with_units"] = with_units(payload, spec, args.trace)
        results[name] = payload
        print_workload(name, payload, payload["metrics_with_units"], args.seed, args.trace)

    attempted = sum(p["attempted"] for p in results.values())
    failed = sum(p["failed"] for p in results.values())
    problems = any(p["problems"] for p in results.values())
    correct = failed == 0 and not problems
    record = {
        "seed": args.seed, "seconds": seconds, "trace": int(args.trace),
        "git_rev": git_rev(root), "correct": correct, "workloads": results,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT_DIR / f"{stamp}-{os.getpid()}.json").write_text(json.dumps(record, indent=1))
    if len(names) == 1:
        metrics = results[names[0]]["metrics_with_units"]
    else:
        metrics = {f"{n}/{k}": v for n, p in results.items()
                   for k, v in p["metrics_with_units"].items()}
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def propose_bound(s: dict) -> float:
    """max(2 x largest deviation, 3 x IQR, 5%), capped at ``BOUND_CAP``."""
    return min(BOUND_CAP, max(BOUND_FLOOR, 2 * s["max_dev_share"], 3 * s["iqr_share"]))


def cmd_repeat(args, spec, root) -> int:
    from stats import spread

    names = args.workload or list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, runs, ok = {}, {}, True
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        runs[name] = []
        for k in range(args.repeat):
            payload = run_workload(root, name, args.seed + k, seconds, False, args.smoke)
            runs[name].append(payload)
            if payload["failed"] or payload["problems"]:
                ok = False
                print(f"{name} seed {args.seed + k}: FAILED {payload['problems'][:3]}")
            for key, vals in values.items():
                if key in payload["metrics"]:
                    vals.append(payload["metrics"][key])
        print(f"== {name}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1} ==")
        print(f"  {'metric':<16} {'median':>12} {'IQR':>7} {'maxdev':>7} "
              f"{'bound':>6} {'proposed':>8}")
        report[name] = {}
        for key, vals in values.items():
            if not vals:
                continue
            s = spread(vals)
            s["proposed_bound"] = propose_bound(s)
            s["bound"] = bounds[key]
            report[name][key] = s
            flag = "" if key == "setup_s" or s["iqr_share"] < bounds[key] / 3 else "  WIDE"
            print(f"  {key:<16} {s['median']:>12.6g} {s['iqr_share']:>7.2%} "
                  f"{s['max_dev_share']:>7.2%} {bounds[key]:>6.0%} "
                  f"{s['proposed_bound']:>8.0%}{flag}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT_DIR / f"repeat-{stamp}-{os.getpid()}.json").write_text(
        json.dumps({"seed": args.seed, "seconds": seconds, "spreads": report,
                    "runs": runs}, indent=1)
    )
    print(json.dumps({"repeat": args.repeat, "ok": ok, "spreads": report}))
    return 0 if ok else 1


def cmd_pin(args, spec, root) -> int:
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}
    pins.setdefault("workloads", {})
    names = [n for n in (args.workload or PINNED) if n in PINNED]
    for name in names:
        if name in pins["workloads"] and not args.repin:
            print(f"{name}: already pinned; pass --repin to overwrite", file=sys.stderr)
            return 1
    for name in names:
        payload = spawn_worker(root, ["--mode", "pin", "--workload", name])
        if payload["problems"]:
            print(f"{name}: not pinned: {payload['problems']}", file=sys.stderr)
            return 1
        pins["workloads"][name] = payload["pin"]
        for ref, seconds in payload["cal_ref_s"].items():
            pins.setdefault("cal_ref_s", {}).setdefault(ref, seconds)
        legacy = "legacy-checked" if payload["legacy_checked"] else "no legacy arm"
        print(f"{name}: pinned {len(payload['pin']['digests'])} digest(s), {legacy}")
    pins["default_seed"] = 1
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run the benchmark workloads.")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all five)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: per-layer metrics and span files instead of end-to-end")
    p.add_argument("--smoke", action="store_true",
                   help="a handful of ops, no minimum sample counts (for tests)")
    p.add_argument("--repeat", type=int, default=0,
                   help="run each workload N times on seeds seed..seed+N-1 and report spreads")
    p.add_argument("--pin", action="store_true", help="record default-seed pins")
    p.add_argument("--repin", action="store_true", help="with --pin, overwrite pins")
    p.add_argument("--root", type=Path, default=BENCH_DIR.parent,
                   help="tree whose src/ is measured")
    args = p.parse_args(argv)

    root = args.root.resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no source tree to measure: {root / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.pin or args.repin:
        return cmd_pin(args, spec, root)
    if args.repeat:
        return cmd_repeat(args, spec, root)
    return cmd_run(args, spec, root)


if __name__ == "__main__":
    sys.exit(main())
