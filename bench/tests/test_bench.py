"""Tests of the benchmark itself: ``pytest bench/tests``.

The end-to-end tests run every workload under ``--smoke`` (a handful of
ops, no minimum sample counts), so they check plumbing and checks, not
timings.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from compare import verdict  # noqa: E402
from spans import OP, Spans  # noqa: E402
from stats import TooFewSamples, percentile, spread  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH / "layers.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    """One smoke run of all five workloads per trace mode."""
    runs = {}
    for trace in (0, 1):
        proc = run_bench("--smoke", "--seconds", "0.3", "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        runs[trace] = proc
    return runs


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(smoke_runs, trace):
    proc = smoke_runs[trace]
    result = last_json(proc.stdout)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for workload in WORKLOADS:
        block = proc.stdout.split(f"== {workload} ")[1].split("\n== ")[0]
        for m in declared:
            got = result["metrics"][f"{workload}/{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
            assert f"{m['name']} " in block and f" {m['unit']}" in block
            if not trace:
                assert got["value"] > 0, (workload, m["name"])


def test_trace_self_times_add_up_to_op_wall_time(smoke_runs):
    for workload in WORKLOADS[:4]:  # the simulator workloads
        trace = json.loads((BENCH / "out" / f"trace-{workload}.json").read_text())
        assert trace["ops"], workload
        for op in trace["ops"]:
            assert "unattributed" in op["self_s"]
            assert sum(op["self_s"].values()) == pytest.approx(op["wall_s"], rel=1e-9)
    assert "bench.trace_overhead" in smoke_runs[1].stdout


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(TooFewSamples):
        percentile(range(99), 90)
    assert percentile(range(100), 90) == pytest.approx(89.1)
    with pytest.raises(TooFewSamples):
        percentile(range(49), 80)
    assert percentile(range(50), 80) == pytest.approx(39.2)
    with pytest.raises(TooFewSamples):
        percentile(range(19), 50)
    assert percentile(range(20), 50) == pytest.approx(9.5)
    with pytest.raises(TooFewSamples):
        percentile(range(999), 99)
    assert percentile([3.0], 90, min_beyond=0) == 3.0


def copy_bench(dest: Path) -> Path:
    """``BENCHMARK.json`` and ``bench/`` copied into ``dest``, without ``src/``."""
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    return dest / "bench"


def test_corrupted_pin_fails_every_op_and_exits_nonzero(tmp_path):
    pins_path = copy_bench(tmp_path) / "pins.json"
    pins = json.loads(pins_path.read_text())
    entry = pins["workloads"]["fig4-shared"]
    entry["digests"] = ["0" * 64 for _ in entry["digests"]]
    pins_path.write_text(json.dumps(pins))
    proc = run_bench("--workload", "fig4-shared", "--seed", "1", "--smoke",
                     "--seconds", "0.2", "--root", str(ROOT), cwd=tmp_path)
    assert proc.returncode != 0
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0  # failed_frac = 1


def test_calibration_does_not_import_repro():
    tree = ast.parse((BENCH / "calibrate.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "repro" not in imported
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; import calibrate; calibrate.Calibrator().run(); "
         "print(any(m == 'repro' or m.startswith('repro.') for m in sys.modules))"],
        cwd=BENCH, capture_output=True, text=True, check=True,
    )
    assert probe.stdout.strip() == "False"


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    copy_bench(tmp_path)
    proc = run_bench("--workload", "fig8-dispatch", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_every_per_layer_metric_names_what_it_moves():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names == set(LAYERS)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for name, entry in LAYERS.items():
        assert entry["moves"] in e2e | {"none"}, name
        assert set(entry["on"]) <= set(WORKLOADS), name
        assert set(entry.get("not_on", [])) <= set(WORKLOADS), name


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert set(WORKLOADS) == {"fig8-dispatch", "scale-1e6", "fig4-shared",
                              "faults-traced", "service-sweeps"}


def test_span_self_times_sum_to_wall_time():
    spans = Spans()
    spans.active, spans.op_id = True, 0
    with spans.span(OP):
        with spans.span("a"):
            with spans.span("b"):
                pass
        with spans.span("a"):
            pass
    (op,) = spans.op_breakdown()
    assert set(op["self_s"]) == {"unattributed", "a", "b"}
    assert sum(op["self_s"].values()) == pytest.approx(op["wall_s"], rel=1e-12)


def test_compare_verdicts():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert verdict(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert verdict(parent, slower, "lower", 0.1)["verdict"] == "regression"
    assert verdict(parent, parent, "lower", 0.1)["verdict"] == "unchanged"
    noisy = [1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    assert verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert spread(parent)["median"] == 1.0
