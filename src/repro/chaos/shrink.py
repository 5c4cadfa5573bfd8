"""Greedy minimization of failing scenarios, and the reproducer corpus.

When the harness flags a scenario, :func:`shrink_spec` searches for a
smaller spec that still fails the *same properties*: drop fault events one
at a time, simplify surviving events (zero their onset, halve their
windows, widen their scope), then shrink the configuration (matrix down
its ladder, fewer agents, shorter budget, plainer delay/transport knobs).
Each pass re-runs candidates through :func:`repro.chaos.harness.run_scenario`
— candidates that raise :class:`~repro.chaos.harness.ChaosSpecError`
stepped outside an executor's contract and are skipped, not counted as
fixes. Passes repeat to a fixpoint under a bounded run budget, so shrinking
a distributed scenario costs seconds, not minutes.

Minimal reproducers are archived by :func:`archive_reproducer` as plain
JSON under ``tests/chaos/corpus/`` (spec + the failures it provokes + the
mutation it needs, if any) and replayed forever after by the corpus
regression test — the fuzzer's findings become ordinary fixtures.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

from repro.chaos.generator import MATRIX_LADDERS
from repro.chaos.harness import ChaosSpecError, run_scenario

#: Corpus JSON schema version (bump on incompatible layout changes).
CORPUS_VERSION = 1


def _failed_props(verdict: dict) -> set:
    return {f["property"] for f in verdict["failures"]}


def spec_events(spec: dict) -> list:
    """The fault-event list of a spec (shared across all executors)."""
    return spec.get("plan", {}).get("events", [])


def _event_candidates(spec: dict) -> list:
    """Drop one event; then simplify one field of one event."""
    out = []
    events = spec_events(spec)
    for i in range(len(events)):
        cand = copy.deepcopy(spec)
        del cand["plan"]["events"][i]
        out.append(cand)
    simplifications = {
        "crash": [
            ("restart_after", None),  # permanent crash is simpler
            ("at", 0.0),
        ],
        "partition": [("start", 0.0), ("duration", lambda v: v / 2)],
        "drop": [
            ("start", 0.0),
            ("duration", lambda v: v / 2),
            ("probability", 1.0),
            ("agents", None),  # all senders is the simpler scope
        ],
    }
    simplifications["corrupt"] = simplifications["drop"]
    for i, event in enumerate(events):
        for field, target in simplifications.get(event["kind"], ()):
            current = event.get(field)
            new = target(current) if callable(target) else target
            if current == new or (new is None and field not in event):
                continue
            cand = copy.deepcopy(spec)
            if new is None:
                cand["plan"]["events"][i].pop(field, None)
            else:
                cand["plan"]["events"][i][field] = new
            out.append(cand)
    return out


def _set(spec: dict, path: tuple, value) -> dict | None:
    """A deep copy with ``spec[path] = value``, or None if already there."""
    node = spec
    for key in path[:-1]:
        node = node.get(key)
        if node is None:
            return None
    if path[-1] not in node or node[path[-1]] == value:
        return None
    cand = copy.deepcopy(spec)
    node = cand
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cand


def _config_candidates(spec: dict) -> list:
    """Shrink the scenario around the (already minimized) fault plan."""
    out = []
    family = spec["matrix"]["family"]
    ladder = MATRIX_LADDERS.get(family, [])
    try:
        rung = ladder.index(spec["matrix"]["args"])
    except ValueError:
        rung = -1
    if rung > 0:
        out.append(_set(spec, ("matrix", "args"), dict(ladder[rung - 1])))
    crashed = {e.get("agent", 0) for e in spec_events(spec) if e["kind"] == "crash"}
    min_agents = max(2, max(crashed, default=0) + 1)
    if spec["agents"] > min_agents:
        out.append(_set(spec, ("agents",), max(min_agents, spec["agents"] // 2)))
    if spec["max_iterations"] > 20:
        out.append(_set(spec, ("max_iterations",), max(20, spec["max_iterations"] // 2)))
    out.append(_set(spec, ("omega",), 1.0))
    out.append(_set(spec, ("method",), {"kind": "jacobi", "omega": 1.0}))
    if "delay" in spec:
        out.append(_set(spec, ("delay",), {"kind": "none"}))
    if "batch_trials" in spec:
        out.append(_set(spec, ("batch_trials",), 2))
    if "distributed" in spec:
        for key, plain in (
            ("eager", False),
            ("termination", "count"),
            ("drop_probability", 0.0),
            ("duplicate_probability", 0.0),
            ("reliable", False),
            ("recovery", "freeze"),
        ):
            out.append(_set(spec, ("distributed", key), plain))
    return [c for c in out if c is not None]


def shrink_spec(spec: dict, verdict: dict, max_runs: int = 80) -> dict:
    """Greedily minimize a failing spec, preserving its failure mode.

    Returns ``{"spec": minimal, "verdict": its verdict, "runs": evals,
    "events": surviving fault-event count}``. A candidate counts as "still
    failing" when its failed-property set intersects the original's — the
    shrinker chases the same bug, not just any bug.
    """
    target = _failed_props(verdict)
    if not target:
        raise ValueError("shrink_spec needs a failing verdict")
    current, current_verdict = copy.deepcopy(spec), verdict
    runs = 0

    def still_fails(cand):
        nonlocal runs
        if runs >= max_runs:
            return None
        runs += 1
        try:
            v = run_scenario(cand)
        except ChaosSpecError:
            return None
        return v if _failed_props(v) & target else None

    improved = True
    while improved and runs < max_runs:
        improved = False
        for cand in _event_candidates(current) + _config_candidates(current):
            v = still_fails(cand)
            if v is not None:
                current, current_verdict = cand, v
                improved = True
                break  # restart passes from the smaller spec
    current["id"] = f"{spec.get('id', 'chaos')}-min"
    return {
        "spec": current,
        "verdict": current_verdict,
        "runs": runs,
        "events": len(spec_events(current)),
    }


def _corpus_name(prop: str, spec: dict) -> str:
    digest = hashlib.sha1(
        json.dumps(spec, sort_keys=True).encode()
    ).hexdigest()[:10]
    return f"{prop}-{digest}.json"


def archive_reproducer(spec: dict, verdict: dict, corpus_dir) -> Path:
    """Write a minimal reproducer into the corpus; returns its path.

    The entry records the spec verbatim (including any ``"mutation"`` key),
    the property names it violates, and the failure details — enough for
    the corpus regression test to re-run it and demand the same outcome.
    """
    corpus = Path(corpus_dir)
    corpus.mkdir(parents=True, exist_ok=True)
    props = sorted(_failed_props(verdict))
    entry = {
        "version": CORPUS_VERSION,
        "properties": props,
        "mutation": spec.get("mutation"),
        "scenario": spec,
        "failures": verdict["failures"],
    }
    path = corpus / _corpus_name(props[0] if props else "pass", spec)
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_reproducer(path) -> dict:
    """Read one corpus entry back (schema-checked)."""
    entry = json.loads(Path(path).read_text())
    if entry.get("version") != CORPUS_VERSION:
        raise ValueError(
            f"{path}: corpus version {entry.get('version')!r} != {CORPUS_VERSION}"
        )
    for key in ("properties", "scenario", "failures"):
        if key not in entry:
            raise ValueError(f"{path}: corpus entry missing {key!r}")
    return entry
