"""Corpus regression: every archived reproducer keeps reproducing.

Entries that carry a ``mutation`` must fail under that mutation (the
seeded bug is still catchable) *and* pass without it (the reproducer pins
the mutation, not an unrelated engine regression). Entries without a
mutation are archived engine bugs: once the engine is fixed they must
pass, so a failure here is a regression of a previously-fixed bug.
"""

from pathlib import Path

import pytest

from repro.chaos import load_reproducer, run_scenario

CORPUS = Path(__file__).parent / "corpus"
ENTRIES = sorted(CORPUS.glob("*.json"))


def test_corpus_is_not_empty():
    assert ENTRIES, "the chaos corpus should ship at least one reproducer"


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_reproducer(path):
    entry = load_reproducer(path)
    scenario = entry["scenario"]
    if entry.get("mutation"):
        mutated = run_scenario(scenario)
        assert not mutated["ok"], f"{path.name}: seeded bug no longer caught"
        got = {f["property"] for f in mutated["failures"]}
        assert got & set(entry["properties"]), (
            f"{path.name}: failure mode changed — archived "
            f"{entry['properties']}, got {sorted(got)}"
        )
        clean = dict(scenario)
        clean.pop("mutation")
        verdict = run_scenario(clean)
        assert verdict["ok"], (
            f"{path.name}: scenario fails even without its mutation: "
            f"{verdict['failures']}"
        )
    else:
        verdict = run_scenario(scenario)
        assert verdict["ok"], (
            f"{path.name}: previously-fixed engine bug is back: "
            f"{verdict['failures']}"
        )


#: Engine knobs older campaigns drew; the harness now ignores them.
RETIRED_KEYS = ("queue_backend", "delivery", "relax_backend")
RETIRED = [
    p for p in ENTRIES
    if set(load_reproducer(p)["scenario"].get("distributed", {}))
    & set(RETIRED_KEYS)
]


@pytest.mark.parametrize("path", RETIRED, ids=lambda p: p.stem)
def test_retired_engine_keys_are_ignored(path):
    """A reproducer carrying retired knobs replays as if they were absent."""
    scenario = load_reproducer(path)["scenario"]
    stripped = dict(scenario)
    stripped["distributed"] = {
        k: v for k, v in scenario["distributed"].items()
        if k not in RETIRED_KEYS
    }
    assert run_scenario(scenario) == run_scenario(stripped)
