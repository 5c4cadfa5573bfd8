"""The claim protocol: parent against change, with identical bench code.

Usage::

    python3 bench/compare.py --parent ../parent-checkout --change . \\
        [--pairs 10] [--workload fig8-dispatch ...] [--seconds 15]

Both sides run *this* ``bench/`` (``run.py --root <side>``), so only the
measured source differs. Pair ``k`` runs both sides on seed
``seed + k``, alternating which side goes first. For each workload and
end-to-end metric the report gives each side's median and quartiles,
the change's wins, and a verdict:

* ``gain`` -- the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ, in its favour, by more than the
  parent's own spread between quartiles;
* ``regression`` -- the change's median is worse than the parent's by
  more than the metric's ``BENCHMARK.json`` bound;
* ``unresolved`` -- the parent's spread (IQR over median) is wider than
  the bound, so "no regression" cannot be told from noise, unless every
  change run beats every parent run;
* ``unchanged`` -- otherwise.

The exit code is 1 when any metric regressed or any run failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import SPEC_PATH, WORKLOADS, run_workload
from stats import spread

#: A gain needs this share of pairs won.
WIN_SHARE = 0.9


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Compare paired samples of one metric (pair ``k`` at index ``k``)."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = spread(parent), spread(change)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    diff = sign * (c["median"] - p["median"])  # > 0: change is better
    worse_share = -diff / abs(p["median"]) if p["median"] else 0.0
    dominates = min(sign * v for v in change) > max(sign * v for v in parent)
    if wins >= WIN_SHARE * len(parent) and diff > p["q3"] - p["q1"]:
        label = "gain"
    elif worse_share > bound:
        label = "regression"
    elif p["iqr_share"] > bound and not dominates:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"parent": p, "change": c, "wins": wins, "pairs": len(parent),
            "worse_share": worse_share, "verdict": label}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Parent-vs-change claim protocol.")
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 10:
        print("the protocol needs at least 10 pairs", file=sys.stderr)
        return 2

    spec = json.loads(SPEC_PATH.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = args.workload or list(WORKLOADS)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    samples = {n: {"parent": [], "change": []} for n in names}
    failures = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name in names:
            for side in order:
                payload = run_workload(sides[side], name, args.seed + k, seconds, False)
                if payload["failed"] or payload["problems"]:
                    failures.append((name, side, args.seed + k, payload["problems"][:3]))
                samples[name][side].append(payload["metrics"])

    report, regressed = {}, False
    for name in names:
        print(f"== {name}: {args.pairs} pairs ==")
        print(f"  {'metric':<14} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
        report[name] = {}
        for m in spec["end_to_end"]:
            key = m["name"]
            par = [s[key] for s in samples[name]["parent"] if key in s]
            chg = [s[key] for s in samples[name]["change"] if key in s]
            if len(par) != args.pairs or len(chg) != args.pairs:
                continue
            v = verdict(par, chg, m["better"], m["bound"])
            report[name][key] = v
            regressed |= v["verdict"] == "regression"
            p, c = v["parent"], v["change"]
            print(f"  {key:<14} {p['median']:>12.5g} [{p['q1']:.5g}, {p['q3']:.5g}]"
                  f" {c['median']:>12.5g} [{c['q1']:.5g}, {c['q3']:.5g}]"
                  f" {v['wins']:>3}/{v['pairs']}  {v['verdict']}")
    for failure in failures:
        print(f"FAILED RUN {failure}")
    print(json.dumps({"regressed": regressed, "failed_runs": len(failures),
                      "report": report}))
    return 1 if regressed or failures else 0


if __name__ == "__main__":
    sys.exit(main())
