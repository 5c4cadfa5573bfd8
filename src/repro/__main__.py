"""Command-line runner for the paper's experiments.

Usage::

    python -m repro list                 # show available experiments
    python -m repro table1 fig3 fig6     # run specific experiments
    python -m repro all                  # run everything (several minutes)
    python -m repro chaos --budget 200   # adversarial property fuzzing
    python -m repro serve --requests 96  # solver-service load demo
    python -m repro scale --matrix thermal2   # Table I problem sweep
    python -m repro --no-cache fig3      # ignore the on-disk result cache
    python -m repro --profile fig3       # profile the run, dump profile.pstats

``--matrix NAME`` (``scale`` only) sweeps a Table I problem instead of the
synthetic stencil: the real SuiteSparse ``.mtx`` is read when
``$REPRO_SUITESPARSE_DIR`` holds it, the verified stand-in otherwise.

``--no-cache`` disables the experiment-cell cache (equivalent to setting
``REPRO_NO_CACHE=1``); see docs/performance.md for the cache layout.

``--profile`` wraps the selected experiments in :mod:`cProfile`, prints the
top-20 hot spots by cumulative time, and writes the full profile to
``profile.pstats`` (inspect with ``python -m pstats profile.pstats``). It
implies ``--no-cache`` so the experiment actually runs, and closes with a
delivery digest — message-coalescing counters (puts coalesced, flush batch
sizes, ledger scatter widths) from one instrumented async run. See
docs/performance.md.

``chaos`` runs the property-fuzzing campaign (:mod:`repro.chaos`): generate
``--budget`` deterministic adversarial scenarios from ``--seed``, run each
through the cached parallel runner, check Theorem-1 monotonicity, liveness,
finiteness, telemetry and batch-identity, optionally ``--shrink`` failures
to minimal corpus reproducers, and write a JSONL ``--report``. See
docs/chaos.md.

``serve`` demos the solver service (:mod:`repro.service`): flood a
coalescing :class:`~repro.service.server.SolverService` with ``--requests``
concurrent solve requests, print p50/p99 latency, the coalescing factor,
dedup counters and the speedup over the one-request-at-a-time serial
baseline; ``--trace`` archives the per-request JSONL lifecycle trace. See
docs/service.md.

Each experiment prints the same rows/series the paper's table or figure
reports (see EXPERIMENTS.md for the paper-vs-measured comparison).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments import (
    ablations,
    faults,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    methods,
    scale,
    seeds,
    table1,
    trace,
)

EXPERIMENTS = {
    "table1": table1,
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "ablations": ablations,
    "seeds": seeds,
    "scale": scale,
    "faults": faults,
    "trace": trace,
    "methods": methods,
}

#: ``list`` output groups experiments by what part of the repo they exercise.
GROUPS = (
    ("paper tables & figures", (
        "table1", "fig1", "fig2", "fig3", "fig4", "fig5",
        "fig6", "fig7", "fig8", "fig9",
    )),
    ("parameter studies", ("ablations", "seeds", "scale")),
    ("subsystem scenarios", ("faults", "trace", "methods")),
)


def _one_liner(mod, width: int = 70) -> str:
    """First docstring line of an experiment module, truncated."""
    doc = (mod.__doc__ or "").strip().splitlines()
    line = doc[0].strip() if doc else ""
    return line if len(line) <= width else line[: width - 1] + "…"


def _print_listing() -> None:
    print(__doc__)
    print("available experiments:")
    for title, names in GROUPS:
        print(f"  {title}:")
        for name in names:
            print(f"    {name:<12}{_one_liner(EXPERIMENTS[name])}")
    print("  tools:")
    print(f"    {'chaos':<12}adversarial scenario fuzzing with property checks"
          " (--budget N [--seed S] [--shrink])")
    print(f"    {'serve':<12}solver-service load demo: coalescing, p50/p99,"
          " dedup (--requests N [--trace PATH])")


def _delivery_digest() -> None:
    """Print message-coalescing counters from one instrumented async run.

    The profiled experiments run uninstrumented so the profile measures the
    real hot paths (instrumentation forces the general event loop); this
    short representative run re-measures mailbox delivery separately with
    ``instrument=True`` and reports the
    :class:`~repro.perf.instrument.PerfCounters` delivery counters.
    """
    from repro.matrices.laplacian import fd_laplacian_2d
    from repro.runtime.distributed import DistributedJacobi
    from repro.util.rng import as_rng

    A = fd_laplacian_2d(63, 63)
    b = as_rng(1).uniform(-1, 1, A.shape[0])
    sim = DistributedJacobi(A, b, n_ranks=16, partition="contiguous", seed=1)
    result = sim.run_async(tol=1e-6, max_iterations=4000, instrument=True)
    perf = result.perf
    print("delivery digest (63x63 stencil, 16 ranks, mailbox delivery):")
    print("  " + (perf.delivery_summary() or "no mailbox flushes recorded"))
    print("  kernels: " + perf.summary())
    native_line = perf.native_summary()
    if native_line:
        print("  " + native_line)


def _run(names, matrix: str | None = None) -> None:
    for name in names:
        mod = EXPERIMENTS[name]
        print(f"=== {name} " + "=" * max(0, 66 - len(name)))
        result = mod.run(matrix=matrix) if matrix is not None else mod.run()
        print(mod.format_report(result))
        print()


def _chaos_main(args) -> int:
    """The ``chaos`` subcommand: run a campaign, report, set exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Adversarial scenario fuzzing with property checks.",
    )
    parser.add_argument("--budget", type=int, default=100,
                        help="number of scenarios to generate (default 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--shrink", action="store_true",
                        help="minimize failing scenarios and archive corpus "
                             "reproducers")
    parser.add_argument("--report", default="chaos_report.jsonl",
                        help="JSONL campaign report path "
                             "(default chaos_report.jsonl)")
    opts = parser.parse_args(args)
    if opts.budget < 0:
        print("--budget must be nonnegative", file=sys.stderr)
        return 2

    from repro.chaos import run_campaign

    summary = run_campaign(
        opts.budget,
        seed=opts.seed,
        shrink=opts.shrink,
        report_path=opts.report,
        log=print,
    )
    if not summary.ok:
        print(
            f"chaos: FAILED — {summary.failed}/{summary.budget} scenario(s) "
            f"violated properties: {summary.to_json()['summary']['by_property']}"
        )
        return 1
    print(f"chaos: OK — {summary.passed}/{summary.budget} scenario(s) clean")
    return 0


def _serve_main(args) -> int:
    """The ``serve`` subcommand: run the service load demo, print a digest."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Solver-service load demo: coalescing, p50/p99, dedup.",
    )
    parser.add_argument("--requests", type=int, default=96,
                        help="unique concurrent requests to fire (default 96)")
    parser.add_argument("--groups", type=int, default=6,
                        help="coalescing classes in the workload (default 6)")
    parser.add_argument("--window", type=float, default=0.005,
                        help="batching window in seconds (default 0.005)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="largest coalesced execution (default 64)")
    parser.add_argument("--trace", default=None,
                        help="write the per-request JSONL lifecycle trace here")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the serial one-at-a-time baseline timing")
    opts = parser.parse_args(args)
    if opts.requests < 1 or opts.groups < 1:
        print("--requests/--groups must be positive", file=sys.stderr)
        return 2

    from repro.service.loadgen import demo, format_summary

    summary = demo(
        requests=opts.requests,
        groups=opts.groups,
        batch_window=opts.window,
        max_batch=opts.max_batch,
        baseline=not opts.no_baseline,
        trace_path=opts.trace,
    )
    print("=== serve " + "=" * 60)
    print(format_summary(summary))
    if opts.trace:
        print(f"request trace written to {opts.trace}")
    return 0 if summary["failures"] == 0 else 1


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    profile = "--profile" in args
    if profile:
        args = [a for a in args if a != "--profile"]
        os.environ["REPRO_NO_CACHE"] = "1"
    if "--no-cache" in args:
        args = [a for a in args if a != "--no-cache"]
        os.environ["REPRO_NO_CACHE"] = "1"
    if args and args[0] == "chaos":
        return _chaos_main(args[1:])
    if args and args[0] == "serve":
        return _serve_main(args[1:])
    matrix = None
    if "--matrix" in args:
        at = args.index("--matrix")
        if at + 1 >= len(args):
            print("--matrix requires a problem name", file=sys.stderr)
            return 2
        matrix = args[at + 1]
        del args[at : at + 2]
    if not args or args == ["list"]:
        _print_listing()
        return 0
    names = list(EXPERIMENTS) if args == ["all"] else args
    unknown = [a for a in names if a not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if matrix is not None and names != ["scale"]:
        print("--matrix only applies to the 'scale' experiment", file=sys.stderr)
        return 2
    if profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            _run(names, matrix=matrix)
        finally:
            profiler.disable()
            profiler.dump_stats("profile.pstats")
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(20)
            print("full profile written to profile.pstats")
            _delivery_digest()
        return 0
    _run(names, matrix=matrix)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
