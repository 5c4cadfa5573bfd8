"""Scenario builders and the property-checking cell function.

:func:`build_scenario` turns a plain-JSON spec from
:mod:`repro.chaos.generator` into live objects (matrix, fault plan, delay
model, schedule), raising :class:`ChaosSpecError` on anything malformed —
the signal the shrinker uses to discard candidate simplifications that
stepped outside an executor's contract.

:func:`run_scenario` is the module-level cell executed by
:func:`repro.perf.runner.run_cells` (picklable, spec-in/verdict-out, no
hidden state): it builds the scenario, runs the requested executor with a
live tracer, evaluates every applicable property from
:mod:`repro.chaos.properties`, and returns a plain deterministic verdict
dict — no wall-clock times, so cached and fresh verdicts are bytewise
identical and "same seed → same verdicts" is checkable with ``==``.
"""

from __future__ import annotations

import numpy as np

from repro.chaos import properties as props
from repro.chaos.mutations import mutation_context
from repro.core.model import AsyncJacobiModel
from repro.core.schedules import (
    DelayedRowsSchedule,
    OverlappedBlockSchedule,
    RandomSubsetSchedule,
    SynchronousSchedule,
)
from repro.faults import FaultMaskedSchedule, FaultPlan
from repro.matrices import (
    anisotropic_laplacian_2d,
    fd_laplacian_1d,
    fd_laplacian_2d,
    fd_laplacian_3d,
    nine_point_laplacian_2d,
    variable_coefficient_laplacian_2d,
)
from repro.methods import MethodError, make_method
from repro.observability import Tracer
from repro.perf.batched import BatchedAsyncJacobiModel
from repro.runtime.delays import (
    NO_DELAY,
    ConstantDelay,
    HangDelay,
    StochasticStall,
    StragglerDelay,
)
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi
from repro.util.errors import ReproError


class ChaosSpecError(ReproError, ValueError):
    """A scenario spec the executors cannot run (not an engine bug)."""


_MATRIX_FAMILIES = {
    "fd_1d": fd_laplacian_1d,
    "fd_2d": fd_laplacian_2d,
    "fd_3d": fd_laplacian_3d,
    "nine_point": nine_point_laplacian_2d,
    "variable_coefficient": variable_coefficient_laplacian_2d,
    "anisotropic": anisotropic_laplacian_2d,
}


def build_matrix(mspec: dict):
    """Instantiate the spec'd matrix family (always WDD by construction)."""
    try:
        family = _MATRIX_FAMILIES[mspec["family"]]
    except (KeyError, TypeError) as exc:
        raise ChaosSpecError(f"unknown matrix family in {mspec!r}") from exc
    try:
        return family(**mspec["args"])
    except Exception as exc:
        raise ChaosSpecError(f"cannot build matrix {mspec!r}: {exc}") from exc


def build_plan(pspec: dict) -> FaultPlan:
    """Instantiate the spec'd fault plan via :meth:`FaultPlan.from_spec`."""
    try:
        return FaultPlan.from_spec(pspec["events"], seed=pspec.get("seed"))
    except Exception as exc:
        raise ChaosSpecError(f"cannot build fault plan: {exc}") from exc


def build_delay(dspec: dict):
    """Instantiate the spec'd delay model (pair-lists become dicts)."""
    kind = dspec.get("kind", "none")
    try:
        if kind == "none":
            return NO_DELAY
        if kind == "constant":
            return ConstantDelay({int(a): float(d) for a, d in dspec["delays"]})
        if kind == "straggler":
            return StragglerDelay({int(a): float(f) for a, f in dspec["factors"]})
        if kind == "stochastic":
            return StochasticStall(
                float(dspec["prob"]),
                float(dspec["mean_stall"]),
                agents=dspec.get("agents"),
            )
        if kind == "hang":
            return HangDelay({int(a): float(t) for a, t in dspec["hang_times"]})
    except ChaosSpecError:
        raise
    except Exception as exc:
        raise ChaosSpecError(f"cannot build delay model {dspec!r}: {exc}") from exc
    raise ChaosSpecError(f"unknown delay kind {kind!r}")


def agent_labels(n: int, n_agents: int) -> np.ndarray:
    """Contiguous row→agent labels matching the simulators' partition."""
    return (np.arange(n, dtype=np.int64) * int(n_agents)) // int(n)


def build_schedule(spec: dict):
    """A *fresh* schedule object for the model executor.

    Schedules with instance RNG consume it across ``steps()`` calls, so
    every run (batched or sequential) must construct its own object from
    the spec — same seed, same realization.
    """
    n = build_matrix(spec["matrix"]).nrows
    sspec = spec["schedule"]
    kind = sspec.get("kind")
    try:
        if kind == "fault_masked":
            labels = agent_labels(n, spec["agents"])
            plan = build_plan(spec["plan"])
            return FaultMaskedSchedule(
                labels, plan, dt=float(sspec.get("dt", 1.0)), seed=sspec.get("seed")
            )
        if kind == "random_subset":
            return RandomSubsetSchedule(n, float(sspec["fraction"]), seed=sspec["seed"])
        if kind == "overlapped":
            labels = agent_labels(n, spec["agents"])
            return OverlappedBlockSchedule(
                labels, int(sspec["concurrency"]), seed=sspec["seed"]
            )
        if kind == "delayed_rows":
            delays = {int(r): (None if d is None else int(d)) for r, d in sspec["delays"]}
            return DelayedRowsSchedule(n, delays)
        if kind == "synchronous":
            return SynchronousSchedule(n, delay=float(sspec.get("delay", 1.0)))
    except ChaosSpecError:
        raise
    except Exception as exc:
        raise ChaosSpecError(f"cannot build schedule {sspec!r}: {exc}") from exc
    raise ChaosSpecError(f"unknown schedule kind {kind!r}")


def build_b(spec: dict, n: int) -> np.ndarray:
    """The scenario's right-hand side, derived from ``b_seed`` alone."""
    return np.random.default_rng(int(spec["b_seed"])).standard_normal(n)


def build_scenario(spec: dict) -> dict:
    """Validate a spec and build its live pieces (raises ChaosSpecError)."""
    if not isinstance(spec, dict):
        raise ChaosSpecError(f"scenario spec must be a dict, got {type(spec).__name__}")
    executor = spec.get("executor")
    if executor not in ("shared", "distributed", "model"):
        raise ChaosSpecError(f"unknown executor {executor!r}")
    try:
        agents = int(spec["agents"])
        omega = float(spec["omega"])
        tol = float(spec["tol"])
        max_iterations = int(spec["max_iterations"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ChaosSpecError(f"malformed scenario spec: {exc}") from exc
    A = build_matrix(spec["matrix"])
    if not 1 <= agents <= A.nrows:
        raise ChaosSpecError(f"agents={agents} out of range for n={A.nrows}")
    if not 0 < omega < 2:
        raise ChaosSpecError(f"omega={omega} outside (0, 2)")
    if tol <= 0 or max_iterations < 1:
        raise ChaosSpecError(f"bad tol={tol} / max_iterations={max_iterations}")
    try:
        method = make_method(spec.get("method"), omega=omega)
    except MethodError as exc:
        raise ChaosSpecError(f"bad method spec: {exc}") from exc
    built = {
        "A": A,
        "b": build_b(spec, A.nrows),
        "agents": agents,
        "omega": omega,
        "method": method,
        "tol": tol,
        "max_iterations": max_iterations,
        "plan": build_plan(spec["plan"]),
    }
    if built["plan"].agents() and max(built["plan"].agents()) >= agents:
        raise ChaosSpecError(
            f"plan crashes agent {max(built['plan'].agents())} with only "
            f"{agents} agents"
        )
    if executor == "model":
        built["schedule_spec"] = spec  # schedules must be rebuilt per run
        trials = int(spec.get("batch_trials", 2))
        if trials < 1:
            raise ChaosSpecError(f"batch_trials must be >= 1, got {trials}")
        built["batch_trials"] = trials
    else:
        built["delay"] = build_delay(spec["delay"])
        if executor == "shared" and (
            built["plan"].partitions
            or built["plan"].drop_bursts
            or built["plan"].corrupt_bursts
        ):
            raise ChaosSpecError(
                "shared-memory scenarios support only crash events"
            )
        if executor == "distributed":
            d = spec.get("distributed", {})
            if d.get("termination", "count") not in ("count", "detect"):
                raise ChaosSpecError(f"bad termination {d.get('termination')!r}")
            if d.get("recovery", "freeze") not in ("freeze", "adopt", "none"):
                raise ChaosSpecError(f"bad recovery {d.get('recovery')!r}")
    return built


def _hang_exempt(dspec: dict) -> frozenset:
    """Agents the delay spec may legitimately stop forever."""
    if dspec.get("kind") == "hang":
        return frozenset(int(a) for a, _ in dspec["hang_times"])
    return frozenset()


def _check_mark(failures, checked) -> dict:
    failed = {f["property"] for f in failures}
    return {name: ("fail" if name in failed else "pass") for name in checked}


def _run_shared(spec: dict, built: dict) -> tuple:
    tracer = Tracer(trace_reads=True)
    sim = SharedMemoryJacobi(
        built["A"],
        built["b"],
        n_threads=built["agents"],
        delay=built["delay"],
        seed=int(spec["seed"]),
        omega=built["omega"],
        method=built["method"],
        fault_plan=built["plan"],
    )
    result = sim.run_async(
        tol=built["tol"],
        max_iterations=built["max_iterations"],
        tracer=tracer,
    )
    events = tracer.events()
    failures = []
    failures += props.check_finiteness(result.x, result.residual_norms)
    failures += props.check_liveness(
        result,
        built["plan"],
        exempt_agents=_hang_exempt(spec["delay"]),
        termination="count",
        eager=False,
        max_iterations=built["max_iterations"],
    )
    failures += props.check_theorem1_replay(
        events, built["A"], built["b"], built["omega"], method=built["method"]
    )
    failures += props.check_telemetry(
        events,
        result.telemetry,
        plan_has_crashes=bool(built["plan"].crashes),
        history_len=len(result.residual_norms),
    )
    checked = ["finiteness", "liveness", "theorem1", "telemetry"]
    stats = {
        "converged": bool(result.converged),
        "observations": len(result.residual_norms),
        "relaxations": int(np.sum(result.iterations)),
    }
    return failures, checked, stats


def _run_distributed(spec: dict, built: dict) -> tuple:
    d = spec["distributed"]
    tracer = Tracer(trace_reads=True)
    sim = DistributedJacobi(
        built["A"],
        built["b"],
        n_ranks=built["agents"],
        partition=d.get("partition_method", "bfs"),
        delay=built["delay"],
        drop_probability=float(d.get("drop_probability", 0.0)),
        duplicate_probability=float(d.get("duplicate_probability", 0.0)),
        seed=int(spec["seed"]),
        omega=built["omega"],
        method=built["method"],
        fault_plan=built["plan"],
        reliable=d.get("reliable"),
        recovery=d.get("recovery", "freeze"),
    )
    result = sim.run_async(
        tol=built["tol"],
        max_iterations=built["max_iterations"],
        eager=bool(d.get("eager", False)),
        termination=d.get("termination", "count"),
        tracer=tracer,
    )
    events = tracer.events()
    failures = []
    failures += props.check_finiteness(result.x, result.residual_norms)
    failures += props.check_liveness(
        result,
        built["plan"],
        exempt_agents=_hang_exempt(spec["delay"]),
        termination=d.get("termination", "count"),
        eager=bool(d.get("eager", False)),
        eager_may_starve=(
            bool(built["plan"])
            or float(d.get("drop_probability", 0.0)) > 0
            or spec["delay"].get("kind") == "hang"
        ),
        max_iterations=built["max_iterations"],
    )
    failures += props.check_theorem1_replay(
        events, built["A"], built["b"], built["omega"], method=built["method"]
    )
    failures += props.check_telemetry(
        events,
        result.telemetry,
        plan_has_crashes=bool(built["plan"].crashes),
        duplicates_possible=float(d.get("duplicate_probability", 0.0)) > 0,
        history_len=len(result.residual_norms),
    )
    checked = ["finiteness", "liveness", "theorem1", "telemetry"]
    stats = {
        "converged": bool(result.converged),
        "observations": len(result.residual_norms),
        "relaxations": int(np.sum(result.iterations)),
    }
    return failures, checked, stats


def _run_model(spec: dict, built: dict) -> tuple:
    A, b = built["A"], built["b"]
    model = AsyncJacobiModel(A, b, omega=built["omega"], method=built["method"])
    result = model.run(
        build_schedule(spec),
        tol=built["tol"],
        max_steps=built["max_iterations"],
    )
    failures = []
    failures += props.check_finiteness(result.x, result.residual_norms)
    # The direct residual-history check is the Theorem-1 family's bound:
    # only enforced when the method guarantees it on this matrix (SOR
    # guarantees a different norm, momentum guarantees nothing).
    guarantee = built["method"].guarantee(A)
    if guarantee.norm == "residual_l1" and guarantee.holds:
        failures += props.check_theorem1_history(result.residual_norms)
    if len(result.residual_norms) == 0:
        failures.append({"property": "liveness", "detail": "empty residual history"})

    # Batch identity: trial 0 is the scenario's b, further trials derive
    # deterministically from b_seed. Every run gets a fresh schedule
    # object so all of them consume identical step streams.
    trials = built["batch_trials"]
    rng = np.random.default_rng(int(spec["b_seed"]) + 1)
    B = np.column_stack([b] + [rng.standard_normal(A.nrows) for _ in range(trials - 1)])
    batched = BatchedAsyncJacobiModel(
        A, B, omega=built["omega"], method=built["method"]
    ).run(
        build_schedule(spec), tol=built["tol"], max_steps=built["max_iterations"]
    )
    for t in range(trials):
        bt = batched.trial(t)
        seq = AsyncJacobiModel(
            A, B[:, t], omega=built["omega"], method=built["method"]
        ).run(
            build_schedule(spec), tol=built["tol"], max_steps=built["max_iterations"]
        )
        if (
            bt.converged != seq.converged
            or bt.steps != seq.steps
            or len(bt.residual_norms) != len(seq.residual_norms)
            or not np.array_equal(bt.residual_norms, seq.residual_norms)
            or not np.array_equal(bt.x, seq.x)
        ):
            failures.append(
                {
                    "property": "batch_identity",
                    "detail": f"trial {t} diverges from its sequential run "
                    f"(batched: converged={bt.converged} steps={bt.steps}, "
                    f"sequential: converged={seq.converged} steps={seq.steps})",
                }
            )
    checked = ["finiteness", "theorem1", "liveness", "batch_identity"]
    stats = {
        "converged": bool(result.converged),
        "observations": len(result.residual_norms),
        "relaxations": int(result.relaxations),
    }
    return failures, checked, stats


_EXECUTOR_RUNNERS = {
    "shared": _run_shared,
    "distributed": _run_distributed,
    "model": _run_model,
}


def run_scenario(spec: dict) -> dict:
    """Run one scenario and judge it — the :func:`run_cells` cell function.

    Build-phase problems raise :class:`ChaosSpecError` (the spec is at
    fault). Run-phase exceptions are an engine bug and come back as a
    ``no_crash`` property failure so campaigns keep going and the shrinker
    can minimize them. ``spec["mutation"]`` (absent in generated specs)
    names a seeded bug from :mod:`repro.chaos.mutations` to apply for the
    duration of the run — it is part of the spec so cached verdicts of
    mutated and clean runs never collide.
    """
    built = build_scenario(spec)
    runner = _EXECUTOR_RUNNERS[spec["executor"]]
    with mutation_context(spec.get("mutation")):
        try:
            failures, checked, stats = runner(spec, built)
        except Exception as exc:  # engine bug, not a harness crash
            failures = [
                {
                    "property": "no_crash",
                    "detail": f"{type(exc).__name__}: {exc}",
                }
            ]
            checked = ["no_crash"]
            stats = {}
    return {
        "id": spec.get("id", "?"),
        "executor": spec["executor"],
        "ok": not failures,
        "failures": failures,
        "checks": _check_mark(failures, checked),
        **stats,
    }
