"""Solve requests: the service's wire format, validation and hashing.

A :class:`SolveRequest` is plain data — a matrix spec, an iteration
method, a schedule spec (optionally fault-masked), a right-hand-side
seed and stopping parameters. Everything is JSON-like on purpose: the
canonical spec doubles as the cache key, the single-flight key and the
process-pool payload, so one representation drives admission, dedup,
memoization and execution.

Two hashes matter:

* :meth:`SolveRequest.key` — the full content hash. Two requests with
  equal keys are *the same computation*: the server answers one of them
  from the other's in-flight future (single-flight) or from the shared
  :class:`~repro.perf.cache.ExperimentCache`.
* :meth:`SolveRequest.group_key` — the hash with the per-trial fields
  (``b_seed``, ``x0_seed``) removed. Requests sharing a group key are
  *coalescible*: they differ only in data columns, so the batcher may run
  them as one :class:`~repro.perf.batched.BatchedAsyncJacobiModel`
  execution with bit-identical per-trial results.

Typed failures all derive from :class:`ServiceError`, so callers can
catch the service boundary in one clause while still telling rejection
kinds apart (bad request vs. load shed vs. deadline).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.methods import MethodError, make_method
from repro.util.errors import ReproError
from repro.util.validation import check_nonnegative_int, check_positive_int

#: Matrix families a request may name (the chaos harness builders).
MATRIX_FAMILIES = (
    "fd_1d",
    "fd_2d",
    "fd_3d",
    "nine_point",
    "variable_coefficient",
    "anisotropic",
)

#: Schedule kinds a request may name (built by the chaos harness).
SCHEDULE_KINDS = (
    "random_subset",
    "overlapped",
    "delayed_rows",
    "synchronous",
    "fault_masked",
)

#: Per-trial fields excluded from the coalescing class: requests that
#: differ only here run as extra columns of one batched execution.
TRIAL_FIELDS = ("b_seed", "x0_seed")


class ServiceError(ReproError):
    """Base class of every typed solver-service failure."""


class BadRequestError(ServiceError, ValueError):
    """The request is malformed (unknown family/kind, bad parameters)."""


class ServiceOverloadedError(ServiceError):
    """Admission control shed the request: the pending queue is full."""


class DeadlineExceededError(ServiceError):
    """The request's deadline passed before the solver could run it."""


class ServiceClosedError(ServiceError):
    """The service is stopped (or stopping) and accepts no new requests."""


def _short(key: str) -> str:
    """12-hex prefix used in traces and logs (full keys are unwieldy)."""
    return key[:12]


@dataclass(frozen=True)
class SolveRequest:
    """One solve job: problem, method, schedule and stopping parameters.

    Parameters
    ----------
    matrix
        ``{"family": <name>, "args": {...}}`` with ``family`` drawn from
        :data:`MATRIX_FAMILIES` (the generator keywords of
        :mod:`repro.matrices`).
    schedule
        ``{"kind": <name>, ...}`` with ``kind`` from
        :data:`SCHEDULE_KINDS`; the kind-specific keys match
        :func:`repro.chaos.harness.build_schedule`. Stochastic kinds
        carry their own ``seed``, which *is* part of the coalescing
        class — every trial of a batch must see the same realization.
    method
        Iteration method (name, spec dict or ``None`` for Jacobi), as
        accepted by :func:`repro.methods.make_method`.
    b_seed
        Seed of the standard-normal right-hand side (per-trial field); a
        nonnegative integer.
    x0_seed
        Seed of a standard-normal initial iterate; ``None`` starts from
        zeros (per-trial field).
    agents
        Agent count used by block-structured schedules (``overlapped``,
        ``fault_masked``); a positive integer.
    plan
        Fault-plan spec ``{"events": [...], "seed": ...}`` consumed by
        ``fault_masked`` schedules; ``None`` otherwise.
    omega, tol, max_steps, record_every, recompute_every
        Forwarded to the executors with
        :class:`~repro.core.model.AsyncJacobiModel` semantics
        (``max_steps`` and ``record_every`` positive integers,
        ``recompute_every`` a nonnegative one).
    deadline
        Optional per-request wall-clock budget in seconds, measured from
        submission; the dispatcher sheds the request with
        :class:`DeadlineExceededError` if it is still queued when the
        budget runs out.
    """

    matrix: dict
    schedule: dict
    method: object = None
    b_seed: int = 0
    x0_seed: int | None = None
    agents: int = 4
    plan: dict | None = None
    omega: float = 1.0
    tol: float = 1e-6
    max_steps: int = 100_000
    record_every: int = 1
    recompute_every: int = 64
    deadline: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.matrix, dict) or "family" not in self.matrix:
            raise BadRequestError(f"matrix must be a family spec dict, got {self.matrix!r}")
        if self.matrix["family"] not in MATRIX_FAMILIES:
            raise BadRequestError(
                f"unknown matrix family {self.matrix['family']!r}; "
                f"known: {', '.join(MATRIX_FAMILIES)}"
            )
        if not isinstance(self.schedule, dict) or "kind" not in self.schedule:
            raise BadRequestError(f"schedule must be a kind spec dict, got {self.schedule!r}")
        if self.schedule["kind"] not in SCHEDULE_KINDS:
            raise BadRequestError(
                f"unknown schedule kind {self.schedule['kind']!r}; "
                f"known: {', '.join(SCHEDULE_KINDS)}"
            )
        if self.schedule["kind"] == "fault_masked" and self.plan is None:
            raise BadRequestError("fault_masked schedules need a plan spec")
        if not 0 < float(self.omega) < 2:
            raise BadRequestError(f"omega must lie in (0, 2), got {self.omega}")
        if float(self.tol) <= 0:
            raise BadRequestError(f"tol must be positive, got {self.tol}")
        # Integer fields are checked, never coerced: ``int()`` would run
        # ``2.5`` as 2, ``True`` as 1 and ``"7"`` as 7.
        for name in ("max_steps", "record_every", "agents"):
            check_positive_int(getattr(self, name), name, BadRequestError)
        for name in ("recompute_every", "b_seed"):
            check_nonnegative_int(getattr(self, name), name, BadRequestError)
        if self.x0_seed is not None:
            check_nonnegative_int(self.x0_seed, "x0_seed", BadRequestError)
        if self.deadline is not None and float(self.deadline) <= 0:
            raise BadRequestError(f"deadline must be positive, got {self.deadline}")
        try:
            make_method(self.method, omega=float(self.omega))
        except MethodError as exc:
            raise BadRequestError(f"bad method spec: {exc}") from exc

    def spec(self) -> dict:
        """The canonical plain-JSON cell config executed for this request.

        The shape matches the chaos harness builders (``matrix`` /
        ``schedule`` / ``agents`` / ``plan`` sub-specs), so the service
        executor reuses their validation and construction end to end.

        The ``method`` field is canonicalized through
        :func:`repro.methods.make_method` to its round-trip spec dict, so
        ``None``, ``"jacobi"``, ``{"kind": "jacobi", "omega": 1.0}`` and a
        live :class:`~repro.methods.Method` instance — all the same
        computation — produce the same spec, hence the same cache,
        single-flight and coalescing keys.
        """
        method = make_method(self.method, omega=float(self.omega)).spec()
        return {
            "matrix": self.matrix,
            "schedule": self.schedule,
            "method": method,
            "b_seed": int(self.b_seed),
            "x0_seed": None if self.x0_seed is None else int(self.x0_seed),
            "agents": int(self.agents),
            "plan": self.plan,
            "omega": float(self.omega),
            "tol": float(self.tol),
            "max_steps": int(self.max_steps),
            "record_every": int(self.record_every),
            "recompute_every": int(self.recompute_every),
        }

    def key(self) -> str:
        """Full content hash: equal keys are the same computation."""
        return spec_key(self.spec())

    def group_key(self) -> str:
        """Coalescing-class hash: the spec minus the per-trial fields."""
        return group_key(self.spec())


def _digest(payload: dict) -> str:
    token = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(token.encode()).hexdigest()


def spec_key(spec: dict) -> str:
    """Content hash of a full request spec (single-flight / cache key)."""
    return _digest(spec)


def group_key(spec: dict) -> str:
    """Content hash of a spec with :data:`TRIAL_FIELDS` removed.

    Specs with equal group keys may be stacked as columns of one batched
    execution: they share the matrix, schedule realization, method and
    stopping parameters, and differ only in per-trial data.
    """
    return _digest({k: v for k, v in spec.items() if k not in TRIAL_FIELDS})
