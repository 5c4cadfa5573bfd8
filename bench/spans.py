"""In-memory spans around the public callables the benchmark drives.

``--trace`` wraps each public entry point a workload calls (solver
constructors and runs, partitioner, service submit, executor cells,
cache lookups) in a span: name, start, end, parent span and op id. The
spans stay in memory and are written to ``bench/out/trace-<workload>.json``
when the run ends. A span's *self time* is its duration minus the time
its child spans cover; the root span of an op is the benchmark's own
glue, reported as ``unattributed``, so the self times of one op's spans
always add up to the op's wall time.

Spans time calls from outside the program. Where a public call does
several things inside (queue traffic, delivery, relax, commit), that
split waits for timings inside the program itself.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from collections import defaultdict

#: Name of the root span of each op; its self time is the unattributed
#: remainder of the op's wall time.
OP = "op"


class Spans:
    """Span recorder. Wrappers record only while :attr:`active` is true."""

    def __init__(self):
        self.records = []  # [id, name, start, end, parent, op]
        self.active = False
        self.op_id = None
        self._current = contextvars.ContextVar("bench_span", default=None)
        self._patches = []

    def open(self, name: str) -> list:
        """Start a span under the current one; returns its record."""
        rec = [len(self.records), name, time.perf_counter(), None,
               self._current.get(), self.op_id]
        self.records.append(rec)
        return rec

    def span(self, name: str):
        """Context manager recording one span (a no-op while inactive)."""
        return _SpanContext(self, name)

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call while active records a span."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                if not self.active:
                    return await fn(*args, **kwargs)
                with self.span(name):
                    return await fn(*args, **kwargs)

            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapped version until :meth:`unpatch`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def unpatch(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> dict:
        """``span id -> self seconds`` for every closed span."""
        child_time = defaultdict(float)
        for _id, _name, start, end, parent, _op in self.records:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        return {
            rec[0]: (rec[3] - rec[2]) - child_time[rec[0]]
            for rec in self.records
            if rec[3] is not None
        }

    def op_breakdown(self) -> list:
        """Per op: wall time and self seconds by span name.

        The op's root span (``OP``, or ``setup`` for a set-up) contributes
        its self time as ``unattributed``; the values of ``self_s``
        therefore sum to ``wall_s``.
        """
        selfs = self.self_times()
        ops = {}
        for rec in self.records:
            sid, name, start, end, parent, op = rec
            if op is None or end is None:
                continue
            entry = ops.setdefault(op, {"op": op, "wall_s": 0.0, "self_s": defaultdict(float)})
            if parent is None:  # the op's root span: benchmark glue
                entry["wall_s"] = end - start
                entry["self_s"]["unattributed"] += selfs[sid]
            else:
                entry["self_s"][name] += selfs[sid]
        return [
            {"op": e["op"], "wall_s": e["wall_s"], "self_s": dict(e["self_s"])}
            for e in ops.values()
        ]

    def durations(self, name: str) -> list:
        """Durations of every closed span called ``name``."""
        return [r[3] - r[2] for r in self.records if r[1] == name and r[3] is not None]

    def to_json(self) -> dict:
        """The trace file payload."""
        return {
            "columns": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.records,
            "ops": self.op_breakdown(),
        }


class _SpanContext:
    __slots__ = ("_spans", "_name", "_rec", "_token")

    def __init__(self, spans: Spans, name: str):
        self._spans = spans
        self._name = name
        self._rec = None
        self._token = None

    def __enter__(self):
        if self._spans.active:
            self._rec = self._spans.open(self._name)
            self._token = self._spans._current.set(self._rec[0])
        return self

    def __exit__(self, *exc):
        if self._rec is not None:
            self._rec[3] = time.perf_counter()
            self._spans._current.reset(self._token)
        return False
