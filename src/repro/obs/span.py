"""Hierarchical tracing spans: the one observability instrument.

A *span* is a named, attributed interval with a parent — the trace is a
forest of spans covering everything a run did: one ``runner.cell`` span
per (app, scheme, input) simulation, profiling/pricing stages beneath
it, replay kernels beneath those, and job-orchestration spans around
the lot.  Durations use the monotonic clock; on Linux
``CLOCK_MONOTONIC`` is shared across processes, so spans recorded in
pool workers line up with the parent's timeline when merged.

When the tracer is *inactive* (the default), :meth:`Tracer.span` yields
a shared null span and times nothing, which is why spans are safe on hot
paths.  The :mod:`repro.jobs.telemetry` job ledger is a span trace
of its own (``jobs.job`` spans); its records are mirrored here when
the tracer is active, so a ``--jobs``-parallel report lands in one
coherent JSONL trace.

Cross-process protocol: the executor exports :data:`REPRO_TRACE_DIR`
before spawning pool workers; :func:`~repro.jobs.executor.execute_group`
notices it is running in a worker (env set, tracer not active in *this*
process), records spans locally, and appends them to
``<dir>/worker-<pid>.jsonl``.  After the pool drains, the parent calls
:meth:`Tracer.adopt_parts` to splice those spans under their dispatch
(`jobs.task`) spans.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: Environment variable naming the directory pool workers append their
#: span part-files to (one ``worker-<pid>.jsonl`` per worker process).
REPRO_TRACE_DIR = "REPRO_TRACE_DIR"

_IDS = itertools.count(1)


def _new_span_id() -> str:
    return f"{os.getpid():x}.{next(_IDS):x}"


@dataclass
class Span:
    """One named interval in the trace."""

    name: str
    span_id: str
    parent_id: Optional[str]
    start_s: float  # raw time.monotonic() at entry
    duration_s: float
    pid: int
    attrs: Dict[str, object] = field(default_factory=dict)

    def set(self, **attrs: object) -> None:
        """Attach attributes from inside the ``with`` block."""
        self.attrs.update(attrs)

    def to_json(self) -> str:
        return json.dumps(
            {"event": "span", "name": self.name, "span_id": self.span_id,
             "parent_id": self.parent_id, "start_s": self.start_s,
             "dur_s": self.duration_s, "pid": self.pid,
             "attrs": self.attrs},
            sort_keys=True, default=str)

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "Span":
        return cls(name=str(record["name"]),
                   span_id=str(record["span_id"]),
                   parent_id=(str(record["parent_id"])
                              if record.get("parent_id") else None),
                   start_s=float(record["start_s"]),
                   duration_s=float(record["dur_s"]),
                   pid=int(record.get("pid", 0)),
                   attrs=dict(record.get("attrs", {})))  # type: ignore[arg-type]


class _NullSpan(Span):
    """Shared sink yielded when the tracer is not recording."""

    def set(self, **attrs: object) -> None:  # noqa: ARG002
        pass


_DISCARD = _NullSpan(name="", span_id="", parent_id=None, start_s=0.0,
                     duration_s=0.0, pid=0)


class Tracer:
    """Span recorder with nesting and JSONL export."""

    def __init__(self) -> None:
        self.trace_id: str = ""
        self.spans: List[Span] = []
        self._active = False
        self._owner_pid = 0
        self._wall_epoch = 0.0
        self._mono_epoch = 0.0
        # The nesting stack lives in a ContextVar, not a thread-local:
        # concurrent asyncio tasks (the serve front end handles many
        # requests on one event-loop thread) each see their own stack,
        # so interleaved awaits cannot cross-parent or mis-pop spans.
        # Threads still isolate too — each thread has its own context.
        self._stack_var: contextvars.ContextVar[Tuple[str, ...]] = \
            contextvars.ContextVar(f"repro-span-stack-{id(self)}",
                                   default=())

    # -- lifecycle ---------------------------------------------------------

    @property
    def active(self) -> bool:
        """Recording, in *this* process (False in a forked child)."""
        return self._active and self._owner_pid == os.getpid()

    def start(self, trace_id: Optional[str] = None) -> None:
        """Begin recording spans (idempotent per process)."""
        self._wall_epoch = time.time()
        self._mono_epoch = time.monotonic()
        self._owner_pid = os.getpid()
        self.trace_id = trace_id or \
            f"trace-{int(self._wall_epoch)}-{self._owner_pid}"
        self.spans = []
        # A forked pool worker inherits the parent's context — and with
        # it the span stack as of the fork.  Restarting must clear it,
        # or every worker span nests under a span from another process.
        self._stack_var.set(())
        self._active = True

    def stop(self) -> None:
        self._active = False

    @property
    def current_id(self) -> Optional[str]:
        stack = self._stack_var.get()
        return stack[-1] if stack else None

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, count: int = 0,
             **attrs: object) -> Iterator[Span]:
        """Record a ``with`` block as a span.

        Inactive tracers yield the shared null span and time nothing.
        """
        if not self.active:
            yield _DISCARD
            return
        stack = self._stack_var.get()
        span = Span(name=name, span_id=_new_span_id(),
                    parent_id=stack[-1] if stack else None,
                    start_s=time.monotonic(), duration_s=0.0,
                    pid=os.getpid(), attrs=dict(attrs))
        token = self._stack_var.set(stack + (span.span_id,))
        try:
            yield span
        finally:
            self._stack_var.reset(token)
            span.duration_s = time.monotonic() - span.start_s
            if count:
                span.attrs.setdefault("count", count)
            self.spans.append(span)

    def manual_span(self, name: str, duration_s: float,
                    start_s: Optional[float] = None,
                    parent_id: Optional[str] = None, count: int = 0,
                    **attrs: object) -> Span:
        """Record an interval whose timing was measured elsewhere
        (job records, pool dispatch envelopes)."""
        if not self.active:
            return _DISCARD
        if start_s is None:
            start_s = time.monotonic() - duration_s
        if count:
            attrs.setdefault("count", count)
        span = Span(name=name, span_id=_new_span_id(),
                    parent_id=parent_id if parent_id is not None
                    else self.current_id,
                    start_s=start_s, duration_s=duration_s,
                    pid=os.getpid(), attrs=dict(attrs))
        self.spans.append(span)
        return span

    # -- export ------------------------------------------------------------

    def header(self) -> Dict[str, object]:
        return {"event": "trace_start", "trace_id": self.trace_id,
                "wall_epoch": self._wall_epoch,
                "mono_epoch": self._mono_epoch, "pid": self._owner_pid}

    def save(self, path: str) -> int:
        """Write the full trace (header + spans, by start time)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        spans = sorted(self.spans, key=lambda s: s.start_s)
        with open(path, "w") as handle:
            handle.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for span in spans:
                handle.write(span.to_json() + "\n")
        return len(spans)

    def flush_part(self, path: str) -> None:
        """Append this process's spans to a worker part-file and clear.

        Part files carry bare span lines (no header); each worker pid
        owns its own file, so appends never interleave.
        """
        if not self.spans:
            return
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(span.to_json() + "\n")
        self.spans = []

    def adopt_parts(self, parts_dir: str,
                    parent_by_job: Optional[Dict[str, str]] = None,
                    fallback_parent: Optional[str] = None) -> int:
        """Merge worker part-files into this trace, re-parenting.

        Worker spans keep their intra-worker nesting; each worker's
        *top-level* spans (no parent) are re-parented under the
        ``jobs.task`` span of the group that dispatched them (matched by
        the ``job_id`` attribute), or under ``fallback_parent``.
        """
        parent_by_job = parent_by_job or {}
        adopted = 0
        try:
            names = sorted(os.listdir(parts_dir))
        except FileNotFoundError:
            return 0
        for name in names:
            if not name.endswith(".jsonl"):
                continue
            with open(os.path.join(parts_dir, name)) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    span = Span.from_record(json.loads(line))
                    if span.parent_id is None:
                        job_id = str(span.attrs.get("job_id", ""))
                        span.parent_id = parent_by_job.get(
                            job_id, fallback_parent)
                    self.spans.append(span)
                    adopted += 1
        return adopted

    # -- aggregation -------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregate (calls, seconds, count), heaviest first."""
        return summarize_spans(self.spans)


def summarize_spans(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by name: calls, seconds and count per name."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        stat = totals.setdefault(span.name,
                                 {"calls": 0, "seconds": 0.0, "count": 0})
        stat["calls"] += 1
        stat["seconds"] += span.duration_s
        stat["count"] += int(span.attrs.get("count", 0) or 0)
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]["seconds"]))


#: Default tracer every instrumented subsystem records into.
TRACER = Tracer()
