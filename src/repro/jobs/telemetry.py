"""The job ledger: every orchestrated job, written as a span trace.

A runner with a ledger path (by default one file per run under
``<cache root>/telemetry/``) appends a :mod:`repro.obs` trace file:
a ``trace_start`` header, one ``jobs.job`` span per :class:`JobRecord`
(duration = the job's wall seconds, attrs = the other fields), and one
``jobs.run`` span closing each executor run with its counts.  Status
is ``hit`` | ``miss`` | ``skipped`` | ``failed``.

The ledger is its own file, not the module tracer, so it stays on when
tracing is off; while :data:`repro.obs.TRACER` is active each record
is also mirrored there as a ``jobs.job`` span with the same attrs.
``summarize``/``render_summary`` (``python -m repro jobs``) therefore
read a ledger and a ``report --trace`` file alike.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.obs import TRACER, Span, read_trace
from repro.obs.span import _new_span_id

#: Job statuses, in reporting order.
STATUSES = ("hit", "miss", "skipped", "failed")


@dataclass
class JobRecord:
    """Telemetry for one job."""

    job_id: str
    kind: str
    status: str  # "hit" | "miss" | "skipped" | "failed"
    app: str = ""
    dataset: str = ""
    preprocessing: str = ""
    scheme: str = ""
    wall_s: float = 0.0
    retries: int = 0
    worker_pid: int = 0
    cache_key: str = ""
    error: str = ""


@dataclass
class TelemetryWriter:
    """Append-only job ledger (no file when ``path`` is None).

    The header *timestamp* uses the wall clock (meaningful across
    runs); *durations* use the monotonic clock, which cannot run
    backwards under NTP slew or clock adjustment.
    """

    path: Optional[str]
    run_id: str = ""
    records: List[JobRecord] = field(default_factory=list)
    _start: float = field(default_factory=time.time)
    _start_mono: float = field(default_factory=time.monotonic)

    def __post_init__(self) -> None:
        if not self.run_id:
            self.run_id = f"run-{int(self._start)}-{os.getpid()}"
        if self.path:
            os.makedirs(os.path.dirname(self.path) or ".",
                        exist_ok=True)

    def _emit(self, name: str, start_s: float, duration_s: float,
              attrs: Dict[str, object]) -> None:
        if not self.path:
            return
        span = Span(name=name, span_id=_new_span_id(), parent_id=None,
                    start_s=start_s, duration_s=duration_s,
                    pid=os.getpid(), attrs=attrs)
        with open(self.path, "a") as handle:
            if handle.tell() == 0:  # a new file: one header per ledger
                handle.write(json.dumps(
                    {"event": "trace_start", "trace_id": self.run_id,
                     "wall_epoch": self._start,
                     "mono_epoch": self._start_mono,
                     "pid": os.getpid()}, sort_keys=True) + "\n")
            handle.write(span.to_json() + "\n")

    def record(self, record: JobRecord) -> None:
        self.records.append(record)
        attrs: Dict[str, object] = asdict(record)
        wall = float(attrs.pop("wall_s"))  # type: ignore[arg-type]
        self._emit("jobs.job", time.monotonic() - wall, wall, attrs)
        TRACER.manual_span("jobs.job", duration_s=wall, **attrs)

    def finish(self, workers: int, requests: int,
               start_s: float) -> Dict[str, object]:
        """Close the run begun at monotonic ``start_s`` with a
        ``jobs.run`` span of this writer's counts; returns them plus
        ``wall_s``."""
        counts = {status: 0 for status in STATUSES}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        summary: Dict[str, object] = {
            "run_id": self.run_id, "workers": workers,
            "requests": requests, "jobs": len(self.records),
            "retries": sum(r.retries for r in self.records),
        }
        summary.update(counts)
        wall = time.monotonic() - start_s
        self._emit("jobs.run", start_s, wall, dict(summary))
        summary["wall_s"] = wall
        return summary

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.status == "hit")

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.records if r.status == "miss")


def telemetry_dir(cache_root: str) -> str:
    return os.path.join(cache_root, "telemetry")


_RUN_COUNTER = itertools.count()


def default_telemetry_path(cache_root: str) -> str:
    """Fresh per-run JSONL path under the cache root."""
    stamp = f"{int(time.time())}-{os.getpid()}-{next(_RUN_COUNTER)}"
    return os.path.join(telemetry_dir(cache_root),
                        f"run-{stamp}.jsonl")


def latest_telemetry(cache_root: str) -> Optional[str]:
    """Most recently modified telemetry file, if any."""
    directory = telemetry_dir(cache_root)
    try:
        candidates = [os.path.join(directory, name)
                      for name in os.listdir(directory)
                      if name.endswith(".jsonl")]
    except FileNotFoundError:
        return None
    return max(candidates, key=os.path.getmtime, default=None)


def summarize(path: str) -> Dict[str, object]:
    """Aggregate the ``jobs.job``/``jobs.run`` spans of one trace file
    (a job ledger or a ``--trace`` file) into summary counters."""
    _header, spans = read_trace(path)
    jobs = [s for s in spans if s.name == "jobs.job"]
    runs = [s for s in spans if s.name == "jobs.run"]
    counts = {status: 0 for status in STATUSES}
    for job in jobs:
        status = str(job.attrs.get("status", "miss"))
        counts[status] = counts.get(status, 0) + 1
    workers = {j.attrs["worker_pid"] for j in jobs
               if j.attrs.get("worker_pid")}
    slowest = sorted(jobs, key=lambda j: -j.duration_s)
    executed = counts["miss"] + counts["failed"]
    return {
        "path": path,
        "jobs": len(jobs),
        "by_status": counts,
        "job_wall_s": sum(j.duration_s for j in jobs),
        "run_wall_s": sum(r.duration_s for r in runs),
        "retries": sum(int(j.attrs.get("retries", 0)) for j in jobs),
        "workers": len(workers),
        "hit_rate": (counts["hit"] / (counts["hit"] + executed)
                     if counts["hit"] + executed else 0.0),
        "slowest": slowest[:5],
    }


def render_summary(summary: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`summarize`'s output."""
    counts: Dict[str, int] = summary["by_status"]  # type: ignore[assignment]
    lines = [
        f"telemetry: {summary['path']}",
        f"jobs:      {summary['jobs']} "
        f"({', '.join(f'{s}={counts.get(s, 0)}' for s in STATUSES)})",
        f"cache:     {100.0 * float(summary['hit_rate']):.0f}% hit rate",
        f"wall:      {float(summary['run_wall_s']):.2f}s run, "
        f"{float(summary['job_wall_s']):.2f}s in jobs, "
        f"{summary['workers']} worker(s), "
        f"{summary['retries']} retr(ies)",
    ]
    slowest: List[Span] = summary["slowest"]  # type: ignore[assignment]
    if slowest:
        lines.append("slowest jobs:")
        for job in slowest:
            lines.append(f"  {job.duration_s:7.2f}s  "
                         f"{job.attrs.get('status', '?'):7s} "
                         f"{job.attrs.get('job_id', '?')}")
    return "\n".join(lines)
