"""Run telemetry: structured JSONL records for every orchestrated job.

Each orchestrated run appends one file under
``<cache root>/telemetry/``; every line is a self-describing JSON
object distinguished by its ``event`` field:

``run_start``
    run id, timestamp, worker count, cache root, request count.
``job``
    one executed/cached/skipped job: id, kind, app/dataset/
    preprocessing/scheme, status (``hit`` | ``miss`` | ``skipped`` |
    ``failed``), wall seconds, retries, worker pid, cache key.
``run_end``
    aggregate counters and total wall time.

``summarize``/``render_summary`` power ``python -m repro jobs``.

While the module tracer (:data:`repro.obs.TRACER`) is active, every
job record is mirrored as a ``jobs.job`` span so a traced run carries
the telemetry stream inside the trace — one instrument, two views.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.obs import TRACER

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
    """Append-only JSONL emitter for one orchestrated run.

    Record *timestamps* use the wall clock (meaningful across runs);
    *durations* use the monotonic clock, which cannot run backwards
    under NTP slew or clock adjustment.
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

    def _emit(self, payload: Dict[str, object]) -> None:
        if not self.path:
            return
        with open(self.path, "a") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")

    def start(self, jobs: int, requests: int,
              cache_root: Optional[str]) -> None:
        self._emit({"event": "run_start", "run_id": self.run_id,
                    "time": self._start, "workers": jobs,
                    "requests": requests, "cache_root": cache_root})

    def record(self, record: JobRecord) -> None:
        self.records.append(record)
        payload = {"event": "job", "run_id": self.run_id}
        payload.update(asdict(record))
        self._emit(payload)
        TRACER.manual_span(
            "jobs.job", duration_s=record.wall_s,
            job_id=record.job_id, kind=record.kind,
            status=record.status, app=record.app,
            dataset=record.dataset,
            preprocessing=record.preprocessing,
            scheme=record.scheme, retries=record.retries,
            worker_pid=record.worker_pid)

    def finish(self) -> Dict[str, object]:
        counts = {status: 0 for status in STATUSES}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        summary: Dict[str, object] = {
            "event": "run_end", "run_id": self.run_id,
            "jobs": len(self.records),
            "wall_s": time.monotonic() - self._start_mono,
            "retries": sum(r.retries for r in self.records),
        }
        summary.update(counts)
        self._emit(summary)
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


def read_records(path: str) -> List[Dict[str, object]]:
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def summarize(path: str) -> Dict[str, object]:
    """Aggregate one telemetry file into summary counters."""
    records = read_records(path)
    jobs = [r for r in records if r.get("event") == "job"]
    runs = [r for r in records if r.get("event") == "run_start"]
    ends = [r for r in records if r.get("event") == "run_end"]
    counts = {status: 0 for status in STATUSES}
    by_kind: Dict[str, int] = {}
    wall = 0.0
    workers = set()
    for job in jobs:
        status = str(job.get("status", "miss"))
        counts[status] = counts.get(status, 0) + 1
        kind = str(job.get("kind", "?"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
        wall += float(job.get("wall_s", 0.0))
        if job.get("worker_pid"):
            workers.add(job["worker_pid"])
    slowest = sorted(jobs, key=lambda j: -float(j.get("wall_s", 0.0)))
    executed = counts["miss"] + counts["failed"]
    return {
        "path": path,
        "runs": len(runs),
        "jobs": len(jobs),
        "by_status": counts,
        "by_kind": by_kind,
        "job_wall_s": wall,
        "run_wall_s": sum(float(r.get("wall_s", 0.0)) for r in ends),
        "retries": sum(int(j.get("retries", 0)) for j in jobs),
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
    slowest = summary.get("slowest") or []
    if slowest:
        lines.append("slowest jobs:")
        for job in slowest:
            lines.append(f"  {float(job.get('wall_s', 0.0)):7.2f}s  "
                         f"{job.get('status', '?'):7s} "
                         f"{job.get('job_id', '?')}")
    return "\n".join(lines)
