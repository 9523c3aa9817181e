"""Perf regression diffing against committed ``BENCH_*.json`` baselines.

``python -m repro perf diff BASELINE --against CURRENT`` loads both
sides into a flat ``{metric: seconds}`` mapping and flags every shared
timing metric whose current value exceeds ``threshold x`` the baseline.
Either side may be:

* a benchmark JSON (``BENCH_pr9.json`` style): every numeric leaf whose
  key ends in ``_s``, equals ``seconds``, or is a latency percentile
  (``p50`` / ``p95`` / ``p99`` / ``p99.9`` ... — the
  ``BENCH_serve.json`` schema) is a timing metric, addressed by its
  ``section/key`` path (e.g. ``push_scatter_binned/batch_s`` or
  ``duplicate_heavy/latency/p99``); an embedded ``trace_summary``
  section contributes ``trace_summary/<span name>/seconds`` metrics —
  so serve-latency regressions gate exactly the way throughput ones do;
* a span trace JSONL (``--trace`` output): per-span-name total seconds,
  addressed as ``trace_summary/<span name>/seconds`` so traces diff
  cleanly against benchmark files that embed a trace summary.

Only metrics present on both sides are compared — baselines stay
forward-compatible as benchmarks grow sections.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Below this many seconds a metric is noise, not a regression signal.
MIN_BASELINE_SECONDS = 1e-6

#: Latency-percentile keys (``p50``, ``p95``, ``p99.9`` ...) are timing
#: metrics in seconds — the ``BENCH_serve.json`` latency schema.
_PERCENTILE_KEY = re.compile(r"^p\d{1,2}(\.\d+)?$")


def is_timing_key(key: str) -> bool:
    """Does this JSON key name a seconds-valued timing metric?"""
    return (key.endswith("_s") or key == "seconds"
            or bool(_PERCENTILE_KEY.match(key)))


@dataclass
class Regression:
    """One timing metric past the threshold."""

    metric: str
    baseline_s: float
    current_s: float

    @property
    def ratio(self) -> float:
        return self.current_s / max(self.baseline_s,
                                    MIN_BASELINE_SECONDS)


def _flatten_timings(node: object, prefix: str,
                     out: Dict[str, float]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}/{key}" if prefix else str(key)
            if isinstance(value, dict):
                _flatten_timings(value, path, out)
            elif isinstance(value, (int, float)) \
                    and not isinstance(value, bool) \
                    and is_timing_key(str(key)):
                out[path] = float(value)


def load_timings(path: str) -> Dict[str, float]:
    """Flat ``{metric: seconds}`` view of a bench JSON or trace JSONL."""
    if path.endswith(".jsonl"):
        from repro.obs.trace import trace_summary
        return {f"trace_summary/{name}/seconds": stat["seconds"]
                for name, stat in trace_summary(path).items()}
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    out: Dict[str, float] = {}
    _flatten_timings(data, "", out)
    return out


def diff_timings(baseline: Dict[str, float], current: Dict[str, float],
                 threshold: float) -> Tuple[List[Regression], int]:
    """Regressions among shared metrics, plus how many were compared."""
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1.0")
    shared = sorted(set(baseline) & set(current))
    regressions = [
        Regression(metric=metric, baseline_s=baseline[metric],
                   current_s=current[metric])
        for metric in shared
        if baseline[metric] >= MIN_BASELINE_SECONDS
        and current[metric] > threshold * baseline[metric]
    ]
    regressions.sort(key=lambda r: -r.ratio)
    return regressions, len(shared)


def render_diff(regressions: List[Regression], compared: int,
                threshold: float) -> str:
    lines = [f"perf diff: {compared} shared timing metric(s), "
             f"threshold {threshold:.2f}x"]
    if not regressions:
        lines.append("no regressions")
    for reg in regressions:
        lines.append(f"  REGRESSION {reg.ratio:5.2f}x  "
                     f"{reg.baseline_s:.6f}s -> {reg.current_s:.6f}s  "
                     f"{reg.metric}")
    return "\n".join(lines)


def perf_diff(baseline_path: str, current_path: str,
              threshold: float = 1.5) -> Tuple[List[Regression], int]:
    """Load both sides and diff; the CLI's workhorse."""
    return diff_timings(load_timings(baseline_path),
                        load_timings(current_path), threshold)
