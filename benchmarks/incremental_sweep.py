"""Incremental-reuse harness for the staged pricing pipeline.

Runs one figure-sized sweep three ways against a single
content-addressed store (docs/PIPELINE.md):

``cold``
    empty store: every stage computes, artifacts persist;
``warm_knob``
    the *same* sweep after mutating one timing config knob (memory
    bandwidth doubles).  Cell-level keys all rotate — the system config
    is in them — but the timing stage's upstream slices don't, so the
    frozen stream/replay/compress artifacts must serve every cell:
    the delta-aware invalidation contract, checked via stage counters;
``warm_identical``
    the same sweep with the original system: pure cell-level cache
    hits, no pipeline work at all.

Results land in ``BENCH_pr8.json`` (timings under ``*_s`` keys, the
schema ``repro perf diff`` treats as timing metrics).  Exits nonzero
if the knob-mutated warm sweep recomputes any pre-timing stage, misses
any frozen artifact, or fails the ``--floor`` speedup over cold
(default 3x).

Run with::

    PYTHONPATH=src python benchmarks/incremental_sweep.py \
        [--out BENCH_pr8.json] [--scale 8192] [--floor 3.0]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from dataclasses import replace

from repro.config import SystemConfig
from repro.jobs.model import RunRequest
from repro.sim import Runner
from repro.stages import reset_stage_counters, stage_counters

#: The sweep: four apps x the paper's six schemes on one input — the
#: shape of one Fig 15 column group.
APPS = ("pr", "cc", "bfs", "dc")
SCHEMES = ("push", "push+spzip", "ub", "ub+spzip", "phi", "phi+spzip")
DATASET = "ukl"


def sweep(scale: int, system, cache_dir: str, requests) -> float:
    """One full sweep on a fresh runner; returns wall seconds."""
    runner = Runner(scale=scale, system=system, cache_dir=cache_dir)
    start = time.monotonic()
    runner.prefetch(list(requests))
    return time.monotonic() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_pr8.json")
    parser.add_argument("--scale", type=int, default=8192,
                        help="model scale (smaller = larger graphs)")
    parser.add_argument("--floor", type=float, default=3.0,
                        help="minimum cold/warm_knob speedup")
    args = parser.parse_args(argv)

    requests = [RunRequest(app, scheme, DATASET)
                for app in APPS for scheme in SCHEMES]
    cells = len(requests)
    cache_dir = tempfile.mkdtemp(prefix="repro-incremental-")
    system = SystemConfig().scaled(args.scale)

    reset_stage_counters()
    cold_s = sweep(args.scale, system, cache_dir, requests)
    cold_counters = stage_counters()

    # One timing knob: double the per-controller memory bandwidth.
    # This reaches the cost models through system.bytes_per_cycle and
    # nothing else, so only the timing stage may recompute.
    faster = replace(system, memory=replace(
        system.memory,
        gb_per_sec_per_controller=2
        * system.memory.gb_per_sec_per_controller))
    reset_stage_counters()
    warm_knob_s = sweep(args.scale, faster, cache_dir, requests)
    knob_counters = stage_counters()

    reset_stage_counters()
    warm_identical_s = sweep(args.scale, system, cache_dir, requests)
    identical_counters = stage_counters()

    speedup = cold_s / max(warm_knob_s, 1e-9)
    failures = []
    for stage in ("stream", "replay", "compress"):
        if knob_counters.get(f"{stage}.computed", 0):
            failures.append(
                f"{stage} recomputed after a timing-only knob edit "
                f"({knob_counters})")
        if not knob_counters.get(f"{stage}.hit", 0):
            failures.append(
                f"{stage} artifacts were not reused from the store "
                f"({knob_counters})")
    if knob_counters.get("timing.computed", 0) != cells:
        failures.append(
            f"expected {cells} timing recomputes, saw "
            f"{knob_counters.get('timing.computed', 0)}")
    if identical_counters:
        failures.append(
            f"identical re-sweep touched the pipeline: "
            f"{identical_counters}")
    if speedup < args.floor:
        failures.append(
            f"warm_knob speedup {speedup:.1f}x under the "
            f"{args.floor:.1f}x floor")

    payload = {
        "bench": "pr8_incremental_sweep",
        "scale": args.scale,
        "cells": cells,
        "speedup_floor": args.floor,
        "python": platform.python_version(),
        "cold": {"wall_s": cold_s, "counters": cold_counters},
        "warm_knob": {"wall_s": warm_knob_s,
                      "counters": knob_counters,
                      "speedup": speedup},
        "warm_identical": {"wall_s": warm_identical_s,
                           "counters": identical_counters},
        "pass": not failures,
        "failures": failures,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print(f"cold           {cold_s:8.3f}s  {cold_counters}")
    print(f"warm_knob      {warm_knob_s:8.3f}s  speedup "
          f"{speedup:.1f}x  {knob_counters}")
    print(f"warm_identical {warm_identical_s:8.3f}s  "
          f"{identical_counters or 'no pipeline work'}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
