"""Delta-reuse harness for the partitioned stream stage.

Runs one multi-input sweep against a single content-addressed store,
then applies a small localized graph delta (~1% of one input's edges,
confined to the first vertex-range partition) and re-prices:

``cold``
    empty store: every cell of every input computes, partitions and
    downstream artifacts persist;
``delta``
    the *same* sweep after mutating one input through the dataset
    registry (``apply_delta``).  Untouched inputs are pure cell-level
    cache hits; the mutated input misses its whole-stream keys but
    reuses every stream partition the delta's rows don't intersect —
    checked via the ``stream.partition.hit/computed`` counters;
``cold_full``
    the post-delta sweep on a *fresh* store: the price of answering
    the same question with no reuse at all.

The mutated input prices under ``preprocessing="natural"``: the
paper-default ``"none"`` relabels vertices with a permutation reseeded
on the edge count, which legitimately scatters any localized delta
across every partition (see docs/DYNAMIC_GRAPHS.md).  ``natural``
keeps ids delta-stable, so locality in the input is locality in the
partitions.

Results land in ``BENCH_pr10.json`` (timings under ``*_s`` keys, the
schema ``repro perf diff`` treats as timing metrics).  Exits nonzero
if the delta re-price recomputes a partition it should have reused,
touches the pipeline for an untouched input, or misses the
``--floor`` speedup over the cold full re-price (default 5x).

Run with::

    PYTHONPATH=src python benchmarks/delta_sweep.py \
        [--out BENCH_pr10.json] [--scale 8192] [--floor 5.0] [--k 6]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time

from repro.config import SystemConfig
from repro.graph.datasets import (
    GRAPH_INPUTS,
    apply_delta,
    clear_cache,
    load,
)
from repro.graph.delta import sample_delta
from repro.jobs.model import canonical_request
from repro.runtime.traffic_array import partition_bounds
from repro.sim import Runner
from repro.stages import reset_stage_counters, stage_counters

#: Two apps x the paper's six schemes on every graph input; only one
#: input is mutated, so most cells must ride the cell-level cache.
APPS = ("dc", "pr")
SCHEMES = ("push", "push+spzip", "ub", "ub+spzip", "phi", "phi+spzip")
MUTATED = "ukl"


def cells_for(mutated_name: str):
    requests = []
    for dataset in GRAPH_INPUTS:
        name = mutated_name if dataset == MUTATED else dataset
        # "natural" for the mutated input: delta-stable vertex ids
        # (the whole point of the partition keys); paper-default
        # elsewhere.
        preprocessing = "natural" if dataset == MUTATED else "none"
        for app in APPS:
            for scheme in SCHEMES:
                requests.append(canonical_request(
                    app, scheme, name, preprocessing))
    return requests


def sweep(scale: int, system, cache_dir: str, requests,
          partitions: int) -> float:
    """One full sweep on a fresh runner; returns wall seconds."""
    runner = Runner(scale=scale, system=system, cache_dir=cache_dir,
                       partitions=partitions)
    start = time.monotonic()
    runner.prefetch(list(requests))
    return time.monotonic() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_pr10.json")
    parser.add_argument("--scale", type=int, default=8192,
                        help="model scale (smaller = larger graphs)")
    parser.add_argument("--floor", type=float, default=5.0,
                        help="minimum cold_full/delta speedup")
    parser.add_argument("--k", type=int, default=6,
                        help="stream partitions per graph")
    args = parser.parse_args(argv)

    clear_cache()
    cache_dir = tempfile.mkdtemp(prefix="repro-delta-")
    system = SystemConfig().scaled(args.scale)

    reset_stage_counters()
    cold_s = sweep(args.scale, system, cache_dir,
                   cells_for(MUTATED), args.k)
    cold_counters = stage_counters()

    # A localized delta: ~1% of the mutated input's edges, confined to
    # the first vertex-range partition's rows.
    base = load(MUTATED, args.scale)
    bounds = partition_bounds(base.num_vertices, args.k)
    changes = max(2, base.num_edges // 200)
    delta = sample_delta(base, seed=10, insertions=changes // 2,
                         deletions=changes // 2, row_range=bounds[0])
    handle = apply_delta(MUTATED, delta, args.scale)
    touched = {index for index, (lo, hi) in enumerate(bounds)
               if ((delta.touched_rows() >= lo)
                   & (delta.touched_rows() < hi)).any()}

    reset_stage_counters()
    delta_s = sweep(args.scale, system, cache_dir,
                    cells_for(handle.versioned_name), args.k)
    delta_counters = stage_counters()

    # The oracle cost: the same post-delta sweep with nothing to reuse.
    reset_stage_counters()
    cold_full_s = sweep(args.scale, system,
                        tempfile.mkdtemp(prefix="repro-delta-cold-"),
                        cells_for(handle.versioned_name), args.k)

    speedup = cold_full_s / max(delta_s, 1e-9)
    identities = len(APPS)  # mutated-input (app, preprocessing) pairs
    min_hits = (len(bounds) - len(touched)) * identities
    max_computed = len(touched) * identities
    failures = []
    if delta_counters.get("stream.computed", 0) != identities:
        failures.append(
            f"expected the {identities} mutated-input stream "
            f"identities to recompute, and nothing else: "
            f"{delta_counters}")
    if delta_counters.get("stream.partition.hit", 0) < min_hits:
        failures.append(
            f"delta re-price reused "
            f"{delta_counters.get('stream.partition.hit', 0)} stream "
            f"partitions, need >= {min_hits} "
            f"({len(bounds)} bounds, {len(touched)} touched, "
            f"{identities} identities)")
    if delta_counters.get("stream.partition.computed", 0) > \
            max_computed:
        failures.append(
            f"delta re-price recomputed "
            f"{delta_counters.get('stream.partition.computed', 0)} "
            f"partitions, allowed <= {max_computed}")
    if speedup < args.floor:
        failures.append(
            f"delta re-price speedup {speedup:.1f}x under the "
            f"{args.floor:.1f}x floor")

    payload = {
        "bench": "pr10_delta_sweep",
        "scale": args.scale,
        "partitions": len(bounds),
        "touched_partitions": sorted(touched),
        "cells": len(cells_for(MUTATED)),
        "delta_edges": delta.num_changes,
        "mutated_dataset": handle.versioned_name,
        "speedup_floor": args.floor,
        "python": platform.python_version(),
        "cold": {"wall_s": cold_s, "counters": cold_counters},
        "delta": {"wall_s": delta_s, "counters": delta_counters,
                  "speedup": speedup},
        "cold_full": {"wall_s": cold_full_s},
        "pass": not failures,
        "failures": failures,
    }
    with open(args.out, "w") as handle_out:
        json.dump(payload, handle_out, indent=1, sort_keys=True)
        handle_out.write("\n")

    print(f"cold      {cold_s:8.3f}s  {cold_counters}")
    print(f"delta     {delta_s:8.3f}s  speedup {speedup:.1f}x  "
          f"{delta_counters}")
    print(f"cold_full {cold_full_s:8.3f}s")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
