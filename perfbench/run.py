"""The repository's end-to-end benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report_cold --seed 1 \\
        --seconds 20 --trace 0

``--workload`` is one of ``report_cold``, ``knob_sweep``, ``serve_mix``
(see :mod:`perfbench.workloads`).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics,
and a ranked per-layer table goes to standard error.  ``--profile
LAYER`` (with ``--trace 1``) also writes cProfile stats of one layer's
calls to ``.perfbench/profile-<workload>-<LAYER>.pstats``.

Every operation is one unit of user work (a cold report, a knob-value
re-price, an HTTP request), so every workload reports every end-to-end
metric:

``setup_s``              median of the run's set-ups;
``wall_s``               median operation seconds (serve_mix: first due
                         time to last answer of the whole schedule);
``cells_per_s``, ``throughput_rps``  priced cells and correct
                         operations per second of measured time (batch
                         workloads: at the median operation time);
``peak_rss_mb``          peak RSS of this process plus its largest
                         child;
``goodput_frac``         share of operations answered correctly within
                         the workload's latency limit (``LIMIT_S``); a
                         failed or refused operation misses it.

The latency distribution itself (``latency_p50_s``, ``latency_p95_s``,
``write_latency_p50_s`` and the sample count) is reported with the
per-layer metrics, from the untraced operations of a traced run: on a
2-vCPU VM serve_mix's millisecond latencies moved by up to 3x
between back-to-back runs of one seed, too much for a regression bound.
Latency is timed from each operation's due time (serve_mix is
open-loop); write latency is that of graph-delta POSTs in serve_mix and
of every operation in the two batch workloads, which each write the
store.

Everything a run writes stays under ``.perfbench/`` in the checkout: a
scratch directory removed at exit, and a JSON record per run under
``.perfbench/results/`` with the environment fingerprint (Python and
numpy versions, nproc, calibration-loop seconds; recorded only).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
from statistics import median
from typing import Dict, List, Tuple

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("throughput_rps", "1/s"),
    ("goodput_frac", "ratio"),
)


def per_layer_names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    from perfbench.probes import LAYERS
    names = []
    for layer in LAYERS:
        if not layer.startswith("serve."):
            names += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    names += [
        ("layer_coverage_frac", "ratio"), ("trace_overhead_frac", "ratio"),
        ("failed_frac", "ratio"), ("latency_p50_s", "s"),
        ("latency_p95_s", "s"), ("write_latency_p50_s", "s"),
        ("latency.samples", "count"),
        ("stream.partition.hit", "count"),
        ("stream.partition.computed", "count"),
        ("partition_reuse_ratio", "ratio"),
        ("replay.phi_coalesce_s", "s"), ("replay.push_scatter_s", "s"),
        ("replay.pull_gather_s", "s"), ("replay.accesses", "count"),
        ("compress.elements_sized", "count"), ("timing.cells", "count"),
        ("cache.hits", "count"), ("cache.misses", "count"),
        ("cache.hit_ratio", "ratio"), ("cache.bytes_read", "B"),
        ("cache.bytes_written", "B"), ("cache.corrupt_dropped", "count"),
        ("fingerprint.bytes_hashed", "B"),
        ("executor.queue_wait_s", "s"), ("executor.groups", "count"),
        ("executor.retries", "count"), ("executor.failed", "count"),
        ("engine.cycles_simulated", "cycles"),
        ("engine.host_s_per_kcycle", "s/kcycle"),
        ("serve.parse_s", "s"), ("serve.admission_wait_s", "s"),
        ("serve.batch_wait_s", "s"), ("serve.cells_per_dispatch", "count"),
        ("serve.dispatch_s", "s"), ("serve.hot_hits", "count"),
        ("serve.disk_hits", "count"), ("serve.computed", "count"),
        ("serve.coalesced", "count"), ("serve.coalesce_ratio", "ratio"),
        ("serve.delta_apply_s", "s"), ("serve.generator_lag_s", "s"),
        ("serve.backlog_max", "count"),
    ]
    return names


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _finite_latencies(ops) -> List[float]:
    return sorted(op.latency_s for op in ops
                  if op.latency_s != float("inf"))


def end_to_end(outcome) -> Dict[str, float]:
    ops = [op for op in outcome.ops if not op.traced]
    done = _finite_latencies(ops)
    good = [op for op in ops if op.ok]
    # Batch workloads run operations back to back: their busy time is
    # taken at the median operation, so one stalled operation moves the
    # rates no more than it moves wall_s.
    busy = outcome.wall_s if outcome.wall_s is not None \
        else len(ops) * (median(done) if done else 0.0)
    return {
        "setup_s": median(outcome.setup_s),
        "wall_s": outcome.wall_s if outcome.wall_s is not None
        else busy / max(1, len(ops)),
        "cells_per_s": sum(op.cells for op in good) / busy if busy else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_rps": len(good) / busy if busy else 0.0,
        "goodput_frac": sum(op.latency_s <= outcome.limit_s
                            for op in good) / max(1, len(ops)),
    }


def latencies(outcome) -> Dict[str, float]:
    """Latency percentiles of the untraced operations, from due time."""
    ops = [op for op in outcome.ops if not op.traced]
    done = _finite_latencies(ops)
    writes = _finite_latencies([op for op in ops if op.write])
    return {
        "latency_p50_s": median(done) if done else 0.0,
        "latency_p95_s": percentile(done, 95),
        "write_latency_p50_s": median(writes) if writes else 0.0,
        "latency.samples": len(done),
    }


def per_layer(outcome, failed_frac: float) -> Dict[str, float]:
    """Per-layer figures of the traced operations (batch workloads:
    per traced operation; serve_mix: totals of the traced phase)."""
    from perfbench.probes import LAYERS
    probe = outcome.probe or {}
    layers = probe.get("layers", {})
    counters = probe.get("counters", {})
    stages = probe.get("stages", {})
    spans = outcome.spans
    serve = outcome.wall_s is not None
    per = 1 if serve else max(1, outcome.traced_ops)

    def span(name: str, key: str = "seconds") -> float:
        return spans.get(name, {}).get(key, 0) / per

    values: Dict[str, float] = {}
    for layer in LAYERS:
        self_s, calls = layers.get(layer, (0.0, 0))
        if layer.startswith("serve."):
            values[f"{layer}_s"] = self_s
        else:
            values[f"{layer}.self_s"] = self_s / per
            values[f"{layer}.calls"] = calls / per
    # Self time summed over every process: pool workers running in
    # parallel (knob_sweep) push this above 1.
    covered = sum(self_s for self_s, _calls in layers.values())
    values["layer_coverage_frac"] = 0.0 if serve or not outcome.traced_ops \
        else covered / outcome.traced_wall_s
    values["trace_overhead_frac"] = outcome.extra.get(
        "trace_overhead_frac", 0.0)
    values["failed_frac"] = failed_frac
    values.update(latencies(outcome))
    hit = stages.get("stream.partition.hit", 0)
    computed = stages.get("stream.partition.computed", 0)
    values["stream.partition.hit"] = hit / per
    values["stream.partition.computed"] = computed / per
    values["partition_reuse_ratio"] = hit / (hit + computed) \
        if hit + computed else 0.0
    values["replay.phi_coalesce_s"] = span("replay.phi_coalesce")
    values["replay.push_scatter_s"] = span("replay.push_scatter")
    values["replay.pull_gather_s"] = span("replay.pull_gather")
    values["replay.accesses"] = sum(
        span(name, "count") for name in ("replay.phi_coalesce",
                                         "replay.push_scatter",
                                         "replay.pull_gather"))
    values["compress.elements_sized"] = span("profile.compress", "count")
    for name in ("timing.cells", "cache.hits", "cache.misses",
                 "cache.bytes_read", "cache.bytes_written",
                 "cache.corrupt_dropped", "fingerprint.bytes_hashed",
                 "executor.queue_wait_s", "executor.groups",
                 "executor.retries", "executor.failed",
                 "engine.cycles_simulated"):
        values[name] = counters.get(name, 0) / per
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    values["cache.hit_ratio"] = counters.get("cache.hits", 0) / lookups \
        if lookups else 0.0
    cycles = counters.get("engine.cycles_simulated", 0)
    values["engine.host_s_per_kcycle"] = \
        layers.get("engine", (0.0, 0))[0] / (cycles / 1000.0) \
        if cycles else 0.0
    values["serve.batch_wait_s"] = counters.get("serve.batch_wait_s", 0.0)
    for name, _unit in per_layer_names():
        if name.startswith("serve.") and name not in values:
            values[name] = outcome.extra.get(name, 0.0)
    return values


def summarize(outcome, trace: bool) -> Dict[str, object]:
    """The result object: every end-to-end metric (or, traced, every
    per-layer metric) by name with its unit, and the failure count."""
    attempted = len(outcome.ops)
    failed = sum(not op.ok for op in outcome.ops)
    if trace:
        values = per_layer(outcome, failed / max(1, attempted))
        names = per_layer_names()
    else:
        values = end_to_end(outcome)
        names = list(END_TO_END)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in names}}


def calibration_s() -> float:
    """Median seconds of a fixed pure-Python loop (recorded only)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def environment(nproc: int) -> Dict[str, object]:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": nproc, "calibration_s": calibration_s(),
            "machine": platform.machine()}


def ranked_table(values: Dict[str, float], outcome) -> str:
    """Per-layer self time, heaviest first, with its share of wall."""
    from perfbench.probes import LAYERS
    serve = outcome.wall_s is not None
    wall = outcome.traced_wall_s / max(1, outcome.traced_ops) \
        if not serve else outcome.traced_wall_s
    rows = []
    for layer in LAYERS:
        key = f"{layer}_s" if layer.startswith("serve.") \
            else f"{layer}.self_s"
        rows.append((values.get(key, 0.0), layer,
                     values.get(f"{layer}.calls", "")))
    rows.sort(reverse=True)
    lines = [f"{'layer':20s} {'self_s':>10s} {'share':>7s} {'calls':>10s}"]
    for self_s, layer, calls in rows:
        share = f"{100 * self_s / wall:6.1f}%" if wall else "      -"
        calls = f"{calls:10.1f}" if calls != "" else f"{'':10s}"
        lines.append(f"{layer:20s} {self_s:10.4f} {share} {calls}")
    basis = "traced phase" if serve else "per traced operation"
    lines.append(f"(wall {wall:.3f}s {basis}; coverage "
                 f"{100 * values['layer_coverage_frac']:.1f}%)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see module docstring).")
    parser.add_argument("--workload", required=True,
                        choices=("report_cold", "knob_sweep", "serve_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", default=None, metavar="LAYER",
                        help="with --trace 1: dump cProfile stats of "
                             "one layer's wrapped calls")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    if args.profile and not args.trace:
        print("perfbench: --profile needs --trace 1", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(HERE))
    from perfbench.probes import LAYERS
    from perfbench.workloads import WORKLOADS, Context
    if args.profile and args.profile not in LAYERS:
        print(f"perfbench: unknown layer {args.profile!r}; choose from "
              f"{', '.join(LAYERS)}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so servers and pools started
    # by the workload are stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    state = os.path.join(ROOT, ".perfbench")
    work = os.path.join(state, f"work-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    # Temp files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    tempfile.tempdir = None
    nproc = len(os.sched_getaffinity(0))
    ctx = Context(root=ROOT, work=work, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  profile=args.profile, nproc=nproc)
    try:
        env = environment(nproc)
        outcome = WORKLOADS[args.workload](ctx)
        result = summarize(outcome, bool(args.trace))
        if args.trace:
            print(ranked_table({k: v["value"] for k, v in
                                result["metrics"].items()}, outcome),
                  file=sys.stderr)
            if args.profile:
                from perfbench.probes import merge_profiles
                dest = os.path.join(
                    state, f"profile-{args.workload}-{args.profile}.pstats")
                stats = merge_profiles(ctx.probe_dir, dest)
                if stats is not None:
                    stats.sort_stats("cumulative").print_stats(15)
                    print(f"profile: {dest}", file=sys.stderr)
        for note in outcome.notes[:20]:
            print(f"note: {note}", file=sys.stderr)
        samples = sum(not op.traced for op in outcome.ops)
        print(f"{args.workload}: {result['attempted']} operations "
              f"({samples} untraced samples), {result['failed']} failed; "
              f"env {env}", file=sys.stderr)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": env, **result,
                  "setup_samples_s": outcome.setup_s,
                  "op_latencies_s": [op.latency_s for op in outcome.ops],
                  "notes": outcome.notes}
        os.makedirs(os.path.join(state, "results"), exist_ok=True)
        with open(os.path.join(
                state, "results", f"{args.workload}-seed{args.seed}-"
                f"trace{args.trace}-{int(time.time())}.json"),
                "w") as handle:
            json.dump(record, handle, indent=1, default=str)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
