"""The benchmark's three workloads.

Each workload sets up ``SETUP_REPEATS`` times (knob_sweep and serve_mix
measure against their last set-up), then runs operations until
``--seconds`` have passed, then checks a seeded sample of the results.
An operation is:

``report_cold``  one ``repro report`` over every registered experiment
                 in a fresh process with an empty store (``--jobs 1``);
``knob_sweep``   one re-pricing of the report's planned cells for one
                 seeded memory bandwidth, against a store seeded with
                 the report's artifacts (``jobs = nproc``);
``serve_mix``    one HTTP request to ``repro serve --backend process``,
                 sent open-loop at a fixed rate.

Which layer should move which metric, on which workload (the latency
figures are per-layer metrics, see run.py):

=====================  =========================================
layer                  moves
=====================  =========================================
graph.load, apps.build report_cold wall_s
stages.streams         report_cold wall_s; serve_mix latency_p95_s
                       after deltas (partition reuse)
stages.replay          report_cold wall_s; not knob_sweep
stages.compress        report_cold wall_s
stages.timing          knob_sweep wall_s
jobs.cache             knob_sweep wall_s; serve_mix latency_p50_s
jobs.fingerprint       knob_sweep wall_s
jobs.executor          knob_sweep wall_s and peak_rss_mb
engine                 report_cold wall_s (fig21)
runtime.traffic        report_cold wall_s (sorting's monolithic
                       re-profile; one pricing path takes it to 0)
harness                report_cold wall_s
serve.*                serve_mix goodput_frac and latency
=====================  =========================================

Simulated results are checked, never timed: the report's SHA-256
against ``golden.json``, sampled knob and serve results against a cold
in-process ``StagePricer`` with ``NullCache``.  A mismatch fails its
operation.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from statistics import median
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from perfbench import loadgen
from perfbench.probes import Probe, diff_states, merge_states

#: Reduced model scale of every workload (graphs are 1/SCALE of Table III).
SCALE = 65536
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Latency limit of one operation, for ``goodput_frac``.
LIMIT_S = {"report_cold": 60.0, "knob_sweep": 20.0, "serve_mix": 0.25}
#: Sampled results checked against the cold oracle per run.
KNOB_CHECKS = 3
SERVE_CHECKS = 8

#: serve_mix traffic.  The offered rate is a seventh of the 708
#: requests/s this mix saturated at over ``nproc`` connections on a
#: 2-core reference box: the recomputes each delta triggers load the
#: workers, and at 200 requests/s (deltas every 0.5 s) one run in three
#: queued up, with p50 rising from 4 ms to 142 ms.
SERVE_RATE_RPS = 100.0
SERVE_WEIGHTS = (("price", 0.6), ("simulate", 0.25), ("sweep", 0.15))
SERVE_APPS = ("pr", "cc", "bfs", "dc")
SERVE_SCHEMES = ("push", "push+spzip", "phi", "phi+spzip", "ub",
                 "ub+spzip")
SERVE_DATASETS = ("arb", "ukl", "twi", "it")
SERVE_PREPROCESSINGS = ("none", "natural")
SERVE_ZIPF_S = 1.1
#: Overlapping /sweep bodies: few, so concurrent sweeps share cells.
SERVE_SWEEPS = tuple({"app": app, "schemes": "paper", "dataset": dataset,
                      "preprocessing": "natural"}
                     for app in ("pr", "cc") for dataset in ("arb", "ukl"))
#: Graph deltas: one every DELTA_PERIOD_S on the delta-stable
#: (``natural``) input, each confined to one 64-row range.  Requests
#: naming DELTA_DATASET never overlap a delta (see delta_conflict).
DELTA_DATASET = "arb"
DELTA_PERIOD_S = 1.0
DELTA_EDGES = 8
SERVE_HOT_CAPACITY = 64
SERVE_PARTITIONS = 4


@dataclass
class Op:
    """One measured operation."""

    latency_s: float
    ok: bool
    cells: int
    write: bool = True
    traced: bool = False


@dataclass
class Outcome:
    """What a workload measured; run.py turns it into metrics."""

    setup_s: List[float]
    ops: List[Op]
    limit_s: float
    #: Seconds the whole open-loop schedule took (None for the batch
    #: workloads, whose operations run back to back).
    wall_s: Optional[float] = None
    probe: Dict[str, object] = field(default_factory=dict)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per-layer figures the workload measures itself.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Traced operations the probe state covers (per-op normalization).
    traced_ops: int = 0
    traced_wall_s: float = 0.0
    notes: List[str] = field(default_factory=list)


@dataclass
class Context:
    root: str
    work: str
    seed: int
    seconds: float
    trace: bool
    profile: Optional[str]
    nproc: int

    def child(self, *args: str) -> List[str]:
        return [sys.executable, os.path.join(self.root, "perfbench",
                                             "child.py"), *args]

    @property
    def min_ops(self) -> int:
        """Operations run however short the window: a traced run needs
        one untraced and one traced operation."""
        return 2 if self.trace else 1

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    @property
    def probe_dir(self) -> str:
        return self.path("probe")

    def probe_args(self) -> List[str]:
        args = ["--probe-dir", self.probe_dir]
        if self.profile:
            args += ["--profile", self.profile]
        return args


def overhead_frac(ops: List[Op]) -> float:
    """Traced over untraced median operation latency, minus one."""
    traced = [op.latency_s for op in ops if op.traced]
    plain = [op.latency_s for op in ops if not op.traced]
    if not traced or not plain:
        return 0.0
    return median(traced) / median(plain) - 1.0


def _add_spans(total: Dict[str, Dict[str, float]],
               summary: Dict[str, Dict[str, float]]) -> None:
    for name, stat in summary.items():
        entry = total.setdefault(name, {"calls": 0, "seconds": 0.0,
                                        "count": 0})
        for key in entry:
            entry[key] += stat.get(key, 0)


def planned_requests():
    from repro.harness import EXPERIMENTS
    from repro.jobs.plan import experiment_requests
    return experiment_requests(sorted(EXPERIMENTS))


# -- report_cold ---------------------------------------------------------------

def golden_digest(root: str) -> str:
    with open(os.path.join(root, "perfbench", "golden.json")) as handle:
        return json.load(handle)["report_sha256"][str(SCALE)]


def report_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def report_cold(ctx: Context, golden: Optional[str] = None) -> Outcome:
    """Cold ``repro report`` runs, each in a fresh process and store."""
    golden = golden if golden is not None else golden_digest(ctx.root)
    setup = []
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(ctx.child("noop", "--store",
                                 ctx.path(f"setup-{index}")),
                       check=True, timeout=120)
        setup.append(time.perf_counter() - start)
    cells = len(planned_requests())
    outcome = Outcome(setup, [], LIMIT_S["report_cold"])
    deadline = time.perf_counter() + ctx.seconds
    index = 0
    while index < ctx.min_ops or time.perf_counter() < deadline:
        traced = ctx.trace and index % 2 == 1
        store, out = ctx.path(f"store-{index}"), ctx.path(f"r-{index}.md")
        command = ctx.child("report", "--scale", str(SCALE), "--store",
                            store, "--out", out)
        trace_path = ctx.path(f"trace-{index}.jsonl")
        if traced:
            command += ctx.probe_args() + ["--trace", trace_path]
        with open(ctx.path("child.log"), "a") as log:
            start = time.perf_counter()
            status = subprocess.run(command, stdout=log, stderr=log,
                                    timeout=170).returncode
            wall = time.perf_counter() - start
        ok = status == 0 and report_digest(out) == golden
        if not ok:
            outcome.notes.append(f"report {index}: exit {status} or "
                                 f"digest mismatch")
        outcome.ops.append(Op(wall, ok, cells, traced=traced))
        if traced and status == 0:
            from repro.obs import trace_summary
            _add_spans(outcome.spans, trace_summary(trace_path))
            outcome.traced_ops += 1
            outcome.traced_wall_s += wall
        shutil.rmtree(store, ignore_errors=True)
        index += 1
    if ctx.trace:
        outcome.probe = merge_states(ctx.probe_dir)
        outcome.extra["trace_overhead_frac"] = overhead_frac(outcome.ops)
    return outcome


# -- knob_sweep ----------------------------------------------------------------

def knob_system(bandwidth: float):
    from repro.config import SystemConfig
    base = SystemConfig().scaled(SCALE)
    return dataclasses.replace(base, memory=dataclasses.replace(
        base.memory, gb_per_sec_per_controller=bandwidth))


def price_request(price: Callable, request):
    """``price(app, scheme, dataset, preprocessing, **params)`` for one
    planned request (``JobRunner.run`` or ``StagePricer.price``)."""
    from repro.jobs.model import params_to_kwargs
    return price(request.app, request.scheme, request.dataset,
                 request.preprocessing, **params_to_kwargs(request.params))


def knob_sweep(ctx: Context) -> Outcome:
    """Re-price the planned cells once per seeded bandwidth value."""
    from repro.jobs import JobRunner, NullCache
    from repro.jobs.executor import JobExecutionError
    from repro.obs import TRACER
    from repro.stages import StagePricer
    requests = planned_requests()
    setup = []
    store = ""
    for index in range(SETUP_REPEATS):
        if store:
            shutil.rmtree(store, ignore_errors=True)
        store = ctx.path(f"knob-store-{index}")
        start = time.perf_counter()
        JobRunner(scale=SCALE, jobs=ctx.nproc,
                  cache_dir=store).prefetch(requests)
        setup.append(time.perf_counter() - start)

    # One untimed re-price first, so lazy imports and the page cache
    # settle before the measured operations.
    JobRunner(scale=SCALE, system=knob_system(1.0), jobs=ctx.nproc,
              cache_dir=store).prefetch(requests)
    rng = random.Random(ctx.seed)
    outcome = Outcome(setup, [], LIMIT_S["knob_sweep"])
    probe = Probe(ctx.probe_dir, ctx.profile) if ctx.trace else None
    samples = []
    used = set()
    deadline = time.perf_counter() + ctx.seconds
    index = 0
    while index < ctx.min_ops or time.perf_counter() < deadline:
        bandwidth = round(rng.uniform(6.4, 25.6), 3)
        if bandwidth in used:
            continue
        used.add(bandwidth)
        system = knob_system(bandwidth)
        traced = probe is not None and index % 2 == 1
        if traced:
            probe.install()
            TRACER.start()
        runner = JobRunner(scale=SCALE, system=system, jobs=ctx.nproc,
                           cache_dir=store)
        start = time.perf_counter()
        try:
            runner.prefetch(requests)
            ok = True
        except JobExecutionError as exc:
            ok = False
            outcome.notes.append(f"knob {bandwidth}: {exc}")
        wall = time.perf_counter() - start
        if traced:
            probe.uninstall()
            TRACER.stop()
            _add_spans(outcome.spans, TRACER.summary())
            outcome.traced_ops += 1
            outcome.traced_wall_s += wall
        if ok:
            request = rng.choice(requests)
            samples.append((index, system, request,
                            price_request(runner.run, request)))
        outcome.ops.append(Op(wall, ok, len(requests), traced=traced))
        index += 1
    if probe is not None:
        probe.dump()
        outcome.probe = merge_states(ctx.probe_dir)
        outcome.extra["trace_overhead_frac"] = overhead_frac(outcome.ops)

    for index, system, request, got in rng.sample(
            samples, min(KNOB_CHECKS, len(samples))):
        oracle = StagePricer(scale=SCALE, system=system, cache=NullCache())
        if price_request(oracle.price, request) != got:
            outcome.ops[index].ok = False
            outcome.notes.append(f"knob op {index}: "
                                 f"{request.describe()} differs from "
                                 f"the cold oracle")
    shutil.rmtree(store, ignore_errors=True)
    return outcome


# -- serve_mix -----------------------------------------------------------------

class ServerProcess:
    """One ``repro serve --backend process`` child on a free port."""

    def __init__(self, ctx: Context, name: str,
                 extra: Optional[List[str]] = None) -> None:
        self.log_path = ctx.path(f"{name}.log")
        self.store = ctx.path(f"{name}-store")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            ctx.child("serve", "--scale", str(SCALE), "--store", self.store,
                      "--workers", str(ctx.nproc),
                      "--partitions", str(SERVE_PARTITIONS),
                      "--hot-capacity", str(SERVE_HOT_CAPACITY),
                      *(extra or [])),
            stdout=self._log, stderr=self._log)
        try:
            self.port = self._wait_for_port(timeout_s=120)
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            with open(self.log_path) as handle:
                for line in handle:
                    if line.startswith("serving on http://"):
                        address = line.split()[2]
                        return int(address.rsplit(":", 1)[1])
            time.sleep(0.005)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def stop(self) -> int:
        """SIGTERM, drain, and reap the server (its pool goes with it)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


async def _call(port: int, method: str, path: str,
                body: Optional[dict] = None):
    connection = loadgen.HttpConnection("127.0.0.1", port)
    try:
        return await connection.request(method, path, body)
    finally:
        await connection.close()


def warm_up(port: int) -> None:
    """Price the whole cell universe once, untimed: the measured mix
    then sees a warm server, whose computed cells come from the deltas,
    and whose disk hits come from hot-tier evictions."""
    for preprocessing in SERVE_PREPROCESSINGS:
        status, body = asyncio.run(_call(port, "POST", "/sweep", {
            "apps": list(SERVE_APPS), "schemes": list(SERVE_SCHEMES),
            "datasets": list(SERVE_DATASETS),
            "preprocessing": preprocessing}))
        if status != 200:
            raise RuntimeError(f"warm-up sweep failed: {status} {body}")


def _zipf_picker(rng: random.Random, items: List, s: float,
                 group: Callable = lambda item: 0) -> Callable:
    """Zipf(s) popularity over a seeded order of ``items``.

    The order deals the groups round-robin in a fixed group order, so
    each group's share of the traffic is the same for every seed and
    only which of its members are popular changes.  Grouping cells by
    profile keeps the recompute work each graph delta causes (one
    bundle per popular profile of the mutated dataset) the same across
    seeds.
    """
    groups: Dict[object, List] = {}
    for item in items:
        groups.setdefault(group(item), []).append(item)
    for members in groups.values():
        rng.shuffle(members)
    order = [members[i] for i in range(max(map(len, groups.values())))
             for members in groups.values() if i < len(members)]
    weights = [1.0 / (rank + 1) ** s for rank in range(len(order))]
    return lambda: rng.choices(order, weights)[0]


def build_schedule(seed: int, seconds: float, rate_rps: float
                   ) -> List[loadgen.Request]:
    """The seeded request mix, deltas included.

    Delta bodies name their parent version explicitly and are applied to
    this process's dataset registry as they are made, so the oracle can
    price every version the server will report.
    """
    from repro.graph.datasets import apply_delta, load
    from repro.graph.delta import sample_delta
    from repro.serve.protocol import parse_delta
    rng = random.Random(seed)
    cells = [{"app": app, "scheme": scheme, "dataset": dataset,
              "preprocessing": prep}
             for app in SERVE_APPS for scheme in SERVE_SCHEMES
             for dataset in SERVE_DATASETS for prep in SERVE_PREPROCESSINGS]
    pick_cell = _zipf_picker(rng, cells, SERVE_ZIPF_S, group=lambda cell: (
        cell["app"], cell["dataset"], cell["preprocessing"]))
    pick_sweep = _zipf_picker(rng, list(SERVE_SWEEPS), SERVE_ZIPF_S)
    # Exactly rate x seconds arrivals at uniform random times (a Poisson
    # process conditioned on its count) in exact kind proportions, so
    # the offered load is the same for every seed.
    count = round(rate_rps * seconds)
    kinds = [kind for kind, weight in SERVE_WEIGHTS
             for _ in range(round(weight * count))]
    rng.shuffle(kinds)
    dues = sorted(rng.uniform(0.0, seconds) for _ in kinds)
    schedule = []
    for due, kind in zip(dues, kinds):
        body = pick_sweep() if kind == "sweep" else pick_cell()
        schedule.append(loadgen.Request(due, kind, "POST", f"/{kind}",
                                        dict(body)))

    parent = DELTA_DATASET
    graph = load(DELTA_DATASET, SCALE)
    due = rng.uniform(0.0, DELTA_PERIOD_S)
    while due < seconds:
        lo = 64 * rng.randrange(max(1, graph.num_vertices // 64))
        delta = sample_delta(graph, rng.randrange(2 ** 31),
                             insertions=DELTA_EDGES,
                             deletions=DELTA_EDGES,
                             row_range=(lo, min(graph.num_vertices,
                                                lo + 64)))
        body = {"dataset": parent,
                "insertions": delta.insertions.tolist(),
                "deletions": delta.deletions.tolist()}
        if delta.insert_values is not None:
            body["insert_values"] = delta.insert_values.tolist()
        # Parse as the server will, so both sides apply one delta.
        _name, parsed = parse_delta(json.loads(json.dumps(body)))
        handle = apply_delta(parent, parsed, SCALE)
        schedule.append(loadgen.Request(
            due, "delta", "POST", "/graph/delta", body,
            expect={"dataset": handle.versioned_name,
                    "num_edges": handle.graph.num_edges}))
        parent, graph = handle.versioned_name, handle.graph
        due += DELTA_PERIOD_S
    schedule.sort(key=lambda r: r.due_s)
    return schedule


def cells_of(sample: loadgen.Sample) -> int:
    body = sample.body or {}
    return {"price": 1, "simulate": 2, "sweep": body.get("count", 0),
            "delta": 0}[sample.request.kind]


def check_sample(sample: loadgen.Sample, price: Callable,
                 rng: random.Random) -> bool:
    """Does one served response agree with the cold oracle?

    ``price(app, scheme, dataset, preprocessing)`` returns the oracle's
    wire-form metrics.  Deltas are checked against the version and edge
    count the benchmark's own registry computed for them.
    """
    body = sample.body
    if sample.status != 200 or not isinstance(body, dict):
        return False
    if sample.request.kind == "delta":
        expect = sample.request.expect
        return body.get("dataset") == expect["dataset"] and \
            body.get("num_edges") == expect["num_edges"]
    if sample.request.kind == "sweep":
        cell = rng.choice(body["cells"])
        served = cell["metrics"]
    else:
        cell = body["request"]
        served = body["metrics"]
    return served == price(cell["app"], cell["scheme"], cell["dataset"],
                           cell["preprocessing"])


def score_samples(samples: List[Optional[loadgen.Sample]], traced: bool,
                  price: Callable, rng: random.Random,
                  notes: List[str]) -> List[Op]:
    """One :class:`Op` per scheduled request.

    Unanswered, refused and non-200 requests fail; every delta and a
    seeded sample of ``SERVE_CHECKS`` answered reads are checked with
    :func:`check_sample`, and a mismatch fails its request.
    """
    answered = [s for s in samples if s is not None and s.status == 200
                and s.request.kind != "delta"]
    checked = set(map(id, rng.sample(answered,
                                     min(SERVE_CHECKS, len(answered)))))
    ops = []
    for sample in samples:
        if sample is None:
            ops.append(Op(float("inf"), False, 0, traced=traced))
            continue
        ok = sample.status == 200
        if ok and (sample.request.kind == "delta" or id(sample) in checked):
            ok = check_sample(sample, price, rng)
        if not ok:
            notes.append(f"{sample.request.kind} {sample.request.body}: "
                         f"status {sample.status} {sample.error}"
                         f"{(sample.body or {}).get('error', '')}")
        ops.append(Op(sample.latency_s, ok, cells_of(sample),
                      write=sample.request.kind == "delta", traced=traced))
    return ops


def oracle_wire_pricer() -> Callable:
    """``price`` for :func:`check_sample`: a cold NullCache pricer."""
    from repro.jobs import NullCache
    from repro.serve.protocol import metrics_to_json
    from repro.stages import StagePricer
    pricer = StagePricer(scale=SCALE, cache=NullCache())

    def price(app, scheme, dataset, preprocessing):
        metrics = pricer.price(app, scheme, dataset, preprocessing)
        return json.loads(json.dumps(metrics_to_json(metrics)))

    return price


def delta_conflict(request: loadgen.Request) -> Optional[str]:
    """The mutated dataset, if ``request`` reads or writes it.

    The load generator keeps these reads and writes from overlapping.
    The server publishes a delta's graph only after it makes the new
    version the dataset's head (``repro.graph.datasets.apply_delta``),
    so a read that lands in between fails in the pool worker with
    "unknown version ... not published to a graph store".  The test
    ``test_delta_head_is_published_before_it_is_visible`` pins that
    defect; once it passes, this gate can go.
    """
    dataset = (request.body or {}).get("dataset", "").split("@")[0]
    return dataset if dataset == DELTA_DATASET else None


async def _play(port: int, schedule, connections: int):
    conns = [loadgen.HttpConnection("127.0.0.1", port)
             for _ in range(connections)]
    try:
        return await loadgen.run_open_loop(schedule, conns,
                                           loadgen.send_http,
                                           conflict=delta_conflict)
    finally:
        for connection in conns:
            await connection.close()


def _stats(port: int) -> Dict:
    status, stats = asyncio.run(_call(port, "GET", "/stats"))
    if status != 200:
        raise RuntimeError(f"/stats returned {status}")
    return stats


def _serve_layer_figures(before: Dict, after: Dict,
                         result: loadgen.LoadResult) -> Dict[str, float]:
    """Server counters moved by the measured mix, plus generator lag."""

    def moved(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    batches = moved("batcher", "batches")
    leaders = moved("flight", "leaders")
    followers = moved("flight", "followers")
    lags = sorted(result.lags)
    return {
        "serve.admission_wait_s": moved("admission", "total_wait_s"),
        "serve.cells_per_dispatch":
            moved("batcher", "batched_cells") / batches if batches else 0.0,
        "serve.hot_hits": moved("store", "hot_hits"),
        "serve.disk_hits": moved("store", "disk_hits"),
        "serve.computed": moved("computes"),
        "serve.coalesced": followers,
        "serve.coalesce_ratio": followers / (leaders + followers)
        if leaders + followers else 0.0,
        "serve.generator_lag_s": lags[len(lags) // 2] if lags else 0.0,
        "serve.backlog_max": result.backlog_max,
    }


def _probe_snapshot(ctx: Context, server: ServerProcess) -> Dict:
    """Probe totals of the server and its workers so far.

    SIGUSR1 makes the server write its own state; pool workers write
    theirs after every group they run.
    """
    path = os.path.join(ctx.probe_dir, f"probe-{server.proc.pid}.json")
    server.proc.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + 30
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError("server did not write its probe state")
        time.sleep(0.01)
    return merge_states(ctx.probe_dir)


def _serve_phase(ctx: Context, server: ServerProcess, schedule,
                 traced: bool):
    """Warm the server up, then play the schedule against it.

    Returns the load result, the server's counter movement, and (traced)
    the probe state at the end of the warm-up.
    """
    warm_up(server.port)
    before = _stats(server.port)
    snapshot = _probe_snapshot(ctx, server) if traced else None
    result = asyncio.run(_play(server.port, schedule, ctx.nproc))
    figures = _serve_layer_figures(before, _stats(server.port), result)
    return result, figures, snapshot


def serve_mix(ctx: Context) -> Outcome:
    """Open-loop request mix against a process-backend server.

    A traced run plays the schedule twice, first against a plain server
    and then against a probed one, each for half the seconds; the
    per-layer figures cover the probed phase after its warm-up.
    """
    setup = []
    server = None
    for index in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        start = time.perf_counter()
        server = ServerProcess(ctx, f"serve-{index}")
        while asyncio.run(_call(server.port, "GET", "/healthz"))[0] != 200:
            time.sleep(0.005)
        setup.append(time.perf_counter() - start)

    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    schedule = build_schedule(ctx.seed, seconds, SERVE_RATE_RPS)
    outcome = Outcome(setup, [], LIMIT_S["serve_mix"])
    try:
        result, figures, _ = _serve_phase(ctx, server, schedule, False)
    finally:
        server.stop()
    runs = [(False, result, figures)]
    if ctx.trace:
        server = ServerProcess(ctx, "serve-traced", ctx.probe_args())
        try:
            result, figures, snapshot = _serve_phase(ctx, server, schedule,
                                                     True)
        finally:
            server.stop()
        runs.append((True, result, figures))
        outcome.probe = diff_states(merge_states(ctx.probe_dir), snapshot)

    rng = random.Random(ctx.seed)
    price = oracle_wire_pricer()
    for traced, result, figures in runs:
        samples = result.samples
        outcome.ops += score_samples(samples, traced, price, rng,
                                     outcome.notes)
        if traced:
            outcome.traced_ops = len(samples)
            outcome.traced_wall_s = result.wall_s
        else:
            outcome.wall_s = result.wall_s
        outcome.extra.update(figures)
    if ctx.trace:
        outcome.extra["trace_overhead_frac"] = overhead_frac(
            [op for op in outcome.ops if op.ok])
    return outcome


WORKLOADS = {
    "report_cold": report_cold,
    "knob_sweep": knob_sweep,
    "serve_mix": serve_mix,
}
