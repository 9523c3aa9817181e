"""The benchmark's own tests.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import loadgen, run, workloads  # noqa: E402
from perfbench.probes import LAYERS, Probe  # noqa: E402


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(root=ROOT, work=str(tmp_path), seed=7,
                             seconds=0.0, trace=False, profile=None,
                             nproc=2)


def test_wrong_golden_digest_counts_in_failed_frac(ctx):
    outcome = workloads.report_cold(ctx, golden="0" * 64)
    result = run.summarize(outcome, trace=True)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["failed_frac"]["value"] == 1.0
    assert not result["correct"]


def _served_price(price, cell):
    request = loadgen.Request(0.0, "price", "POST", "/price", dict(cell))
    body = {"request": dict(cell), "metrics": price(**cell),
            "source": "computed"}
    return loadgen.Sample(request, 0.01, 200, body)


def test_tampered_serve_response_counts_in_failed_frac():
    price = workloads.oracle_wire_pricer()
    cell = {"app": "bfs", "scheme": "phi+spzip", "dataset": "ukl",
            "preprocessing": "none"}
    good = _served_price(price, cell)
    tampered = _served_price(price, cell)
    tampered.body["metrics"]["cycles"] += 1.0
    notes = []
    ops = workloads.score_samples([good, tampered], False, price,
                                  random.Random(0), notes)
    assert [op.ok for op in ops] == [True, False]
    outcome = workloads.Outcome([0.1], ops, limit_s=1.0, wall_s=1.0)
    result = run.summarize(outcome, trace=True)
    assert result["failed"] == 1
    assert result["metrics"]["failed_frac"]["value"] == 0.5
    assert len(notes) == 1


def test_open_loop_latency_is_timed_from_due_time():
    async def slow_send(_connection, _request):
        await asyncio.sleep(0.05)
        return 200, {}

    schedule = [loadgen.Request(0.0, "price", "POST", "/price")
                for _ in range(3)]
    result = asyncio.run(loadgen.run_open_loop(schedule, [object()],
                                               slow_send))
    latencies = [sample.latency_s for sample in result.samples]
    # One connection: the third request waits for the first two, and
    # that wait counts because all three were due at once.
    assert latencies[0] >= 0.05
    assert latencies[1] >= 0.10
    assert latencies[2] >= 0.15
    assert result.backlog_max >= 2
    assert all(lag < 0.05 for lag in result.lags)


def test_reads_of_a_key_never_overlap_its_writes():
    in_flight = {}
    overlaps = []

    async def send(_connection, request):
        key = workloads.delta_conflict(request)
        if key is not None:
            if in_flight.get(key) and (request.kind == "delta"
                                       or "delta" in in_flight[key]):
                overlaps.append(request.kind)
            in_flight.setdefault(key, []).append(request.kind)
        await asyncio.sleep(0.02)
        if key is not None:
            in_flight[key].remove(request.kind)
        return 200, {}

    def request(kind, dataset):
        return loadgen.Request(0.0, kind, "POST", f"/{kind}",
                               {"dataset": dataset})

    arb = workloads.DELTA_DATASET
    schedule = [request("price", arb), request("delta", arb),
                request("price", arb), request("delta", f"{arb}@0a1b"),
                request("price", "ukl"), request("sweep", arb)]
    result = asyncio.run(loadgen.run_open_loop(
        schedule, [object()] * len(schedule), send,
        conflict=workloads.delta_conflict))
    assert overlaps == []
    assert all(sample.status == 200 for sample in result.samples)
    # With a connection each, the other dataset's read did not wait.
    assert result.samples[4].latency_s < 0.04


@pytest.mark.xfail(strict=True, reason=(
    "apply_delta makes a new version the dataset's head before it "
    "publishes the version's graph; workloads.delta_conflict works "
    "round it in serve_mix"))
def test_delta_head_is_published_before_it_is_visible(tmp_path,
                                                      monkeypatch):
    from repro.graph import datasets
    from repro.graph.delta import sample_delta
    from repro.graph.shared import disable_graph_store, enable_graph_store
    scale = workloads.SCALE
    base = workloads.DELTA_DATASET
    store = enable_graph_store(str(tmp_path))
    put_graph = store.put_graph
    visible_unpublished = []

    def publish(key, graph):
        # What a read resolving the bare name sees at this moment.
        head = datasets.resolve_version(base, scale)
        visible_unpublished.append(
            head != base
            and store.get_graph(f"load/{head}/{scale}") is None)
        put_graph(key, graph)

    try:
        graph = datasets.load(base, scale)
        monkeypatch.setattr(store, "put_graph", publish)
        datasets.apply_delta(base, sample_delta(
            graph, 1, insertions=4, deletions=4), scale)
    finally:
        datasets.clear_cache()
        disable_graph_store()
    assert visible_unpublished == [False]


def test_every_named_metric_is_printed_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    ops = [workloads.Op(0.2, True, 3), workloads.Op(0.3, True, 3)]
    outcome = workloads.Outcome([0.5, 0.6, 0.7], ops, limit_s=1.0)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        printed = run.summarize(outcome, trace)["metrics"]
        named = [(m["name"], m["unit"]) for m in spec[key]]
        assert [(name, m["unit"]) for name, m in printed.items()] == named
        assert all(isinstance(m["value"], (int, float))
                   for m in printed.values())


def test_end_to_end_values_are_medians_and_percentiles():
    ops = [workloads.Op(latency, True, 10) for latency in (1.0, 2.0, 9.0)]
    outcome = workloads.Outcome([3.0, 1.0, 2.0], ops, 5.0)
    values = run.end_to_end(outcome)
    assert values["setup_s"] == 2.0
    assert values["wall_s"] == 2.0
    assert values["goodput_frac"] == pytest.approx(2 / 3)
    # Rates use the median operation time: 3 operations x 2.0 s.
    assert values["cells_per_s"] == pytest.approx(30 / 6.0)
    assert values["throughput_rps"] == pytest.approx(3 / 6.0)
    spread = run.latencies(outcome)
    assert spread["latency_p50_s"] == 2.0
    assert spread["latency_p95_s"] == 9.0
    assert spread["latency.samples"] == 3


def test_probe_self_times_exclude_nested_layers(tmp_path):
    import repro.graph.datasets as datasets
    from repro.sim.runner import Runner
    original = datasets.load_preprocessed
    probe = Probe(str(tmp_path)).install()
    try:
        start = time.perf_counter()
        Runner(scale=65536).profiles("cc", "twi", "degree")
        wall = time.perf_counter() - start
    finally:
        probe.uninstall()
    assert datasets.load_preprocessed is original
    layers = probe.state()["layers"]
    assert layers["runtime.traffic"][1] == 1
    assert layers["apps.build"][1] == 1
    assert layers["graph.load"][1] >= 1
    total = sum(self_s for self_s, _calls in layers.values())
    assert 0.5 * wall < total <= wall
    assert "runtime.traffic" in LAYERS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(tmp_path, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
