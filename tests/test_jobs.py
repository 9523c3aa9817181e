"""Unit tests for the job orchestration subsystem (repro.jobs)."""

import json
import os

import pytest

from repro.config import SystemConfig
from repro.jobs import (
    JobExecutionError,
    JobExecutor,
    NullCache,
    ResultCache,
    RunRequest,
    TelemetryWriter,
    build_job_graph,
    canonical_params,
    code_salt,
    experiment_requests,
    job_fingerprint,
    latest_telemetry,
    summarize,
)
from repro.sim import Runner

SCALE = 65536


# ---------------------------------------------------------------------------
# Job model
# ---------------------------------------------------------------------------

class TestJobModel:
    def test_canonical_params_normalizes_sets(self):
        a = canonical_params({"parts": frozenset({"b", "a"})})
        b = canonical_params({"parts": frozenset({"a", "b"})})
        assert a == b == (("parts", ("a", "b")),)

    def test_params_roundtrip_to_kwargs(self):
        from repro.jobs.model import params_to_kwargs
        params = canonical_params({"parts": frozenset({"x"}),
                                   "decoupled_only": True})
        kwargs = params_to_kwargs(params)
        assert kwargs == {"parts": frozenset({"x"}),
                          "decoupled_only": True}

    def test_graph_shares_profile_jobs(self):
        requests = [RunRequest("pr", s, "arb") for s in ("push", "phi")]
        requests += [RunRequest("pr", "push", "ukl")]
        graph = build_job_graph(requests)
        profiles = graph.profile_jobs
        assert len(profiles) == 2  # arb and ukl share nothing
        assert len(graph.price_jobs) == 3
        groups = dict((p.job_id, jobs) for p, jobs in graph.groups())
        assert len(groups["profile:pr/arb/none"]) == 2

    def test_duplicate_requests_deduplicate(self):
        request = RunRequest("pr", "push", "arb")
        graph = build_job_graph([request, request])
        assert len(graph.price_jobs) == 1

    def test_price_jobs_depend_on_their_profile(self):
        graph = build_job_graph([RunRequest("cc", "ub", "twi", "dfs")])
        (job,) = graph.price_jobs
        assert job.deps == ("profile:cc/twi/dfs",)

    def test_topological_orders_dependencies_first(self):
        requests = [RunRequest("pr", s, d)
                    for d in ("arb", "ukl") for s in ("push", "phi")]
        order = [j.job_id for j in
                 build_job_graph(requests).topological()]
        for job in build_job_graph(requests).price_jobs:
            assert order.index(job.deps[0]) < order.index(job.job_id)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_stable_across_calls(self):
        graph = build_job_graph([RunRequest("pr", "push", "arb")])
        (job,) = graph.price_jobs
        system = SystemConfig().scaled(SCALE)
        assert job_fingerprint(job, SCALE, system) == \
            job_fingerprint(job, SCALE, system)

    def test_sensitive_to_identity_and_config(self):
        system = SystemConfig().scaled(SCALE)
        base = build_job_graph([RunRequest("pr", "push", "arb")]
                               ).price_jobs[0]
        keys = {job_fingerprint(base, SCALE, system)}
        other = build_job_graph([RunRequest("pr", "phi", "arb")]
                                ).price_jobs[0]
        keys.add(job_fingerprint(other, SCALE, system))
        keys.add(job_fingerprint(base, SCALE // 2,
                                 SystemConfig().scaled(SCALE // 2)))
        params = build_job_graph(
            [RunRequest("pr", "push", "arb", "none",
                        canonical_params({"decoupled_only": True}))]
        ).price_jobs[0]
        keys.add(job_fingerprint(params, SCALE, system))
        assert len(keys) == 4

    def test_code_salt_is_short_hex(self):
        salt = code_salt()
        assert len(salt) == 16
        int(salt, 16)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"x": 1.5})
        assert cache.get("ab" * 32) == {"x": 1.5}
        assert cache.stats()["entries"] == 1
        assert cache.keys() == ["ab" * 32]

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("cd" * 32, [1, 2])
        path = cache._path("cd" * 32)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get("cd" * 32) is None
        assert not os.path.exists(path)

    def test_corruption_is_reported_not_silent(self, tmp_path):
        """Regression: dropped entries must reach the error channel."""
        messages = []
        cache = ResultCache(str(tmp_path), on_error=messages.append)
        cache.put("cd" * 32, [1, 2])
        with open(cache._path("cd" * 32), "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get("cd" * 32) is None
        assert len(messages) == 1
        assert messages[0].startswith("cache: dropping unreadable")
        assert "cd" * 32 in messages[0]

    def test_executor_wires_cache_error_channel(self, tmp_path):
        from repro.jobs.executor import JobExecutor
        seen = []
        cache = ResultCache(str(tmp_path))
        JobExecutor(scale=1 << 10, cache=cache, progress=seen.append)
        assert cache.on_error is not None
        cache.on_error("hello")
        assert seen == ["hello"]

    def test_executor_keeps_existing_error_channel(self, tmp_path):
        from repro.jobs.executor import JobExecutor
        mine = []
        handler = mine.append
        cache = ResultCache(str(tmp_path), on_error=handler)
        JobExecutor(scale=1 << 10, cache=cache, progress=lambda _m: None)
        assert cache.on_error is handler
        cache.on_error("kept")
        assert mine == ["kept"]

    def test_corruption_counts_in_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.stats()["corrupt_dropped"] == 0
        cache.put("cd" * 32, [1, 2])
        with open(cache._path("cd" * 32), "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get("cd" * 32) is None
        assert cache.corrupt_dropped == 1
        assert cache.stats()["corrupt_dropped"] == 1

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        """A torn write (empty file) is a miss, dropped and counted."""
        cache = ResultCache(str(tmp_path))
        cache.put("ef" * 32, {"x": 1})
        with open(cache._path("ef" * 32), "wb"):
            pass  # truncate to zero bytes
        assert cache.get("ef" * 32) is None
        assert not os.path.exists(cache._path("ef" * 32))
        assert cache.stats()["corrupt_dropped"] == 1
        # The slot is reusable after the drop.
        cache.put("ef" * 32, {"x": 2})
        assert cache.get("ef" * 32) == {"x": 2}

    def test_prune_keeps_live_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("aa" * 32, 1)
        cache.put("bb" * 32, 2)
        kept, removed = cache.prune(["aa" * 32])
        assert (kept, removed) == (1, 1)
        assert cache.get("aa" * 32) == 1

    def test_null_cache_stores_nothing(self):
        cache = NullCache()
        cache.put("x", 1)
        assert cache.get("x") is None
        assert not cache.enabled
        assert cache.stats()["corrupt_dropped"] == 0


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------

class TestTelemetry:
    def test_jsonl_records_and_summary(self, tmp_path):
        from repro.jobs import JobRecord, render_summary
        from repro.obs import read_trace
        path = str(tmp_path / "run.jsonl")
        writer = TelemetryWriter(path=path)
        writer.record(JobRecord(job_id="profile:a", kind="profile",
                                status="miss", wall_s=1.0,
                                worker_pid=11))
        writer.record(JobRecord(job_id="price:a/x", kind="price",
                                status="hit", cache_key="k1"))
        writer.record(JobRecord(job_id="price:a/y", kind="price",
                                status="miss", wall_s=0.5, retries=1,
                                worker_pid=11, error=""))
        writer.finish(workers=2, requests=3, start_s=0.0)
        # The ledger is a span trace: a header, one jobs.job span per
        # record, and a closing jobs.run span with the counts.
        lines = [json.loads(line)
                 for line in open(path).read().splitlines()]
        assert [line["event"] for line in lines] == \
            ["trace_start", "span", "span", "span", "span"]
        header, spans = read_trace(path)
        assert header["trace_id"] == writer.run_id
        assert [s.name for s in spans] == ["jobs.job"] * 3 + ["jobs.run"]
        assert spans[0].duration_s == 1.0
        assert spans[1].attrs["cache_key"] == "k1"
        assert spans[2].attrs["error"] == ""
        run = spans[-1]
        assert (run.attrs["workers"], run.attrs["requests"]) == (2, 3)
        assert (run.attrs["hit"], run.attrs["miss"]) == (1, 2)
        summary = summarize(path)
        assert summary["jobs"] == 3
        assert summary["by_status"] == {"hit": 1, "miss": 2,
                                        "skipped": 0, "failed": 0}
        # Run duration comes from the monotonic clock: it can never be
        # negative, even if the wall clock were stepped mid-run.
        assert run.duration_s >= 0.0
        assert summary["retries"] == 1
        assert summary["workers"] == 1
        assert summary["hit_rate"] == pytest.approx(1 / 3)
        text = render_summary(summary)
        assert "hit=1" in text and "profile:a" in text

    def test_records_mirror_into_active_tracer(self):
        from repro.jobs import JobRecord
        from repro.obs import TRACER
        TRACER.start()
        try:
            TelemetryWriter(path=None).record(JobRecord(
                job_id="price:a/x", kind="price", status="failed",
                wall_s=0.25, cache_key="k", error="boom"))
        finally:
            TRACER.stop()
        (span,) = TRACER.spans
        assert span.name == "jobs.job" and span.duration_s == 0.25
        assert span.attrs["cache_key"] == "k"
        assert span.attrs["error"] == "boom"

    def test_latest_telemetry_picks_newest(self, tmp_path):
        root = str(tmp_path)
        assert latest_telemetry(root) is None
        tdir = tmp_path / "telemetry"
        tdir.mkdir()
        old = tdir / "run-1.jsonl"
        new = tdir / "run-2.jsonl"
        old.write_text("{}\n")
        new.write_text("{}\n")
        os.utime(old, (1, 1))
        assert latest_telemetry(root) == str(new)


# ---------------------------------------------------------------------------
# Executor + orchestrator
# ---------------------------------------------------------------------------

REQUESTS = [RunRequest("dc", scheme, "arb") for scheme in
            ("push", "phi", "phi+spzip")]


class TestExecutor:
    def test_serial_executes_and_caches(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        telemetry = TelemetryWriter(path=None)
        executor = JobExecutor(scale=SCALE, jobs=1, cache=cache,
                               telemetry=telemetry)
        results = executor.run(list(REQUESTS))
        assert list(results) == REQUESTS  # deterministic order
        assert telemetry.cache_misses == len(REQUESTS) + 1  # + profile
        # One cell result per request, plus the staged pipeline's
        # artifacts: one stream/replay/compress for the shared profile
        # and one timing entry per cell.
        assert cache.stats()["entries"] == 2 * len(REQUESTS) + 3

    def test_warm_cache_skips_profiling(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        JobExecutor(scale=SCALE, jobs=1, cache=cache).run(
            list(REQUESTS))
        telemetry = TelemetryWriter(path=None)
        executor = JobExecutor(scale=SCALE, jobs=1, cache=cache,
                               telemetry=telemetry)
        warm = executor.run(list(REQUESTS))
        assert telemetry.cache_hits == len(REQUESTS)
        assert telemetry.cache_misses == 0
        statuses = {r.job_id: r.status for r in telemetry.records}
        assert statuses["profile:dc/arb/none"] == "skipped"
        cold = JobExecutor(scale=SCALE, jobs=1).run(list(REQUESTS))
        assert warm == cold

    def test_matches_plain_runner(self):
        from repro.sim.runner import Runner
        results = JobExecutor(scale=SCALE, jobs=1).run(list(REQUESTS))
        runner = Runner(scale=SCALE)
        for request, metrics in results.items():
            assert metrics == runner.run(request.app, request.scheme,
                                         request.dataset,
                                         request.preprocessing)

    def test_failure_raises_after_retries(self):
        executor = JobExecutor(scale=SCALE, jobs=1, retries=2)
        bad = [RunRequest("dc", "no-such-scheme", "arb")]
        with pytest.raises(JobExecutionError):
            executor.run(bad)
        statuses = [r for r in executor.telemetry.records
                    if r.status == "failed"]
        assert statuses and all(r.retries == 2 for r in statuses)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            JobExecutor(scale=SCALE, jobs=0)

    @pytest.mark.parametrize("knob", [{"timeout": 0.0},
                                      {"timeout": -1.0},
                                      {"retries": -1}],
                             ids=["timeout=0", "timeout<0", "retries<0"])
    def test_rejects_bad_timeout_and_retries(self, knob):
        with pytest.raises(ValueError):
            JobExecutor(scale=SCALE, jobs=2, **knob)

    def test_failed_run_leaves_its_ledger(self, tmp_path, capsys):
        """A run that raises still leaves its failed job records (and
        a closing jobs.run span) on disk for `repro jobs`."""
        from repro.cli import main
        from repro.obs import read_trace
        runner = Runner(scale=SCALE, jobs=1, retries=2,
                        cache_dir=str(tmp_path))
        with pytest.raises(JobExecutionError):
            runner.prefetch([RunRequest("dc", "no-such-scheme", "arb")])
        path = latest_telemetry(str(tmp_path))
        _header, spans = read_trace(path)
        failed = [s for s in spans if s.name == "jobs.job"
                  and s.attrs["status"] == "failed"]
        assert failed and all(s.attrs["retries"] == 2 for s in failed)
        assert all("no-such-scheme" in s.attrs["error"] for s in failed)
        assert [s.name for s in spans][-1] == "jobs.run"
        capsys.readouterr()
        assert main(["jobs", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"failed={len(failed)}" in out


class TestRunner:
    """Runner's job layer: prefetch, memo, cache, ledger."""

    def test_job_runner_is_runner(self):
        import repro.jobs
        import repro.sim
        assert repro.jobs.JobRunner is repro.sim.Runner

    def test_prefetch_then_run_hits_memory(self, tmp_path):
        runner = Runner(scale=SCALE, jobs=1, cache_dir=str(tmp_path))
        assert runner.prefetch(REQUESTS) == len(REQUESTS)
        metrics = runner.run("dc", "phi", "arb")
        assert metrics.scheme == "phi"
        summary = summarize(latest_telemetry(str(tmp_path)))
        assert summary["by_status"]["miss"] == len(REQUESTS) + 1

    def test_unplanned_run_falls_back_and_caches(self, tmp_path):
        runner = Runner(scale=SCALE, jobs=1, cache_dir=str(tmp_path))
        first = runner.run("dc", "ub", "arb")
        fresh = Runner(scale=SCALE, jobs=1, cache_dir=str(tmp_path))
        assert fresh.run("dc", "ub", "arb") == first
        records = fresh._telemetry.records
        assert [r.status for r in records] == ["hit"]

    def test_is_a_drop_in_runner(self):
        runner = Runner(scale=SCALE)
        workload = runner.workload("dc", "arb")
        assert runner.profiles("dc", "arb")
        assert runner.config_for(workload) == \
            runner.pricer.bundle("dc", "arb", "none").cfg


class TestPlans:
    def test_fig07_plan_covers_all_schemes(self):
        from repro.schemes import scheme_names
        requests = experiment_requests(["fig07"])
        assert {r.scheme for r in requests} == set(scheme_names("paper"))
        assert all(r.profile_key == ("bfs", "ukl", "none")
                   for r in requests)

    def test_plans_deduplicate_across_experiments(self):
        merged = experiment_requests(["fig15a", "fig15b"])
        assert len(merged) == len(set(merged))
        assert len(merged) == len(experiment_requests(["fig15a"]))

    def test_profile_only_experiments_have_empty_plans(self):
        assert experiment_requests(["table1", "fig21", "sorting"]) == []

    def test_fig19_plan_folds_parts_into_scheme(self):
        requests = experiment_requests(["fig19"])
        parted = [r for r in requests if "[parts=" in r.scheme]
        assert parted
        # Ablations are scheme identities now, not side-channel params.
        assert all(not r.params for r in requests)
        assert any(r.scheme == "phi+spzip[parts=adjacency]"
                   for r in parted)

    def test_fig20_plan_folds_decoupled_into_scheme(self):
        requests = experiment_requests(["fig20"])
        assert any(r.scheme == "phi+spzip[decoupled]" for r in requests)
        assert all(not r.params for r in requests)
