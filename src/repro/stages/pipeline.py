"""The stage-graph orchestrator: content-addressed incremental pricing.

:class:`StagePricer` prices (app, scheme, dataset, preprocessing) cells
through the four-stage pipeline — stream-gen → cache-replay → compress →
timing — persisting each stage's artifact in the content-addressed
result cache under a fingerprint of (stage code salt, upstream artifact
digests, stage-relevant config slice).  Editing the timing model or a
system knob like memory bandwidth therefore recomputes *only* the cheap
timing stage against frozen upstream artifacts; an LLC geometry change
reuses the streams; only a new input regenerates everything.

Chaining keys on upstream *content digests* (not keys) gives early
cutoff: a code edit that rotates a stage's salt but reproduces
byte-identical output leaves every downstream key intact.

Every lookup and computation is counted in a process-global counter
(surfaced through ``repro perf summary``, the executor's progress line,
and ``repro serve``'s ``/stats``) and traced as ``stage.<name>.hit`` /
``stage.<name>.computed`` spans.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import DEFAULT_SCALE, SystemConfig
from repro.jobs.cache import NullCache, StoreConfig
from repro.jobs.fingerprint import (
    artifact_digest,
    stage_config_slice,
    stage_fingerprint,
    stream_fingerprint,
)
from repro.memory.address import LINE_BYTES
from repro.obs import TRACER
from repro.runtime.traffic import IterationProfile, ModelConfig
from repro.runtime.workload import Workload
from repro.sim.metrics import RunMetrics
from repro.sim.runner import sized_model_config
from repro.stages.artifacts import StreamArtifact
from repro.stages.timing import (
    GraphDims,
    PricingView,
    assemble_profiles,
    price_staged,
)

#: Process-global per-stage counters: ``<stage>.hit`` (disk-cache hit),
#: ``<stage>.computed`` (ran the stage), ``<stage>.memo`` (served from
#: this pricer's in-memory bundle).  Global rather than per-instance so
#: pool workers and serve backends aggregate naturally; snapshot with
#: :func:`stage_counters`.
STAGE_COUNTERS: Counter = Counter()
_COUNTER_LOCK = threading.Lock()


def stage_counters() -> Dict[str, int]:
    """Snapshot of the process-global stage counters."""
    with _COUNTER_LOCK:
        return dict(STAGE_COUNTERS)


def reset_stage_counters() -> None:
    with _COUNTER_LOCK:
        STAGE_COUNTERS.clear()


def _count(event: str, n: int = 1) -> None:
    with _COUNTER_LOCK:
        STAGE_COUNTERS[event] += n


@dataclass
class ProfileBundle:
    """Everything the timing stage needs for one profile identity.

    Small by design: assembled profiles, the CMH ratio dict, the frozen
    Push replays, and the pricing view — the bulky stream/replay
    artifacts are transient (and on disk when a cache is attached).
    """

    profiles: List[IterationProfile]
    view: PricingView
    cfg: ModelConfig
    cmh_ratios: Dict[str, float]
    push_replays: List[Tuple[int, int]]
    #: stream/replay/compress digests (None from :func:`profile_bundle`)
    upstream: Optional[Tuple[str, str, str]]


class StagePricer:
    """Prices cells through the content-addressed stage pipeline."""

    def __init__(self, scale: int = DEFAULT_SCALE,
                 system: Optional[SystemConfig] = None,
                 cache=None,
                 store: Optional[StoreConfig] = None) -> None:
        self.scale = scale
        self.system = system if system is not None \
            else SystemConfig().scaled(scale)
        # One StoreConfig describes every store this pricer touches;
        # a bare ``cache=`` adopts that cache's root (compat path).
        if store is None:
            store = StoreConfig.from_cache(
                cache if cache is not None else NullCache())
        self.store = store
        self.partitions = max(1, store.stream_partitions)
        self.cache = cache if cache is not None else store.result_cache()
        # An on-disk root also hosts the shared graph store: every
        # worker process pointed at this root memory-maps one copy of
        # each generated graph instead of regenerating it.
        store.activate_graph_store()
        self._bundles: Dict[Tuple[str, str, str], ProfileBundle] = {}
        self._metrics: Dict[str, RunMetrics] = {}
        self._lock = threading.RLock()

    # -- stage evaluation ------------------------------------------------------

    def _evaluate(self, stage: str, key: str, compute, **attrs):
        """Disk-cache lookup, else compute + persist; counted, traced."""
        start = time.perf_counter()
        value = self.cache.get(key)
        if value is not None:
            _count(f"{stage}.hit")
            TRACER.manual_span(f"stage.{stage}.hit",
                               time.perf_counter() - start, **attrs)
            return value
        with TRACER.span(f"stage.{stage}.computed", **attrs):
            value = compute()
        self.cache.put(key, value)
        _count(f"{stage}.computed")
        return value

    def _fetch_partition(self, key: str, build):
        """Per-partition cache hook of the partitioned stream stage.

        Consulted only on a whole-stream-key miss (the warm-identical
        fast path never assembles partitions); a graph delta then hits
        every partition whose rows and active sources are unchanged.
        """
        part = self.cache.get(key)
        if part is not None:
            _count("stream.partition.hit")
            return part
        part = build()
        self.cache.put(key, part)
        _count("stream.partition.computed")
        return part

    def bundle(self, app: str, dataset: str,
               preprocessing: str = "none") -> ProfileBundle:
        """Run (or reuse) the three artifact stages for one identity."""
        ident = (app, dataset, preprocessing)
        with self._lock:
            cached = self._bundles.get(ident)
        if cached is not None:
            for stage in ("stream", "replay", "compress"):
                _count(f"{stage}.memo")
            return cached

        labels = {"app": app, "dataset": dataset,
                  "preprocessing": preprocessing}

        stream_key = stream_fingerprint(app, dataset, preprocessing,
                                        self.scale)
        stream: StreamArtifact = self._evaluate(
            "stream", stream_key,
            lambda: _generate(load_workload(app, dataset, preprocessing,
                                            self.scale),
                              self.partitions, self._fetch_partition),
            **labels)
        stream_digest = artifact_digest(stream)

        cfg = sized_model_config(self.system, self.scale,
                                 stream.num_vertices)

        replay_slice = stage_config_slice("replay", cfg)
        replay_key = stage_fingerprint("replay", [stream_digest],
                                       replay_slice)
        replay = self._evaluate(
            "replay", replay_key,
            lambda: _replay(stream, replay_slice), **labels)
        replay_digest = artifact_digest(replay)

        compress_slice = stage_config_slice("compress", cfg)
        compress_key = stage_fingerprint(
            "compress", [stream_digest, replay_digest], compress_slice)
        compress = self._evaluate(
            "compress", compress_key,
            lambda: _compress(stream, replay, cfg), **labels)
        compress_digest = artifact_digest(compress)

        bundle = _assemble(stream, replay, compress, cfg, app,
                           (stream_digest, replay_digest,
                            compress_digest))
        with self._lock:
            self._bundles[ident] = bundle
        return bundle

    # JobExecutor's profile jobs warm the shared prefix of a bar group.
    ensure = bundle

    # -- pricing ---------------------------------------------------------------

    def price(self, app: str, scheme, dataset: str,
              preprocessing: str = "none", **kwargs) -> RunMetrics:
        """Price one cell; only the timing stage sees scheme identity."""
        from repro.schemes import resolve
        spec = resolve(scheme, **kwargs)
        bundle = self.bundle(app, dataset, preprocessing)

        # Identity labels join the timing key because RunMetrics embeds
        # them — artifacts deliberately exclude labels so identical
        # streams dedup, but two labelled results must not collide.
        slice_ = dict(stage_config_slice("timing", bundle.cfg))
        slice_.update(app=app, dataset=dataset,
                      preprocessing=preprocessing,
                      scheme=spec.canonical())
        timing_key = stage_fingerprint("timing", bundle.upstream,
                                       slice_)
        with self._lock:
            memo = self._metrics.get(timing_key)
        if memo is not None:
            _count("timing.memo")
            return memo

        metrics = self._evaluate(
            "timing", timing_key,
            lambda: price_staged(spec, bundle.profiles, bundle.view,
                                 bundle.cfg, dataset, preprocessing,
                                 bundle.cmh_ratios,
                                 bundle.push_replays),
            app=app, scheme=spec.canonical(), dataset=dataset,
            preprocessing=preprocessing)
        with self._lock:
            self._metrics[timing_key] = metrics
        return metrics

    def stats(self) -> Dict[str, int]:
        return stage_counters()


def _generate(workload, partitions: int = 1,
              fetch=None) -> StreamArtifact:
    from repro.stages.streams import (
        generate_streams,
        generate_streams_partitioned,
    )
    if partitions > 1:
        return generate_streams_partitioned(workload, partitions, fetch)
    return generate_streams(workload)


def _replay(stream: StreamArtifact, replay_slice: Dict[str, object]):
    from repro.stages.replay import ReplaySlice, replay_streams
    return replay_streams(stream, ReplaySlice(**replay_slice))


def _compress(stream: StreamArtifact, replay, cfg: ModelConfig):
    from repro.stages.compress import compress_streams
    return compress_streams(stream, replay, cfg.id_scale,
                            cfg.sort_updates)


def load_workload(app: str, dataset: str, preprocessing: str,
                  scale: int) -> Workload:
    """Build the workload of one (app, dataset, preprocessing) identity.

    The one workload builder: :class:`StagePricer` calls it uncached
    (the stream stage keeps only the streams it extracts), and
    :meth:`repro.sim.Runner.workload` memoizes it for callers that
    inspect a workload directly.  ``sp`` carries its own synthetic
    matrices, so it ignores ``dataset`` and ``preprocessing``.
    """
    from repro.apps import build_workload
    from repro.graph.datasets import load_preprocessed
    with TRACER.span("runner.build_workload", app=app, dataset=dataset,
                     preprocessing=preprocessing):
        if app == "sp":
            return build_workload("sp", scale=scale)
        graph = load_preprocessed(dataset, preprocessing, scale)
        return build_workload(app, graph=graph)


def profile_bundle(workload: Workload, cfg: ModelConfig) -> ProfileBundle:
    """Stream → replay → compress → assemble for an explicit config.

    Uncached and unkeyed: for callers that price one workload under
    model configs of their own, like the LLC sweep's scaled caches
    (:mod:`repro.sim.sweeps`).  Pass the bundle's pieces to
    :func:`~repro.stages.timing.price_staged`.
    """
    stream = _generate(workload)
    replay = _replay(stream, stage_config_slice("replay", cfg))
    compress = _compress(stream, replay, cfg)
    return _assemble(stream, replay, compress, cfg, workload.app, None)


def _assemble(stream: StreamArtifact, replay, compress, cfg: ModelConfig,
              app: str, upstream: Optional[Tuple[str, str, str]]
              ) -> ProfileBundle:
    return ProfileBundle(
        profiles=assemble_profiles(stream, replay, compress,
                                   cfg.system.num_cores),
        view=PricingView(
            app=app, frontier_based=stream.frontier_based,
            dst_value_bytes=stream.dst_value_bytes,
            graph=GraphDims(num_vertices=stream.num_vertices)),
        cfg=cfg,
        cmh_ratios=compress.cmh_ratios,
        push_replays=[
            (rp.push_dest_misses, rp.push_dest_write_bytes // LINE_BYTES)
            for rp in replay.iterations],
        upstream=upstream,
    )
