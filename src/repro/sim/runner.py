"""The experiment runner: app x scheme x dataset x preprocessing.

One front end for the harness, the CLI, the sweeps and the benchmarks,
over the single pricing path (:class:`~repro.stages.StagePricer`) and
the job layer (:mod:`repro.jobs`).  :meth:`Runner.run` serves a cell
from prefetched results, else the disk cache, else the staged pricer
bound to the same store.  That pricer is the job executor's
per-process one, so ``run``, ``profiles`` and in-process job groups
share one profile bundle per (app, dataset, preprocessing).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.config import DEFAULT_SCALE, SystemConfig
from repro.jobs.cache import NullCache, ResultCache, StoreConfig
from repro.jobs.fingerprint import job_fingerprint
from repro.jobs.model import (
    RunRequest,
    build_job_graph,
    canonical_request,
    params_to_kwargs,
)
from repro.jobs.telemetry import (
    JobRecord,
    TelemetryWriter,
    default_telemetry_path,
)
from repro.obs import TRACER
from repro.runtime.traffic import IterationProfile, ModelConfig
from repro.runtime.workload import Workload
from repro.sim.metrics import RunMetrics


#: Model-LLC sizing: fraction of the 4-byte destination array the scaled
#: LLC can hold.  Real web graphs concentrate in-links on mega-hubs far
#: more than a small synthetic can (duplicate edges collapse at small
#: vertex counts), so a fixed linear LLC scale-down would not land in the
#: paper's hot-working-set residency regime; instead the model LLC is
#: sized per input to preserve that regime (see DESIGN.md Substitutions).
LLC_DEST_RESIDENCY = 0.85


def sized_model_config(system: SystemConfig, scale: int,
                       num_vertices: int) -> ModelConfig:
    """Model config with the LLC sized for one input (see above).

    Pure function of (system, scale, vertex count).  The staged pricing
    pipeline (:mod:`repro.stages`) fingerprints the *resolved* LLC
    geometry, so any change to this sizing logic flows into stage cache
    keys through the values it produces.
    """
    from dataclasses import replace
    target = int(LLC_DEST_RESIDENCY * num_vertices * 4)
    granule = system.llc.ways * system.llc.line_bytes
    size = max(granule * 4, (target // granule) * granule)
    llc = replace(system.llc, size_bytes=size)
    return ModelConfig(system=replace(system, llc=llc), id_scale=scale)


class Runner:
    """Memoizing simulation front end over the job layer.

    The defaults price in-process with no disk store.  ``cache_dir``
    adds the result/stage store and a job ledger under
    ``<cache_dir>/telemetry/`` (or ``telemetry_path``); the other job
    arguments configure the executor :meth:`prefetch` runs.
    """

    def __init__(self, scale: int = DEFAULT_SCALE,
                 system: Optional[SystemConfig] = None, jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 telemetry_path: Optional[str] = None,
                 timeout: Optional[float] = None, retries: int = 1,
                 progress: Optional[Callable[[str], None]] = None,
                 partitions: int = 1) -> None:
        self.scale = scale
        self.system = system if system is not None \
            else SystemConfig().scaled(scale)
        self.jobs = jobs
        self.partitions = partitions
        self.cache = ResultCache(cache_dir) if cache_dir else \
            NullCache()
        if telemetry_path is None and cache_dir:
            telemetry_path = default_telemetry_path(cache_dir)
        self.telemetry_path = telemetry_path
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self._results: Dict[RunRequest, RunMetrics] = {}
        self._telemetry: Optional[TelemetryWriter] = None
        self._workloads: Dict[Tuple[str, str, str], Workload] = {}

    @property
    def pricer(self):
        """The job executor's per-process
        :class:`~repro.stages.StagePricer` for this model and store."""
        from repro.jobs.executor import _pricer_for
        return _pricer_for(self.scale, self.system,
                           StoreConfig.from_cache(
                               self.cache,
                               stream_partitions=self.partitions))

    def config_for(self, workload: Workload) -> ModelConfig:
        """Model config with the LLC sized for this input (see above)."""
        return sized_model_config(self.system, self.scale,
                                  workload.graph.num_vertices)

    # -- building blocks -------------------------------------------------------

    def workload(self, app: str, dataset: str,
                 preprocessing: str = "none") -> Workload:
        """The input's workload, memoized for callers that inspect it
        directly (pricing never needs it kept alive)."""
        from repro.stages import load_workload
        key = (app, dataset, preprocessing)
        if key not in self._workloads:
            self._workloads[key] = load_workload(app, dataset,
                                                 preprocessing, self.scale)
        return self._workloads[key]

    def profiles(self, app: str, dataset: str,
                 preprocessing: str = "none") -> List[IterationProfile]:
        """Assembled iteration profiles of one input (the pricer's
        memoized bundle)."""
        return self.pricer.bundle(app, dataset, preprocessing).profiles

    # -- simulation -------------------------------------------------------------

    def _writer(self) -> TelemetryWriter:
        """The one job ledger of every prefetch/run of this runner."""
        if self._telemetry is None:
            self._telemetry = TelemetryWriter(path=self.telemetry_path)
        return self._telemetry

    def prefetch(self, requests: Iterable[RunRequest]) -> int:
        """Execute (or load from cache) a batch of requests up front;
        returns the number of requests now resident in memory."""
        todo = [r for r in requests if r not in self._results]
        if todo:
            from repro.jobs.executor import JobExecutor
            executor = JobExecutor(
                scale=self.scale, system=self.system, jobs=self.jobs,
                cache=self.cache, telemetry=self._writer(),
                timeout=self.timeout, retries=self.retries,
                progress=self.progress, partitions=self.partitions)
            self._results.update(executor.run(todo))
        return len(self._results)

    def run(self, app: str, scheme, dataset: str,
            preprocessing: str = "none", **kwargs) -> RunMetrics:
        """Simulate one configuration.

        ``scheme`` is a name (including ablation brackets, e.g.
        ``phi+spzip[parts=adjacency]``) or a
        :class:`~repro.schemes.SchemeSpec`; the legacy ablation kwargs
        (``parts``, ``decoupled_only``) fold into the canonical scheme
        name, so both spellings share one memo entry and cache key.
        """
        request = canonical_request(app, scheme, dataset, preprocessing,
                                    **kwargs)
        hit = self._results.get(request)
        if hit is not None:
            return hit
        # One span per (app, scheme, input) cell, tagged with the
        # canonical SchemeSpec string — the unit the paper's sweep (and
        # `repro perf diff`) attributes wall time to.
        with TRACER.span("runner.cell", app=app, scheme=request.scheme,
                         dataset=dataset, preprocessing=preprocessing):
            graph = build_job_graph([request])
            job = graph.jobs[graph.request_jobs[request]]
            key = job_fingerprint(job, self.scale, self.system)
            metrics = self.cache.get(key)
            status = "hit"
            if metrics is None:  # frozen stage artifacts still reused
                with TRACER.span("runner.price"):
                    metrics = self.pricer.price(
                        app, request.scheme, dataset, preprocessing,
                        **params_to_kwargs(request.params))
                self.cache.put(key, metrics)
                status = "miss"
        if self.telemetry_path:
            self._writer().record(JobRecord(
                job_id=job.job_id, kind="price", status=status,
                app=app, dataset=dataset, preprocessing=preprocessing,
                scheme=request.scheme, cache_key=key))
        self._results[request] = metrics
        return metrics

    def run_all_schemes(self, app: str, dataset: str,
                        preprocessing: str = "none",
                        schemes=None) -> Dict[str, RunMetrics]:
        """Run one app against a set of schemes.

        ``schemes`` is a registry group name (``"paper"``, ``"cmh"``,
        ``"extensions"``, ``"all"``), an iterable of scheme
        names/specs, or ``None`` for the paper's six schemes.  Keys of
        the result are the scheme names as given (canonical form for
        specs).
        """
        from repro.schemes import SchemeSpec, scheme_names
        if schemes is None:
            schemes = scheme_names("paper")
        elif isinstance(schemes, str):
            schemes = scheme_names(schemes)
        out: Dict[str, RunMetrics] = {}
        for scheme in schemes:
            key = scheme.canonical() if isinstance(scheme, SchemeSpec) \
                else str(scheme)
            out[key] = self.run(app, scheme, dataset, preprocessing)
        return out
