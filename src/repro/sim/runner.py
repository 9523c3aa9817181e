"""The experiment runner: app x scheme x dataset x preprocessing.

One stop for the harness, the CLI and the sweeps: a thin facade over
one :class:`~repro.stages.StagePricer`, the single pricing path.
:meth:`Runner.run` prices a cell through the four stages, and
:meth:`Runner.profiles` returns the assembled iteration profiles of an
input.  The pricer memoizes one small profile bundle per (app, dataset,
preprocessing), so the six schemes of a Fig 15 bar group share a
single stream/replay/compress pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import DEFAULT_SCALE, SystemConfig
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
    """Simulation front end over one :class:`~repro.stages.StagePricer`.

    The plain runner prices with no disk store (``NullCache``);
    :class:`~repro.jobs.JobRunner` swaps in the job executor's
    per-process pricer and a content-addressed cache.
    """

    def __init__(self, scale: int = DEFAULT_SCALE,
                 system: Optional[SystemConfig] = None) -> None:
        self.scale = scale
        self.system = system if system is not None \
            else SystemConfig().scaled(scale)
        self._pricer = None
        self._workloads: Dict[Tuple[str, str, str], Workload] = {}

    @property
    def pricer(self):
        """The :class:`~repro.stages.StagePricer` every cell prices on."""
        if self._pricer is None:
            from repro.stages import StagePricer
            self._pricer = StagePricer(scale=self.scale,
                                       system=self.system)
        return self._pricer

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

    def run(self, app: str, scheme, dataset: str,
            preprocessing: str = "none", **kwargs) -> RunMetrics:
        """Simulate one configuration.

        ``scheme`` is a name (including ablation brackets, e.g.
        ``phi+spzip[parts=adjacency]``) or a
        :class:`~repro.schemes.SchemeSpec`; kwargs feed the legacy
        ablation knobs (``parts``, ``decoupled_only``).
        """
        from repro.schemes import resolve
        spec = resolve(scheme, **kwargs)
        # One span per (app, scheme, input) cell, tagged with the
        # canonical SchemeSpec string — the unit the paper's sweep (and
        # `repro perf diff`) attributes wall time to.
        with TRACER.span("runner.cell", app=app,
                         scheme=spec.canonical(), dataset=dataset,
                         preprocessing=preprocessing):
            with TRACER.span("runner.price"):
                return self.pricer.price(app, spec, dataset,
                                         preprocessing)

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
