"""Sensitivity sweeps over system parameters.

Not paper figures — response-surface tools a user of the model reaches
for next: how do the schemes respond to more memory bandwidth, a bigger
LLC, or more cores?  Each sweep reruns the scheme simulator with one
knob scaled, against shared workload profiles where possible: the
runner's memoized profile bundle, or — for the LLC sweep, whose points
change the cache replays — :func:`repro.stages.profile_bundle` per
point.  Every cell prices through
:func:`repro.stages.timing.price_staged`, the report cells' code.

The bandwidth sweep answers the paper's implicit question directly:
under scarce bandwidth every scheme is traffic-limited (advantage =
traffic ratio); as bandwidth grows, software Push hits its compute/stall
floor first, widening SpZip's lead until both saturate — at which point
extra bandwidth buys nothing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.sim.metrics import RunMetrics
from repro.sim.runner import Runner


def _price(bundle, scheme: str, cfg, dataset: str,
           preprocessing: str) -> RunMetrics:
    """One scheme against a bundle's profiles, under ``cfg``."""
    # Imported lazily: repro.stages and repro.schemes import repro.sim,
    # so module-level imports here would be circular.
    from repro.schemes import resolve
    from repro.stages.timing import price_staged
    return price_staged(resolve(scheme), bundle.profiles, bundle.view,
                        cfg, dataset, preprocessing, bundle.cmh_ratios,
                        bundle.push_replays)


def bandwidth_sweep(runner: Runner, app: str, dataset: str,
                    preprocessing: str = "none",
                    factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
                    schemes: Sequence[str] = ("push", "phi",
                                              "phi+spzip"),
                    ) -> List[Dict[str, object]]:
    """Rerun schemes with DRAM bandwidth scaled by each factor.

    Traffic profiles are bandwidth-independent, so they are shared; only
    the timing changes.
    """
    bundle = runner.pricer.bundle(app, dataset, preprocessing)
    cfg = bundle.cfg
    rows: List[Dict[str, object]] = []
    for factor in factors:
        memory = replace(cfg.system.memory,
                         gb_per_sec_per_controller=cfg.system.memory
                         .gb_per_sec_per_controller * factor)
        swept = replace(cfg, system=replace(cfg.system, memory=memory))
        runs = {scheme: _price(bundle, scheme, swept, dataset,
                               preprocessing)
                for scheme in schemes}
        row: Dict[str, object] = {"bandwidth_factor": factor}
        base = runs[schemes[0]]
        for scheme in schemes:
            row[scheme] = runs[scheme].speedup_over(base)
        rows.append(row)
    return rows


def llc_sweep(runner: Runner, app: str, dataset: str,
              preprocessing: str = "none",
              factors: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
              schemes: Sequence[str] = ("push", "phi+spzip"),
              ) -> List[Dict[str, object]]:
    """Rerun schemes with the model LLC scaled by each factor.

    Capacity changes the cache replays, so every point runs the stages
    afresh for its own config (the expensive sweep).
    """
    from repro.runtime.traffic import ModelConfig
    from repro.stages import profile_bundle
    workload = runner.workload(app, dataset, preprocessing)
    base_cfg = runner.config_for(workload)
    rows: List[Dict[str, object]] = []
    for factor in factors:
        granule = base_cfg.system.llc.ways * base_cfg.system.llc.line_bytes
        size = max(granule,
                   int(base_cfg.system.llc.size_bytes * factor)
                   // granule * granule)
        llc = replace(base_cfg.system.llc, size_bytes=size)
        system = replace(base_cfg.system, llc=llc)
        cfg = ModelConfig(system=system, id_scale=base_cfg.id_scale)
        bundle = profile_bundle(workload, cfg)
        runs = {scheme: _price(bundle, scheme, cfg, dataset,
                               preprocessing)
                for scheme in schemes}
        row: Dict[str, object] = {"llc_factor": factor,
                                  "llc_bytes": size}
        base = runs[schemes[0]]
        for scheme in schemes:
            row[scheme] = runs[scheme].speedup_over(base)
        rows.append(row)
    return rows


def core_sweep(runner: Runner, app: str, dataset: str,
               preprocessing: str = "none",
               counts: Sequence[int] = (4, 8, 16, 32),
               scheme: str = "push") -> List[Dict[str, object]]:
    """Scale core count; shows where each scheme stops scaling (the
    compute-vs-bandwidth crossover)."""
    bundle = runner.pricer.bundle(app, dataset, preprocessing)
    cfg = bundle.cfg
    rows: List[Dict[str, object]] = []
    base_cycles: Optional[float] = None
    for count in counts:
        # Profiles stay assembled at the base core count: only the
        # timing model sees the swept count.
        swept = replace(cfg, system=replace(cfg.system, num_cores=count))
        run = _price(bundle, scheme, swept, dataset, preprocessing)
        if base_cycles is None:
            base_cycles = run.cycles
        rows.append({"cores": count,
                     "speedup": base_cycles / run.cycles,
                     "bound": "memory" if run.bandwidth_bound
                     else "core"})
    return rows
