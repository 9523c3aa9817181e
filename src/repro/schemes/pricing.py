"""Price one (spec, profiles) combination into :class:`RunMetrics`.

:func:`simulate_spec` is the single pricing entry point: it looks up the
spec's cost model and constants, accumulates weighted per-iteration
traffic and work, and runs the bottleneck timing model.  The CMH overlay
takes a separate loop because it prices against measured BDI/LCP
compression ratios of the workload's actual arrays (measured by the
compress stage) and the Push scatter's frozen LLC replays, rather than
SpZip's profile-side compressed byte counts.

:func:`simulate_scheme` is the string-accepting wrapper (resolves
through the registry first), kept for callers that hold scheme names.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.compression import bdi_line_sizes
from repro.memory.address import LINE_BYTES
from repro.memory.compressed import LCP_SLOT_SIZES, PAGE_BYTES
from repro.obs import TRACER
import repro.schemes.costs as _costs
from repro.schemes.registry import resolve
from repro.schemes.spec import SchemeSpec
from repro.sim.metrics import RunMetrics, merge_traffic
from repro.sim.timing import PhaseWork, phase_cycles


def simulate_spec(workload, profiles, spec: SchemeSpec, cfg,
                  dataset: str = "?", preprocessing: str = "?",
                  ratios: Optional[Dict[str, float]] = None,
                  replays: Optional[List[Tuple[int, int]]] = None
                  ) -> RunMetrics:
    """Cost one (spec, workload) combination.

    ``workload`` needs only the attributes the cost models read (a
    :class:`~repro.stages.timing.PricingView` suffices).  CMH specs
    also need ``ratios`` and ``replays`` (see :func:`_simulate_cmh`),
    which the staged pipeline's compress and replay artifacts carry.
    """
    if spec.cmh:
        if ratios is None or replays is None:
            raise ValueError(
                f"{spec.canonical()} prices from measured BDI/LCP ratios "
                f"and Push scatter replays; price it through "
                f"repro.stages (StagePricer or profile_bundle)")
        with TRACER.span("pricing.cmh", scheme=spec.canonical()):
            return _simulate_cmh(workload, profiles, spec, cfg, dataset,
                                 preprocessing, ratios, replays)
    with TRACER.span("pricing.price", scheme=spec.canonical()):
        return _price_spec(workload, profiles, spec, cfg, dataset,
                           preprocessing)


def _price_spec(workload, profiles, spec: SchemeSpec, cfg,
                dataset: str, preprocessing: str) -> RunMetrics:
    model = _costs.cost_model_for(spec)
    costs = _costs.costs_for(spec)
    parts = spec.effective_parts

    traffic_parts: List[Dict[str, float]] = []
    work = PhaseWork()
    for p in profiles:
        t, w = model.iteration_cost(workload, p, parts)
        traffic_parts.append({cls: v * p.weight for cls, v in t.items()})
        # Instruction work stretches by the work-stealing imbalance of
        # this iteration's active set (Sec III-D).  Miss stalls do not:
        # while one core sits in a long-latency chunk, the others steal
        # around it, so stalls pipeline across the chunk population.
        # Traffic is unaffected by scheduling.
        stretch = p.weight * p.load_imbalance
        w_scaled = PhaseWork(
            edges=w.edges * stretch,
            vertices=w.vertices * stretch,
            updates=w.updates * stretch,
            dest_misses=w.dest_misses * p.weight,
            seq_bytes=w.seq_bytes * p.weight,
            rand_bytes=w.rand_bytes * p.weight,
        )
        work.add(w_scaled)

    traffic = merge_traffic(traffic_parts)
    cycles, compute, memory = phase_cycles(work, costs, cfg.system)
    return RunMetrics(app=workload.app, scheme=spec.display,
                      dataset=dataset, preprocessing=preprocessing,
                      cycles=cycles, compute_cycles=compute,
                      memory_cycles=memory, traffic=traffic)


def simulate_scheme(workload, profiles, scheme: Union[str, SchemeSpec],
                    cfg, parts: Optional[frozenset] = None,
                    decoupled_only: bool = False, dataset: str = "?",
                    preprocessing: str = "?") -> RunMetrics:
    """String/spec-accepting wrapper around :func:`simulate_spec`.

    ``parts`` restricts which structures SpZip compresses (Fig 19);
    ``decoupled_only`` keeps SpZip's offload but disables compression
    entirely (Fig 20).  Unknown schemes raise
    :class:`~repro.schemes.spec.UnknownSchemeError` naming every
    registered scheme.
    """
    spec = resolve(scheme, parts=parts, decoupled_only=decoupled_only)
    return simulate_spec(workload, profiles, spec, cfg, dataset=dataset,
                         preprocessing=preprocessing)


# --------------------------------------------------------------------------
# Compressed memory hierarchy baseline (Fig 22)
# --------------------------------------------------------------------------

def _bdi_ratio(data: bytes) -> float:
    """Average BDI compression ratio over 64-byte lines of ``data``.

    Every line counts, including a trailing partial line (zero-padded,
    like the line-granular memory that stores it) — previously the tail
    of a non-line-multiple buffer was silently dropped, and sub-line
    buffers degenerated to 1.0.
    """
    if not data:
        return 1.0
    sizes = bdi_line_sizes(data)
    return float(sizes.size * LINE_BYTES) / float(sizes.sum())


#: Lines per LCP page (4 KiB / 64 B).
_LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES


def _lcp_fetch_ratio(data: bytes) -> float:
    """Mean LCP traffic reduction: per 4 KB page, every line is stored
    at the smallest uniform slot that fits the page's *worst* line.

    Vectorized over the whole buffer (one BDI sweep + per-page max);
    a trailing partial line is zero-padded, matching :func:`_bdi_ratio`.
    """
    if not data:
        return 1.0
    sizes = bdi_line_sizes(data)
    pad = (-sizes.size) % _LINES_PER_PAGE
    if pad:
        # Missing lines of a partial final page cannot raise its worst.
        sizes = np.concatenate([sizes, np.zeros(pad, dtype=sizes.dtype)])
    worst = sizes.reshape(-1, _LINES_PER_PAGE).max(axis=1)
    slots = np.full(worst.shape, LINE_BYTES, dtype=np.int64)
    for candidate in reversed(LCP_SLOT_SIZES):
        slots[worst <= candidate] = candidate
    return float(np.mean(LINE_BYTES / slots))


def _simulate_cmh(workload, profiles, spec: SchemeSpec, cfg,
                  dataset: str, preprocessing: str,
                  ratios: Dict[str, float],
                  replays: List[Tuple[int, int]]) -> RunMetrics:
    """Push/UB on the VSC+BDI LLC + LCP memory system (Sec V-D).

    ``ratios`` are the BDI/LCP ratios of the workload's actual arrays
    (the compress stage's ``cmh_ratios``) and ``replays`` one Push
    scatter ``(misses, writebacks)`` per profile (the replay stage's),
    so no iteration stream is re-replayed here.
    """
    model = _costs.cost_model_for(spec)
    costs = _costs.costs_for(spec)
    # VSC's extra residency for scattered read-modify-write data is
    # modelled as nil: every update changes the line's compressed size,
    # forcing repacks that erode the capacity win, and at model scale the
    # per-input LLC sizing sits at the residency knee where any capacity
    # delta would be wildly amplified (a scale artifact, not a mechanism
    # — see DESIGN.md).  CMH's modelled benefits are LCP's read-traffic
    # reduction, at the price of critical-path decompression — so the
    # Push scatter replays at the plain LLC capacity.

    traffic_parts: List[Dict[str, float]] = []
    work = PhaseWork()
    for p, replay in zip(profiles, replays):
        t, w = model.cmh_iteration_cost(workload, p, ratios, replay)
        traffic_parts.append({cls: v * p.weight for cls, v in t.items()})
        scaled = PhaseWork(**{f: getattr(w, f) * p.weight
                              for f in ("edges", "vertices", "updates",
                                        "dest_misses", "seq_bytes",
                                        "rand_bytes")})
        work.add(scaled)

    traffic = merge_traffic(traffic_parts)
    cycles, compute, memory = phase_cycles(work, costs, cfg.system)
    return RunMetrics(app=workload.app, scheme=spec.display,
                      dataset=dataset, preprocessing=preprocessing,
                      cycles=cycles, compute_cycles=compute,
                      memory_cycles=memory, traffic=traffic,
                      extras=ratios)
