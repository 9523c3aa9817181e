"""The frozen monolithic pricing path: the parity suites' reference.

Before the staged pipeline (:mod:`repro.stages`) became the only
pricing path, every cell was priced in one pass: build the workload,
profile each recorded iteration (:func:`profile_workload`), then cost
the scheme against those profiles (:func:`simulate_spec`).  That path
is kept here, frozen, so the parity suites can hold the staged path
bit-identical to it:

* :func:`profile_iteration` / :func:`profile_workload` — the vectorized
  monolithic profiler, moved verbatim from ``repro.runtime.traffic``
  (with its ``id(graph)``-keyed transpose memo);
* :func:`cmh_ratios` — the CMH baseline's BDI/LCP sweep of a workload's
  arrays, and :func:`simulate_spec`, which prices CMH cells by
  replaying the Push scatter in place;
* :class:`OracleRunner` — the memoizing runner over both;
* :func:`bandwidth_sweep` / :func:`llc_sweep` / :func:`core_sweep` —
  the sensitivity sweeps as they priced on this path.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SystemConfig
from repro.graph.csr import CsrGraph
from repro.graph.datasets import load_preprocessed
from repro.graph.idspace import expand_ids
from repro.memory.address import LINE_BYTES
from repro.obs import TRACER
from repro.runtime.traffic import (
    IterationProfile,
    ModelConfig,
    array_compressed_bytes,
    chunked_ids_values_compressed,
    lru_scatter_replay,
    phi_coalesce_replay,
    rows_compressed_bytes_from,
)
from repro.runtime.traffic_array import (
    ceil_lines,
    gather_row_stream,
    pull_gather_lines,
    push_scatter_lines,
    row_line_bytes,
    scattered_line_bytes,
    ub_bin_stream,
)
from repro.runtime.workload import Iteration, Workload
from repro.schemes.pricing import _bdi_ratio, _lcp_fetch_ratio
from repro.sim.metrics import RunMetrics
from repro.sim.runner import sized_model_config


# --------------------------------------------------------------------------
# Graph-accepting helpers
# --------------------------------------------------------------------------

def gather_rows(graph: CsrGraph, sources: np.ndarray) -> np.ndarray:
    """The sources' neighbour ids, back to back, fully vectorized."""
    return gather_row_stream(graph.offsets, graph.neighbors,
                             graph.out_degrees(), sources,
                             graph.num_vertices)


def rows_compressed_bytes(graph: CsrGraph, sources: np.ndarray,
                          id_scale: int) -> int:
    """Measured per-row delta-compressed size of the sources' rows.

    Per-row raw fallback applies (a row never costs more than raw + one
    flag byte), matching real formats like Ligra+ byte codes.
    """
    deg = graph.out_degrees()[sources]
    if not np.any(deg > 0):
        return 0
    return rows_compressed_bytes_from(gather_rows(graph, sources), deg,
                                      id_scale)


def _row_line_bytes(graph: CsrGraph, sources: np.ndarray,
                    elem_bytes: int = 4) -> int:
    """Line-granular bytes to fetch the sources' neighbour rows."""
    return row_line_bytes(graph.offsets, graph.num_vertices,
                          graph.num_edges, sources, elem_bytes)


_scattered_line_bytes = scattered_line_bytes
_ceil_lines = ceil_lines


# --------------------------------------------------------------------------
# The profile builder
# --------------------------------------------------------------------------

def profile_iteration(workload: Workload, iteration: Iteration,
                      cfg: ModelConfig) -> IterationProfile:
    """Measure one iteration's memory quantities (see module docstring)."""
    with TRACER.span("profile.iteration", app=workload.app):
        return _profile_iteration(workload, iteration, cfg)


def _profile_iteration(workload: Workload, iteration: Iteration,
                       cfg: ModelConfig) -> IterationProfile:
    graph = workload.graph
    sources = iteration.sources
    degrees = graph.out_degrees()
    num_edges = int(degrees[sources].sum())
    all_active = sources.size >= graph.num_vertices

    # --- adjacency -------------------------------------------------------
    if all_active:
        offsets_bytes = _ceil_lines((graph.num_vertices + 1) * 8)
    else:
        offsets_bytes = _scattered_line_bytes(sources, 8)
    neigh_bytes = _row_line_bytes(graph, sources)
    neigh_comp = rows_compressed_bytes(graph, sources, cfg.id_scale)
    neigh_bytes_compressed = min(_ceil_lines(neigh_comp), neigh_bytes)

    edge_values = workload.extras.get("edge_values")
    if edge_values is not None:
        edge_value_bytes = _ceil_lines(num_edges * edge_values.dtype.itemsize)
        edge_value_bytes_compressed = _ceil_lines(
            array_compressed_bytes(edge_values))
    else:
        edge_value_bytes = 0
        edge_value_bytes_compressed = 0

    # --- source vertex data ----------------------------------------------
    svb = workload.src_value_bytes
    if svb == 0:
        src_bytes = src_bytes_compressed = 0
    elif all_active:
        src_bytes = _ceil_lines(graph.num_vertices * svb)
        src_bytes_compressed = min(
            _ceil_lines(array_compressed_bytes(iteration.src_values)),
            src_bytes)
    else:
        src_bytes = _scattered_line_bytes(sources, svb)
        # Scattered accesses cannot use compressed layouts (Sec II-C).
        src_bytes_compressed = src_bytes

    # --- frontier -----------------------------------------------------------
    if workload.frontier_based:
        frontier_raw = _ceil_lines(sources.size * 4) * 2  # write + read
        frontier_comp = chunked_ids_values_compressed(
            sources.astype(np.uint32), np.empty(0, dtype=np.uint32),
            cfg.id_scale, sort=cfg.sort_updates)
        frontier_bytes = frontier_raw
        frontier_bytes_compressed = min(2 * _ceil_lines(frontier_comp),
                                        frontier_raw)
    else:
        frontier_bytes = frontier_bytes_compressed = 0

    # --- Push destination scatter ---------------------------------------------
    dvb = workload.dst_value_bytes
    dsts = gather_rows(graph, sources)
    dst_lines = push_scatter_lines(dsts, dvb)
    with TRACER.span("replay.push_scatter", count=int(dst_lines.size)):
        misses, writebacks = lru_scatter_replay(dst_lines,
                                                cfg.llc_lines)
    push_dest_read_bytes = misses * LINE_BYTES
    push_dest_write_bytes = writebacks * LINE_BYTES

    # --- Update Batching ---------------------------------------------------------
    vpb = cfg.vertices_per_bin(dvb)
    num_bins = max(1, -(-graph.num_vertices // vpb))
    update_bytes = _ceil_lines(num_edges * workload.update_bytes)
    upd_vals = iteration.update_values
    sorted_ids, sorted_vals, touched_bins = ub_bin_stream(dsts, upd_vals,
                                                          vpb)
    update_bytes_compressed_unsorted = _ceil_lines(
        chunked_ids_values_compressed(sorted_ids, sorted_vals,
                                      cfg.id_scale, sort=False))
    if cfg.sort_updates:
        # The order-insensitive sort shrinks ids but permutes payloads;
        # the runtime keeps whichever orientation compresses better for
        # the structure (a static per-app choice, like best-of codecs).
        update_bytes_compressed = min(
            _ceil_lines(chunked_ids_values_compressed(
                sorted_ids, sorted_vals, cfg.id_scale, sort=True)),
            update_bytes_compressed_unsorted)
    else:
        update_bytes_compressed = update_bytes_compressed_unsorted
    ub_dest_raw = min(_ceil_lines(graph.num_vertices * dvb),
                      touched_bins * vpb * dvb)
    ub_dest_bytes = 2 * ub_dest_raw  # read + write per pass
    dst_comp = array_compressed_bytes(workload.dst_values)
    dst_total_raw = max(1, graph.num_vertices * dvb)
    ub_dest_bytes_compressed = int(ub_dest_bytes
                                   * min(1.0, dst_comp / dst_total_raw))

    # --- PHI -----------------------------------------------------------------
    with TRACER.span("replay.phi_coalesce", count=int(dsts.size)):
        spilled_ids, spilled_vals, spilled_lines = phi_coalesce_replay(
            dsts.astype(np.int64), upd_vals if upd_vals.size == dsts.size
            else np.empty(0), dvb, cfg.llc_lines)
    # Evicted lines write their *update entries* into bins (Sec II-D),
    # which are later read back during accumulation.
    phi_update_bytes = 2 * _ceil_lines(spilled_ids.size
                                       * workload.update_bytes)
    if upd_vals.size == dsts.size and upd_vals.dtype.itemsize <= 8 \
            and spilled_vals.size:
        spill_payload = spilled_vals.astype(
            np.dtype(f"u{upd_vals.dtype.itemsize}") if
            upd_vals.dtype.itemsize in (4, 8) else np.uint64)
    else:
        spill_payload = np.empty(0, dtype=np.uint32)
    phi_comp = chunked_ids_values_compressed(
        spilled_ids, spill_payload, cfg.id_scale, sort=cfg.sort_updates)
    phi_update_bytes_compressed = min(2 * _ceil_lines(phi_comp),
                                      phi_update_bytes)

    # --- Pull (destination-stationary) gather --------------------------------
    pull_gather_misses = 0
    pull_gather_read_bytes = 0
    pull_adj_bytes = 0
    pull_adj_bytes_comp = 0
    if all_active and workload.src_value_bytes:
        transposed = _transpose_of(graph)
        gather_lines = pull_gather_lines(transposed.neighbors,
                                         workload.src_value_bytes)
        with TRACER.span("replay.pull_gather",
                         count=int(gather_lines.size)):
            pull_gather_misses, _wb = lru_scatter_replay(gather_lines,
                                                         cfg.llc_lines)
        pull_gather_read_bytes = pull_gather_misses * LINE_BYTES
        pull_adj_bytes = _row_line_bytes(
            transposed, np.arange(transposed.num_vertices))
        pull_adj_bytes_comp = min(
            _ceil_lines(rows_compressed_bytes(
                transposed, np.arange(transposed.num_vertices),
                cfg.id_scale)),
            pull_adj_bytes)

    return IterationProfile(
        weight=iteration.weight,
        num_sources=int(sources.size),
        num_edges=num_edges,
        offsets_bytes=offsets_bytes,
        neigh_bytes=neigh_bytes,
        neigh_bytes_compressed=neigh_bytes_compressed,
        edge_value_bytes=edge_value_bytes,
        edge_value_bytes_compressed=edge_value_bytes_compressed,
        src_bytes=src_bytes,
        src_bytes_compressed=src_bytes_compressed,
        frontier_bytes=frontier_bytes,
        frontier_bytes_compressed=frontier_bytes_compressed,
        push_dest_read_bytes=push_dest_read_bytes,
        push_dest_write_bytes=push_dest_write_bytes,
        push_dest_misses=misses,
        num_bins=num_bins,
        update_bytes=update_bytes,
        update_bytes_compressed=update_bytes_compressed,
        update_bytes_compressed_unsorted=update_bytes_compressed_unsorted,
        ub_dest_bytes=ub_dest_bytes,
        ub_dest_bytes_compressed=ub_dest_bytes_compressed,
        phi_spilled_updates=int(spilled_ids.size),
        phi_update_bytes=phi_update_bytes,
        phi_update_bytes_compressed=phi_update_bytes_compressed,
        pull_gather_misses=pull_gather_misses,
        pull_gather_read_bytes=pull_gather_read_bytes,
        pull_adj_bytes=pull_adj_bytes,
        pull_adj_bytes_compressed=pull_adj_bytes_comp,
        load_imbalance=_iteration_imbalance(degrees[sources],
                                            cfg.system.num_cores),
    )


def _iteration_imbalance(active_degrees: np.ndarray,
                         num_cores: int) -> float:
    from repro.runtime.scheduling import iteration_imbalance
    return iteration_imbalance(active_degrees, num_cores=num_cores)


#: Transposes are expensive; graphs are memoized by the dataset loader,
#: so caching by object id is safe for a session.
_TRANSPOSE_CACHE: Dict[int, CsrGraph] = {}


def _transpose_of(graph: CsrGraph) -> CsrGraph:
    key = id(graph)
    if key not in _TRANSPOSE_CACHE:
        _TRANSPOSE_CACHE[key] = graph.transpose()
    return _TRANSPOSE_CACHE[key]


def profile_workload(workload: Workload,
                     cfg: ModelConfig) -> List[IterationProfile]:
    """Profile every recorded iteration."""
    return [profile_iteration(workload, it, cfg)
            for it in workload.iterations]


#: Per-(graph, scale) memo: one BDI/LCP sweep per workload's arrays.
_CMH_CACHE: Dict[tuple, Dict[str, float]] = {}


def cmh_ratios(workload, cfg) -> Dict[str, float]:
    """Measured BDI/LCP ratios of the workload's actual arrays."""
    graph = workload.graph
    key = (id(graph), workload.app, cfg.id_scale)
    if key in _CMH_CACHE:
        return _CMH_CACHE[key]
    adj_bytes = expand_ids(graph.neighbors, cfg.id_scale).astype(
        np.uint32).tobytes()
    if workload.dst_values is not None and workload.dst_values.size:
        dst_bytes = np.ascontiguousarray(workload.dst_values).tobytes()
    else:
        dst_bytes = b""
    with TRACER.span("pricing.cmh_ratios", app=workload.app,
                     count=(len(adj_bytes) + len(dst_bytes))
                     // LINE_BYTES):
        ratios = {
            "adj_lcp": _lcp_fetch_ratio(adj_bytes),
            "dst_lcp": _lcp_fetch_ratio(dst_bytes),
            "dst_bdi": _bdi_ratio(dst_bytes),
        }
    _CMH_CACHE[key] = ratios
    return ratios


# --------------------------------------------------------------------------
# Pricing: the old ``simulate_spec`` (CMH replays in place)
# --------------------------------------------------------------------------

def push_replays(workload: Workload, cfg: ModelConfig
                 ) -> List[Tuple[int, int]]:
    """Per-iteration Push scatter ``(misses, writebacks)``, replayed in
    place from the workload's graph (the CMH cost models' old
    ``replay=None`` branch)."""
    out = []
    for it in workload.iterations:
        dsts = gather_rows(workload.graph, it.sources)
        per_line = max(1, LINE_BYTES // workload.dst_value_bytes)
        out.append(lru_scatter_replay(dsts.astype(np.int64) // per_line,
                                      cfg.llc_lines))
    return out


def simulate_spec(workload, profiles, spec, cfg, dataset: str = "?",
                  preprocessing: str = "?") -> RunMetrics:
    """Cost one (spec, workload) combination on the monolithic path."""
    from repro.schemes.pricing import _price_spec, _simulate_cmh
    if spec.cmh:
        return _simulate_cmh(workload, profiles, spec, cfg, dataset,
                             preprocessing,
                             ratios=cmh_ratios(workload, cfg),
                             replays=push_replays(workload, cfg))
    return _price_spec(workload, profiles, spec, cfg, dataset,
                       preprocessing)


def simulate_scheme(workload, profiles, scheme, cfg,
                    parts: Optional[frozenset] = None,
                    decoupled_only: bool = False, dataset: str = "?",
                    preprocessing: str = "?") -> RunMetrics:
    """Name-accepting wrapper around :func:`simulate_spec`."""
    from repro.schemes import resolve
    spec = resolve(scheme, parts=parts, decoupled_only=decoupled_only)
    return simulate_spec(workload, profiles, spec, cfg, dataset=dataset,
                         preprocessing=preprocessing)


# --------------------------------------------------------------------------
# The memoizing monolithic runner
# --------------------------------------------------------------------------

class OracleRunner:
    """Memoizing monolithic runner (the pre-staged ``Runner``)."""

    def __init__(self, scale: int,
                 system: Optional[SystemConfig] = None) -> None:
        self.scale = scale
        self.system = system if system is not None \
            else SystemConfig().scaled(scale)
        self._workloads: Dict[Tuple[str, str, str], Workload] = {}
        self._profiles: Dict[Tuple[str, str, str],
                             List[IterationProfile]] = {}
        self._cfgs: Dict[str, ModelConfig] = {}

    def config_for(self, workload: Workload) -> ModelConfig:
        """Model config with the LLC sized for this input
        (:func:`~repro.sim.runner.sized_model_config`), memoized per
        (app, graph content)."""
        key = f"{workload.app}/{workload.graph.content_digest()}"
        if key not in self._cfgs:
            self._cfgs[key] = sized_model_config(
                self.system, self.scale, workload.graph.num_vertices)
        return self._cfgs[key]

    # -- building blocks -------------------------------------------------------

    def workload(self, app: str, dataset: str,
                 preprocessing: str = "none") -> Workload:
        from repro.apps import build_workload
        key = (app, dataset, preprocessing)
        if key not in self._workloads:
            with TRACER.span("runner.build_workload", app=app,
                             dataset=dataset,
                             preprocessing=preprocessing):
                if app == "sp":
                    self._workloads[key] = build_workload(
                        "sp", scale=self.scale)
                else:
                    graph = load_preprocessed(dataset, preprocessing,
                                              self.scale)
                    self._workloads[key] = build_workload(app,
                                                          graph=graph)
        return self._workloads[key]

    def profiles(self, app: str, dataset: str,
                 preprocessing: str = "none") -> List[IterationProfile]:
        key = (app, dataset, preprocessing)
        if key not in self._profiles:
            workload = self.workload(app, dataset, preprocessing)
            with TRACER.span("runner.profile", app=app, dataset=dataset,
                             preprocessing=preprocessing):
                self._profiles[key] = profile_workload(
                    workload, self.config_for(workload))
        return self._profiles[key]

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
            workload = self.workload(app, dataset, preprocessing)
            profiles = self.profiles(app, dataset, preprocessing)
            with TRACER.span("runner.price"):
                return simulate_spec(workload, profiles, spec,
                                     self.config_for(workload),
                                     dataset=dataset,
                                     preprocessing=preprocessing)


# --------------------------------------------------------------------------
# Sensitivity sweeps, as priced on the monolithic path
# --------------------------------------------------------------------------

def _sim_tools():
    return simulate_scheme, ModelConfig, profile_workload


def bandwidth_sweep(runner, app: str, dataset: str,
                    preprocessing: str = "none",
                    factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
                    schemes: Sequence[str] = ("push", "phi",
                                              "phi+spzip"),
                    ) -> List[Dict[str, object]]:
    """Rerun schemes with DRAM bandwidth scaled by each factor.

    Traffic profiles are bandwidth-independent, so they are shared; only
    the timing changes.
    """
    simulate_scheme, ModelConfig, profile_workload = _sim_tools()
    workload = runner.workload(app, dataset, preprocessing)
    cfg = runner.config_for(workload)
    profiles = profile_workload(workload, cfg)
    rows: List[Dict[str, object]] = []
    for factor in factors:
        memory = replace(cfg.system.memory,
                         gb_per_sec_per_controller=cfg.system.memory
                         .gb_per_sec_per_controller * factor)
        system = replace(cfg.system, memory=memory)
        swept = ModelConfig(system=system, id_scale=cfg.id_scale,
                            bin_llc_fraction=cfg.bin_llc_fraction,
                            sort_updates=cfg.sort_updates)
        runs = {scheme: simulate_scheme(workload, profiles, scheme,
                                        swept, dataset=dataset,
                                        preprocessing=preprocessing)
                for scheme in schemes}
        row: Dict[str, object] = {"bandwidth_factor": factor}
        base = runs[schemes[0]]
        for scheme in schemes:
            row[scheme] = runs[scheme].speedup_over(base)
        rows.append(row)
    return rows


def llc_sweep(runner, app: str, dataset: str,
              preprocessing: str = "none",
              factors: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
              schemes: Sequence[str] = ("push", "phi+spzip"),
              ) -> List[Dict[str, object]]:
    """Rerun schemes with the model LLC scaled by each factor.

    Capacity changes the cache replays, so profiles are rebuilt per
    point (the expensive sweep).
    """
    simulate_scheme, ModelConfig, profile_workload = _sim_tools()
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
        profiles = profile_workload(workload, cfg)
        runs = {scheme: simulate_scheme(workload, profiles, scheme, cfg,
                                        dataset=dataset,
                                        preprocessing=preprocessing)
                for scheme in schemes}
        row: Dict[str, object] = {"llc_factor": factor,
                                  "llc_bytes": size}
        base = runs[schemes[0]]
        for scheme in schemes:
            row[scheme] = runs[scheme].speedup_over(base)
        rows.append(row)
    return rows


def core_sweep(runner, app: str, dataset: str,
               preprocessing: str = "none",
               counts: Sequence[int] = (4, 8, 16, 32),
               scheme: str = "push") -> List[Dict[str, object]]:
    """Scale core count; shows where each scheme stops scaling (the
    compute-vs-bandwidth crossover)."""
    simulate_scheme, ModelConfig, profile_workload = _sim_tools()
    workload = runner.workload(app, dataset, preprocessing)
    cfg = runner.config_for(workload)
    profiles = profile_workload(workload, cfg)
    rows: List[Dict[str, object]] = []
    base_cycles: Optional[float] = None
    for count in counts:
        system = replace(cfg.system, num_cores=count)
        swept = ModelConfig(system=system, id_scale=cfg.id_scale)
        run: RunMetrics = simulate_scheme(workload, profiles, scheme,
                                          swept, dataset=dataset,
                                          preprocessing=preprocessing)
        if base_cycles is None:
            base_cycles = run.cycles
        rows.append({"cores": count,
                     "speedup": base_cycles / run.cycles,
                     "bound": "memory" if run.bandwidth_bound
                     else "core"})
    return rows
