"""Per-strategy cost models and the spec-keyed cost-constant table.

Two pieces live here:

* :data:`SCHEME_COSTS` — the mechanism-derived core-side cost constants
  (cycles per event), keyed by ``(base, overlay)`` instead of mangled
  strings; :func:`costs_for` resolves a :class:`SchemeSpec`, applying
  the CMH overlay's critical-path decompression penalty (Sec V-D).
* The :class:`CostModel` hierarchy — one class per base strategy (Push,
  Pull, UB, PHI), each converting one iteration's shared profile into
  per-class off-chip traffic and :class:`~repro.sim.timing.PhaseWork`.
  SpZip enters only through the spec's resolved compression parts; the
  CMH baseline has its own per-base hook (only Push and UB are
  evaluated under CMH, as in Fig 22).

The constants encode the mechanisms the paper describes rather than
fitted curves:

* software Push pays traversal instructions per edge and a large
  exposed stall per destination miss, because atomics cap memory-level
  parallelism;
* SpZip variants pay only dequeue-and-update work, and decoupled
  fetch/prefetch hides nearly all miss latency (Sec III-B);
* UB pays binning arithmetic but its writes are streaming, so stalls
  are small; its accumulation scatters hit the cache by construction;
* PHI offloads update application to the cache hierarchy, so cores only
  compute-and-push.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.memory.address import LINE_BYTES
from repro.schemes.spec import SchemeSpec
from repro.sim.timing import PhaseWork, SchemeCosts

#: Extra exposed stall per miss under the compressed memory hierarchy:
#: decompression and LCP metadata lookups sit on the critical path of
#: every miss (Sec V-D: "these systems are not decoupled ...
#: compression hurts access latency").
CMH_MISS_PENALTY = 40.0

#: Mechanism-derived constants, keyed by (base, overlay).
SCHEME_COSTS: Dict[Tuple[str, Optional[str]], SchemeCosts] = {
    # Software Push: traversal (~8 ops/edge) plus a contended atomic RMW
    # (~14 cycles); the atomic's fence serializes destination misses, so
    # a miss exposes its full loaded latency plus queueing on hot lines.
    ("push", None): SchemeCosts(cycles_per_edge=20.0,
                                cycles_per_vertex=12.0,
                                stall_per_miss=215.0),
    # Push+SpZip: the fetcher walks the structure and prefetches
    # destinations into the L2, but the atomics stay on the core
    # (Sec II-C) and now mostly hit the L2.
    ("push", "spzip"): SchemeCosts(cycles_per_edge=14.0,
                                   cycles_per_vertex=3.0,
                                   stall_per_miss=10.0,
                                   random_derate=0.80),
    # UB: binning arithmetic + buffered sequential writes (binning),
    # then cache-resident scatter in accumulation -- no atomics, few
    # stalls.
    ("ub", None): SchemeCosts(cycles_per_edge=8.0, cycles_per_vertex=8.0,
                              stall_per_miss=8.0, cycles_per_update=6.0),
    # UB+SpZip: fetcher feeds the binning loop, compressor does the
    # binning writes; accumulation dequeues decompressed updates.
    ("ub", "spzip"): SchemeCosts(cycles_per_edge=3.0,
                                 cycles_per_vertex=3.0,
                                 stall_per_miss=2.0,
                                 cycles_per_update=3.0,
                                 random_derate=0.80),
    # PHI: cores just compute and push updates into the hierarchy.
    ("phi", None): SchemeCosts(cycles_per_edge=4.0,
                               cycles_per_vertex=6.0,
                               stall_per_miss=4.0,
                               cycles_per_update=3.0),
    # PHI+SpZip: traversal offloaded too.
    ("phi", "spzip"): SchemeCosts(cycles_per_edge=2.0,
                                  cycles_per_vertex=2.5,
                                  stall_per_miss=1.0,
                                  cycles_per_update=2.0,
                                  random_derate=0.80),
    # Pull (extension): gather loads instead of atomic scatters -- no
    # fences, so OOO cores overlap gather misses well; traversal work
    # like Push's minus the atomic.
    ("pull", None): SchemeCosts(cycles_per_edge=10.0,
                                cycles_per_vertex=12.0,
                                stall_per_miss=40.0),
    # Pull+SpZip: the fetcher walks in-edges and prefetches/queues the
    # gathered values, leaving a plain add on the core.
    ("pull", "spzip"): SchemeCosts(cycles_per_edge=3.0,
                                   cycles_per_vertex=3.0,
                                   stall_per_miss=4.0,
                                   random_derate=0.80),
}


def costs_for(spec: SchemeSpec) -> SchemeCosts:
    """Cost constants for one spec; the CMH overlay pays its miss-path
    decompression penalty on top of the software base costs."""
    if spec.cmh:
        base = SCHEME_COSTS[(spec.base, None)]
        return replace(base,
                       stall_per_miss=base.stall_per_miss
                       + CMH_MISS_PENALTY)
    return SCHEME_COSTS[(spec.base, spec.overlay)]


def _shared_streams(p, parts):
    """(adjacency, source, updates) bytes common to every base."""
    compress_adj = "adjacency" in parts
    compress_upd = "updates" in parts
    compress_vtx = "vertex" in parts
    adjacency = float(p.offsets_bytes)
    adjacency += p.neigh_bytes_compressed if compress_adj \
        else p.neigh_bytes
    adjacency += (p.edge_value_bytes_compressed if compress_adj
                  else p.edge_value_bytes)
    source = float(p.src_bytes_compressed if compress_vtx
                   else p.src_bytes)
    updates = float(p.frontier_bytes_compressed if compress_upd
                    else p.frontier_bytes)
    return adjacency, source, updates


def _traffic(adjacency, source, dest, updates):
    return {"adjacency": adjacency, "source_vertex": source,
            "destination_vertex": float(dest), "updates": updates}


class CostModel:
    """One base strategy's pricing: iteration profile -> (traffic,
    work), with an optional CMH-baseline hook."""

    base: str = ""

    def iteration_cost(self, workload, p, parts):
        """(traffic by class, PhaseWork) for one iteration, unweighted.

        ``parts`` is the spec's resolved compression-part set.
        """
        raise NotImplementedError

    def cmh_iteration_cost(self, workload, p, ratios, replay):
        """Same, under the VSC+BDI LLC + LCP memory system (Fig 22).

        ``replay`` is the ``(misses, writebacks)`` of this iteration's
        destination scatter stream through the LLC (the replay stage's
        frozen Push replay); bases that replay nothing ignore it.
        """
        raise NotImplementedError(
            f"{self.base} is not evaluated under the compressed "
            f"memory hierarchy")


class PushCostModel(CostModel):
    """Source-stationary scatter with atomic read-modify-writes."""

    base = "push"

    def iteration_cost(self, workload, p, parts):
        adjacency, source, updates = _shared_streams(p, parts)
        all_active = not workload.frontier_based
        work = PhaseWork(edges=p.num_edges, vertices=p.num_sources)
        dest = float(p.push_dest_read_bytes + p.push_dest_write_bytes)
        work.dest_misses = p.push_dest_misses
        work.rand_bytes += dest + p.offsets_bytes * (0 if all_active
                                                     else 1)
        work.seq_bytes += (adjacency + source + updates
                           - (0 if all_active else p.offsets_bytes))
        return _traffic(adjacency, source, dest, updates), work

    def cmh_iteration_cost(self, workload, p, ratios, replay):
        adjacency = (p.offsets_bytes
                     + p.neigh_bytes / ratios["adj_lcp"]
                     + p.edge_value_bytes)
        source = float(p.src_bytes)
        updates = float(p.frontier_bytes)
        work = PhaseWork(edges=p.num_edges, vertices=p.num_sources)
        misses, writebacks = replay
        # LCP shrinks fetches, but RMW writebacks change line sizes and
        # overflow the page's uniform slots, so writes go out at full
        # size.
        dest = (misses * LINE_BYTES / ratios["dst_lcp"]
                + writebacks * LINE_BYTES)
        work.dest_misses = misses
        work.rand_bytes += dest
        work.seq_bytes += adjacency + source + updates
        return _traffic(adjacency, source, dest, updates), work


class PullCostModel(CostModel):
    """Destination-stationary gather, with direction-optimized fallback
    to Push on sparse frontiers (Sec II-C extension)."""

    base = "pull"

    def iteration_cost(self, workload, p, parts):
        adjacency, source, updates = _shared_streams(p, parts)
        compress_adj = "adjacency" in parts
        all_active = not workload.frontier_based
        work = PhaseWork(edges=p.num_edges, vertices=p.num_sources)
        if all_active and p.pull_adj_bytes:
            # Destination-stationary: walk incoming edges, gather source
            # values (scattered reads, no atomics), write destinations
            # sequentially once.
            adjacency = float(p.offsets_bytes)
            adjacency += (p.pull_adj_bytes_compressed if compress_adj
                          else p.pull_adj_bytes)
            adjacency += (p.edge_value_bytes_compressed if compress_adj
                          else p.edge_value_bytes)
            source = float(p.pull_gather_read_bytes)
            vertex_out = graph_dst_bytes(p, workload)
            dest = float(vertex_out)
            work.dest_misses = p.pull_gather_misses
            work.rand_bytes += source
            work.seq_bytes += adjacency + dest + updates
        else:
            # Direction-optimized runtimes fall back to Push on sparse
            # frontiers (pulling would scan every vertex's in-edges).
            dest = float(p.push_dest_read_bytes + p.push_dest_write_bytes)
            work.dest_misses = p.push_dest_misses
            work.rand_bytes += dest + p.offsets_bytes
            work.seq_bytes += (adjacency + source + updates
                               - p.offsets_bytes)
        return _traffic(adjacency, source, dest, updates), work


class UbCostModel(CostModel):
    """Update Batching: stream updates into bins, then accumulate."""

    base = "ub"

    def iteration_cost(self, workload, p, parts):
        adjacency, source, updates = _shared_streams(p, parts)
        compress_upd = "updates" in parts
        compress_vtx = "vertex" in parts
        work = PhaseWork(edges=p.num_edges, vertices=p.num_sources)
        if compress_upd:
            # The SpZip compressor's bin-append writes whole compressed
            # chunks (no read-for-ownership): one write + one read back.
            updates += 2.0 * p.update_bytes_compressed
        else:
            # Software binning uses ordinary stores, which RFO the bin
            # line before writing: write costs 2x, plus the read back.
            updates += 3.0 * p.update_bytes
        dest = float(p.ub_dest_bytes_compressed if compress_vtx
                     else p.ub_dest_bytes)
        work.updates = p.num_edges  # accumulation applies every update
        work.seq_bytes += adjacency + source + updates + dest
        return _traffic(adjacency, source, dest, updates), work

    def cmh_iteration_cost(self, workload, p, ratios, replay):
        adjacency = (p.offsets_bytes
                     + p.neigh_bytes / ratios["adj_lcp"]
                     + p.edge_value_bytes)
        source = float(p.src_bytes)
        updates = float(p.frontier_bytes)
        work = PhaseWork(edges=p.num_edges, vertices=p.num_sources)
        # UB under CMH: binning still RFOs its buffered stores (2x
        # write), and only the accumulation *read* of the bins gets
        # LCP's per-line reduction — which is small, because 8-byte
        # {dst, value} tuples rarely compress at line granularity.
        updates += 2.0 * p.update_bytes + p.update_bytes / 1.1
        dest = (p.ub_dest_bytes / 2) / ratios["dst_lcp"] \
            + (p.ub_dest_bytes / 2)
        work.updates = p.num_edges
        work.seq_bytes += adjacency + source + updates + dest
        return _traffic(adjacency, source, dest, updates), work


class PhiCostModel(CostModel):
    """PHI: in-cache update coalescing; only spills leave the chip."""

    base = "phi"

    def iteration_cost(self, workload, p, parts):
        adjacency, source, updates = _shared_streams(p, parts)
        compress_upd = "updates" in parts
        compress_vtx = "vertex" in parts
        work = PhaseWork(edges=p.num_edges, vertices=p.num_sources)
        upd_bytes = (p.phi_update_bytes_compressed if compress_upd
                     else p.phi_update_bytes)
        updates += float(upd_bytes)
        dest = float(p.ub_dest_bytes_compressed if compress_vtx
                     else p.ub_dest_bytes)
        work.updates = p.phi_spilled_updates
        work.seq_bytes += adjacency + source + updates + dest
        return _traffic(adjacency, source, dest, updates), work


def graph_dst_bytes(p, workload) -> int:
    """Line-granular bytes of one sequential destination-array write."""
    nbytes = workload.graph.num_vertices * workload.dst_value_bytes
    return -(-nbytes // LINE_BYTES) * LINE_BYTES


#: One shared (stateless) model instance per base strategy.
COST_MODELS: Dict[str, CostModel] = {
    model.base: model for model in (PushCostModel(), PullCostModel(),
                                    UbCostModel(), PhiCostModel())
}


def cost_model_for(spec: SchemeSpec) -> CostModel:
    return COST_MODELS[spec.base]
