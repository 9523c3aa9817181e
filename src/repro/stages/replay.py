"""Stage 2 — cache-replay: everything that depends on LLC geometry.

Prices the frozen streams of stage 1 through capacity-dependent models:
Push's destination scatter and Pull's gather replay through an
LLC-sized LRU, PHI's in-cache coalescing (whose spill stream feeds the
compress stage), and Update Batching's bin partitioning (whose sorted
update stream does too).

The stage's config slice is exactly the resolved LLC geometry plus the
bin budget fraction (:class:`ReplaySlice`); editing a timing constant,
a codec, or the id-space scale leaves these artifacts frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memory.address import LINE_BYTES
from repro.obs import TRACER
from repro.runtime.traffic import (
    lru_scatter_replay,
    phi_coalesce_replay,
)
from repro.runtime.traffic_array import (
    ceil_lines,
    pull_gather_lines,
    push_scatter_lines,
    ub_bin_stream,
)
from repro.stages.artifacts import (
    IterationReplay,
    ReplayArtifact,
    StreamArtifact,
)


@dataclass(frozen=True)
class ReplaySlice:
    """The stage-relevant slice of one resolved model config."""

    llc_lines: int
    llc_size_bytes: int
    bin_llc_fraction: float

    def vertices_per_bin(self, dst_value_bytes: int) -> int:
        # Mirrors ModelConfig.vertices_per_bin on the sliced values.
        budget = self.llc_size_bytes * self.bin_llc_fraction
        return max(1, int(budget // max(1, dst_value_bytes)))


def replay_streams(stream: StreamArtifact,
                   cfg: ReplaySlice) -> ReplayArtifact:
    """Replay every iteration's streams under one LLC geometry."""
    dvb = stream.dst_value_bytes
    svb = stream.src_value_bytes
    num_vertices = stream.num_vertices
    vpb = cfg.vertices_per_bin(dvb)
    num_bins = max(1, -(-num_vertices // vpb))

    iterations = []
    for it in stream.iterations:
        dsts = it.dsts
        upd_vals = it.update_values

        # Push destination scatter.
        dst_lines = push_scatter_lines(dsts, dvb)
        with TRACER.span("replay.push_scatter",
                         count=int(dst_lines.size)):
            misses, writebacks = lru_scatter_replay(dst_lines,
                                                    cfg.llc_lines)

        # Update Batching: the bin-stable sort order is frozen here so
        # compress measures the exact stream binning would write.
        sorted_ids, sorted_vals, touched_bins = ub_bin_stream(
            dsts, upd_vals, vpb)
        ub_dest_raw = min(ceil_lines(num_vertices * dvb),
                          touched_bins * vpb * dvb)

        # PHI coalescing.
        with TRACER.span("replay.phi_coalesce", count=int(dsts.size)):
            spilled_ids, spilled_vals, _lines = phi_coalesce_replay(
                dsts.astype(np.int64),
                upd_vals if upd_vals.size == dsts.size
                else np.empty(0), dvb, cfg.llc_lines)
        phi_update_bytes = 2 * ceil_lines(spilled_ids.size
                                           * stream.update_bytes)

        # Pull gather replay (all-active iterations with source data).
        pull_gather_misses = 0
        pull_gather_read_bytes = 0
        if it.all_active and svb:
            gather_lines = pull_gather_lines(stream.pull_neighbors, svb)
            with TRACER.span("replay.pull_gather",
                             count=int(gather_lines.size)):
                pull_gather_misses, _wb = lru_scatter_replay(
                    gather_lines, cfg.llc_lines)
            pull_gather_read_bytes = pull_gather_misses * LINE_BYTES

        iterations.append(IterationReplay(
            push_dest_misses=misses,
            push_dest_read_bytes=misses * LINE_BYTES,
            push_dest_write_bytes=writebacks * LINE_BYTES,
            num_bins=num_bins,
            touched_bins=touched_bins,
            sorted_ids=sorted_ids,
            sorted_vals=sorted_vals,
            ub_dest_bytes=2 * ub_dest_raw,  # read + write per pass
            phi_spilled_ids=spilled_ids,
            phi_spilled_vals=spilled_vals,
            phi_update_bytes=phi_update_bytes,
            pull_gather_misses=pull_gather_misses,
            pull_gather_read_bytes=pull_gather_read_bytes,
        ))

    return ReplayArtifact(vertices_per_bin=vpb, iterations=iterations)
