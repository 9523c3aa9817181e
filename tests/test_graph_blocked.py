"""Tests for the blocked (GridGraph-style) adjacency layout."""

import numpy as np
import pytest

from repro.graph import community_graph
from repro.graph.blocked import BlockedGraph


def sample():
    return community_graph(120, 800, seed_stream="blocked")


class TestBlockedGraph:
    def test_roundtrip(self):
        g = sample()
        blocked = BlockedGraph(g, num_blocks=4)
        back = blocked.to_csr()
        assert np.array_equal(back.offsets, g.offsets)
        assert np.array_equal(back.neighbors, g.neighbors)

    def test_edges_partition_exactly(self):
        g = sample()
        blocked = BlockedGraph(g, num_blocks=3)
        assert sum(b.num_edges for b in blocked.iter_blocks()) == \
            g.num_edges

    def test_block_membership(self):
        g = sample()
        blocked = BlockedGraph(g, num_blocks=4)
        size = blocked.block_size
        for edge in blocked.edge_multiset():
            src, dst = edge
            assert 0 <= src < g.num_vertices
            assert 0 <= dst < g.num_vertices
        block = blocked.block(1, 2)
        for local_dst in block.neighbors:
            assert local_dst < size

    def test_single_block_is_whole_graph(self):
        g = sample()
        blocked = BlockedGraph(g, num_blocks=1)
        assert blocked.block(0, 0).num_edges == g.num_edges

    def test_invalid_blocks_rejected(self):
        with pytest.raises(ValueError):
            BlockedGraph(sample(), num_blocks=0)

    def test_destination_slice_shrinks_with_blocks(self):
        g = sample()
        few = BlockedGraph(g, num_blocks=2)
        many = BlockedGraph(g, num_blocks=8)
        assert many.destination_slice_bytes() < \
            few.destination_slice_bytes()

    def test_blocking_improves_local_compression(self):
        """Block-local ids have bounded deltas: blocked streams compress
        at least as well as whole-graph rows (Sec II-B's point that the
        layout should match the access pattern)."""
        from repro.runtime import rows_compressed_bytes_from
        g = community_graph(1000, 8000, seed_stream="blocked-comp")
        whole = rows_compressed_bytes_from(g.neighbors, g.out_degrees(), 1)
        blocked = BlockedGraph(g, num_blocks=8).compressed_block_bytes()
        assert blocked <= whole * 1.05
