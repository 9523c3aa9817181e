#!/usr/bin/env python
"""How graph reordering unlocks compression (the Fig 18 mechanism).

Measures, on the scaled uk-2005 stand-in, the adjacency-matrix
compression ratio achieved by each preprocessing algorithm — randomized
ids, degree sorting, BFS order, DFS order, and (a window-greedy) GOrder —
and how the same orderings change Push's destination-vertex hit rate.

Run:  python examples/preprocessing_and_compression.py
"""

import time

import numpy as np

from repro.graph import load, preprocess
from repro.runtime.traffic import (
    lru_scatter_replay,
    rows_compressed_bytes_from,
)


def main():
    base = load("ukl")
    print(f"uk-2005 stand-in: {base.num_vertices} vertices, "
          f"{base.num_edges} edges\n")
    print(f"{'ordering':10s} {'adjacency ratio':>16s} "
          f"{'dest miss rate':>15s} {'reorder time':>13s}")
    capacity = int(0.85 * base.num_vertices * 4) // 64
    for method in ("none", "degree", "bfs", "dfs", "gorder"):
        start = time.time()
        graph = preprocess(base, method)
        elapsed = time.time() - start
        compressed = rows_compressed_bytes_from(
            graph.neighbors, graph.out_degrees(), 4096)
        ratio = graph.num_edges * 4 / compressed
        misses, _wb = lru_scatter_replay(
            graph.neighbors.astype(np.int64) // 16, capacity)
        miss_rate = misses / graph.num_edges
        print(f"{method:10s} {ratio:15.2f}x {miss_rate:15.2f} "
              f"{elapsed:12.2f}s")
    print("\nTopological orders (BFS/DFS/GOrder) place connected "
          "vertices at nearby ids, so neighbour sets get small deltas "
          "(cheap byte codes) AND scatter updates gain locality — the "
          "two effects behind the paper's preprocessed results.  Note "
          "GOrder's cost: orders of magnitude above DFS for a near-"
          "identical ratio, which is why the paper defaults to DFS.")


if __name__ == "__main__":
    main()
