"""CSR sparse matrix and SpMV — the paper's linear-algebra kernel.

SpMV (y = A x) is structurally the Pull dual of PageRank: for each row,
gather x at the column coordinates and accumulate.  The paper evaluates it
on nlpkkt240, "a matrix representative of structured optimization
problems" — see :func:`make_spmv_input`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.config import DEFAULT_SCALE
from repro.graph.csr import CsrGraph
from repro.graph.datasets import load
from repro.utils import make_rng


class SparseMatrix:
    """CSR matrix with float64 values, built over a CsrGraph skeleton."""

    def __init__(self, graph: CsrGraph, values: np.ndarray) -> None:
        if values.size != graph.num_edges:
            raise ValueError("one value per nonzero required")
        self.graph = graph
        self.values = np.asarray(values, dtype=np.float64)

    @property
    def shape(self) -> Tuple[int, int]:
        n = self.graph.num_vertices
        return n, n

    @property
    def nnz(self) -> int:
        return self.graph.num_edges

    @property
    def offsets(self) -> np.ndarray:
        return self.graph.offsets

    @property
    def columns(self) -> np.ndarray:
        return self.graph.neighbors

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Reference SpMV (vectorized, used as ground truth by tests)."""
        if x.size != self.shape[1]:
            raise ValueError("dimension mismatch")
        products = self.values * x[self.columns]
        row_ids = np.repeat(np.arange(self.shape[0]),
                            self.graph.out_degrees())
        y = np.zeros(self.shape[0], dtype=np.float64)
        np.add.at(y, row_ids, products)
        return y


def spmv(matrix: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Functional alias for :meth:`SparseMatrix.multiply`."""
    return matrix.multiply(x)


def make_spmv_input(scale: int = DEFAULT_SCALE) -> Tuple[SparseMatrix,
                                                         np.ndarray]:
    """The nlp (nlpkkt240 stand-in) matrix and a dense input vector.

    FEM/KKT assembly reuses element stiffness contributions, so the
    nonzero values of matrices like nlpkkt240 are drawn from a small,
    heavily repeated set — which is why the paper finds compression
    effective on SP even without preprocessing.  The stand-in mirrors
    that: values come from a 32-entry palette with signs.
    """
    skeleton = load("nlp", scale)
    rng = make_rng("spmv-values", scale)
    palette = rng.standard_normal(32)
    # Each row is assembled from one element's stiffness entries: its
    # nonzeros share a palette value, giving the long runs real KKT
    # matrices exhibit.
    row_ids = np.repeat(np.arange(skeleton.num_vertices),
                        skeleton.out_degrees())
    values = palette[row_ids % palette.size].copy()
    jitter = rng.integers(0, 4, values.size) == 0
    values[jitter] = palette[rng.integers(0, palette.size,
                                          int(jitter.sum()))]
    x = rng.standard_normal(skeleton.num_vertices)
    return SparseMatrix(skeleton, values), x
