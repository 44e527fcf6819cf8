"""Shortest-path distances along the 1-skeleton.

All metric quantities in this package (distortion, contour diameters,
thickness ratios) are measured in the graph metric of the edge skeleton with
its edge lengths.  Dijkstra is delegated to scipy's csgraph implementation.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .simplicial import SimplicialComplex


def vertex_distances(complex: SimplicialComplex, sources=None):
    """Distance matrix from `sources` (default: all vertices) to all vertices.

    Returns a (len(sources), V) float array; unreachable pairs are inf.
    """
    graph = complex.adjacency
    if sources is None:
        return dijkstra(graph, directed=False)
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        return np.zeros((0, complex.n_vertices))
    return np.atleast_2d(dijkstra(graph, directed=False, indices=sources))


def single_source(complex: SimplicialComplex, source: int):
    return vertex_distances(complex, [source])[0]


def diameter(complex: SimplicialComplex) -> float:
    """Largest finite vertex-to-vertex distance."""
    d = vertex_distances(complex)
    finite = d[np.isfinite(d)]
    return float(finite.max()) if finite.size else 0.0

