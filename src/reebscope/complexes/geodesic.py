"""Shortest-path distances along the 1-skeleton.

All metric quantities in this package (distortion, contour diameters,
thickness ratios) are measured in the graph metric of the edge skeleton with
its edge lengths.  Dijkstra is delegated to scipy's csgraph implementation,
through the one kernel `vertex_distances`.

Callers that read many rows of one complex ask the distance provider,
`distance_rows`: `metric.distortion`, the farthest-point sweep behind
`max_contour_diameter`, `thickness` and the hemisphere verifiers,
`contours.contour_diameter` and `diameter`.  While the all-pairs float64
matrix of a complex fits `ALL_PAIRS_BUDGET_BYTES` (64 MiB, up to 2,896
vertices), the first request computes it with one Dijkstra call, it is held
with the complex for as long as the complex lives, and every request is a
row slice of it.  Above the budget each request runs Dijkstra from its own
sources.  scipy runs the same per-source Dijkstra in both cases, so the
rows agree bit for bit.

`single_source` stays a one-source call: a distance field reads one row,
and a whole matrix for it would cost more time and memory than it saves.
"""

from __future__ import annotations

import weakref

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .simplicial import SimplicialComplex

ALL_PAIRS_BUDGET_BYTES = 64 * 2 ** 20

# complex -> its read-only all-pairs matrix, dropped with the complex
_ALL_PAIRS = weakref.WeakKeyDictionary()


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


def distance_rows(complex: SimplicialComplex, sources=None):
    """The rows of `vertex_distances(complex, sources)`, from the complex's
    all-pairs matrix when it fits the budget.  The result may be that
    matrix itself, which is read-only."""
    n = complex.n_vertices
    if 8 * n * n > ALL_PAIRS_BUDGET_BYTES:
        return vertex_distances(complex, sources)
    full = _ALL_PAIRS.get(complex)
    if full is None:
        full = vertex_distances(complex)
        full.flags.writeable = False
        _ALL_PAIRS[complex] = full
    if sources is None:
        return full
    return full[np.asarray(sources, dtype=np.int64).reshape(-1)]


def single_source(complex: SimplicialComplex, source: int):
    return vertex_distances(complex, [source])[0]


def diameter(complex: SimplicialComplex) -> float:
    """Largest finite vertex-to-vertex distance."""
    d = distance_rows(complex)
    finite = d[np.isfinite(d)]
    return float(finite.max()) if finite.size else 0.0
