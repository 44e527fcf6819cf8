"""Shortest-path distances along the 1-skeleton.

All metric quantities in this package (distortion, contour diameters,
thickness ratios) are measured in the graph metric of the edge skeleton with
its edge lengths.  Dijkstra is delegated to scipy's csgraph implementation,
through the one kernel `vertex_distances`.  scipy is imported on the first
Dijkstra call, not with this module, so that a run that measures no
distance (`reebscope reeb`) never loads it.

Callers that read many rows of one complex ask the distance provider,
`distance_rows`: `metric.distortion` and `diameter`.  While the all-pairs
float64 matrix of a complex fits `ALL_PAIRS_BUDGET_BYTES` (64 MiB, up to
2,896 vertices), the first request computes it with one Dijkstra call, it
is held with the complex for as long as the complex lives, and every
request is a row slice of it.  Above the budget each request runs Dijkstra
from its own sources.  scipy runs the same per-source Dijkstra in both
cases, so the rows agree bit for bit.

`pair_distances` reads single entries of that matrix for aligned vertex
arrays.  It serves the batched farthest-point kernel
`contours.sweep_diameters`, behind `max_contour_diameter`, `thickness` and
the hemisphere verifiers: each hop of the sweep over a whole batch of
contours is one call.  Under the budget the call is one gather from the
all-pairs matrix; above it, one Dijkstra call from the distinct row
vertices, split so that no call returns more than the budget.

`single_source` stays a one-source call: a distance field reads one row,
and a whole matrix for it would cost more time and memory than it saves.

`through_ends` is the one distance rule for points inside edges, each
reached through either end of its edge at a cost.  It serves Reeb-graph
points in `ReebGraph.point_distances` (behind `metric.distortion` and
`ReebGraph.distance`) and contour crossings in `contours.sweep_diameters`.
"""

from __future__ import annotations

import weakref

import numpy as np

from .simplicial import SimplicialComplex

ALL_PAIRS_BUDGET_BYTES = 64 * 2 ** 20

# complex -> its read-only all-pairs matrix, dropped with the complex
_ALL_PAIRS = weakref.WeakKeyDictionary()


def vertex_distances(complex: SimplicialComplex, sources=None):
    """Distance matrix from `sources` (default: all vertices) to all vertices.

    Returns a (len(sources), V) float array; unreachable pairs are inf.
    """
    from scipy.sparse.csgraph import dijkstra
    # it holds both directions of every edge, so scipy needs no transpose
    graph = complex.adjacency
    if sources is None:
        return dijkstra(graph, directed=True)
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        return np.zeros((0, complex.n_vertices))
    return np.atleast_2d(dijkstra(graph, directed=True, indices=sources))


def distance_rows(complex: SimplicialComplex, sources=None):
    """The rows of `vertex_distances(complex, sources)`, from the complex's
    all-pairs matrix when it fits the budget.  The result may be that
    matrix itself, which is read-only."""
    if not _fits_budget(complex):
        return vertex_distances(complex, sources)
    full = _ALL_PAIRS.get(complex)
    if full is None:
        full = vertex_distances(complex)
        full.flags.writeable = False
        _ALL_PAIRS[complex] = full
    if sources is None:
        return full
    return full[np.asarray(sources, dtype=np.int64).reshape(-1)]


def pair_distances(complex: SimplicialComplex, rows, cols):
    """The distances `vertex_distances(complex)[rows, cols]` for vertex
    arrays broadcast against each other, with at most
    `ALL_PAIRS_BUDGET_BYTES / (8 V)` sources per Dijkstra call above the
    budget."""
    if _fits_budget(complex):
        return distance_rows(complex)[rows, cols]
    rows, cols = np.broadcast_arrays(np.asarray(rows, dtype=np.int64),
                                     np.asarray(cols, dtype=np.int64))
    sources, at = np.unique(rows, return_inverse=True)
    at = at.reshape(rows.shape)
    step = max(1, ALL_PAIRS_BUDGET_BYTES // (8 * complex.n_vertices))
    out = np.empty(rows.shape)
    for lo in range(0, sources.size, step):
        part = (at >= lo) & (at < lo + step)
        block = vertex_distances(complex, sources[lo:lo + step])
        out[part] = block[at[part] - lo, cols[part]]
    return out


def _fits_budget(complex: SimplicialComplex) -> bool:
    n = complex.n_vertices
    return 8 * n * n <= ALL_PAIRS_BUDGET_BYTES


def through_ends(dist, cost_a, cost_b):
    """min over end pairs (i, j) of `dist(i, j) + cost_a[i] + cost_b[j]`,
    summed in that order: `dist(i, j)` is the plane of distances from end
    i to end j, and each cost is a pair of arrays broadcasting with it."""
    best = dist(0, 0) + cost_a[0] + cost_b[0]
    for i, j in ((0, 1), (1, 0), (1, 1)):
        np.minimum(best, dist(i, j) + cost_a[i] + cost_b[j], out=best)
    return best


def single_source(complex: SimplicialComplex, source: int):
    return vertex_distances(complex, [source])[0]


def diameter(complex: SimplicialComplex) -> float:
    """Largest finite vertex-to-vertex distance."""
    d = distance_rows(complex)
    finite = d[np.isfinite(d)]
    return float(finite.max()) if finite.size else 0.0
