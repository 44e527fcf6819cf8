"""Reeb graph construction from critical values and slab components.

A vertex is critical unless its lower and upper links (in the triangles
around it) are each one component, it has no flat edge and every edge at
it lies in a triangle: the lower-link test of Banchoff, "Critical points
and curvature for embedded polyhedra" (1967), with the last two
conditions keeping ties and dangling edges conservative.  Between two
consecutive critical values no level-set component merges, splits,
appears or vanishes, so the Reeb graph is read off the complex cut at the
sorted distinct critical values L, as in Doraiswamy and Natarajan,
"Output-sensitive construction of Reeb graphs" (TVCG 2012):

* the level pieces at L come from `label_level_sets`;
* the slab pieces, the components of the complex inside the open slabs
  between consecutive values of L, come from one connected-components
  call over edge parts (one per open slab an edge spans) and the
  vertices off L;
* each slab piece touches exactly one level piece below and one above.
  A level piece met by one slab piece from below and one from above lies
  inside the arc through it and is contracted; every other level piece
  is a node.

A level piece holds every vertex and crossing of its level that the
complex connects, so equal critical values (tied saddles, plateaus)
collapse or split exactly as the level sets of the unperturbed field do.
Nodes are numbered by (level, least vertex), so that a tied field gives
the same graph in every process.
"""

from __future__ import annotations

import numpy as np

from ..complexes.contours import (_EDGE_COLUMN, label_level_sets,
                                   link_components)
from ..complexes.simplicial import (ScalarField, SimplicialComplex,
                                    components, sorted_unique)
from .graph import QuotientMap, ReebGraph


def _critical_values(complex: SimplicialComplex, g):
    """Sorted distinct values of the critical vertices."""
    lower, _, upper = link_components(complex, g)
    critical = (lower != 1) | (upper != 1)
    e = complex.edges
    loose = (g[e[:, 0]] == g[e[:, 1]]) | (complex.edge_triangle_count == 0)
    critical[e[loose].ravel()] = True
    return sorted_unique(g[critical])


def _level_pieces(complex: SimplicialComplex, g, L):
    """The pieces of the level sets at L: per vertex the piece it lies in
    (-1 off L), per piece its level index and least vertex (n_vertices
    when it holds none), and per crossing its edge, level index and
    piece."""
    pieces = label_level_sets(complex, g, L)
    n_pieces = pieces.bounds.size - 1
    piece = np.repeat(np.arange(n_pieces), np.diff(pieces.bounds))
    at_v = pieces.on_vertex
    v_piece = np.full(complex.n_vertices, -1, dtype=np.int64)
    v_piece[pieces.items[at_v]] = piece[at_v]
    least = np.full(n_pieces, complex.n_vertices, dtype=np.int64)
    np.minimum.at(least, piece[at_v], pieces.items[at_v])
    crossings = (pieces.items[~at_v], pieces.piece_level[piece[~at_v]],
                 piece[~at_v])
    return v_piece, pieces.piece_level, least, crossings


def _edge_parts(complex: SimplicialComplex, g, L):
    """Per edge: its lower and its upper end, the slab k_lo of its first
    part, the index of its first part and its number of parts (0 when the
    edge is flat).  Part first[e] + k - k_lo[e] is edge e inside slab k,
    the open slab (L[k], L[k + 1])."""
    e = complex.edges
    rise = g[e[:, 0]] < g[e[:, 1]]
    lo_v = np.where(rise, e[:, 0], e[:, 1])
    hi_v = np.where(rise, e[:, 1], e[:, 0])
    k_lo = np.searchsorted(L, g[lo_v], side="right") - 1
    span = np.searchsorted(L, g[hi_v], side="left") - k_lo
    return lo_v, hi_v, k_lo, np.cumsum(span) - span, span


def _slab_joins(complex: SimplicialComplex, g, parts, v_node):
    """The element pairs joined inside the open slabs, as two int32 arrays
    (the slab stage's peak memory is in these pairs)."""
    lo_v, hi_v, k_lo, first, span = parts
    # a vertex off L joins the end part of each of its edges
    at_lo = np.flatnonzero(v_node[lo_v] >= 0)
    at_hi = np.flatnonzero(v_node[hi_v] >= 0)
    a = [v_node[lo_v[at_lo]].astype(np.int32),
         v_node[hi_v[at_hi]].astype(np.int32)]
    b = [first[at_lo].astype(np.int32),
         (first[at_hi] + span[at_hi] - 1).astype(np.int32)]
    del at_lo, at_hi
    # in a triangle a <= b <= c, part (ac, k) joins (ab, k) and (bc, k)
    te = complex.triangle_edges
    pa, pb, pc = np.argsort(g[complex.triangles], axis=1, kind="stable").T
    r = np.arange(te.shape[0])
    e_ac = te[r, _EDGE_COLUMN[pa, pc]]
    for side in (te[r, _EDGE_COLUMN[pa, pb]], te[r, _EDGE_COLUMN[pb, pc]]):
        n_side = span[side]
        jt = np.repeat(r, n_side)
        step = np.arange(jt.size) - np.repeat(np.cumsum(n_side) - n_side,
                                              n_side)
        ac, other = e_ac[jt], side[jt]
        a.append((first[ac] + k_lo[other] - k_lo[ac] + step)
                 .astype(np.int32))
        b.append((first[other] + step).astype(np.int32))
    return np.concatenate(a), np.concatenate(b)


def _slab_pieces(complex: SimplicialComplex, g, L, v_piece, n_lp,
                 crossings):
    """Label the pieces of the open slabs between consecutive values of L,
    with one connected-components call over the edge parts and then the
    vertices off L.  Returns per slab piece the level piece below and
    above it, and per vertex its slab piece (-1 on L)."""
    parts = _edge_parts(complex, g, L)
    lo_v, hi_v, k_lo, first, span = parts
    n_parts = int(span.sum())
    off = np.flatnonzero(v_piece < 0)
    v_node = np.full(complex.n_vertices, -1, dtype=np.int64)
    v_node[off] = n_parts + np.arange(off.size)
    n_slab, labels = components(n_parts + off.size,
                                *_slab_joins(complex, g, parts, v_node))
    del parts, v_node

    # a part touches the level piece of its edge's crossing at L[k]
    # (L[k + 1]) or, at the edge's end, the piece of a vertex on L
    below = np.full(n_parts, -1, dtype=np.int64)
    above = np.full(n_parts, -1, dtype=np.int64)
    c_edge, c_level, c_piece = crossings
    at = first[c_edge] + c_level - k_lo[c_edge]
    below[at] = c_piece
    above[at - 1] = c_piece
    tilted = span > 0
    below[first[tilted]] = v_piece[lo_v[tilted]]
    above[(first + span - 1)[tilted]] = v_piece[hi_v[tilted]]
    ends = []
    for touch in (below, above):
        hit = np.flatnonzero(touch >= 0)
        pairs = sorted_unique(labels[hit] * np.int64(n_lp) + touch[hit])
        if not np.array_equal(pairs // n_lp, np.arange(n_slab)):
            raise AssertionError("a slab piece does not touch exactly one "
                                 "level piece below and one above")
        ends.append(pairs % n_lp)
    v_slab = np.full(complex.n_vertices, -1, dtype=np.int64)
    v_slab[off] = labels[n_parts:]
    return ends[0], ends[1], v_slab


def build_reeb(complex: SimplicialComplex, field: ScalarField):
    """Construct (ReebGraph, QuotientMap) of a PL field."""
    if len(field) != complex.n_vertices:
        raise ValueError("field does not match complex")
    g = field.resolved_values
    n = complex.n_vertices
    if n == 0:
        return ReebGraph([], []), QuotientMap(np.zeros(0, dtype=bool),
                                              np.zeros(0, dtype=np.int64), g)
    L = _critical_values(complex, g)
    v_piece, piece_level, least, crossings = _level_pieces(complex, g, L)
    n_lp = piece_level.size
    below, above, v_slab = _slab_pieces(complex, g, L, v_piece, n_lp,
                                        crossings)
    del crossings

    # contract the level pieces with one arc in and one arc out
    n_sp = below.size
    slab_in = np.full(n_lp, -1, dtype=np.int64)
    slab_out = np.full(n_lp, -1, dtype=np.int64)
    slab_in[above] = np.arange(n_sp)
    slab_out[below] = np.arange(n_sp)
    through = (np.bincount(above, minlength=n_lp) == 1) \
        & (np.bincount(below, minlength=n_lp) == 1)
    n_arcs, arc = components(n_sp, slab_in[through], slab_out[through])
    node = np.flatnonzero(~through)
    node = node[np.lexsort((least[node], piece_level[node]))]
    node_id = np.full(n_lp, -1, dtype=np.int64)
    node_id[node] = np.arange(node.size)
    arc_ends = np.zeros((n_arcs, 2), dtype=np.int64)
    starts = node_id[below] >= 0
    arc_ends[arc[starts], 0] = node_id[below[starts]]
    stops = node_id[above] >= 0
    arc_ends[arc[stops], 1] = node_id[above[stops]]
    graph = ReebGraph(
        [(float(L[piece_level[p]]), int(least[p]) if least[p] < n else None)
         for p in node.tolist()],
        [tuple(pair) for pair in arc_ends.tolist()],
        n_components=complex.n_components)

    # a vertex lands on its node, or at its value on the arc through its
    # level piece or slab piece
    piece_target = node_id.copy()
    piece_target[through] = arc[slab_in[through]]
    on_level = v_piece >= 0
    where = np.empty(n, dtype=np.int64)
    where[~on_level] = arc[v_slab[~on_level]]
    where[on_level] = piece_target[v_piece[on_level]]
    on_node = on_level & (node_id[v_piece] >= 0)
    return graph, QuotientMap(on_node, where, g)
