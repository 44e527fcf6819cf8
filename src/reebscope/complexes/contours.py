"""Connected pieces of the level sets of a PL field.

One engine, `label_level_sets`, labels the pieces of the level sets at a
sorted batch of levels.  A piece is made of edge crossings (an edge whose
value span holds the level strictly inside, cut at one interior point) and
of vertices lying exactly on the level; a triangle or a flat edge joins
its points.  At a generic level no vertex lies on the level, and a piece
is a contour: the crossings it holds and the pairs of crossings joined by
a segment inside an active triangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .simplicial import (NonGenericLevelError, ScalarField, SimplicialComplex,
                         components, link_components)
from .geodesic import pair_distances, through_ends


@dataclass
class Contour:
    """One component of a level set.

    edge_ids / params are aligned: crossing c sits on edge `edge_ids[c]` at
    parameter `params[c]` measured from the lower-id endpoint.  `segments`
    is a (k, 2) int array of index pairs into the crossing arrays, one
    pair per active triangle, each pair ascending.
    """
    level: float
    edge_ids: np.ndarray
    params: np.ndarray
    segments: np.ndarray = dataclass_field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    def __len__(self):
        return self.edge_ids.shape[0]

    def points(self, complex: SimplicialComplex):
        return crossing_points(complex, self.edge_ids, self.params)

    def length(self, complex: SimplicialComplex) -> float:
        if len(self.segments) == 0:
            return 0.0
        p = self.points(complex)
        seg = np.asarray(self.segments, dtype=np.int64)
        return float(np.linalg.norm(p[seg[:, 0]] - p[seg[:, 1]], axis=1).sum())


@dataclass(frozen=True, eq=False)
class ContourSet:
    """The contours of one generic level, as views of a labelled batch:
    contour after contour, `sizes[c]` aligned crossings `edge_ids` /
    `params` by edge id, and `join_sizes[c]` pairs of crossing indices
    `joins` joined inside a triangle, by triangle id.  `len()` counts the
    contours; iterating builds one Contour each."""
    level: float
    edge_ids: np.ndarray
    params: np.ndarray
    sizes: np.ndarray
    joins: np.ndarray
    join_sizes: np.ndarray

    def __len__(self):
        return self.sizes.size

    def __iter__(self):
        bounds = np.cumsum(self.sizes) - self.sizes
        jb = np.cumsum(self.join_sizes) - self.join_sizes
        for lo, n, j, m in zip(bounds, self.sizes, jb, self.join_sizes):
            yield Contour(self.level, self.edge_ids[lo:lo + n],
                          self.params[lo:lo + n],
                          np.sort(self.joins[j:j + m] - lo, axis=1))


def contour_arrays(sets):
    """The crossings of contour sets laid end to end: (edge_ids, params,
    bounds), contour c owning `bounds[c]:bounds[c + 1]`."""
    sizes = np.concatenate([s.sizes for s in sets])
    return (np.concatenate([s.edge_ids for s in sets]),
            np.concatenate([s.params for s in sets]),
            np.concatenate([[0], np.cumsum(sizes)]))


@dataclass(frozen=True)
class LevelPieces:
    """Pieces of the level sets at a sorted batch of levels.

    The points of all pieces sit in one array, piece after piece: piece p
    owns points `bounds[p]:bounds[p + 1]`, its edge crossings by edge id
    and then its vertices on the level by vertex id.  `items` holds the
    edge id of a crossing and the vertex id of a vertex point.  Pieces come
    by level, then by least edge id, pieces of vertices alone coming last.
    Piece p owns the point pairs `joins[join_bounds[p]:join_bounds[p + 1]]`
    joined inside a triangle, by triangle id.
    """
    levels: np.ndarray
    items: np.ndarray
    on_vertex: np.ndarray
    bounds: np.ndarray
    piece_level: np.ndarray
    joins: np.ndarray
    join_bounds: np.ndarray


# Callers label batches of levels holding about this many crossings.  A
# batch then costs about as much as the fixed cost of a call on the
# fixture meshes, and its arrays stay within a few megabytes.
_BATCH_CROSSINGS = 4096

# column of triangle_edges joining two corners of a triangle
_EDGE_COLUMN = np.array([[-1, 0, 1], [0, -1, 2], [1, 2, -1]])


def _level_graph(complex: SimplicialComplex, g, levels):
    """The nodes of the level graph, crossings (edge, level index) and then
    vertices on a level (vertex, level index), and the node pairs joined
    inside a triangle and by a flat edge."""
    e = complex.edges
    g0, g1 = g[e[:, 0]], g[e[:, 1]]
    lo, hi = np.minimum(g0, g1), np.maximum(g0, g1)
    near = np.flatnonzero((lo < levels[-1]) & (hi > levels[0]))
    near_k0 = np.searchsorted(levels, lo[near], side="right")
    near_span = np.maximum(
        np.searchsorted(levels, hi[near], side="left") - near_k0, 0)
    near_first = np.cumsum(near_span) - near_span
    n_cross = int(near_span.sum())
    c_edge = np.repeat(near, near_span)
    c_level = np.repeat(near_k0 - near_first, near_span) + np.arange(n_cross)
    # node first[i] + j is the crossing of edge i at level k0[i] + j
    k0, first, span = (np.zeros(complex.n_edges, dtype=np.int64)
                       for _ in range(3))
    k0[near], first[near], span[near] = near_k0, near_first, near_span
    del near, near_k0, near_span, near_first, lo, hi

    near_v = np.flatnonzero((g >= levels[0]) & (g <= levels[-1]))
    vk = np.searchsorted(levels, g[near_v], side="left")
    hit = levels[vk] == g[near_v]
    v_id, vk = near_v[hit], vk[hit]
    v_node = np.full(complex.n_vertices, -1, dtype=np.int64)
    v_node[v_id] = n_cross + np.arange(v_id.size)

    # edge ac spans every level the triangle's other edges span
    te = complex.triangle_edges
    n_ac = np.maximum(np.maximum(span[te[:, 0]], span[te[:, 1]]),
                      span[te[:, 2]])
    rows = np.flatnonzero(n_ac)
    tri, te, n_ac = complex.triangles[rows], te[rows], n_ac[rows]
    pa, pb, pc = np.argsort(g[tri], axis=1, kind="stable").T
    r = np.arange(rows.size)
    e_ac = te[r, _EDGE_COLUMN[pa, pc]]
    e_ab = te[r, _EDGE_COLUMN[pa, pb]]
    e_bc = te[r, _EDGE_COLUMN[pb, pc]]
    jt = np.repeat(r, n_ac)
    step = np.arange(jt.size) - np.repeat(np.cumsum(n_ac) - n_ac, n_ac)
    ac, ab, bc = e_ac[jt], e_ab[jt], e_bc[jt]
    k = k0[ac] + step
    vb = tri[r, pb][jt]
    other = np.where(levels[k] < g[vb], first[ab] + k - k0[ab],
                     np.where(levels[k] > g[vb], first[bc] + k - k0[bc],
                              v_node[vb]))
    joins = np.column_stack([first[ac] + step, other])
    flat_joins = v_node[e[(g0 == g1) & (v_node[e[:, 0]] >= 0)]]
    return c_edge, c_level, v_id, vk, joins, flat_joins


def label_level_sets(complex: SimplicialComplex, g, levels) -> LevelPieces:
    """Label the pieces of the level sets of vertex values `g` at the
    ascending `levels`, with one connected-components call for the batch.

    For each triangle with corner values g_a <= g_b <= g_c and each level
    strictly inside (g_a, g_c), the crossing on edge ac joins the crossing
    on ab (level below g_b), vertex b (level at g_b) or the crossing on bc
    (level above g_b).  The two ends of a flat edge on a level join too.
    """
    levels = np.asarray(levels, dtype=np.float64)
    c_edge, c_level, v_id, vk, joins, flat_joins = _level_graph(
        complex, g, levels)
    n_cross = c_edge.size

    # number the nodes by (level, crossings before vertices, id), so that
    # the component labels, numbered by least node, order the pieces
    node_level = np.concatenate([c_level, vk])
    order = np.lexsort((np.concatenate([c_edge, v_id]),
                        np.arange(node_level.size) >= n_cross, node_level))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    both = rank[np.vstack([joins, flat_joins])]
    n_pieces, labels = components(order.size, both[:, 0], both[:, 1])
    del rank, both
    points = order[np.argsort(labels, kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(
        labels, minlength=n_pieces))])

    where = np.empty_like(points)
    where[points] = np.arange(points.size)
    joins = where[joins]
    join_piece = np.repeat(np.arange(n_pieces), np.diff(bounds))[joins[:, 0]]
    by_piece = np.argsort(join_piece, kind="stable")
    return LevelPieces(
        levels=levels,
        items=np.concatenate([c_edge, v_id])[points],
        on_vertex=points >= n_cross,
        bounds=bounds,
        piece_level=node_level[points[bounds[:-1]]],
        joins=joins[by_piece],
        join_bounds=np.searchsorted(join_piece[by_piece],
                                    np.arange(n_pieces + 1)))


def crossing_counts(complex: SimplicialComplex, g, levels):
    """Number of edges whose value span holds each of the ascending
    `levels` strictly inside."""
    g0, g1 = g[complex.edges[:, 0]], g[complex.edges[:, 1]]
    k0 = np.searchsorted(levels, np.minimum(g0, g1), side="right")
    k1 = np.maximum(np.searchsorted(levels, np.maximum(g0, g1),
                                    side="left"), k0)
    n = len(levels) + 1
    return np.cumsum(np.bincount(k0, minlength=n)
                     - np.bincount(k1, minlength=n))[:-1]


def batch_end(before, start: int) -> int:
    """End of the batch of levels from `start` whose crossings, given as
    running totals `before` (one more entry than levels), stay within
    _BATCH_CROSSINGS; a batch holds at least one level."""
    end = np.searchsorted(before, before[start] + _BATCH_CROSSINGS,
                          side="right") - 1
    return max(start + 1, int(end))


def level_contours(complex: SimplicialComplex, g,
                   pieces: LevelPieces) -> list:
    """One ContourSet per level of `pieces`, all generic levels, as views
    of arrays made once for the batch: the params of every crossing, and
    the joins counted from the first crossing of their level."""
    ids, bounds, jb = pieces.items, pieces.bounds, pieces.join_bounds
    sizes = np.diff(bounds)
    level = np.repeat(pieces.levels[pieces.piece_level], sizes)
    ga, gb = g[complex.edges[ids, 0]], g[complex.edges[ids, 1]]
    params = (level - ga) / (gb - ga)
    first = np.searchsorted(pieces.piece_level,
                            np.arange(pieces.levels.size + 1))
    join_sizes = np.diff(jb)
    joins = pieces.joins - np.repeat(
        bounds[first[pieces.piece_level]], join_sizes)[:, None]
    p, c, j = first.tolist(), bounds[first].tolist(), jb[first].tolist()
    return [ContourSet(lv, ids[c[k]:c[k + 1]], params[c[k]:c[k + 1]],
                       sizes[p[k]:p[k + 1]], joins[j[k]:j[k + 1]],
                       join_sizes[p[k]:p[k + 1]])
            for k, lv in enumerate(pieces.levels.tolist())]


def contours_at(complex: SimplicialComplex, field: ScalarField, level: float):
    """All contours of the field at one generic level, ordered by least edge id."""
    g = field.resolved_values
    if g.shape[0] != complex.n_vertices:
        raise ValueError("field does not match complex")
    if np.any(g == level):
        raise NonGenericLevelError(f"level {level!r} hits a vertex value")
    return list(level_contours(complex, g,
                               label_level_sets(complex, g, [level]))[0])


def crossing_points(complex: SimplicialComplex, edge_ids, params):
    """Embedded points of the crossings at `params` along `edge_ids`."""
    if complex.coords is None:
        raise ValueError("contour points need embedded coordinates")
    a = complex.coords[complex.edges[edge_ids, 0]]
    b = complex.coords[complex.edges[edge_ids, 1]]
    return a + params[:, None] * (b - a)


def sweep_diameters(complex: SimplicialComplex, edge_ids, params, bounds,
                    hops: int = 8) -> np.ndarray:
    """Intrinsic diameter of each contour, estimated from below by the
    farthest-point sweep, with the hops of all contours run together.
    Contour c owns the crossings `bounds[c]:bounds[c + 1]` of the aligned
    `edge_ids` and `params`, which the contours fill from `bounds[0]` = 0.

    A contour starts at the crossing farthest from its centroid, or at its
    first crossing without coordinates.  Each hop moves every contour still
    running to its crossing farthest from the current one (the first on
    ties), and a contour stops when that distance no longer grows.  One hop
    makes one `pair_distances` call for the whole batch.  Contours of one
    crossing or none measure 0.
    """
    sizes = np.diff(bounds)
    out = np.zeros(sizes.size)
    live = sizes > 1
    if not live.any():
        return out
    keep = np.repeat(live, sizes)
    edge_ids, params = edge_ids[keep], params[keep]
    # each crossing's edge ends, and its distances along the edge to them
    ends, lens = complex.edges[edge_ids], complex.lengths[edge_ids]
    off_lo, off_hi = params * lens, (1.0 - params) * lens
    sizes = sizes[live]
    starts = np.cumsum(sizes) - sizes
    cur = (starts.copy() if complex.coords is None else
           _farthest_from_centroid(complex, edge_ids, params, sizes, starts))

    best = np.zeros(sizes.size)
    run = np.arange(sizes.size)
    for _ in range(hops):
        n = sizes[run]
        first = np.cumsum(n) - n
        at = np.repeat(starts[run] - first, n) + np.arange(int(n.sum()))
        c = np.repeat(cur[run], n)
        # d[i, j] = D(end i of the current crossing, end j of the crossing)
        d = pair_distances(complex, ends[c].T[:, None], ends[at].T[None])
        dq = through_ends(lambda i, j: d[i, j], (off_lo[c], off_hi[c]),
                          (off_lo[at], off_hi[at]))
        dq[first + cur[run] - starts[run]] = 0.0
        top, nxt = _segment_argmax(dq, first)
        grow = ~(top <= best[run] * (1.0 + 1e-12))
        run, top, nxt = run[grow], top[grow], nxt[grow]
        if run.size == 0:
            break
        best[run] = top
        cur[run] = at[nxt]
    out[live] = best
    return out


def _farthest_from_centroid(complex, edge_ids, params, sizes, starts):
    """Per contour of the batch, the index of its crossing point farthest
    from the contour's centroid."""
    pts = crossing_points(complex, edge_ids, params)
    # a contour's own mean sums its points in order, and so does a sum over
    # its points followed by zeros, where np.add.reduceat would not.  Each
    # contour is padded to the next power of two, at most twice its points,
    # and each size class is summed as one (contours, width, 3) block.
    width = np.int64(1) << np.frexp(sizes - 1)[1]
    order = np.argsort(width, kind="stable")
    slot = np.empty_like(width)
    slot[order] = np.cumsum(width[order]) - width[order]
    seg = np.repeat(np.arange(sizes.size), sizes)
    padded = np.zeros((int(width.sum()), 3))
    padded[slot[seg] + np.arange(seg.size) - starts[seg]] = pts
    w, k = np.unique(width, return_counts=True)
    sums = [block.reshape(-1, n, 3).sum(axis=1) for block, n in
            zip(np.split(padded, np.cumsum(w * k)[:-1]), w.tolist())]
    centroid = np.empty((sizes.size, 3))
    centroid[order] = np.concatenate(sums) / sizes[order, None]
    pts -= centroid[seg]
    return _segment_argmax(np.einsum("ij,ij->i", pts, pts), starts)[1]


def _segment_argmax(x, starts):
    """Per segment of `x` beginning at the ascending `starts`: its largest
    value and the index in `x` of its first occurrence."""
    top = np.maximum.reduceat(x, starts)
    seg = np.repeat(np.arange(starts.size), np.diff(np.append(starts, x.size)))
    hit = np.where(x == top[seg], np.arange(x.size), x.size)
    return top, np.minimum.reduceat(hit, starts)


# Point pairs measured at once by piece_diameters: its index and distance
# arrays then take a few megabytes.
_PAIR_CHUNK = 1 << 16


def extrinsic_diameters(complex: SimplicialComplex, edge_ids, params,
                        bounds) -> np.ndarray:
    """Largest Euclidean distance between two crossing points of each
    contour, laid out as in `sweep_diameters`, by one `piece_diameters`
    call."""
    return piece_diameters(crossing_points(complex, edge_ids, params), bounds)


def piece_diameters(pts, bounds) -> np.ndarray:
    """Largest pairwise Euclidean distance within each piece of the point
    array `pts`, where piece p owns rows `bounds[p]:bounds[p + 1]`; a piece
    of fewer than two points measures 0.

    Exact: each squared distance is summed as (dx*dx + dy*dy) + dz*dz and
    the square root taken once, of a piece's largest, so the value is, bit
    for bit, the largest of the piece's pair distances computed one by one
    that way.  Only points that can lie on a farthest pair are paired.
    With r a point's distance to the piece's centroid, R the largest r,
    and L the distance from the point at R to the point farthest from it,
    a farthest pair has r_i + r_j >= D >= L, so both its points have
    r >= L - R (Har-Peled, SoCG 2001).  The test gives way by 1e-9 of
    L + R, far above rounding, so it never drops such a point.
    """
    pts = np.asarray(pts, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.int64)
    sizes = np.diff(bounds)
    out = np.zeros(sizes.size)
    live = sizes > 1
    if not live.any():
        return out
    pts = pts[bounds[0]:bounds[-1]][np.repeat(live, sizes)]
    sizes = sizes[live]
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(sizes.size), sizes)

    centroid = np.add.reduceat(pts, starts, axis=0) / sizes[:, None]
    r2 = _squared_distances(pts.T, centroid[seg].T)
    far_r2, far = _segment_argmax(r2, starts)
    best = _segment_argmax(_squared_distances(pts.T, pts[far][seg].T),
                           starts)[0]
    big_r, far_l = np.sqrt(far_r2), np.sqrt(best)
    cut = np.maximum(far_l - big_r - 1e-9 * (far_l + big_r), 0.0)
    keep = np.flatnonzero(r2 >= (cut * cut)[seg])

    # pair each kept point with the kept points after it in its piece, a
    # chunk of rows at a time; pairs come ordered by piece
    cols = [np.ascontiguousarray(c) for c in pts[keep].T]
    owner = seg[keep]
    n_after = (np.cumsum(np.bincount(owner, minlength=sizes.size))[owner]
               - np.arange(keep.size) - 1)
    before = np.concatenate([[0], np.cumsum(n_after)])
    lo = 0
    while lo < keep.size:
        hi = max(lo + 1, int(np.searchsorted(
            before, before[lo] + _PAIR_CHUNK, side="right")) - 1)
        n = n_after[lo:hi]
        i = np.repeat(np.arange(lo, hi), n)
        j = i + 1 + np.arange(i.size) - np.repeat(before[lo:hi] - before[lo],
                                                  n)
        lo = hi
        if i.size == 0:
            continue
        sq = _squared_distances((c[i] for c in cols), (c[j] for c in cols))
        piece = owner[i]
        first = np.flatnonzero(np.diff(piece, prepend=-1))
        p = piece[first]
        best[p] = np.maximum(best[p], np.maximum.reduceat(sq, first))
    out[live] = np.sqrt(best)
    return out


def _squared_distances(p_cols, q_cols):
    """Squared distances between points given by their coordinate columns,
    summed in column order: (dx*dx + dy*dy) + dz*dz."""
    sq = 0.0
    for a, b in zip(p_cols, q_cols):
        d = a - b
        d *= d
        sq += d
    return sq
