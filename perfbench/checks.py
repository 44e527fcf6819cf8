"""Independent checks of the program's outputs.

Nothing here calls reebscope.  The checks take the program's inputs as
plain arrays (vertex count, edge and triangle lists, coordinates, edge
lengths, resolved field values) and its outputs as plain data (Reeb node
levels and edges, quotient points, reported numbers), and recompute what
they must be by other means: level-set components by a connected-
components pass over crossing edges, shortest paths by a vectorised
Bellman-Ford relaxation, Reeb distances by a heap Dijkstra over nodes,
and disk level pieces by a components pass over crossing edges and
vertices at the level.  Each check returns a list of error strings; an
empty list means the output passed.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

REL_TOL = 1e-9


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _components(n, a, b):
    """Component labels of the graph on n nodes with edges a[i]-b[i]."""
    m = coo_matrix((np.ones(len(a), dtype=np.int8), (a, b)), shape=(n, n))
    return connected_components(m, directed=False)[1]


class Mesh:
    """A complex as arrays, with the incidences derived here."""

    def __init__(self, n_vertices, edges, triangles, coords=None,
                 lengths=None):
        self.n = int(n_vertices)
        self.edges = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                             axis=1)
        self.triangles = np.sort(
            np.asarray(triangles, dtype=np.int64).reshape(-1, 3), axis=1)
        self.coords = coords
        self.lengths = lengths
        keys = self.edges[:, 0] * self.n + self.edges[:, 1]
        order = np.argsort(keys)
        t = self.triangles
        pairs = [(t[:, 0], t[:, 1]), (t[:, 0], t[:, 2]), (t[:, 1], t[:, 2])]
        cols = []
        for a, b in pairs:
            k = a * self.n + b
            pos = np.searchsorted(keys[order], k)
            pos = np.minimum(pos, max(len(keys) - 1, 0))
            if len(k) and not np.array_equal(keys[order][pos], k):
                raise ValueError("triangle side missing from the edge list")
            cols.append(order[pos])
        self.tri_edges = (np.stack(cols, axis=1) if len(t)
                          else np.zeros((0, 3), dtype=np.int64))
        count = np.bincount(self.tri_edges.ravel(),
                            minlength=len(self.edges))
        self.boundary_edge = count == 1
        self.boundary_vertex = np.zeros(self.n, dtype=bool)
        self.boundary_vertex[self.edges[self.boundary_edge].ravel()] = True

    def level_components(self, values, level):
        """Number of components of a generic level set: crossing edges,
        joined when a triangle is cut on both of them."""
        above = values > level
        cross = above[self.edges[:, 0]] != above[self.edges[:, 1]]
        ids = np.flatnonzero(cross)
        if ids.size == 0:
            return 0
        cut = cross[self.tri_edges]
        hit = cut.sum(axis=1)
        if np.any(hit == 1) or np.any(hit == 3):
            raise ValueError(f"level {level!r} is not generic")
        te = self.tri_edges[hit == 2]
        ct = cut[hit == 2]
        first = np.where(ct[:, 0], te[:, 0], te[:, 1])
        second = np.where(ct[:, 2], te[:, 2], te[:, 1])
        labels = _components(len(self.edges), first, second)
        return int(np.unique(labels[ids]).size)

    def shortest_paths(self, sources):
        """Distances from each source to every vertex (rows), by
        Bellman-Ford relaxation over the edge list."""
        src = np.asarray(sources, dtype=np.int64)
        dist = np.full((src.size, self.n), np.inf)
        dist[np.arange(src.size), src] = 0.0
        a, b = self.edges[:, 0], self.edges[:, 1]
        w = np.asarray(self.lengths, dtype=float)
        rows = np.arange(src.size)[:, None]
        for _ in range(self.n):
            nxt = dist.copy()
            np.minimum.at(nxt, (rows, b[None, :]), dist[:, a] + w)
            np.minimum.at(nxt, (rows, a[None, :]), dist[:, b] + w)
            if np.array_equal(nxt, dist):
                break
            dist = nxt
        return dist

    def level_pieces(self, values, level):
        """Boundary diameter of every piece of the level set at `level`,
        with the vertices at the level counted in (as the disk verifier
        defines pieces).  Returns the largest one, 0.0 if no piece holds
        two boundary points."""
        e = self.edges
        lo = np.minimum(values[e[:, 0]], values[e[:, 1]])
        hi = np.maximum(values[e[:, 0]], values[e[:, 1]])
        straddle = (lo < level) & (hi > level)
        at = values == level
        E = len(e)
        # a triangle joins all of its items, the straddling sides and the
        # corners at the level: link each item to the triangle's first
        t, te = self.triangles, self.tri_edges
        items = np.concatenate([np.where(straddle[te], te, -1),
                                np.where(at[t], E + t, -1)], axis=1)
        has = items >= 0
        first = np.where(has, items, np.iinfo(np.int64).max).min(axis=1)
        a = [np.broadcast_to(first[:, None], items.shape)[has]]
        b = [items[has]]
        flat = at[e[:, 0]] & at[e[:, 1]]
        a.append(E + e[flat, 0])
        b.append(E + e[flat, 1])
        labels = _components(E + self.n, np.concatenate(a), np.concatenate(b))

        pts, owner = [], []
        bs = np.flatnonzero(straddle & self.boundary_edge)
        if bs.size:
            u, w = e[bs, 0], e[bs, 1]
            s = (level - values[u]) / (values[w] - values[u])
            pts.append(self.coords[u]
                       + s[:, None] * (self.coords[w] - self.coords[u]))
            owner.append(labels[bs])
        bv = np.flatnonzero(at & self.boundary_vertex)
        if bv.size:
            pts.append(self.coords[bv])
            owner.append(labels[E + bv])
        if not pts:
            return 0.0
        pts, owner = np.concatenate(pts), np.concatenate(owner)
        best = 0.0
        for lab in np.unique(owner):
            p = pts[owner == lab]
            if len(p) < 2:
                continue
            d = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2))
            best = max(best, float(d.max()))
        return best


# ------------------------------------------------------------ Reeb graphs

def cycle_rank(n_nodes, edges):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    labels = _components(n_nodes, edges[:, 0], edges[:, 1])
    return len(edges) - n_nodes + int(np.unique(labels).size)


def leaf_count(n_nodes, edges):
    """Number of degree-1 nodes."""
    deg = np.bincount(np.asarray(edges, dtype=np.int64).ravel(),
                      minlength=n_nodes)
    return int(np.count_nonzero(deg == 1))


def gap_levels(values, node_levels, edges, samples):
    """Gap midpoints to test: the gap just above the lower end of every
    Reeb edge (so each edge is crossed at least once) plus `samples`
    evenly spaced gaps."""
    vals = np.unique(values)
    if vals.size < 2:
        return np.zeros(0)
    mids = 0.5 * (vals[:-1] + vals[1:])
    picks = set(np.linspace(0, mids.size - 1, min(samples, mids.size))
                .round().astype(int).tolist())
    for u, v in edges:
        low = min(node_levels[u], node_levels[v])
        i = int(np.searchsorted(vals, low))
        if i < mids.size and vals[i] == low:
            picks.add(i)
    return mids[sorted(picks)]


def check_reeb_graph(mesh, values, node_levels, edges, samples=24):
    """At gap midpoints, the number of Reeb edges spanning the level must
    equal the number of level-set components."""
    lv = np.asarray(node_levels, dtype=float)
    ed = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(lv[ed[:, 0]], lv[ed[:, 1]])
    hi = np.maximum(lv[ed[:, 0]], lv[ed[:, 1]])
    known = set(np.unique(values).tolist())
    errors = [f"node level {x!r} is no vertex value"
              for x in lv.tolist() if x not in known][:3]
    for c in gap_levels(values, lv, ed.tolist(), samples).tolist():
        spanning = int(np.count_nonzero((lo < c) & (hi > c)))
        found = mesh.level_components(values, c)
        if spanning != found:
            errors.append(f"level {c!r}: {spanning} Reeb edges span it, "
                          f"flood fill finds {found} components")
            break
    return errors


def extrema_count(mesh, values):
    """Vertices with an empty lower or upper link, from the edge list."""
    a, b = mesh.edges[:, 0], mesh.edges[:, 1]
    lower = np.zeros(mesh.n, dtype=bool)
    upper = np.zeros(mesh.n, dtype=bool)
    up = values[a] < values[b]
    lower[b[up]] = True
    upper[a[up]] = True
    lower[a[~up]] = True
    upper[b[~up]] = True
    return int(np.count_nonzero(~lower) + np.count_nonzero(~upper))


# ---------------------------------------------------------- distortion

def _node_distances(node_levels, edges):
    n = len(node_levels)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        w = abs(float(node_levels[u]) - float(node_levels[v]))
        adj[u].append((v, w))
        adj[v].append((u, w))
    out = np.full((n, n), np.inf)
    for s in range(n):
        dist = out[s]
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, x = heapq.heappop(heap)
            if d > dist[x]:
                continue
            for y, w in adj[x]:
                if d + w < dist[y]:
                    dist[y] = d + w
                    heapq.heappush(heap, (d + w, y))
    return out


def quotient_rows(node_levels, edges, points, levels, rows):
    """Reeb-graph distances from the images of `rows` to those of every
    vertex.  A point on an edge reaches the edge's two ends, and two
    points on one edge also reach each other along it."""
    nd = _node_distances(node_levels, edges)
    n = len(points)
    ends = np.zeros((n, 2), dtype=np.int64)
    cost = np.zeros((n, 2))
    on_edge = np.full(n, -1, dtype=np.int64)
    for i, p in enumerate(points):
        if p[0] == "node":
            ends[i] = p[1]
        else:
            u, v = edges[p[1]]
            ends[i] = (u, v)
            cost[i] = (abs(p[2] - node_levels[u]), abs(p[2] - node_levels[v]))
            on_edge[i] = p[1]
    r = np.asarray(rows, dtype=np.int64)
    best = np.full((r.size, n), np.inf)
    for x in range(2):
        for y in range(2):
            best = np.minimum(best, nd[np.ix_(ends[r, x], ends[:, y])]
                              + cost[r, x][:, None] + cost[:, y][None, :])
    same = (on_edge[r][:, None] == on_edge[None, :]) & (on_edge[r][:, None]
                                                         >= 0)
    direct = np.abs(levels[r][:, None] - levels[None, :])
    return np.where(same, np.minimum(best, direct), best)


def check_distortion(mesh, node_levels, edges, points, levels, reported,
                     sources=None):
    """With `sources` None, the reported distortion must equal the
    all-pairs maximum; otherwise it must be at least the maximum over
    the pairs from `sources` to every vertex."""
    rows = np.arange(mesh.n) if sources is None else np.asarray(sources)
    dx = mesh.shortest_paths(rows)
    dr = quotient_rows(node_levels, edges, points,
                       np.asarray(levels, dtype=float), rows)
    found = float(np.abs(dx - dr).max())
    if sources is None and not _close(found, reported):
        return [f"distortion {reported!r} != all-pairs {found!r}"]
    if sources is not None and reported < found - REL_TOL * max(1.0, found):
        return [f"distortion {reported!r} below sampled {found!r}"]
    return []


# ------------------------------------------------------------ disk width

def check_disk_witness(mesh, values, level, reported_diam, threshold):
    """The witness level must hold a piece whose boundary points lie
    threshold apart, and its widest piece must be the one reported."""
    if level is None:
        return ["no witness level reported"]
    found = mesh.level_pieces(values, level)
    errors = []
    if found < threshold:
        errors.append(f"level {level!r}: widest boundary pair {found!r} "
                      f"< {threshold!r}")
    if not _close(found, reported_diam):
        errors.append(f"level {level!r}: widest boundary pair {found!r}, "
                      f"reported {reported_diam!r}")
    return errors


def neighbouring_level(values, level):
    """Midway from `level` to the next vertex value above it (below it,
    at the top of the range)."""
    vals = np.unique(values)
    above = vals[vals > level]
    if above.size:
        return 0.5 * (level + float(above[0]))
    return 0.5 * (level + float(vals[vals < level][-1]))

