"""Independent reference computations backing the frozen test values.

Everything here deliberately avoids the library's production code paths:
shortest paths are a textbook binary-heap Dijkstra (cross-checked by
Bellman-Ford), level-set components come from a flood fill over crossing
edges, vertex links from a flood fill over each link, and quotient
distances are a Dijkstra over the Reeb graph nodes, with each vertex's
graph point and exit costs rebuilt one vertex at a time.  The
farthest-point sweep reference runs one contour at a time and reads its
rows straight from scipy's Dijkstra, bypassing the library's distance
provider, and so does the all-pairs intrinsic contour diameter.  The
disk verifier reference measures one level piece at a time with scipy's
pdist, in the scan order.  Betti numbers come from
fraction-free integer elimination of the whole triangle boundary matrix,
the method the library's dual-graph kernel replaced.  OFF files are read
from a Python token list of the whole text, converting each token on its
own, as the library did before it parsed the body with one numpy call.
Graph components come from scipy's `connected_components`, the call the
library's union-find replaced.  Torus grid coordinates come from a Python
double loop with `math.cos` and `math.sin` per vertex, the loop the
library's array form replaced, and the band between two vertex rings
from the two-pointer walk the library's sorted merge replaced.  Run as a
script to print the values the tests freeze.
"""

from __future__ import annotations

import heapq
import math

import numpy as np


# ---------------------------------------------------------------- shortest paths

def adjacency(complex):
    adj = [[] for _ in range(complex.n_vertices)]
    for (i, j), w in zip(complex.edges.tolist(), complex.lengths):
        adj[i].append((j, float(w)))
        adj[j].append((i, float(w)))
    return adj


def dijkstra(adj, source):
    dist = [math.inf] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def bellman_ford(adj, source):
    n = len(adj)
    dist = [math.inf] * n
    dist[source] = 0.0
    for _ in range(n - 1):
        changed = False
        for u in range(n):
            du = dist[u]
            if du == math.inf:
                continue
            for v, w in adj[u]:
                if du + w < dist[v]:
                    dist[v] = du + w
                    changed = True
        if not changed:
            break
    return dist


def all_pairs(complex):
    adj = adjacency(complex)
    return np.asarray([dijkstra(adj, s) for s in range(complex.n_vertices)])


# ---------------------------------------------------------------- level sets

def crossing_edges(complex, values, level):
    """Edge ids whose endpoint values strictly straddle the level."""
    g = np.asarray(values, dtype=float)
    e = complex.edges
    lo = np.minimum(g[e[:, 0]], g[e[:, 1]])
    hi = np.maximum(g[e[:, 0]], g[e[:, 1]])
    return np.flatnonzero((lo < level) & (hi > level))


def contour_components(complex, values, level):
    """Flood fill over crossing edges: two crossings are adjacent when a
    triangle contains both.  On a 1-complex every crossing is alone."""
    cross = set(crossing_edges(complex, values, level).tolist())
    neigh = {e: set() for e in cross}
    for t in range(complex.n_triangles):
        members = [int(e) for e in complex.triangle_edges[t] if int(e) in cross]
        for a in members:
            for b in members:
                if a != b:
                    neigh[a].add(b)
    seen = set()
    comps = []
    for start in sorted(cross):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            e = stack.pop()
            if e in seen:
                continue
            seen.add(e)
            comp.add(e)
            stack.extend(neigh[e] - seen)
        comps.append(frozenset(comp))
    return comps


def _links(complex):
    """Per vertex: the edges of its link, one per triangle around it."""
    link = [[] for _ in range(complex.n_vertices)]
    for a, b, c in complex.triangles.tolist():
        link[a].append((b, c))
        link[b].append((a, c))
        link[c].append((a, b))
    return link


def link_components(complex, values):
    """Per vertex: the number of components of its lower, its level and
    its upper link, by a flood fill over the link of each vertex in turn."""
    g = [float(x) for x in values]
    lower, level, upper = [], [], []
    for v, pairs in enumerate(_links(complex)):
        ws = {w for pair in pairs for w in pair}
        lower.append(_flood_count(pairs, {w for w in ws if g[w] < g[v]}))
        level.append(_flood_count(pairs, {w for w in ws if g[w] == g[v]}))
        upper.append(_flood_count(pairs, {w for w in ws if g[w] > g[v]}))
    return lower, level, upper


def is_surface(complex):
    """True when the complex has a triangle, every edge lies in one or two
    triangles and the link of every vertex is one path or one cycle,
    walking each link in turn."""
    if complex.n_triangles == 0:
        return False
    count = {tuple(e): 0 for e in complex.edges.tolist()}
    for i, j, k in complex.triangles.tolist():
        for e in ((i, j), (i, k), (j, k)):
            count[e] += 1
    if any(c not in (1, 2) for c in count.values()):
        return False
    for pairs in _links(complex):
        if not pairs:
            continue
        deg = {}
        for a, b in pairs:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        if any(d > 2 for d in deg.values()):
            return False
        if _flood_count(pairs, set(deg)) != 1:
            return False
    return True


def _flood_count(pairs, nodes):
    neigh = {w: [] for w in nodes}
    for a, b in pairs:
        if a in neigh and b in neigh:
            neigh[a].append(b)
            neigh[b].append(a)
    seen, count = set(), 0
    for start in nodes:
        if start in seen:
            continue
        count += 1
        stack = [start]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(neigh[x])
    return count


def crossing_point(complex, values, level, edge_id):
    i, j = complex.edges[edge_id]
    gi, gj = float(values[i]), float(values[j])
    t = (level - gi) / (gj - gi)
    return complex.coords[i] + t * (complex.coords[j] - complex.coords[i])


def contour_intrinsic_diameter(complex, values, level, edge_ids):
    """Max shortest-path distance between crossing points, routing each
    point over its edge endpoints through the vertex graph."""
    adj = adjacency(complex)
    g = np.asarray(values, dtype=float)
    ends = []
    for e in edge_ids:
        i, j = complex.edges[e]
        t = (level - float(g[i])) / (float(g[j]) - float(g[i]))
        w = float(complex.lengths[e])
        ends.append((int(i), int(j), t * w, (1.0 - t) * w))
    best = 0.0
    for a, (ia, ja, da_i, da_j) in enumerate(ends):
        di = dijkstra(adj, ia)
        dj = dijkstra(adj, ja)
        for ib, jb, db_i, db_j in ends[a + 1:]:
            d = min(da_i + di[ib] + db_i, da_i + di[jb] + db_j,
                    da_j + dj[ib] + db_i, da_j + dj[jb] + db_j)
            best = max(best, d)
    return best


def intrinsic_diameter(complex, contour):
    """The largest distance between two crossings of one contour, over
    all pairs, with the rows of the crossings' edge ends read from one
    scipy Dijkstra call and the four ways through the ends written out;
    the fast twin of `contour_intrinsic_diameter`."""
    from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

    n = len(contour)
    if n <= 1:
        return 0.0
    ends = complex.edges[contour.edge_ids]
    lens = complex.lengths[contour.edge_ids]
    off_lo = contour.params * lens
    off_hi = (1.0 - contour.params) * lens
    rows = scipy_dijkstra(complex.adjacency, directed=False,
                          indices=ends.ravel())
    best = 0.0
    for a in range(n - 1):
        d2 = rows[2 * a:2 * a + 2]
        b = slice(a + 1, n)
        dq = np.minimum.reduce([
            d2[0, ends[b, 0]] + off_lo[a] + off_lo[b],
            d2[0, ends[b, 1]] + off_lo[a] + off_hi[b],
            d2[1, ends[b, 0]] + off_hi[a] + off_lo[b],
            d2[1, ends[b, 1]] + off_hi[a] + off_hi[b]])
        best = max(best, float(dq.max()))
    return best


def sweep_diameter(complex, contour, hops=8):
    """The farthest-point sweep on one contour, one hop at a time, with
    each hop's two rows read from scipy's Dijkstra.  Returns the estimate
    and the number of hops run, the stopping one included."""
    from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

    n = len(contour)
    if n <= 1:
        return 0.0, 0
    ends = complex.edges[contour.edge_ids]
    lens = complex.lengths[contour.edge_ids]
    off_lo = contour.params * lens
    off_hi = (1.0 - contour.params) * lens
    cur = 0
    if complex.coords is not None:
        pts = contour.points(complex)
        far = pts - pts.mean(axis=0)
        cur = int(np.argmax(np.einsum("ij,ij->i", far, far)))
    best = 0.0
    for hop in range(1, hops + 1):
        d2 = scipy_dijkstra(complex.adjacency, directed=False,
                            indices=ends[cur])
        dq = d2[0, ends[:, 0]] + off_lo[cur] + off_lo
        np.minimum(dq, d2[0, ends[:, 1]] + off_lo[cur] + off_hi, out=dq)
        np.minimum(dq, d2[1, ends[:, 0]] + off_hi[cur] + off_lo, out=dq)
        np.minimum(dq, d2[1, ends[:, 1]] + off_hi[cur] + off_hi, out=dq)
        dq[cur] = 0.0
        nxt = int(np.argmax(dq))
        if dq[nxt] <= best * (1.0 + 1e-12):
            return best, hop
        best = float(dq[nxt])
        cur = nxt
    return best, hops


def disk_contour_verify(complex, field, tol=0.05, early_stop=True):
    """The disk verifier's scan with every level piece measured by its own
    pdist calls, level after level, all levels labelled in one batch.
    The candidate levels and the pieces come from the library, whose
    labelling other tests check against the flood fill and the link
    oracle; the measuring and the running bests are redone here.  Returns
    the `DiskReport` fields as a tuple."""
    from scipy.spatial.distance import pdist
    from reebscope.complexes.contours import label_level_sets
    from reebscope.width import _candidate_levels, _piece_points

    threshold = math.sqrt(3.0) - tol
    g = field.resolved_values
    base = _candidate_levels(complex, g)
    levels = sorted(base + [0.5 * (a + b) for a, b in zip(base, base[1:])])
    pieces = label_level_sets(complex, g, levels)
    pts, onb = _piece_points(complex, g, pieces)
    best_level, best_b, best_i = None, 0.0, 0.0
    for k, c in enumerate(levels):
        for p in np.flatnonzero(pieces.piece_level == k):
            lo, hi = pieces.bounds[p], pieces.bounds[p + 1]
            if hi - lo >= 2:
                best_i = max(best_i, float(pdist(pts[lo:hi]).max()))
            on = pts[lo:hi][onb[lo:hi]]
            if on.shape[0] >= 2:
                db = float(pdist(on).max())
                if db > best_b:
                    best_b, best_level = db, float(c)
        if early_stop and best_b >= threshold:
            break
    return best_level, best_b, best_i, threshold, best_b >= threshold


# ---------------------------------------------------------------- Reeb metric

def reeb_node_distances(graph):
    """Dijkstra over the Reeb graph with |level difference| edge weights."""
    n = graph.n_nodes
    lv = graph.levels
    adj = [[] for _ in range(n)]
    for u, v in graph.edges:
        w = abs(float(lv[u]) - float(lv[v]))
        adj[u].append((v, w))
        adj[v].append((u, w))
    return np.asarray([dijkstra(adj, s) for s in range(n)])


def reeb_components(graph):
    """Connected components of a Reeb graph, by flood fill over its edges."""
    return _flood_count(graph.edges, range(graph.n_nodes))


def quotient_points(on_node, target, levels):
    """The graph point of each vertex, one vertex at a time, as the
    builder once produced them: ("node", id) or ("edge", id, level)."""
    points = []
    for v in range(len(levels)):
        if on_node[v]:
            points.append(("node", int(target[v])))
        else:
            points.append(("edge", int(target[v]), float(levels[v])))
    return points


def graph_point_arrays(graph, points):
    """Per vertex: the two exit nodes of its graph point, their costs and
    its edge id (-1 on a node), filled one point at a time."""
    n = len(points)
    nlev = graph.levels
    end_lo = np.empty(n, dtype=np.int64)
    end_hi = np.empty(n, dtype=np.int64)
    cost_lo = np.zeros(n, dtype=np.float64)
    cost_hi = np.zeros(n, dtype=np.float64)
    eid_of = np.full(n, -1, dtype=np.int64)
    for v, pt in enumerate(points):
        if pt[0] == "node":
            end_lo[v] = end_hi[v] = pt[1]
        else:
            _, eid, lvl = pt
            a, b = graph.edges[eid]
            end_lo[v], end_hi[v] = a, b
            cost_lo[v] = lvl - nlev[a]
            cost_hi[v] = nlev[b] - lvl
            eid_of[v] = eid
    return end_lo, end_hi, cost_lo, cost_hi, eid_of


def quotient_distance(graph, qmap, nd, i, j):
    """Shortest quotient-graph distance between the images of vertices i, j.

    A point on edge (u, v) at level t is at |t - level(u)| from u along its
    edge; same-edge pairs may also connect directly."""
    lv = graph.levels

    def anchors(k):
        point = qmap.points[k]
        if point[0] == "node":
            return ((int(point[1]), 0.0),), None, float(qmap.levels[k])
        _, a, level = point
        u, v = graph.edges[a]
        return (((int(u), abs(level - float(lv[u]))),
                 (int(v), abs(level - float(lv[v]))))), int(a), level

    anch_i, edge_i, lev_i = anchors(i)
    anch_j, edge_j, lev_j = anchors(j)
    best = math.inf
    for u, du in anch_i:
        for v, dv in anch_j:
            best = min(best, du + nd[u][v] + dv)
    if edge_i is not None and edge_i == edge_j:
        best = min(best, abs(lev_i - lev_j))
    return best


def distortion_oracle(complex, field, graph, qmap):
    """Max |d_X - d_R| over all vertex pairs, both sides by oracle Dijkstra."""
    dx = all_pairs(complex)
    nd = reeb_node_distances(graph)
    worst = 0.0
    n = complex.n_vertices
    for i in range(n):
        for j in range(i + 1, n):
            dr = quotient_distance(graph, qmap, nd, i, j)
            worst = max(worst, abs(float(dx[i, j]) - dr))
    return worst


# ---------------------------------------------------------------- components

def components(n, a, b):
    """scipy's connected components of the graph on nodes 0..n-1 with the
    edges a[i]b[i]: their number, and an int32 label per node numbered by
    least node."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    graph = coo_matrix((np.ones(len(a), dtype=bool), (a, b)), shape=(n, n))
    return connected_components(graph, directed=False)


# ---------------------------------------------------------------- generators

def torus_points(nu, nv, R, r):
    """Coordinates of the torus grid vertex (i, j), row i * nv + j, one
    vertex at a time."""
    out = np.zeros((nu * nv, 3))
    for i in range(nu):
        u = 2 * math.pi * i / nu
        for j in range(nv):
            v = 2 * math.pi * j / nv
            w = R + r * math.cos(v)
            out[i * nv + j] = (w * math.cos(u), r * math.sin(v),
                               w * math.sin(u))
    return out


def stitch_rings(inner, outer):
    """Triangles of the band between two vertex rings, one step at a time:
    advance on the outer ring while its next index fraction is at most the
    inner ring's, else on the inner ring.  Steps on a one-vertex ring give
    degenerate triangles, which are dropped."""
    m, n = len(inner), len(outer)
    tris = []
    i = j = 0
    while i < m or j < n:
        if j < n and (i >= m or (j + 1) / n <= (i + 1) / m):
            tris.append((inner[i % m], outer[j], outer[(j + 1) % n]))
            j += 1
        else:
            tris.append((inner[i], inner[(i + 1) % m], outer[j % n]))
            i += 1
    return [t for t in tris if len(set(t)) == 3]


# ---------------------------------------------------------------- homology

def _rank_elimination(cols):
    """Rank of an integer matrix given as sparse {row: value} columns, by
    fraction-free elimination with a gcd reduction after each step."""
    cols = [dict(c) for c in cols if c]
    rank = 0
    pivot_of_row = {}
    cols.sort(key=len)
    for col in cols:
        while col:
            hit = next((r for r in col if r in pivot_of_row), None)
            if hit is None:
                break
            pcol = pivot_of_row[hit]
            a, b = pcol[hit], col[hit]
            merged = {r: a * v for r, v in col.items()}
            for r, v in pcol.items():
                merged[r] = merged.get(r, 0) - b * v
            col = {r: v for r, v in merged.items() if v != 0}
            if col:
                g = math.gcd(*[abs(v) for v in col.values()])
                if g > 1:
                    col = {r: v // g for r, v in col.items()}
        if col:
            pivot_of_row[min(col)] = col
            rank += 1
    return rank


def betti_elimination(complex):
    """(b0, b1, b2) over Q: b0 by a flood fill, rank ∂2 by eliminating the
    whole triangle boundary matrix, read from the vertex triples."""
    edges = [tuple(e) for e in complex.edges.tolist()]
    eid = {e: k for k, e in enumerate(edges)}
    b0 = _flood_count(edges, range(complex.n_vertices))
    cols = [{eid[(i, j)]: 1, eid[(i, k)]: -1, eid[(j, k)]: 1}
            for i, j, k in complex.triangles.tolist()]
    rank_d2 = _rank_elimination(cols)
    b1 = len(edges) - (complex.n_vertices - b0) - rank_d2
    return b0, b1, len(cols) - rank_d2


# ---------------------------------------------------------------- file io

def read_off(path):
    """Coordinates and triangles of an OFF file, from one Python token list
    of the whole text: the reader the library's one-parse reader replaced."""
    text = path.read_text()
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0]
                         for line in text.splitlines())
    tokens = text.split()
    if not tokens or tokens[0].upper() != "OFF":
        raise ValueError(f"{path}: not an OFF file")
    if len(tokens) < 4:
        raise ValueError(f"{path}: truncated OFF header")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        if nv < 0 or nf < 0:
            raise ValueError(f"negative count in OFF header {nv} {nf}")
        coords = np.array(tokens[4:4 + 3 * nv], dtype=float)
        if coords.size < 3 * nv:
            raise ValueError("truncated OFF vertex list")
        # each face is a count, 3, and three vertex ids
        faces = tokens[4 + 3 * nv:4 + 3 * nv + 4 * nf]
        if np.any(np.array(faces[::4], dtype=np.int64) != 3):
            raise ValueError("only triangle faces supported")
        if len(faces) < 4 * nf:
            raise ValueError("truncated OFF face list")
        tris = np.array(faces, dtype=np.int64).reshape(-1, 4)[:, 1:]
        return coords.reshape(nv, 3), tris
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------- freeze run

def main():
    from reebscope.complexes.generators import (circle_mesh, disk_mesh,
                                                distance_field,
                                                flat_torus_mesh, theta_mesh,
                                                torus_mesh)
    from reebscope.complexes.simplicial import ScalarField, height_field
    from reebscope.reeb.build import build_reeb

    ft = flat_torus_mesh(8)
    adj = adjacency(ft)
    d1 = dijkstra(adj, 0)
    d2 = bellman_ford(adj, 0)
    assert max(abs(a - b) for a, b in zip(d1, d2)) == 0.0
    far = (8 // 2) * 8 + (8 // 2)
    print(f"flat_torus(8) d(corner, center) = {d1[far]!r}")

    disk = disk_mesh(10)
    xy = disk.coords[:, :2]
    taxi = np.abs(xy[:, 0]) + np.abs(xy[:, 1])
    comps = contour_components(disk, taxi, 1.2)
    print(f"disk(10) taxicab level 1.2 components = {len(comps)}")

    # levels chosen off the vertex value grid: strict straddling only
    torus = torus_mesh(24, 12)
    hz = height_field(torus).values
    print(f"torus(24x12) height contour count at 0.137 = "
          f"{len(contour_components(torus, hz, 0.137))}, at 1.03 = "
          f"{len(contour_components(torus, hz, 1.03))}")
    top = contour_components(torus, hz, 1.03)[0]
    diam = contour_intrinsic_diameter(torus, hz, 1.03, sorted(top))
    print(f"torus height level-1.03 contour intrinsic diameter = {diam!r}")

    circ = circle_mesh(64)
    hy = ScalarField(circ.coords[:, 1])
    graph, qmap = build_reeb(circ, hy)
    dis_h = distortion_oracle(circ, hy, graph, qmap)
    print(f"circle(64) height distortion = {dis_h!r}")

    df = distance_field(circ, 0)
    graph, qmap = build_reeb(circ, df)
    dis_d = distortion_oracle(circ, df, graph, qmap)
    print(f"circle(64) distance-field distortion = {dis_d!r}")

    th = theta_mesh(24, 6)
    amb = ScalarField(np.hypot(th.coords[:, 0], th.coords[:, 1]))
    graph, qmap = build_reeb(th, amb)
    dis_t = distortion_oracle(th, amb, graph, qmap)
    print(f"theta(24,6) ambient-field distortion = {dis_t!r} "
          f"(nodes {graph.n_nodes}, rank {graph.cycle_rank})")


if __name__ == "__main__":
    main()
