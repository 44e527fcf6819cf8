"""Reeb graph construction by an ascending level sweep.

Components of the current level set are tracked as sets of straddling
edges.  The sweep advances one value at a time: all vertices sharing a
value form one event and are processed simultaneously, so equal critical
values (tied saddles, plateaus) collapse or split exactly as the level
sets of the unperturbed field do.  Within an event, vertices and incoming
components are grouped into the connected pieces of the level set at that
value; a piece met by one component and leaving as one component is
regular and keeps its growing Reeb edge, every other signature creates a
node.  The resulting graph has no degree-2 interior nodes.

Two facts keep the event local.  Adjacency between straddling edges is
unchanged at the event value itself, so each surviving component acts as a
single connectivity unit; and a component whose contour passes through a
triangle at an event vertex is already attached to that vertex by the low
edge of the same triangle.  Grouping therefore only needs low edges and
flat (within-event) edges.

On surface meshes a single-vertex event whose lower and upper links are
both connected is regular, which replaces the component recomputation with
an O(star) update; everything else falls back to a flood fill over the
affected edges, where two straddling edges are adjacent when a shared
triangle crosses the level on exactly those two.
"""

from __future__ import annotations

import numpy as np

from ..complexes.simplicial import ScalarField, SimplicialComplex
from .graph import QuotientMap, ReebGraph


class _Comp:
    __slots__ = ("edges", "branch")

    def __init__(self, edges, branch):
        self.edges = edges
        self.branch = branch


class _Branch:
    __slots__ = ("start", "end")

    def __init__(self, start):
        self.start = start
        self.end = None


def _link_connected(members, pairs):
    if not members:
        return False
    parent = {m: m for m in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = len(members)
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            comps -= 1
    return comps == 1


def build_reeb(complex: SimplicialComplex, field: ScalarField):
    """Construct (ReebGraph, QuotientMap) of a PL field."""
    if len(field) != complex.n_vertices:
        raise ValueError("field does not match complex")
    g = field.resolved_values
    n = complex.n_vertices
    order = np.argsort(g, kind="stable")
    sv = g[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(sv) > 0])) \
        if n else np.empty(0, dtype=np.int64)
    bounds = np.append(starts, n)

    # the flood below reads single entries millions of times, and
    # memoryviews return them as Python scalars, far faster than numpy
    processed = memoryview(np.zeros(n, dtype=bool))
    edges_arr = complex.edges
    ends = memoryview(edges_arr)
    vtx_edges = complex.vertex_edges
    edge_tris = complex.edge_triangles
    tri_edges = memoryview(complex.triangle_edges)
    use_links = complex.is_surface
    vertex_tris = None
    if use_links:
        vertex_tris = [[] for _ in range(n)]
        for t, (i, j, k) in enumerate(complex.triangles.tolist()):
            vertex_tris[i].append(t)
            vertex_tris[j].append(t)
            vertex_tris[k].append(t)

    edge2comp = {}
    branches = []
    nodes = []
    qpoints = [None] * n

    def straddles(e):
        return processed[ends[e, 0]] != processed[ends[e, 1]]

    def flood(pool):
        """Partition `pool` into contour components one gap above the
        event; adjacency is a shared triangle cut on exactly two edges."""
        groups = []
        unvisited = set(pool)
        while unvisited:
            start = unvisited.pop()
            group = {start}
            stack = [start]
            while stack:
                e = stack.pop()
                for t in edge_tris[e]:
                    cut = [x for x in (tri_edges[t, 0], tri_edges[t, 1],
                                       tri_edges[t, 2]) if straddles(x)]
                    if not cut:
                        continue
                    if len(cut) != 2:
                        raise AssertionError("level crosses a triangle on "
                                             f"{len(cut)} edges")
                    partner = cut[1] if cut[0] == e else cut[0]
                    if partner not in pool:
                        raise AssertionError("contour escaped its event")
                    if partner in unvisited:
                        unvisited.discard(partner)
                        group.add(partner)
                        stack.append(partner)
            groups.append(group)
        return groups

    for ci in range(starts.shape[0]):
        cluster = [int(v) for v in order[bounds[ci]:bounds[ci + 1]]]
        level = float(sv[bounds[ci]])

        if len(cluster) == 1 and use_links:
            v = cluster[0]
            low, up = [], []
            for e in vtx_edges[v]:
                i, j = edges_arr[e]
                w = j if i == v else i
                (low if processed[w] else up).append(e)
            if low and up:
                lo_m, hi_m, lo_p, hi_p = set(), set(), [], []
                for e in low:
                    i, j = edges_arr[e]
                    lo_m.add(j if i == v else i)
                for e in up:
                    i, j = edges_arr[e]
                    hi_m.add(j if i == v else i)
                for t in vertex_tris[v]:
                    a, b = (int(x) for x in complex.triangles[t] if x != v)
                    if processed[a] and processed[b]:
                        lo_p.append((a, b))
                    elif not processed[a] and not processed[b]:
                        hi_p.append((a, b))
                if _link_connected(lo_m, lo_p) and _link_connected(hi_m, hi_p):
                    processed[v] = True
                    comp = edge2comp[low[0]]
                    comp.edges.difference_update(low)
                    comp.edges.update(up)
                    for e in low:
                        del edge2comp[e]
                    for e in up:
                        edge2comp[e] = comp
                    qpoints[v] = ("edge", comp.branch, level)
                    continue

        cset = set(cluster)
        low_pairs = []   # (edge, cluster vertex) from below
        up_pairs = []    # (edge, cluster vertex) to above
        flat_pairs = []  # (u, v) within the event
        for u in cluster:
            for e in vtx_edges[u]:
                i, j = edges_arr[e]
                w = j if i == u else i
                if w in cset:
                    if w > u:
                        flat_pairs.append((u, w))
                elif processed[w]:
                    low_pairs.append((e, u))
                else:
                    up_pairs.append((e, u))
        for u in cluster:
            processed[u] = True

        # group cluster vertices and incoming components into the
        # connected pieces of the level set at the event value
        parent = {u: u for u in cluster}
        comp_of = {}
        for e, _ in low_pairs:
            c = edge2comp[e]
            if id(c) not in comp_of:
                comp_of[id(c)] = c
                parent[id(c)] = id(c)

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for e, u in low_pairs:
            union(u, id(edge2comp[e]))
        for u, w in flat_pairs:
            union(u, w)

        verts_of = {}
        for u in cluster:
            verts_of.setdefault(find(u), []).append(u)
        comps_of = {}
        for key, c in comp_of.items():
            comps_of.setdefault(find(key), []).append(c)

        low_edges = {e for e, _ in low_pairs}
        up_of = {}
        for e, u in up_pairs:
            up_of.setdefault(find(u), []).append(e)

        for root in set(verts_of) | set(comps_of):
            verts = verts_of.get(root, [])
            in_comps = comps_of.get(root, [])
            pool = set(up_of.get(root, []))
            for c in in_comps:
                pool.update(c.edges)
            pool.difference_update(low_edges)
            groups = flood(pool)

            if len(in_comps) == 1 and len(groups) == 1:
                comp = in_comps[0]
                comp.edges = groups[0]
                for e, _ in low_pairs:
                    if edge2comp.get(e) is comp:
                        del edge2comp[e]
                for e in groups[0]:
                    edge2comp[e] = comp
                for u in verts:
                    qpoints[u] = ("edge", comp.branch, level)
                continue

            nid = len(nodes)
            nodes.append((level, min(verts) if verts else None))
            for u in verts:
                qpoints[u] = ("node", nid)
            for c in in_comps:
                branches[c.branch].end = nid
                for e in c.edges:
                    if e in low_edges:
                        del edge2comp[e]
            for group in groups:
                bid = len(branches)
                branches.append(_Branch(nid))
                comp = _Comp(group, bid)
                for e in group:
                    edge2comp[e] = comp

    if edge2comp:
        raise AssertionError("sweep finished with live level-set components")
    open_branches = [b for b in branches if b.end is None]
    if open_branches:
        raise AssertionError("sweep finished with open Reeb edges")

    graph = ReebGraph(nodes, [(b.start, b.end) for b in branches])
    qmap = QuotientMap(qpoints, g)
    return graph, qmap
