"""Reference Reeb graph built from whole-level contour snapshots.

This is a deliberately naive second route used to check `build_reeb`: it
samples a full set of contours in every gap between consecutive distinct
vertex values, then matches components across each value through the slab
bounded by the two neighboring sample levels.  The slab of one event is
the part of the complex between those levels; its connected pieces are
found by a union-find over every vertex, edge and triangle part inside,
which is valid because a linear function cuts a convex slice out of each
simplex.  The gap contours come from the same union-find on the slab of
zero width at the sample level, where two crossing edges join when a
triangle is cut on both, so no labelling code is shared with
`build_reeb`.  A slab piece met by one contour from below and one from
above is a strand passing through; any other signature is a node.
Quadratic in the complex size, only meant for small inputs.
"""

from __future__ import annotations

import numpy as np

from ..complexes.simplicial import ScalarField, SimplicialComplex
from .graph import ReebGraph


class _Strand:
    __slots__ = ("start", "end")

    def __init__(self, start):
        self.start = start
        self.end = None


class _Find:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _slab_pieces(complex, g, lo, hi):
    """Union-find over the simplex parts with values inside [lo, hi];
    returns it keyed by ("v", vertex) and ("e", edge)."""
    uf = _Find()
    ev = g[complex.edges]
    e_in = (np.minimum(ev[:, 0], ev[:, 1]) < hi) \
        & (np.maximum(ev[:, 0], ev[:, 1]) > lo)
    for e in np.flatnonzero(e_in):
        uf.add(("e", int(e)))
        for v in complex.edges[e]:
            if lo < g[v] < hi:
                uf.add(("v", int(v)))
                uf.union(("e", int(e)), ("v", int(v)))
    for v in np.flatnonzero((g > lo) & (g < hi)):
        uf.add(("v", int(v)))
    for t in range(complex.n_triangles):
        inside = [("e", int(e)) for e in complex.triangle_edges[t]
                  if e_in[e]]
        for a, b in zip(inside, inside[1:]):
            uf.union(a, b)
    return uf


def reeb_oracle(complex: SimplicialComplex, field: ScalarField) -> ReebGraph:
    """Reeb graph of a PL field, by brute-force contour tracking."""
    if len(field) != complex.n_vertices:
        raise ValueError("field does not match complex")
    g = field.resolved_values
    n = complex.n_vertices
    if n == 0:
        return ReebGraph([], [])
    vals = np.unique(g)

    def gap_comps(lo, hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise AssertionError("values too close to sample between")
        uf = _slab_pieces(complex, g, mid, mid)
        groups = {}
        for item in uf.parent:
            groups.setdefault(uf.find(item), set()).add(item[1])
        return [frozenset(es) for es in groups.values()]

    nodes = []
    strands = []
    prev = []
    prev_mid = float(vals[0]) - 1.0
    for i, val in enumerate(map(float, vals)):
        cur_mid = 0.5 * (val + float(vals[i + 1])) if i + 1 < vals.shape[0] \
            else val + 1.0
        cur = gap_comps(val, float(vals[i + 1])) if i + 1 < vals.shape[0] \
            else []
        uf = _slab_pieces(complex, g, prev_mid, cur_mid)

        def piece_of(item):
            roots = {uf.find(("e", e)) for e in item}
            if len(roots) != 1:
                raise AssertionError("a contour spans several slab pieces")
            return roots.pop()

        ins, outs = {}, {}
        for es, sid in prev:
            ins.setdefault(piece_of(es), []).append(sid)
        for es in cur:
            outs.setdefault(piece_of(es), []).append(es)
        verts = {}
        for v in np.flatnonzero(g == val):
            verts.setdefault(uf.find(("v", int(v))), []).append(int(v))

        prev = []
        for root in set(ins) | set(outs) | set(verts):
            incoming = ins.get(root, [])
            outgoing = outs.get(root, [])
            if len(incoming) == 1 and len(outgoing) == 1:
                prev.append((outgoing[0], incoming[0]))
                continue
            if root not in verts:
                raise AssertionError("an event piece has no vertex at the "
                                     "event value")
            nid = len(nodes)
            nodes.append((val, min(verts[root])))
            for sid in incoming:
                strands[sid].end = nid
            for es in outgoing:
                prev.append((es, len(strands)))
                strands.append(_Strand(nid))
        prev_mid = cur_mid

    if any(s.end is None for s in strands):
        raise AssertionError("contour tracking left an open strand")
    return ReebGraph(nodes, [(s.start, s.end) for s in strands])
