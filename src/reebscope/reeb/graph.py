"""The Reeb graph as a finite topological graph with leveled nodes.

Nodes carry their critical value and the complex vertex they came from;
edges are a multigraph, each spanning two distinct levels.  The graph metric
uses the level difference as edge length, so distances are measured in
function units.  Graph points are encoded as ("node", id) or
("edge", edge_id, level) with level strictly inside the edge's span.
"""

from __future__ import annotations

import json

import numpy as np

from ..complexes.geodesic import through_ends
from ..complexes.simplicial import components


class ReebGraph:
    def __init__(self, nodes, edges, n_components=None):
        """nodes: list of (level, complex vertex or None);
        edges: list of (u, v) node-id pairs with distinct levels;
        n_components: the number of connected components when the caller
        knows it (counted on first use otherwise)."""
        self.levels = np.asarray([lv for lv, _ in nodes], dtype=float)
        self.vertices = [v for _, v in nodes]
        norm = []
        for u, v in edges:
            if self.levels[u] == self.levels[v]:
                raise ValueError("horizontal edge: field was not generic")
            norm.append((u, v) if self.levels[u] < self.levels[v] else (v, u))
        self.edges = norm
        self._edge_nodes = np.asarray(norm, dtype=np.int64).reshape(-1, 2)
        self._dist = None
        self._components = n_components

    @property
    def n_nodes(self):
        return self.levels.shape[0]

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_components(self):
        if self._components is None:
            u, v = self._edge_nodes.T
            self._components = components(self.n_nodes, u, v)[0]
        return self._components

    @property
    def cycle_rank(self):
        return self.n_edges - self.n_nodes + self.n_components

    # ---------------------------------------------------------- metric

    def node_distances(self):
        """All-pairs shortest-path matrix over nodes (length = level span)."""
        if self._dist is None:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import dijkstra
            # parallel edges span the same levels: one of each will do
            u, v = np.unique(self._edge_nodes, axis=0).T
            w = np.concatenate([self.levels[v] - self.levels[u]] * 2)
            n = self.n_nodes
            m = csr_matrix((w, (np.concatenate([u, v]),
                                np.concatenate([v, u]))), shape=(n, n))
            # m holds both directions of every edge: no transpose needed
            self._dist = dijkstra(m, directed=True)
        return self._dist

    def point_ends(self, on_node, target, levels):
        """Graph points given per point by whether it sits on a node, its
        node or edge id and its level: their (2, n) lower and upper ends,
        the costs of reaching each end, their edge ids (-1 on a node) and
        their levels.  A node is both its ends at no cost."""
        on_node = np.asarray(on_node, dtype=bool)
        target = np.asarray(target)
        if target.dtype.kind not in "biu":
            raise ValueError(f"graph-point ids must be integers, got {target}")
        target = target.astype(np.int64, copy=False)
        levels = np.asarray(levels, dtype=float)
        eid = np.where(on_node, -1, target)
        for ids, count, kind in ((target[on_node], self.n_nodes, "node"),
                                 (eid[~on_node], self.n_edges, "edge")):
            bad = ids[(ids < 0) | (ids >= count)]
            if bad.size:
                raise ValueError(f"{kind} id {bad[0]} out of range")
        ends = np.stack([target, target])
        ends[:, ~on_node] = self._edge_nodes[eid[~on_node]].T
        lo, hi = self.levels[ends]
        outside = ~on_node & ~((lo <= levels) & (levels <= hi))
        if outside.any():
            k = int(np.argmax(outside))
            raise ValueError(f"level {levels[k]} outside edge {eid[k]} span")
        costs = np.where(on_node, 0.0, [levels - lo, hi - levels])
        return ends, costs, eid, levels

    def point_distances(self, points, a, b):
        """Path metric between the `point_ends` points at the broadcast
        index arrays `a` and `b`; inf across components.  Points on one
        edge may also run straight along it."""
        ends, costs, eid, levels = points
        dm = self.node_distances()
        out = through_ends(lambda i, j: dm[ends[i][a], ends[j][b]],
                           [c[a] for c in costs], [c[b] for c in costs])
        same = (eid[a] == eid[b]) & (eid[a] >= 0)
        if np.any(same):
            np.minimum(out, np.where(same, np.abs(levels[a] - levels[b]),
                                     np.inf), out=out)
        return out

    def distance(self, a, b) -> float:
        """Path metric between two graph points; inf across components.

        Each call builds the ends of its two points; a caller measuring
        many pairs makes one `point_distances` call instead."""
        points = self.point_ends([p[0] == "node" for p in (a, b)],
                                 [a[1], b[1]],
                                 [p[2] if p[0] == "edge" else 0.0
                                  for p in (a, b)])
        return float(self.point_distances(points, [0], [1])[0])

    # --------------------------------------------------- isomorphism

    def canonical_form(self, with_levels=True):
        """Isomorphism invariant: nodes start in classes of equal level
        (equal level rank when `with_levels` is false) and the classes are
        refined by incident-edge signatures.  Complete for pairwise
        distinct node levels; with ties it can only err by declaring two
        highly symmetric non-isomorphic graphs equal, never the converse,
        so build-versus-oracle comparisons stay sound."""
        n = self.n_nodes
        lv = self.levels
        uniq = np.unique(lv)
        cls = np.searchsorted(uniq, lv)
        inc = [[] for _ in range(n)]
        for u, v in self.edges:
            inc[u].append((v, 1))
            inc[v].append((u, 0))
        m = uniq.shape[0]
        for _ in range(n + 1):
            sig = [(int(cls[i]),
                    tuple(sorted((int(cls[j]), d) for j, d in inc[i])))
                   for i in range(n)]
            ren = {s: k for k, s in enumerate(sorted(set(sig)))}
            cls = np.asarray([ren[s] for s in sig], dtype=np.int64)
            if len(ren) == m:
                break
            m = len(ren)
        edges = tuple(sorted((int(cls[u]), int(cls[v]))
                             for u, v in self.edges))
        if with_levels:
            return tuple(sorted(zip(map(int, cls), map(float, lv)))), edges
        return tuple(sorted(map(int, cls))), edges

    # ------------------------------------------------------- export

    def _export_order(self):
        return np.argsort(self.levels, kind="stable")

    def to_json_doc(self):
        order = self._export_order()
        rank = np.empty(self.n_nodes, dtype=np.int64)
        rank[order] = np.arange(self.n_nodes)
        return {
            "schema": 1,
            "nodes": [{"id": int(rank[i]), "level": float(self.levels[i])}
                      for i in order],
            "edges": sorted([sorted((int(rank[u]), int(rank[v])))
                             for u, v in self.edges]),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_doc(), sort_keys=True)

    def to_dot(self) -> str:
        doc = self.to_json_doc()
        lines = ["graph reeb {"]
        for nd in doc["nodes"]:
            lines.append(f'  n{nd["id"]} [label="{nd["level"]:.6f}"];')
        for u, v in doc["edges"]:
            lines.append(f"  n{u} -- n{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (f"<ReebGraph nodes={self.n_nodes} edges={self.n_edges} "
                f"cycle_rank={self.cycle_rank}>")


def isomorphic(a: ReebGraph, b: ReebGraph, with_levels=True) -> bool:
    return a.canonical_form(with_levels) == b.canonical_form(with_levels)


class QuotientMap:
    """Where each complex vertex lands in the Reeb graph: per vertex,
    whether it sits on a node, the node or edge id it lands on and its
    level.  The graph-point tuples of `ReebGraph.distance` are derived on
    demand."""

    def __init__(self, on_node, target, levels):
        self.on_node = np.asarray(on_node, dtype=bool)
        self.target = np.asarray(target, dtype=np.int64)
        self._levels = np.asarray(levels, dtype=float)
        self._points = None

    def __len__(self):
        return self._levels.shape[0]

    @property
    def points(self):
        """All graph points as a list, built on first access."""
        if self._points is None:
            self._points = [
                ("node", w) if at_node else ("edge", w, level)
                for at_node, w, level in zip(self.on_node.tolist(),
                                             self.target.tolist(),
                                             self._levels.tolist())]
        return self._points

    @property
    def levels(self):
        return self._levels

    def point(self, vertex):
        if self.on_node[vertex]:
            return ("node", int(self.target[vertex]))
        return ("edge", int(self.target[vertex]),
                float(self._levels[vertex]))

    def level(self, vertex) -> float:
        return float(self._levels[vertex])
