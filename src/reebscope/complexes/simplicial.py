"""Finite simplicial 2-complexes with edge lengths, and PL scalar fields on them.

A complex is a vertex set 0..V-1, an edge list with strictly positive lengths,
and an optional triangle list.  Vertices may carry embedded 3D coordinates, in
which case edge lengths are the Euclidean distances; metric-only complexes
(e.g. the flat torus) carry explicit lengths and no coordinates.

A scalar field is one real value per vertex, extended linearly over edges and
triangles.  Genericity (pairwise distinct vertex values) is enforced by a
lexicographic perturbation with vertex id as tie-break, realized as actual
floats so that every consumer shares one consistent order.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

COORD_LENGTH_RTOL = 1e-9


class NonGenericLevelError(ValueError):
    """Raised when a level query coincides with a vertex value."""


def _as_int_rows(rows, width, what):
    arr = np.asarray(rows if rows is not None else [], dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{what} must be an (n, {width}) integer array")
    return arr


class SimplicialComplex:
    """Immutable-by-convention simplicial complex of dimension at most 2.

    Parameters
    ----------
    edges : (E, 2) int array
        Vertex pairs.  May be None when `triangles` and `coords` are given,
        in which case the edge set is derived from the triangles.
    triangles : (T, 3) int array, optional
        Vertex triples.  Every triangle edge must be (or becomes) an edge.
    coords : (V, 3) float array, optional
        Embedded coordinates.  When present, lengths are Euclidean.
    lengths : (E,) float array, optional
        Explicit edge lengths, aligned with `edges`.  Required when `coords`
        is absent; validated against coordinates when both are given.
    n_vertices : int, optional
        Vertex count when `coords` is absent (isolated vertices allowed).
    name : str
        Label used in reports.
    """

    def __init__(self, edges=None, triangles=None, coords=None, lengths=None,
                 n_vertices=None, name=""):
        self.name = name
        self.coords = None if coords is None else np.asarray(coords, dtype=float)
        if self.coords is not None:
            if self.coords.ndim != 2 or self.coords.shape[1] != 3:
                raise ValueError("coords must be a (V, 3) array")
            if not np.all(np.isfinite(self.coords)):
                raise ValueError("coords must be finite")
            n_vertices = self.coords.shape[0]
        if n_vertices is None:
            raise ValueError("need coords or an explicit n_vertices")
        self.n_vertices = int(n_vertices)

        tri = _as_int_rows(triangles, 3, "triangles")
        if tri.size:
            if tri.min() < 0 or tri.max() >= self.n_vertices:
                raise ValueError("triangle vertex index out of range")
            tri = np.sort(tri, axis=1)
            if np.any(tri[:, 0] == tri[:, 1]) or np.any(tri[:, 1] == tri[:, 2]):
                raise ValueError("degenerate triangle (repeated vertex)")
            tri = np.unique(tri, axis=0)
        self.triangles = tri

        given = _as_int_rows(edges, 2, "edges")
        if given.size:
            if given.min() < 0 or given.max() >= self.n_vertices:
                raise ValueError("edge vertex index out of range")
            if np.any(given[:, 0] == given[:, 1]):
                raise ValueError("degenerate edge (repeated vertex)")
        given_sorted = np.sort(given, axis=1) if given.size else given
        if lengths is not None:
            lengths = np.asarray(lengths, dtype=float)
            if lengths.shape != (given_sorted.shape[0],):
                raise ValueError("lengths must align with edges")
            if not np.all(np.isfinite(lengths)):
                raise ValueError("edge lengths must be finite")

        tri_pairs = np.vstack([tri[:, [0, 1]], tri[:, [0, 2]], tri[:, [1, 2]]]) \
            if tri.size else np.zeros((0, 2), dtype=np.int64)

        if self.coords is None:
            if lengths is None:
                raise ValueError("metric-only complexes need explicit lengths")
            self.edges = given_sorted
            self.lengths = lengths
            known = {tuple(e) for e in self.edges.tolist()}
            for e in {tuple(p) for p in tri_pairs.tolist()}:
                if e not in known:
                    raise ValueError(f"triangle edge {e} missing from edge list")
        else:
            all_edges = np.vstack([given_sorted, tri_pairs]) if tri_pairs.size \
                else given_sorted
            if all_edges.size == 0:
                self.edges = np.zeros((0, 2), dtype=np.int64)
            else:
                self.edges = np.unique(all_edges, axis=0)
            d = self.coords[self.edges[:, 0]] - self.coords[self.edges[:, 1]] \
                if self.edges.size else np.zeros((0, 3))
            self.lengths = np.linalg.norm(d, axis=1)
            if lengths is not None:
                # caller supplied lengths for the explicit edges: check them
                idx = {tuple(e): i for i, e in enumerate(self.edges.tolist())}
                for row, ln in zip(given_sorted.tolist(), lengths):
                    ref = self.lengths[idx[tuple(row)]]
                    if abs(ln - ref) > COORD_LENGTH_RTOL * max(1.0, ref):
                        raise ValueError("edge length inconsistent with coords")

        if self.edges.size:
            uniq = np.unique(self.edges, axis=0)
            if uniq.shape[0] != self.edges.shape[0]:
                raise ValueError("duplicate edge")
        if np.any(self.lengths <= 0):
            raise ValueError("edge lengths must be strictly positive")

        self.n_edges = self.edges.shape[0]
        self.n_triangles = self.triangles.shape[0]
        self._edge_index = {tuple(e): i for i, e in enumerate(self.edges.tolist())}

        te = np.zeros((self.n_triangles, 3), dtype=np.int64)
        for t, (i, j, k) in enumerate(self.triangles.tolist()):
            te[t, 0] = self._edge_index[(i, j)]
            te[t, 1] = self._edge_index[(i, k)]
            te[t, 2] = self._edge_index[(j, k)]
        self.triangle_edges = te

        tri_count = np.bincount(te.ravel(), minlength=self.n_edges)
        self.edge_triangle_count = tri_count
        if self.n_triangles:
            self.boundary_edges = tri_count == 1
            self.boundary_vertices = np.zeros(self.n_vertices, dtype=bool)
            for e in np.flatnonzero(self.boundary_edges):
                self.boundary_vertices[self.edges[e]] = True
        else:
            # for pure graphs the natural boundary is the set of leaves
            deg = np.zeros(self.n_vertices, dtype=np.int64)
            for i, j in self.edges.tolist():
                deg[i] += 1
                deg[j] += 1
            self.boundary_edges = np.zeros(self.n_edges, dtype=bool)
            self.boundary_vertices = deg == 1

        self.component_labels = self._components()
        self.n_components = int(self.component_labels.max()) + 1 \
            if self.n_vertices else 0

        self._csr = None
        self._is_surface = None

    # ------------------------------------------------------------------

    def _components(self):
        """Component label per vertex, numbered by least vertex."""
        ones = np.ones(self.n_edges, dtype=bool)
        graph = coo_matrix((ones, (self.edges[:, 0], self.edges[:, 1])),
                           shape=(self.n_vertices, self.n_vertices))
        return connected_components(graph, directed=False)[1].astype(np.int64)

    def edge_id(self, i, j):
        return self._edge_index[(i, j) if i < j else (j, i)]

    @property
    def adjacency(self):
        """Sparse symmetric weighted adjacency (CSR), built lazily."""
        if self._csr is None:
            from scipy.sparse import csr_matrix
            i = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
            j = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
            w = np.concatenate([self.lengths, self.lengths])
            self._csr = csr_matrix((w, (i, j)),
                                   shape=(self.n_vertices, self.n_vertices))
        return self._csr

    @property
    def is_surface(self):
        """True when every edge lies in one or two triangles and every vertex
        star is a single triangle fan (disk or half-disk)."""
        if self._is_surface is None:
            self._is_surface = self._check_surface()
        return self._is_surface

    def _check_surface(self):
        if self.n_triangles == 0:
            return False
        if np.any(self.edge_triangle_count > 2):
            return False
        # an edge in no triangle is a dangling edge or an edge-only vertex
        if np.any(self.edge_triangle_count == 0):
            return False
        # each vertex link must be one path or one cycle
        link_edges = [[] for _ in range(self.n_vertices)]
        for (i, j, k) in self.triangles.tolist():
            link_edges[i].append((j, k))
            link_edges[j].append((i, k))
            link_edges[k].append((i, j))
        for v in range(self.n_vertices):
            pairs = link_edges[v]
            if not pairs:
                continue
            deg = {}
            for a, b in pairs:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            if any(d > 2 for d in deg.values()):
                return False
            # connectivity of the link graph
            adj = {}
            for a, b in pairs:
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
            seen = {next(iter(adj))}
            stack = [next(iter(adj))]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) != len(adj):
                return False
        return True

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return (f"<SimplicialComplex{tag} V={self.n_vertices} "
                f"E={self.n_edges} T={self.n_triangles}>")


class ScalarField:
    """PL scalar field given by one value per vertex.

    `resolved_values` is the working copy of the values with float noise
    collapsed: values closer than about 1e-12 of the field's scale snap to
    a common representative, absorbing the few ulps by which two geodesic
    sums of the same edge lengths can differ.  Exact ties are kept tied on
    purpose; the Reeb builder cuts the complex at each tied value at once,
    which is what makes degenerate fields (tied saddles, plateaus) come
    out with the connectivity of their unperturbed level sets.  When the
    raw values are pairwise distinct the two arrays coincide.
    """

    def __init__(self, values):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1:
            raise ValueError("field values must be a 1-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        self.values = v
        self._resolved = None

    def __len__(self):
        return self.values.shape[0]

    @property
    def resolved_values(self):
        if self._resolved is None:
            self._resolved = _snap_ties(self.values)
        return self._resolved

    def shifted(self, c):
        return ScalarField(self.values + c)


def _snap_ties(values):
    n = values.shape[0]
    if n == 0:
        return values.copy()
    order = np.argsort(values, kind="stable")
    sv = values[order]
    diffs = np.diff(sv)
    scale = float(max(1.0, np.abs(values).max()))
    tie_tol = max(1e-12 * scale, 8.0 * np.spacing(scale))
    if diffs.size == 0 or np.all(diffs > tie_tol):
        return values.copy()
    # every run of near-equal sorted values snaps to its first member;
    # runs end at gaps above tie_tol, so distinct outputs stay separated
    # by more than tie_tol and every gap holds its midpoint exactly
    starts = np.concatenate([[True], diffs > tie_tol])
    reps = sv[starts]
    out = np.empty_like(sv)
    out[order] = reps[np.cumsum(starts) - 1]
    return out


def check_field(complex: SimplicialComplex, field: ScalarField):
    if len(field) != complex.n_vertices:
        raise ValueError(
            f"field has {len(field)} values for {complex.n_vertices} vertices")


def height_field(complex: SimplicialComplex, axis: int = 2) -> ScalarField:
    """Coordinate function along one embedding axis."""
    if complex.coords is None:
        raise ValueError("height field needs embedded coordinates")
    return ScalarField(complex.coords[:, axis].copy())


def analytic_field(complex: SimplicialComplex, func) -> ScalarField:
    """Sample a function of the embedded coordinates at the vertices."""
    if complex.coords is None:
        raise ValueError("analytic field needs embedded coordinates")
    return ScalarField(np.asarray([func(p) for p in complex.coords], dtype=float))
