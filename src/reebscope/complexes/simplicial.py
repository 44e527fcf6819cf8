"""Finite simplicial 2-complexes with edge lengths, and PL scalar fields on them.

A complex is a vertex set 0..V-1, an edge list with strictly positive lengths,
and an optional triangle list.  Vertices may carry embedded 3D coordinates, in
which case edge lengths are the Euclidean distances; metric-only complexes
(e.g. the flat torus) carry explicit lengths and no coordinates.

A scalar field is one real value per vertex, extended linearly over edges and
triangles.  Vertex values need not be distinct: exact ties are kept, and only
near-ties from float noise are snapped to one value (`resolved_values`).
"""

from __future__ import annotations

import numpy as np

COORD_LENGTH_RTOL = 1e-9


class NonGenericLevelError(ValueError):
    """Raised when a level query coincides with a vertex value."""


def sorted_unique(a):
    """`np.unique(a)` of a 1-d array without NaN, by a sort and a
    neighbour mask: `np.unique` hashes int64 keys, which is slower than a
    sort, and its first call imports `numpy.ma`."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def components(n, a, b):
    """Connected components of the graph on nodes 0..n-1 with the edges
    a[i]b[i]: their number, and an int32 label per node numbered by least
    node.

    A hook-and-jump union-find (Shiloach and Vishkin, J. Algorithms 1982),
    one numpy pass per step.  Every node points at itself or at a smaller
    node, so each tree's root is the least node of its component.  The
    first hook needs no minimum, as every node is then a root; later hooks
    take the least root offered, so that a root joined to many others
    (a star's centre) does not take one of them per round.
    """
    # the edge arrays set a large call's peak memory: the ends are cast to
    # intp after the min and max, and mapped to their roots one at a time
    a, b = np.asarray(a), np.asarray(b)
    lo = np.minimum(a, b).astype(np.intp, copy=False)
    hi = np.maximum(a, b).astype(np.intp, copy=False)
    if lo.size and not 0 <= lo.min() <= hi.max() < n:
        raise ValueError(f"edge ends {lo.min()}..{hi.max()} outside the "
                         f"nodes 0..{n - 1}")
    parent = np.arange(n)
    parent[hi] = lo
    while True:
        while True:
            up = parent[parent]
            stable = np.array_equal(up, parent)
            parent = up
            if stable:
                break
        lo = parent[lo]
        hi = parent[hi]
        cross = lo != hi
        if not cross.any():
            break
        lo, hi = lo[cross], hi[cross]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        np.minimum.at(parent, hi, lo)
    root = parent == np.arange(n)
    labels = (np.cumsum(root, dtype=np.int32) - 1)[parent]
    return int(np.count_nonzero(root)), labels


def _as_int_rows(rows, width, what):
    """`rows` as an (n, width) int64 array.  Booleans and non-integral
    numbers are not vertex ids; numpy would read them as 0/1 or truncate
    them, so they are rejected."""
    arr = np.asarray(rows if rows is not None else [])
    if arr.size == 0:
        return np.zeros((0, width), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{what} must be an (n, {width}) integer array")
    # a list mixing ints and booleans converts to an int array
    mixed = not isinstance(rows, np.ndarray) and any(
        isinstance(x, (bool, np.bool_)) for row in rows for x in row)
    if mixed or arr.dtype.kind not in "iuf" or (
            arr.dtype.kind == "f" and not np.all(arr == np.round(arr))):
        raise ValueError(f"{what} must hold integer vertex ids")
    return arr.astype(np.int64, copy=False)


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
        self.n_vertices = n = int(n_vertices)

        tri = _as_int_rows(triangles, 3, "triangles")
        if tri.size:
            if tri.min() < 0 or tri.max() >= n:
                raise ValueError("triangle vertex index out of range")
            tri = np.sort(tri, axis=1)
            if np.any(tri[:, 0] == tri[:, 1]) or np.any(tri[:, 1] == tri[:, 2]):
                raise ValueError("degenerate triangle (repeated vertex)")
            tri = tri[np.lexsort(tri.T[::-1])]
            tri = tri[np.concatenate([[True], np.any(tri[1:] != tri[:-1],
                                                     axis=1)])]
        self.triangles = tri

        given = _as_int_rows(edges, 2, "edges")
        if given.size:
            if given.min() < 0 or given.max() >= n:
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

        # edge (i, j), i < j, has the key i*V + j; a triangle's edges are
        # (ij, ik, jk), the column order of triangle_edges
        given_keys = given_sorted[:, 0] * n + given_sorted[:, 1]
        tri_keys = tri[:, [0, 0, 1]] * n + tri[:, [1, 2, 2]]
        if self.coords is None:
            if lengths is None:
                raise ValueError("metric-only complexes need explicit lengths")
            self.edges = given_sorted
            self.lengths = lengths
            self._index_edges(given_keys)
            te = self._edge_ids(tri_keys)
            if np.any(te < 0):
                i, j = divmod(int(tri_keys[te < 0][0]), n)
                raise ValueError(f"triangle edge {(i, j)} missing from edge "
                                 f"list")
            if np.any(np.diff(self._keys) == 0):
                raise ValueError("duplicate edge")
        else:
            keys = sorted_unique(np.concatenate([given_keys,
                                                 tri_keys.ravel()]))
            self.edges = np.column_stack([keys // n, keys % n])
            d = self.coords[self.edges[:, 0]] - self.coords[self.edges[:, 1]]
            self.lengths = np.linalg.norm(d, axis=1)
            self._index_edges(keys)
            te = self._edge_ids(tri_keys)
            if lengths is not None:
                # caller supplied lengths for the explicit edges: check them
                ref = self.lengths[self._edge_ids(given_keys)]
                if np.any(np.abs(lengths - ref)
                          > COORD_LENGTH_RTOL * np.maximum(1.0, ref)):
                    raise ValueError("edge length inconsistent with coords")
        if np.any(self.lengths <= 0):
            raise ValueError("edge lengths must be strictly positive")

        self.n_edges = self.edges.shape[0]
        self.n_triangles = self.triangles.shape[0]
        self.triangle_edges = te
        self.edge_triangle_count = np.bincount(te.ravel(),
                                               minlength=self.n_edges)
        if self.n_triangles:
            self.boundary_edges = self.edge_triangle_count == 1
            self.boundary_vertices = np.zeros(n, dtype=bool)
            self.boundary_vertices[self.edges[self.boundary_edges]] = True
        else:
            # for pure graphs the natural boundary is the set of leaves
            self.boundary_edges = np.zeros(self.n_edges, dtype=bool)
            self.boundary_vertices = np.bincount(self.edges.ravel(),
                                                 minlength=n) == 1

        self.component_labels = components(
            n, self.edges[:, 0], self.edges[:, 1])[1].astype(np.int64)
        self.n_components = int(self.component_labels.max()) + 1 \
            if self.n_vertices else 0

        self._csr = None
        self._is_surface = None

    # ------------------------------------------------------------------

    def _index_edges(self, keys):
        """Sort the edge keys for `_edge_ids`, with a sentinel above every
        key at the end."""
        order = np.argsort(keys, kind="stable")
        self._keys = np.append(keys[order], self.n_vertices ** 2)
        self._key_edge = np.append(order, -1)

    def _edge_ids(self, keys):
        """Edge id of each key i*V + j (i < j), -1 where there is no edge."""
        pos = np.searchsorted(self._keys, keys)
        return np.where(self._keys[pos] == keys, self._key_edge[pos], -1)

    def edge_id(self, i, j):
        i, j = min(i, j), max(i, j)
        e = int(self._edge_ids(i * self.n_vertices + j)) \
            if 0 <= i < j < self.n_vertices else -1
        if e < 0:
            raise KeyError((i, j))
        return e

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
            count = self.edge_triangle_count
            self._is_surface = bool(
                self.n_triangles and np.all((count >= 1) & (count <= 2))
                and np.all(link_components(
                    self, np.zeros(self.n_vertices))[1] <= 1))
        return self._is_surface

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return (f"<SimplicialComplex{tag} V={self.n_vertices} "
                f"E={self.n_edges} T={self.n_triangles}>")


def link_components(complex: SimplicialComplex, g):
    """Per vertex v: the numbers of components of its lower, its level and
    its upper link, as three arrays.

    The link of v is the graph of the edges opposite v in the triangles
    around it; its lower (level, upper) part is the subgraph induced on the
    link vertices below (at, above) g[v].  Link vertex w of v is node
    2e + (v is the upper end of e) for the edge e = vw, so the link edges
    of a triangle's corners come straight from its `triangle_edges`, and
    all links are labelled with one connected-components call.
    """
    ij, ik, jk = complex.triangle_edges.T
    # the link edges of corners i, j and k join these node pairs
    a = np.concatenate([2 * ij, 2 * ij + 1, 2 * ik + 1])
    b = np.concatenate([2 * ik, 2 * jk, 2 * jk + 1])
    centre = complex.edges.ravel()
    side = np.sign(g[complex.edges[:, ::-1].ravel()] - g[centre])
    # an edge in no triangle is in no link
    side[np.repeat(complex.edge_triangle_count == 0, 2)] = 2
    same = side[a] == side[b]
    n_comp, labels = components(centre.size, a[same], b[same])
    # the nodes of a component share their centre and their side
    comp_centre = np.empty(n_comp, dtype=np.int64)
    comp_centre[labels] = centre
    comp_side = np.empty(n_comp, dtype=side.dtype)
    comp_side[labels] = side
    return tuple(np.bincount(comp_centre[comp_side == s],
                             minlength=complex.n_vertices)
                 for s in (-1, 0, 1))


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
