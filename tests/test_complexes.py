"""Complexes: construction, tie snapping, homology, contours, file formats.

Frozen constants were produced by `python3 tests/oracles.py`, which
recomputes them with plain-Python graph algorithms independent of the
library code paths.
"""

import itertools
import math
import re

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from reebscope.complexes import (Contour, ScalarField, SimplicialComplex,
                                 analytic_field, betti_numbers, contours_at,
                                 euler_characteristic, height_field,
                                 load_complex, load_field, save_complex,
                                 save_field)
from reebscope.complexes.generators import (circle_mesh, disk_mesh,
                                            flat_torus_mesh, generate_space,
                                            genus_mesh, hemisphere_mesh,
                                            path_mesh, theta_mesh,
                                            three_arc_mesh, torus_mesh,
                                            tripod_field, uv_sphere_mesh,
                                            wedge_circles_mesh)
from reebscope.complexes import contours, generators, geodesic
from reebscope.complexes.contours import piece_diameters, sweep_diameters
from reebscope.complexes.geodesic import (ALL_PAIRS_BUDGET_BYTES, diameter,
                                          distance_rows, single_source,
                                          vertex_distances)
from reebscope.complexes.levelscan import LevelScan, select_gaps
from reebscope.complexes.simplicial import (NonGenericLevelError,
                                            components, link_components,
                                            sorted_unique)
from reebscope.metric import distortion, max_contour_diameter
from reebscope.reeb import ReebGraph, build_reeb
from reebscope.suites import thm52_suite
from test_reeb import mixed_complexes, small_fixtures
from test_width import _book

# tests/oracles.py freeze run
FLAT_TORUS8_CORNER_TO_CENTER = 0.7071067811865476
TORUS_24x12_TOP_CONTOUR_DIAM = 2.378393130831263

TRIANGLE = dict(triangles=[[0, 1, 2]],
                coords=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


# ---------------------------------------------------------------- validation

def test_triangle_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        SimplicialComplex(triangles=[[0, 1, 3]],
                          coords=TRIANGLE["coords"])


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError, match="degenerate triangle"):
        SimplicialComplex(triangles=[[0, 1, 1]], coords=TRIANGLE["coords"])


@pytest.mark.parametrize("tri", [[[0, 1, 2.9]], [[0, True, 2]],
                                 [[0, 1, "2"]], np.array([[0, 1, 2.5]])])
def test_vertex_ids_must_be_integers(tri):
    # numpy would truncate 2.9 to 2 and read True as 1
    with pytest.raises(ValueError, match="integer vertex ids"):
        SimplicialComplex(triangles=tri, coords=TRIANGLE["coords"])


def test_integral_float_vertex_ids_are_accepted():
    cx = SimplicialComplex(triangles=[[0.0, 1.0, 2.0]],
                           coords=TRIANGLE["coords"])
    assert cx.triangles.tolist() == [[0, 1, 2]]


def test_degenerate_edge_rejected():
    with pytest.raises(ValueError, match="degenerate edge"):
        SimplicialComplex(edges=[[2, 2]], coords=TRIANGLE["coords"])


def test_metric_only_needs_lengths():
    with pytest.raises(ValueError, match="explicit lengths"):
        SimplicialComplex(edges=[[0, 1]], n_vertices=2)


def test_metric_only_needs_vertex_count():
    with pytest.raises(ValueError, match="n_vertices"):
        SimplicialComplex(edges=[[0, 1]], lengths=[1.0])


def test_lengths_must_align_with_edges():
    with pytest.raises(ValueError, match="align"):
        SimplicialComplex(edges=[[0, 1], [1, 2]], lengths=[1.0],
                          n_vertices=3)


def test_metric_only_triangle_edges_must_be_listed():
    with pytest.raises(ValueError, match="missing from edge list"):
        SimplicialComplex(edges=[[0, 1], [1, 2]], lengths=[1.0, 1.0],
                          triangles=[[0, 1, 2]], n_vertices=3)


def test_duplicate_metric_edge_rejected():
    with pytest.raises(ValueError, match="duplicate edge"):
        SimplicialComplex(edges=[[0, 1], [1, 0]], lengths=[1.0, 1.0],
                          n_vertices=2)


def test_nonpositive_length_rejected():
    with pytest.raises(ValueError, match="strictly positive"):
        SimplicialComplex(edges=[[0, 1]], lengths=[0.0], n_vertices=2)


def test_non_finite_coords_and_lengths_rejected():
    with pytest.raises(ValueError, match="coords must be finite"):
        SimplicialComplex(triangles=[[0, 1, 2]],
                          coords=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                  [0.0, np.nan, 0.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lengths must be finite"):
            SimplicialComplex(edges=[[0, 1]], lengths=[bad], n_vertices=2)
    with pytest.raises(ValueError, match="lengths must be finite"):
        SimplicialComplex(edges=[[0, 1]], lengths=[np.nan],
                          coords=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def test_supplied_length_checked_against_coords():
    with pytest.raises(ValueError, match="inconsistent with coords"):
        SimplicialComplex(edges=[[0, 1]], lengths=[2.0],
                          coords=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def test_coords_shape_checked():
    with pytest.raises(ValueError, match=r"\(V, 3\)"):
        SimplicialComplex(coords=[[0.0, 0.0], [1.0, 0.0]])


# ---------------------------------------------------------- derived structure

def test_triangle_edges_are_own_boundary():
    triangle = SimplicialComplex(**TRIANGLE)
    assert triangle.n_edges == 3
    assert triangle.boundary_edges.all()
    assert triangle.boundary_vertices.all()
    repeated = SimplicialComplex(
        triangles=[[2, 3, 1], [2, 1, 0], [0, 1, 2]],
        coords=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                [1.0, 1.0, 0.0]])
    assert repeated.triangles.tolist() == [[0, 1, 2], [1, 2, 3]]
    for cx in small_fixtures() + [triangle, repeated]:
        tri, te = cx.triangles, cx.triangle_edges
        assert np.array_equal(tri, np.unique(tri, axis=0))
        assert te.shape == tri.shape
        # columns (ij, ik, jk) of each sorted triangle (i, j, k)
        for col, (a, b) in enumerate([(0, 1), (0, 2), (1, 2)]):
            assert np.array_equal(cx.edges[te[:, col]], tri[:, [a, b]]), \
                (cx.name, col)
        for e, (i, j) in enumerate(cx.edges.tolist()):
            assert cx.edge_id(i, j) == cx.edge_id(j, i) == e


def test_disk_boundary_is_outer_ring():
    cx = disk_mesh(4)
    r = np.hypot(cx.coords[:, 0], cx.coords[:, 1])
    assert np.array_equal(cx.boundary_vertices, np.isclose(r, 1.0))
    # boundary ring of disk_mesh(n) has 8n vertices
    assert int(cx.boundary_vertices.sum()) == 32


def test_graph_boundary_is_leaves():
    cx = path_mesh(5)
    assert np.array_equal(np.flatnonzero(cx.boundary_vertices), [0, 4])
    assert not circle_mesh(6).boundary_vertices.any()


def test_component_labels():
    cx = SimplicialComplex(edges=[[0, 1], [2, 3]], lengths=[1.0, 1.0],
                           n_vertices=5)
    assert cx.n_components == 3
    assert cx.component_labels[0] == cx.component_labels[1]
    assert cx.component_labels[2] == cx.component_labels[3]
    assert len(set(cx.component_labels.tolist())) == 3


def test_edge_id_is_order_insensitive():
    cx = SimplicialComplex(**TRIANGLE)
    for i, j in cx.edges.tolist():
        assert cx.edge_id(i, j) == cx.edge_id(j, i)
    cx = path_mesh(4)
    # key 0*4 + 6 would be the key of edge (1, 2)
    for i, j in ((0, 2), (1, 1), (0, 4), (-1, 0), (0, 6)):
        with pytest.raises(KeyError):
            cx.edge_id(i, j)


def test_is_surface():
    assert torus_mesh(8, 6).is_surface
    assert uv_sphere_mesh(6, 8).is_surface
    assert disk_mesh(3).is_surface
    assert not three_arc_mesh(4).is_surface
    # three triangles sharing one edge: not a surface
    book = SimplicialComplex(
        triangles=[[0, 1, 2], [0, 1, 3], [0, 1, 4]],
        coords=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]])
    assert not book.is_surface
    # a book page, a dangling edge, a circle beside a sphere, a graph, two
    # cones on one apex, the empty complex
    mixed = mixed_complexes()
    assert not any(cx.is_surface for cx in mixed)
    # every edge of the hourglass lies in one or two triangles, but the
    # link of its apex is two circles
    assert np.isin(mixed[4].edge_triangle_count, [1, 2]).all()
    # an isolated vertex has an empty link
    disk = disk_mesh(2)
    lonely = SimplicialComplex(
        triangles=disk.triangles,
        coords=np.vstack([disk.coords, [[5.0, 5.0, 5.0]]]))
    assert lonely.is_surface
    assert flat_torus_mesh(6).is_surface
    for cx in [book, lonely] + small_fixtures() + mixed:
        assert cx.is_surface == oracles.is_surface(cx), cx


def test_link_components_match_the_oracle_on_ties():
    rng = np.random.default_rng(5)
    for cx in small_fixtures() + mixed_complexes():
        fields = [np.zeros(cx.n_vertices), rng.normal(size=cx.n_vertices)]
        fields += [rng.integers(0, 3, cx.n_vertices).astype(float)
                   for _ in range(4)]
        for g in fields:
            counts = link_components(cx, g)
            assert tuple(c.tolist() for c in counts) \
                == oracles.link_components(cx, g), (cx, g.tolist())


def test_adjacency_matches_lengths():
    cx = torus_mesh(8, 4)
    a = cx.adjacency
    for e, (i, j) in enumerate(cx.edges.tolist()):
        assert a[i, j] == pytest.approx(cx.lengths[e], abs=0.0)
        assert a[j, i] == a[i, j]


# -------------------------------------------------------------- scalar fields

def test_field_must_be_finite_1d():
    with pytest.raises(ValueError, match="1-D"):
        ScalarField([[0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        ScalarField([0.0, np.nan])


@pytest.mark.parametrize("call", [
    build_reeb, LevelScan, lambda cx, f: contours_at(cx, f, 0.5),
], ids=["build_reeb", "LevelScan", "contours_at"])
def test_field_one_value_short_is_rejected(call):
    cx = SimplicialComplex(**TRIANGLE)
    with pytest.raises(ValueError, match="field does not match complex"):
        call(cx, ScalarField([0.0, 1.0]))


def test_distinct_values_resolve_unchanged():
    f = ScalarField([0.0, 1.0, -2.5, 0.25])
    assert np.array_equal(f.resolved_values, f.values)


def test_near_ties_snap_to_one_representative():
    eps = 1e-16
    f = ScalarField([0.0, 1.0, 1.0 + eps, 2.0])
    r = f.resolved_values
    assert r[1] == r[2] == 1.0
    assert r[0] == 0.0 and r[3] == 2.0


def test_exact_ties_stay_tied():
    f = ScalarField([0.5, 0.5, 1.0, 1.0, 1.0])
    r = f.resolved_values
    assert r[0] == r[1] and r[2] == r[3] == r[4]
    assert r[0] != r[2]


@given(st.lists(st.floats(min_value=-100.0, max_value=100.0),
                min_size=1, max_size=40))
def test_resolved_reps_are_input_values(vals):
    f = ScalarField(vals)
    r = f.resolved_values
    assert set(np.unique(r).tolist()) <= set(vals)
    # snapping never splits an exact tie
    v = np.asarray(vals)
    for i in range(len(vals)):
        same = v == v[i]
        assert np.all(r[same] == r[i])


def test_height_and_analytic_fields():
    cx = SimplicialComplex(**TRIANGLE)
    assert np.array_equal(height_field(cx, axis=0).values, [0.0, 1.0, 0.0])
    f = analytic_field(cx, lambda p: p[0] + 2 * p[1])
    assert np.array_equal(f.values, [0.0, 1.0, 2.0])
    bare = SimplicialComplex(edges=[[0, 1]], lengths=[1.0], n_vertices=2)
    with pytest.raises(ValueError, match="coordinates"):
        height_field(bare)


# ------------------------------------------------------------------- homology

def _sympy_betti(cx):
    """Rank computation over the rationals with sympy, as a second route."""
    from sympy import Matrix

    vid = {tuple(e): k for k, e in enumerate(cx.edges.tolist())}
    d1 = Matrix.zeros(cx.n_vertices, cx.n_edges)
    for e, (i, j) in enumerate(cx.edges.tolist()):
        d1[i, e] = -1
        d1[j, e] = 1
    d2 = Matrix.zeros(cx.n_edges, cx.n_triangles)
    for t, (i, j, k) in enumerate(cx.triangles.tolist()):
        d2[vid[(j, k)], t] = 1
        d2[vid[(i, k)], t] = -1
        d2[vid[(i, j)], t] = 1
    r1, r2 = d1.rank(), d2.rank()
    return (cx.n_vertices - r1, cx.n_edges - r1 - r2, cx.n_triangles - r2)


def _complex(tris, extra=(), n_vertices=None):
    """Embedded complex on distinct points of the moment curve."""
    n = n_vertices or 1 + max(max(s) for s in [*tris, *extra])
    coords = [[float(i), float(i * i), float(i ** 3)] for i in range(n)]
    return SimplicialComplex(triangles=tris, edges=list(extra),
                             coords=coords)


def _rp2():
    """The 6-vertex projective plane (hemi-icosahedron)."""
    return _complex([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                     (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)])


def _mobius():
    return _complex([(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)])


def _klein(n=4):
    """n×n grid whose i-wrap reverses j."""
    def vid(i, j):
        if i >= n:
            i, j = i - n, -j
        return i * n + j % n
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
    return _complex(tris)


def _two_tetrahedra():
    """Boundaries of 0123 and 0124, sharing the triangle 012."""
    return _complex(sorted(set(itertools.combinations(range(4), 3))
                           | set(itertools.combinations((0, 1, 2, 4), 3))))


def _torus_with_fin():
    torus = torus_mesh(8, 4)
    i, j = torus.edges[0].tolist()
    v = torus.n_vertices
    return SimplicialComplex(
        triangles=[*torus.triangles.tolist(), (i, j, v)],
        coords=np.vstack([torus.coords, [[3.0, 3.0, 3.0]]]))


def _rank_gf2(cx):
    """Rank of the triangle boundary matrix over GF(2)."""
    pivots = {}
    for row in cx.triangle_edges.tolist():
        col = sum(1 << e for e in row)
        while col:
            top = col.bit_length() - 1
            if top not in pivots:
                pivots[top] = col
                break
            col ^= pivots[top]
    return len(pivots)


@pytest.mark.parametrize("cx,expected", [
    (torus_mesh(8, 4), (1, 2, 1)),
    (disk_mesh(2), (1, 0, 0)),
    (three_arc_mesh(3), (1, 2, 0)),
    (theta_mesh(8, 3), (1, 1, 0)),
    (_rp2(), (1, 0, 0)),
    (_mobius(), (1, 1, 0)),
    (_klein(), (1, 1, 0)),
    (_two_tetrahedra(), (1, 0, 2)),
    (_book(), (1, 0, 0)),
    (_torus_with_fin(), (1, 2, 1)),
])
def test_betti_numbers_match_sympy(cx, expected):
    assert betti_numbers(cx) == expected
    assert _sympy_betti(cx) == expected
    assert oracles.betti_elimination(cx) == expected


def test_rp2_is_seen_over_q_not_gf2():
    cx = _rp2()
    assert np.all(cx.edge_triangle_count == 2)
    # over GF(2) the sum of all triangles is a cycle; over Q nothing is
    assert _rank_gf2(cx) == cx.n_triangles - 1
    assert betti_numbers(cx)[2] == 0


def test_two_tetrahedra_share_edges_in_three_triangles():
    assert np.bincount(_two_tetrahedra().edge_triangle_count).tolist() \
        == [0, 0, 6, 3]


def _assert_same_components(n, a, b):
    count, labels = components(n, a, b)
    ref_count, ref_labels = oracles.components(n, a, b)
    assert type(count) is int and count == ref_count
    assert labels.dtype == ref_labels.dtype
    assert np.array_equal(labels, ref_labels)


@st.composite
def multigraphs(draw):
    """Random multigraphs on at most 30 nodes, with self-loops, repeated
    edges and isolated nodes, and int32 or int64 ends."""
    n = draw(st.integers(0, 30))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=60 if n else 0))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    ends = np.asarray(pairs, dtype=dtype).reshape(-1, 2)
    return n, ends[:, 0], ends[:, 1]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(multigraphs())
def test_components_match_scipy_on_random_multigraphs(graph):
    _assert_same_components(*graph)


def test_components_match_scipy_without_nodes_or_edges():
    _assert_same_components(0, [], [])
    _assert_same_components(3, [], [])
    _assert_same_components(4, np.zeros(0, np.int32), np.zeros(0, np.int32))


def test_components_match_scipy_on_a_permuted_path():
    order = np.random.default_rng(0).permutation(100_000)
    _assert_same_components(100_000, order[:-1], order[1:])


def test_components_match_scipy_on_a_star_centred_at_the_last_node():
    # every leaf is offered to the centre's root in one round: a hook that
    # keeps the last write instead of the least root takes one per round
    n = 200_000
    leaves = np.arange(n - 1)
    _assert_same_components(n, np.full(n - 1, n - 1), leaves)
    _assert_same_components(n, leaves, np.full(n - 1, n - 1))


@pytest.mark.parametrize("a, b", [([3], [0]), ([0], [3]), ([-1], [0]),
                                  ([1, 0], [2, -1])])
def test_components_reject_ids_outside_the_nodes(a, b):
    with pytest.raises(ValueError, match="outside the nodes"):
        components(3, np.asarray(a), np.asarray(b))
    with pytest.raises(ValueError):
        oracles.components(3, np.asarray(a), np.asarray(b))


@st.composite
def small_complexes(draw):
    """Random 2-complexes on at most 10 vertices and 40 triangles, some
    with extra 1-D edges, some metric-only."""
    n = draw(st.integers(3, 10))
    triples = list(itertools.combinations(range(n), 3))
    size = min(draw(st.integers(0, 40)), len(triples))
    tris = draw(st.lists(st.sampled_from(triples), min_size=size,
                         max_size=size, unique=True))
    extra = draw(st.lists(st.sampled_from(
        list(itertools.combinations(range(n), 2))), max_size=5, unique=True))
    if draw(st.booleans()):
        keys = sorted(set(extra).union(*[itertools.combinations(t, 2)
                                         for t in tris]))
        return SimplicialComplex(edges=keys, lengths=np.ones(len(keys)),
                                 triangles=tris, n_vertices=n)
    return _complex(tris, extra, n)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(small_complexes())
def test_betti_numbers_match_elimination_on_random_complexes(cx):
    assert betti_numbers(cx) == oracles.betti_elimination(cx)


def test_betti_numbers_match_elimination_on_mixed_complexes():
    for cx in mixed_complexes():
        assert betti_numbers(cx) == oracles.betti_elimination(cx)


def test_sphere_less_one_triangle_is_a_disk():
    sphere = uv_sphere_mesh(12, 16)
    cx = SimplicialComplex(triangles=sphere.triangles[1:],
                           coords=sphere.coords)
    assert betti_numbers(cx) == (1, 0, 0)


@pytest.mark.parametrize("cx", [
    uv_sphere_mesh(6, 8), flat_torus_mesh(5), genus_mesh(2, 16, 6),
    wedge_circles_mesh(3, 6), circle_mesh(7), hemisphere_mesh(3),
])
def test_euler_characteristic_consistent(cx):
    b0, b1, b2 = betti_numbers(cx)
    assert b0 - b1 + b2 == euler_characteristic(cx)


def test_known_betti_values():
    assert betti_numbers(uv_sphere_mesh(6, 8)) == (1, 0, 1)
    assert betti_numbers(flat_torus_mesh(5)) == (1, 2, 1)
    assert betti_numbers(genus_mesh(2, 16, 6)) == (1, 4, 1)
    assert betti_numbers(wedge_circles_mesh(4, 5)) == (1, 4, 0)


# ------------------------------------------------------------------- contours

def test_torus_contour_counts_match_oracle():
    cx = torus_mesh(24, 12)
    hz = height_field(cx)
    for level, want in ((0.137, 2), (1.03, 1)):
        conts = contours_at(cx, hz, level)
        comps = oracles.contour_components(cx, hz.values, level)
        assert len(conts) == len(comps) == want
        got = sorted(sorted(c.edge_ids.tolist()) for c in conts)
        assert got == sorted(sorted(c) for c in comps)


def test_torus_top_contour_intrinsic_diameter_frozen():
    cx = torus_mesh(24, 12)
    hz = height_field(cx)
    (cont,) = contours_at(cx, hz, 1.03)
    d = oracles.contour_intrinsic_diameter(cx, hz.values, 1.03, cont.edge_ids)
    assert d == pytest.approx(TORUS_24x12_TOP_CONTOUR_DIAM, rel=1e-12)
    assert oracles.intrinsic_diameter(cx, cont) == pytest.approx(d,
                                                                 rel=1e-12)
    # the farthest-point sweep estimates it from below
    sweep = sweep_diameters(cx, *_arrays([cont]))[0]
    assert 0.9 * d <= sweep <= d + 1e-12


def test_extrinsic_diameter_of_top_circle():
    # the level-1.03 contour hugs a horizontal mesh circle of radius < R+r
    cx = torus_mesh(24, 12)
    (cont,) = contours_at(cx, height_field(cx), 1.03)
    d = contours.extrinsic_diameters(cx, *_arrays([cont]))[0]
    assert 2 * 0.6 < d < 2 * 1.4
    assert d == _pdist_max(cont.points(cx))


def _arrays(conts):
    """Contours laid end to end, as the diameter kernels take them:
    (edge_ids, params, bounds)."""
    bounds = np.concatenate([[0], np.cumsum([len(c) for c in conts],
                                            dtype=np.int64)])
    return (np.concatenate([c.edge_ids for c in conts]
                           + [np.empty(0, np.int64)]),
            np.concatenate([c.params for c in conts] + [np.empty(0)]),
            bounds)


def _pdist_max(pts):
    from scipy.spatial.distance import pdist
    return float(pdist(pts).max()) if len(pts) > 1 else 0.0


def _point_set(kind, n, rng):
    if kind == "random":
        return rng.normal(size=(n, 3))
    if kind == "tied":
        return rng.integers(-2, 3, size=(n, 3)).astype(float)
    if kind == "collinear":
        return np.outer(rng.normal(size=n), rng.normal(size=3)) + 0.5
    if kind == "planar":
        return np.column_stack([rng.normal(size=(n, 2)), np.zeros(n)])
    if kind == "duplicates":
        return rng.normal(size=(max(1, n // 5), 3))[rng.integers(
            0, max(1, n // 5), n)]
    # on a sphere: every point is about as far out, so few are filtered
    p = rng.normal(size=(n, 3))
    return p / np.linalg.norm(p, axis=1)[:, None]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("kind", ["random", "tied", "collinear", "planar",
                                  "duplicates", "sphere"])
def test_piece_diameters_equal_pdist_bit_for_bit(kind, scale):
    rng = np.random.default_rng([len(kind), int(math.log10(scale)) + 3])
    sizes = rng.permutation([0, 0, 1, 1, 2, 2, 3, 5, 8, 40, 200, 1500])
    pts = _point_set(kind, int(sizes.sum()), rng) * scale
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    got = piece_diameters(pts, bounds)
    want = np.array([_pdist_max(pts[a:b]) for a, b in zip(bounds, bounds[1:])])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_piece_diameters_on_shifted_regular_polygons(scale):
    # many diametral pairs within rounding of each other: the filter must
    # keep the farthest one, not just the one it happened to realize
    rng = np.random.default_rng(int(math.log10(scale)) + 3)
    polygons = []
    for n in range(2, 400, 2):
        t = 2.0 * math.pi * (np.arange(n) / n + rng.uniform())
        polygons.append(np.column_stack([np.cos(t), np.sin(t), np.zeros(n)])
                        * scale + rng.normal(size=3))
    bounds = np.cumsum([0] + [len(p) for p in polygons])
    want = np.array([_pdist_max(p) for p in polygons])
    got = piece_diameters(np.concatenate(polygons), bounds)
    assert got.tobytes() == want.tobytes()


def test_piece_diameters_across_small_pair_chunks(monkeypatch):
    # chunk edges fall inside pieces and between them, and a chunk may be
    # a single row longer than the chunk
    monkeypatch.setattr(contours, "_PAIR_CHUNK", 7)
    rng = np.random.default_rng(11)
    sizes = rng.integers(0, 30, size=40)
    pts = _point_set("sphere", int(sizes.sum()), rng)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    want = np.array([_pdist_max(pts[a:b]) for a, b in zip(bounds, bounds[1:])])
    assert piece_diameters(pts, bounds).tobytes() == want.tobytes()
    assert piece_diameters(np.empty((0, 3)), [0]).shape == (0,)
    assert piece_diameters(np.empty((0, 3)), [0, 0]).tolist() == [0.0]


def test_vertex_level_rejected():
    cx = torus_mesh(8, 6)
    hz = height_field(cx)
    with pytest.raises(NonGenericLevelError):
        contours_at(cx, hz, float(hz.values[0]))


def test_contour_count_on_sphere_height():
    cx = uv_sphere_mesh(10, 12)
    hz = height_field(cx)
    assert len(contours_at(cx, hz, 0.0123)) == 1


def test_contour_length_of_flat_circle():
    # circle mesh in the plane: one contour at y=c has two crossings and
    # no triangles, hence zero polygonal length
    cx = circle_mesh(16)
    conts = contours_at(cx, height_field(cx, axis=1), 0.01)
    assert all(c.length(cx) == 0.0 for c in conts)
    assert sum(len(c) for c in conts) == 2


def test_contour_length_matches_the_oracle_polygon():
    # each triangle crossing a contour twice adds one segment between the
    # two crossing points; closed contours have one segment per crossing
    cx = torus_mesh(24, 12)
    hz = height_field(cx)
    for level in (0.137, 1.03):
        for cont in contours_at(cx, hz, level):
            cross = set(cont.edge_ids.tolist())
            want = 0.0
            for t in range(cx.n_triangles):
                pair = [int(e) for e in cx.triangle_edges[t] if int(e) in cross]
                if len(pair) == 2:
                    a, b = (oracles.crossing_point(cx, hz.values, level, e)
                            for e in pair)
                    want += float(np.linalg.norm(a - b))
            assert len(cont.segments) == len(cont)
            assert cont.length(cx) == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------------ level scan

def test_level_scan_gap_count():
    cx = torus_mesh(8, 6)
    f = height_field(cx)
    scan = LevelScan(cx, f)
    gaps = list(scan.gaps())
    assert len(gaps) == np.unique(f.resolved_values).shape[0] - 1


def test_gap_levels_lie_inside():
    cx = circle_mesh(12)
    f = height_field(cx, axis=1)
    for gap in LevelScan(cx, f).gaps():
        assert gap.lo < gap.contours().level < gap.hi


def test_gap_contours_match_direct_call():
    cx = torus_mesh(8, 6)
    x, z = cx.coords[:, 0], cx.coords[:, 2]
    # the height, and integer steps that many vertices share
    for values in (z, np.floor(3.0 * x) + np.floor(2.0 * z)):
        f = ScalarField(values)
        for gap in LevelScan(cx, f).gaps():
            via = gap.contours()
            assert via.level == 0.5 * (gap.lo + gap.hi)
            comps = oracles.contour_components(cx, f.values, via.level)
            assert sorted(sorted(c.edge_ids.tolist()) for c in via) \
                == sorted(sorted(c) for c in comps)


@pytest.mark.parametrize("n_gaps", [1, 3, 100, 481])
@pytest.mark.parametrize("first,spread", [(0, 2), (1, 2), (25, 375),
                                          (10, 10), (40, 40), (60, 120)])
def test_select_gaps(n_gaps, first, spread):
    idx = select_gaps(n_gaps, first, spread)
    # both extremes are always kept; the rest spreads over the middle
    assert {0, n_gaps - 1} <= idx
    assert all(0 <= i < n_gaps for i in idx)
    assert len(idx) <= first + spread
    if first + spread >= n_gaps:
        assert idx == set(range(n_gaps))


def test_select_gaps_spread_is_even():
    idx = sorted(select_gaps(100, 0, 10))
    assert idx == [0, 11, 22, 33, 44, 55, 66, 77, 88, 99]
    assert select_gaps(100, 25, 0) == set(range(25))


def test_level_scan_sample_counts_gaps_with_level_sets():
    # two disjoint edges leave the gap between their values empty
    cx = SimplicialComplex(edges=[[0, 1], [2, 3]], lengths=[1.0, 1.0],
                           n_vertices=4)
    scan = LevelScan(cx, ScalarField([0.0, 1.0, 2.0, 3.0]))
    assert [(g.lo, g.hi) for g in scan.gaps()] == [(0.0, 1.0), (2.0, 3.0)]
    assert [(g.lo, g.hi) for g in scan.sample(0, 2)] \
        == [(0.0, 1.0), (2.0, 3.0)]
    assert [(g.lo, g.hi) for g in scan.sample(1, 0)] == [(0.0, 1.0)]


# ------------------------------------------------------------------- geodesics

def test_flat_torus_distance_frozen():
    cx = flat_torus_mesh(8)
    center = (8 // 2) * 8 + 8 // 2
    d = single_source(cx, 0)
    assert d[center] == FLAT_TORUS8_CORNER_TO_CENTER
    adj = oracles.adjacency(cx)
    assert oracles.dijkstra(adj, 0)[center] == d[center]
    assert oracles.bellman_ford(adj, 0)[center] == d[center]


def test_circle_diameter_closed_form():
    # half the circumference of the inscribed regular 64-gon
    assert diameter(circle_mesh(64)) == pytest.approx(
        64 * math.sin(math.pi / 64), rel=1e-12)


def _random_metric_graph():
    rng = np.random.default_rng(7)
    n = 30
    edges, lengths = [], []
    seen = set()
    for _ in range(70):
        i, j = sorted(rng.integers(0, n, size=2).tolist())
        if i == j or (i, j) in seen:
            continue
        seen.add((i, j))
        edges.append([i, j])
        lengths.append(float(rng.uniform(0.1, 2.0)))
    for k in range(n - 1):  # keep it connected
        if (k, k + 1) not in seen:
            edges.append([k, k + 1])
            lengths.append(1.0)
    return SimplicialComplex(edges=edges, lengths=lengths, n_vertices=n)


def test_single_source_matches_oracle_on_random_graph():
    cx = _random_metric_graph()
    adj = oracles.adjacency(cx)
    for s in (0, 13, 29):
        assert np.allclose(single_source(cx, s), oracles.dijkstra(adj, s),
                           rtol=0, atol=1e-12)


def _check_provider_rows(cx, sources):
    """The provider's rows for `sources` agree with the textbook Dijkstra,
    with networkx, and bit for bit with per-source scipy rows."""
    nx = pytest.importorskip("networkx")
    rows = distance_rows(cx, sources)
    assert rows.shape == (len(sources), cx.n_vertices)
    assert np.array_equal(rows, vertex_distances(cx, sources))
    adj = oracles.adjacency(cx)
    g = nx.Graph()
    g.add_nodes_from(range(cx.n_vertices))
    g.add_weighted_edges_from((i, j, float(w)) for (i, j), w in
                              zip(cx.edges.tolist(), cx.lengths))
    for row, s in zip(rows, sources):
        by_nx = np.full(cx.n_vertices, math.inf)
        for v, d in nx.single_source_dijkstra_path_length(g, s).items():
            by_nx[v] = d
        for want in (np.asarray(oracles.dijkstra(adj, s)), by_nx):
            assert np.array_equal(np.isinf(row), np.isinf(want))
            assert np.allclose(row, want, rtol=0, atol=1e-12)
    return rows


@pytest.mark.parametrize("cx", small_fixtures() + [_random_metric_graph()],
                         ids=lambda cx: cx.name or "random")
def test_provider_rows_match_oracles(cx):
    _check_provider_rows(cx, list(range(cx.n_vertices)))
    # a repeated request is a slice of the same matrix
    _check_provider_rows(cx, [cx.n_vertices - 1, 0, 0])


def test_provider_rows_of_a_disconnected_complex_hold_inf():
    cx = SimplicialComplex(edges=[[0, 1], [2, 3]], lengths=[1.0, 2.5],
                           n_vertices=5)
    rows = _check_provider_rows(cx, list(range(5)))
    assert rows[0].tolist() == [0.0, 1.0, math.inf, math.inf, math.inf]
    assert rows[3].tolist() == [math.inf, math.inf, 2.5, 0.0, math.inf]
    assert rows[4].tolist() == [math.inf] * 4 + [0.0]


def _both_modes(monkeypatch):
    """Make every scipy Dijkstra call run twice on its matrix, directed as
    the library asks and undirected, and check that the two results agree
    bit for bit.  Returns the vertex count of each call's graph."""
    inner = csgraph.dijkstra
    sizes = []

    def both(graph, directed=True, indices=None):
        assert directed
        got = inner(graph, directed=True, indices=indices)
        want = inner(graph, directed=False, indices=indices)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        sizes.append(graph.shape[0])
        return got

    monkeypatch.setattr(csgraph, "dijkstra", both)
    return sizes


def test_directed_dijkstra_equals_undirected_on_the_small_fixtures(
        monkeypatch):
    sizes = _both_modes(monkeypatch)
    pool = small_fixtures()
    for cx in pool:
        vertex_distances(cx)
        vertex_distances(cx, [cx.n_vertices - 1, 0])
    assert len(sizes) == 2 * len(pool)


def test_directed_dijkstra_equals_undirected_on_the_hemisphere(monkeypatch):
    sizes = _both_modes(monkeypatch)
    cx = generate_space("hemisphere", 0.02).complex   # ex66's hemisphere
    sources = np.random.default_rng(5).choice(cx.n_vertices, 40,
                                              replace=False)
    small = hemisphere_mesh(12)
    vertex_distances(cx, sources)
    vertex_distances(small)
    assert sizes == [18961, small.n_vertices]


def test_directed_dijkstra_equals_undirected_on_the_thm52_graphs(
        monkeypatch):
    sizes = _both_modes(monkeypatch)
    graphs = []
    inner = ReebGraph.node_distances

    def counted(graph):
        graphs.append(graph)
        return inner(graph)

    monkeypatch.setattr(ReebGraph, "node_distances", counted)
    assert all(r.passed for r in thm52_suite(h=0.4, seed=0))
    # one Dijkstra call per graph, and the complexes' own
    assert len({id(g) for g in graphs}) == 20 and len(sizes) > 20


def test_provider_runs_dijkstra_per_request_above_the_budget(monkeypatch):
    n = int(math.isqrt(ALL_PAIRS_BUDGET_BYTES // 8)) + 1
    rng = np.random.default_rng(11)
    cx = SimplicialComplex(edges=[[k, k + 1] for k in range(n - 1)],
                           lengths=rng.uniform(0.5, 1.5, n - 1),
                           n_vertices=n)
    calls = []
    inner = geodesic.vertex_distances

    def counted(complex, sources=None):
        calls.append(None if sources is None else len(sources))
        return inner(complex, sources)

    monkeypatch.setattr(geodesic, "vertex_distances", counted)
    rows = _check_provider_rows(cx, [0, n // 2, n - 1])
    assert calls == [3]
    assert rows[0, -1] == pytest.approx(float(cx.lengths.sum()), rel=1e-12)


def test_distortion_and_contour_diameter_share_one_dijkstra_call(
        monkeypatch):
    cx = torus_mesh(8, 4)
    f = height_field(cx)
    graph, qmap = build_reeb(cx, f)
    calls = []
    inner = geodesic.vertex_distances

    def counted(complex, sources=None):
        calls.append(sources)
        return inner(complex, sources)

    monkeypatch.setattr(geodesic, "vertex_distances", counted)
    assert distortion(cx, f, graph, qmap) > 0.0
    assert max_contour_diameter(cx, f) > 0.0
    assert len(calls) == 1 and calls[0] is None


# ------------------------------------------------------ farthest-point sweep

def _gap_contours(cx, f):
    return [c for gap in LevelScan(cx, f).gaps() for c in gap.contours()]


def _check_sweep(cx, conts, hops=8):
    """The batched sweep equals the per-contour reference bit for bit;
    returns the most hops the reference ran on one contour."""
    want = [oracles.sweep_diameter(cx, c, hops) for c in conts]
    assert sweep_diameters(cx, *_arrays(conts), hops).tolist() \
        == [d for d, _ in want]
    return max([ran for _, ran in want], default=0)


def _counted_dijkstra(monkeypatch):
    calls = []
    inner = geodesic.vertex_distances

    def counted(complex, sources=None):
        calls.append(None if sources is None else len(sources))
        return inner(complex, sources)

    monkeypatch.setattr(geodesic, "vertex_distances", counted)
    return calls


@pytest.mark.parametrize("cx", small_fixtures(), ids=lambda cx: cx.name)
def test_sweep_matches_the_reference_on_tied_fields(cx):
    rng = np.random.default_rng(16)
    for _ in range(4):
        f = ScalarField(rng.integers(0, 4, cx.n_vertices).astype(float))
        _check_sweep(cx, _gap_contours(cx, f))


def test_sweep_on_a_metric_only_complex_starts_at_the_first_crossing():
    cx = torus_mesh(12, 6)
    bare = SimplicialComplex(triangles=cx.triangles, lengths=cx.lengths,
                             edges=cx.edges, n_vertices=cx.n_vertices)
    assert bare.coords is None
    f = ScalarField(cx.coords[:, 0] + 0.3 * cx.coords[:, 2])
    conts = _gap_contours(bare, f)
    assert _check_sweep(bare, conts) > 2
    for hops in (1, 2):
        assert _check_sweep(bare, conts, hops) == hops


def test_sweep_on_contours_of_one_and_two_crossings():
    cx = torus_mesh(8, 4)
    big = max(_gap_contours(cx, height_field(cx)), key=len)

    def part(at):
        return Contour(big.level, big.edge_ids[at], big.params[at])

    one, two, apart = part([0]), part([0, 1]), part([0, len(big) // 2])
    assert sweep_diameters(cx, *_arrays([])).shape == (0,)
    assert sweep_diameters(cx, *_arrays([one])).tolist() == [0.0]
    _check_sweep(cx, [one, two, big, one, apart])
    assert sweep_diameters(cx, *_arrays([apart]))[0] > 0.0


def test_sweep_above_the_budget_runs_one_dijkstra_call_per_hop(
        monkeypatch):
    cx = torus_mesh(16, 8)
    conts = _gap_contours(cx, height_field(cx))
    monkeypatch.setattr(geodesic, "ALL_PAIRS_BUDGET_BYTES",
                        8 * cx.n_vertices ** 2 - 1)
    calls = _counted_dijkstra(monkeypatch)
    hops = _check_sweep(cx, conts)
    assert hops > 1
    assert len(calls) == hops and None not in calls


def test_sweep_above_the_budget_splits_a_hop_at_the_budget(monkeypatch):
    cx = torus_mesh(16, 8)
    conts = _gap_contours(cx, height_field(cx))
    monkeypatch.setattr(geodesic, "ALL_PAIRS_BUDGET_BYTES",
                        8 * cx.n_vertices * 3)
    calls = _counted_dijkstra(monkeypatch)
    hops = _check_sweep(cx, conts)
    assert len(calls) > hops and max(calls) == 3


def _mixed_batch(seed):
    """Contours of mixed sizes, hundreds of 2-crossing ones around one of
    3,000, each a regular polygon far from the origin: every crossing of
    a contour lies about as far from its centroid, so the start the sweep
    picks turns on the last bits of the centroid.  Crossing c sits at
    vertex c, the lower end of edge c of a path."""
    rng = np.random.default_rng(seed)
    sizes = np.concatenate([np.full(300, 2), [3000],
                            rng.integers(3, 40, 300)])
    rng.shuffle(sizes)
    pts = []
    for n in sizes.tolist():
        turn = 2.0 * np.pi * (np.arange(n) / n + rng.random())
        pts.append(100.0 * rng.normal(size=3) + rng.uniform(0.5, 2.0)
                   * np.column_stack([np.cos(turn), np.sin(turn),
                                      np.zeros(n)]))
    pts = np.concatenate(pts)
    n = pts.shape[0]
    cx = SimplicialComplex(
        edges=np.column_stack([np.arange(n), np.arange(1, n + 1)]),
        coords=np.vstack([pts, pts[-1] + 1.0]))
    assert cx.edges[:, 0].tolist() == list(range(n))
    return cx, np.arange(n), np.zeros(n), sizes, np.cumsum(sizes) - sizes


@pytest.mark.parametrize("seed", [3, 4])
def test_sweep_start_is_each_contours_own_mean_rule(seed):
    # tests/oracles.sweep_diameter's rule, contour by contour: the point
    # farthest from the contour's own mean, the first on ties
    cx, edge_ids, params, sizes, starts = _mixed_batch(seed)
    want = []
    for a, n in zip(starts.tolist(), sizes.tolist()):
        pts = contours.crossing_points(cx, edge_ids[a:a + n],
                                       params[a:a + n])
        far = pts - pts.mean(axis=0)
        want.append(a + int(np.argmax(np.einsum("ij,ij->i", far, far))))
    got = contours._farthest_from_centroid(cx, edge_ids, params, sizes,
                                           starts)
    assert got.tolist() == want


def test_sweep_start_pads_each_size_class_only():
    # each contour is padded to the next power of two, so the padded block
    # takes at most two point arrays and the call's peak stays a few of
    # them; one block as wide as the 3,000-crossing contour would take
    # about 250 point arrays
    import tracemalloc
    cx, edge_ids, params, sizes, starts = _mixed_batch(3)
    point_bytes = 24 * int(sizes.sum())
    tracemalloc.start()
    try:
        contours._farthest_from_centroid(cx, edge_ids, params, sizes, starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * point_bytes


# ------------------------------------------------------------------- file io

def test_json_round_trip_with_coords(tmp_path):
    cx = uv_sphere_mesh(4, 6)
    path = tmp_path / "sphere.json"
    save_complex(cx, path)
    back = load_complex(path)
    assert back.name == "sphere"
    assert np.array_equal(back.edges, cx.edges)
    assert np.array_equal(back.triangles, cx.triangles)
    assert np.array_equal(back.coords, cx.coords)


def test_json_round_trip_metric_only(tmp_path):
    cx = flat_torus_mesh(4)
    path = tmp_path / "flat.json"
    save_complex(cx, path)
    back = load_complex(path)
    assert back.coords is None
    assert np.array_equal(back.edges, cx.edges)
    assert np.array_equal(back.lengths, cx.lengths)
    assert np.array_equal(back.triangles, cx.triangles)


def test_off_round_trip(tmp_path):
    cx = disk_mesh(2)
    path = tmp_path / "disk.off"
    save_complex(cx, path)
    back = load_complex(path)
    assert np.array_equal(back.coords, cx.coords)
    assert np.array_equal(back.triangles, cx.triangles)


def test_off_comments_and_crlf_load_like_plain(tmp_path):
    plain = tmp_path / "plain.off"
    save_complex(disk_mesh(2), plain)
    header, counts, *rest = plain.read_text().splitlines()
    lines = ["# written by hand", header, "# counts follow",
             counts + "  # vertices faces edges"]
    for k, line in enumerate(rest):
        lines.append(line + ("  # note" if k % 3 == 0 else ""))
        if k % 5 == 0:
            lines.append("   # a comment line")
    commented = tmp_path / "commented.off"
    commented.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    a, b = load_complex(plain), load_complex(commented)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.triangles, b.triangles)


def test_off_needs_coordinates(tmp_path):
    with pytest.raises(ValueError, match="JSON format"):
        save_complex(flat_torus_mesh(3), tmp_path / "flat.off")


def test_unknown_mesh_format(tmp_path):
    p = tmp_path / "mesh.stl"
    p.write_text("")
    with pytest.raises(ValueError, match="unknown mesh format"):
        load_complex(p)


def test_off_rejects_non_triangle_faces(tmp_path):
    p = tmp_path / "quad.off"
    p.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(ValueError, match="triangle faces"):
        load_complex(p)


_OFF_VERTS = ["0 0 0", "1 0 0", "0 1 0", "1 1 0"]
_OFF_FACES = ["3 0 1 2", "3 1 3 2"]


@pytest.mark.parametrize("text", [
    "OFF 4 2 0\n" + "\n".join(_OFF_VERTS + _OFF_FACES) + "\n",
    "# mesh\nOFF # header\n4 2 0 # counts\n# vertices\n"
    + "\n".join(v + " # v" for v in _OFF_VERTS) + "\n#\n"
    + "\n".join(_OFF_FACES) + "# end\n",
    "OFF\r\n4\t2\t0\r\n" + "\r\n".join(v.replace(" ", "\t")
                                     for v in _OFF_VERTS + _OFF_FACES),
    "OFF\n4 2 0\n" + "\n".join(_OFF_VERTS + _OFF_FACES),
    "OFF\n4 2 0\n1e-3 -0.0 2.5E+2\n1.0e0 +0 -1E-300\n0.1 1 -0\n"
    "1 6.02214076e23 0\n" + "\n".join(_OFF_FACES) + "\n",
    "OFF\n4 2 5\n" + "\n".join(_OFF_VERTS + _OFF_FACES) + "\n",
    "OFF\n4 2 0\n" + "\n".join(_OFF_VERTS + _OFF_FACES) + "\n3 0 1 3\n7\n",
], ids=["counts-on-off-line", "comments", "tabs-crlf", "no-final-newline",
        "exponents-negative-zero", "edge-count", "extra-tokens"])
def test_off_reader_matches_token_list_reference(tmp_path, text):
    p = tmp_path / "mesh.off"
    p.write_bytes(text.encode())
    cx = load_complex(p)
    ref_coords, ref_tris = oracles.read_off(p)
    assert cx.coords.dtype == np.float64 and cx.triangles.dtype == np.int64
    assert np.array_equal(cx.coords, ref_coords)
    assert np.array_equal(np.signbit(cx.coords), np.signbit(ref_coords))
    # the complex keeps each triangle once, sorted, in sorted order
    assert np.array_equal(cx.triangles,
                          np.unique(np.sort(ref_tris, axis=1), axis=0))


@pytest.mark.parametrize("body", [
    "0 0 0\n1 0 0\n0 1 0\n3 0 1 2.5\n",
    "0 0 0\n1 0 0\n0 1 0\n3 0 1 1e20\n",
    "0 0 0\n1 0 0\n",
], ids=["fractional-id", "huge-id", "truncated-vertices"])
def test_off_reader_names_the_file_in_its_errors(tmp_path, body):
    p = tmp_path / "bad.off"
    p.write_text("OFF\n3 1 0\n" + body)
    for read in (load_complex, oracles.read_off):
        with pytest.raises(ValueError, match=re.escape(str(p))):
            read(p)


def test_field_round_trip_exact(tmp_path):
    vals = [0.1, -2.5, math.pi, 1e-17]
    for name in ("f.txt", "f.json"):
        path = tmp_path / name
        save_field(ScalarField(vals), path)
        back = load_field(path)
        assert np.array_equal(back.values, vals)


def test_load_field_checks_length(tmp_path):
    path = tmp_path / "f.json"
    save_field(ScalarField([1.0, 2.0]), path)
    with pytest.raises(ValueError, match="2 values for a mesh with 3"):
        load_field(path, 3)


def test_metric_json_requires_length_triples(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"n_vertices": 2, "edges": [[0, 1]]}')
    with pytest.raises(ValueError, match=r"\[i, j, length\]"):
        load_complex(p)


# ----------------------------------------------------------------- generators

@pytest.mark.parametrize("name,betti,b1p", [
    ("sphere", (1, 0, 1), 0),
    ("torus", (1, 2, 1), 1),
    ("flat_torus", (1, 2, 1), 1),
    ("disk", (1, 0, 0), 0),
    ("theta", (1, 1, 0), 1),
    ("three_arc", (1, 2, 0), 2),
    ("circle", (1, 1, 0), 1),
    ("path", (1, 0, 0), 0),
])
def test_generate_space_topology(name, betti, b1p):
    space = generate_space(name, 0.35)
    assert space.betti == betti
    assert space.b1_prime == b1p
    assert betti_numbers(space.complex) == betti


def test_generate_space_genus_and_wedge():
    g2 = generate_space("genus", 0.35, g=2)
    assert g2.betti == (1, 4, 1) and g2.b1_prime == 2
    w3 = generate_space("wedge", 0.35, r=3)
    assert w3.betti == (1, 3, 0) and w3.b1_prime == 3


@pytest.mark.parametrize("name,h,params", [
    ("hemisphere", 0.05, {}),
    ("genus", 0.15, {"g": 3}),
])
def test_generate_space_checks_large_fixtures_exactly(name, h, params):
    space = generate_space(name, h, **params)
    assert space.complex.n_triangles > 5000
    assert betti_numbers(space.complex) == space.betti


def test_generate_space_rejects_unknowns():
    with pytest.raises(ValueError, match="unknown generator"):
        generate_space("klein", 0.1)
    with pytest.raises(ValueError, match="unused parameters"):
        generate_space("sphere", 0.1, g=2)
    with pytest.raises(ValueError, match="must be positive"):
        generate_space("sphere", 0.0)


def test_theta_field_is_one_on_the_circle():
    space = generate_space("theta", 0.3)
    cx, r = space.complex, space.field.resolved_values
    circ = np.isclose(np.hypot(cx.coords[:, 0], cx.coords[:, 1]), 1.0,
                      atol=1e-9)
    # snapping fuses the trig noise: the whole circle is one plateau,
    # strictly above every spoke vertex
    vals = np.unique(r[circ])
    assert vals.shape[0] == 1
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert r.min() == 0.0
    assert np.all(r[~circ] < vals[0])


def test_disk_mesh_has_axis_vertices():
    cx = disk_mesh(6)
    for p in ([1, 0], [0, 1], [-1, 0], [0, -1]):
        d = np.hypot(cx.coords[:, 0] - p[0], cx.coords[:, 1] - p[1])
        assert d.min() < 1e-12


def test_hemisphere_boundary_is_equator():
    cx = hemisphere_mesh(4)
    onb = cx.boundary_vertices
    assert np.allclose(cx.coords[onb, 2], 0.0, atol=1e-12)
    assert np.all(cx.coords[~onb, 2] > 0.0)


def test_tripod_field_vanishes_on_legs():
    cx = hemisphere_mesh(6)
    f = tripod_field(cx).values
    phi = np.arctan2(cx.coords[:, 1], cx.coords[:, 0])
    for leg in (0.0, 2 * math.pi / 3, -2 * math.pi / 3):
        on_leg = np.isclose(phi, leg, atol=1e-9) & \
            (np.hypot(cx.coords[:, 0], cx.coords[:, 1]) > 1e-9)
        assert on_leg.any()
        assert np.allclose(f[on_leg], 0.0, atol=1e-12)
    assert f.max() <= math.pi / 2 + 1e-12


# ------------------------------------------------------------ array kernels

def _tied_floats(rng, n):
    return np.round(rng.normal(0.0, 1.0, n), 1)


def _check_sorted_unique(a):
    want, got = np.unique(a), sorted_unique(a)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("a", [
    np.zeros(0), np.zeros(0, dtype=np.int64), np.array([2.5]),
    np.array([7], dtype=np.int64), np.array([0.0, -0.0, 1.0]),
    np.array([-0.0, 0.0, 1.0]), np.array([1.0, 0.0, -0.0, -0.0, 0.0]),
    np.array([-0.0, -0.0]), _tied_floats(np.random.default_rng(1), 500),
    np.random.default_rng(2).integers(-2 ** 62, 2 ** 62, 1000),
    np.random.default_rng(3).integers(0, 40, 1000),
], ids=lambda a: f"{a.dtype}-{a.size}")
def test_sorted_unique_equals_np_unique_bit_for_bit(a):
    _check_sorted_unique(a)


def test_sorted_unique_keeps_np_uniques_zero_among_signed_zeros():
    rng = np.random.default_rng(31)
    for _ in range(300):
        a = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=rng.integers(1, 40))
        _check_sorted_unique(
            np.concatenate([a, _tied_floats(rng, rng.integers(0, 20))]))


def test_stitch_equals_the_two_pointer_walk():
    # every pair of ring sizes up to 13, one-vertex rings included, in the
    # walk's own order, on ids that are not consecutive
    for m, n in itertools.product(range(1, 14), repeat=2):
        if m == n == 1:
            continue
        inner, outer = 3 * np.arange(m) + 1, 100 + 2 * np.arange(n)
        got = generators._stitch(inner, outer)
        want = oracles.stitch_rings(inner.tolist(), outer.tolist())
        assert got.tolist() == [list(t) for t in want], (m, n)
        assert len(got) == (m > 1) * m + (n > 1) * n


def test_torus_points_equal_the_per_vertex_loop():
    # the grids generate_space builds at the suites' and the benchmark's h,
    # and the sizes the tests build directly
    sizes = {generators._torus_grid(h)
             for h in (0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5)}
    assert len(sizes) == 7
    for nu, nv in sizes | {(8, 4), (8, 6), (12, 6), (16, 6), (16, 8),
                           (24, 12), (40, 20)}:
        for R, r in ((generators.TORUS_R, generators.TORUS_r), (2.0, 0.5)):
            got = generators._torus_points(nu, nv, R, r)
            assert np.array_equal(got, oracles.torus_points(nu, nv, R, r)), \
                (nu, nv, R, r)
