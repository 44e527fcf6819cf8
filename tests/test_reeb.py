"""Reeb graphs: the builder against the slab oracle, quotient map
contracts, graph metric, canonical forms."""

import math

import numpy as np
import pytest

import oracles
from reebscope.complexes import ScalarField, height_field
from reebscope.complexes.generators import (circle_mesh, disk_mesh,
                                            distance_field, flat_torus_mesh,
                                            generate_space, hemisphere_mesh,
                                            path_mesh, theta_mesh,
                                            three_arc_mesh, torus_mesh,
                                            uv_sphere_mesh,
                                            wedge_circles_mesh)
from reebscope.complexes.simplicial import SimplicialComplex
from reebscope.reeb import ReebGraph, build_reeb, isomorphic, reeb_oracle
from test_width import _book


def small_fixtures():
    """Complexes with at most 50 vertices, the oracle-equivalence pool."""
    return [
        path_mesh(6),
        circle_mesh(8),
        three_arc_mesh(4),
        theta_mesh(8, 3),
        wedge_circles_mesh(2, 5),
        flat_torus_mesh(4),
        torus_mesh(8, 4),
        uv_sphere_mesh(4, 8),
        disk_mesh(2),
        hemisphere_mesh(2),
    ]


def random_tied_field(cx, rng):
    """Random field rounded to one decimal: ties and plateaus on purpose."""
    return ScalarField(np.round(rng.normal(0.0, 1.0, cx.n_vertices), 1))


def test_small_fixtures_stay_small():
    for cx in small_fixtures():
        assert cx.n_vertices <= 50


# ------------------------------------------------------- oracle equivalence

def test_build_matches_oracle_on_tied_random_fields():
    rng = np.random.default_rng(404)
    pool = small_fixtures()
    for trial in range(60):
        cx = pool[trial % len(pool)]
        f = random_tied_field(cx, rng)
        graph, _ = build_reeb(cx, f)
        ref = reeb_oracle(cx, f)
        assert isomorphic(graph, ref, with_levels=True), \
            f"trial {trial} on {cx.name}"


def _joined(a, b):
    """The disjoint union of two embedded complexes."""
    n = a.n_vertices
    return SimplicialComplex(edges=np.vstack([a.edges, b.edges + n]),
                             triangles=np.vstack([a.triangles,
                                                  b.triangles + n]),
                             coords=np.vstack([a.coords, b.coords]))


def _hourglass(k=6):
    """Two cones, one below and one above, sharing their apex: under the
    height the apex is regular although its link has two components."""
    ring = [[math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k)]
            for i in range(k)]
    coords = [[0.0, 0.0, 0.0]] + [p + [-1.0] for p in ring] \
        + [p + [1.0] for p in ring]
    tris = [[0, 1 + i, 1 + (i + 1) % k] for i in range(k)] \
        + [[0, 1 + k + i, 1 + k + (i + 1) % k] for i in range(k)]
    return SimplicialComplex(triangles=tris, coords=coords)


def mixed_complexes():
    """Complexes that are not surfaces, or not connected, or empty."""
    dangling = SimplicialComplex(
        edges=[[2, 3]], triangles=[[0, 1, 2]],
        coords=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                [0.0, 2.0, 0.0], [3.0, 3.0, 0.0]])
    return [_book(), dangling, _joined(uv_sphere_mesh(4, 8), circle_mesh(6)),
            theta_mesh(8, 3), _hourglass(),
            SimplicialComplex(edges=None, lengths=np.zeros(0), n_vertices=0)]


def test_build_matches_oracle_on_mixed_complexes():
    rng = np.random.default_rng(8)
    for cx in mixed_complexes():
        fields = [ScalarField(rng.integers(0, 4, cx.n_vertices).astype(float))
                  for _ in range(12)]
        fields.append(ScalarField(np.full(cx.n_vertices, 1.5)))
        if cx.n_vertices:
            fields.append(ScalarField(cx.coords[:, 2]))
        for f in fields:
            graph, qmap = build_reeb(cx, f)
            assert isomorphic(graph, reeb_oracle(cx, f), with_levels=True), \
                f"{cx!r} with {f.values.tolist()}"
            _check_quotient_map(cx, f, graph, qmap)
            keys = list(zip(graph.levels.tolist(), graph.vertices))
            assert keys == sorted(keys), "nodes not numbered by " \
                "(level, least vertex)"


def test_build_matches_oracle_on_canonical_fields():
    for name in ("sphere", "torus", "flat_torus", "theta", "three_arc",
                 "circle", "path"):
        space = generate_space(name, 0.35)
        graph, _ = build_reeb(space.complex, space.field)
        ref = reeb_oracle(space.complex, space.field)
        assert isomorphic(graph, ref, with_levels=True), name


# ------------------------------------------------------- known graph shapes

def test_constant_field_collapses_to_a_point():
    cx = torus_mesh(8, 4)
    graph, qmap = build_reeb(cx, ScalarField(np.full(cx.n_vertices, 2.0)))
    assert (graph.n_nodes, graph.n_edges, graph.cycle_rank) == (1, 0, 0)
    assert all(pt == ("node", 0) for pt in qmap.points)


def test_circle_height_gives_one_loop():
    graph, _ = build_reeb(circle_mesh(12),
                          height_field(circle_mesh(12), axis=1))
    assert (graph.n_nodes, graph.n_edges, graph.cycle_rank) == (2, 2, 1)


def test_sphere_height_gives_a_segment():
    cx = uv_sphere_mesh(8, 10)
    graph, _ = build_reeb(cx, height_field(cx))
    assert graph.cycle_rank == 0
    assert graph.n_components == 1
    degree = np.bincount(np.ravel(graph.edges), minlength=graph.n_nodes)
    assert np.all(degree <= 2)


def test_torus_height_loop_and_saddles():
    cx = torus_mesh(24, 12)
    graph, _ = build_reeb(cx, height_field(cx))
    assert graph.cycle_rank == 1
    degree = np.bincount(np.ravel(graph.edges), minlength=graph.n_nodes)
    deg3 = sorted(graph.levels[degree == 3].tolist())
    assert deg3 == pytest.approx([-0.6, 0.6], abs=1e-12)


def test_flat_torus_distance_field_has_no_loops():
    cx = flat_torus_mesh(8)
    graph, _ = build_reeb(cx, distance_field(cx, 0))
    assert graph.cycle_rank == 0


def test_theta_ambient_field_gives_a_segment():
    space = generate_space("theta", 0.3)
    graph, _ = build_reeb(space.complex, space.field)
    assert (graph.n_nodes, graph.n_edges, graph.cycle_rank) == (2, 1, 0)


def test_three_arc_distance_field_keeps_both_loops():
    space = generate_space("three_arc", 0.3)
    graph, _ = build_reeb(space.complex, space.field)
    assert graph.cycle_rank == 2
    assert graph.n_components == 1


def test_disconnected_complex_builds_componentwise():
    one = circle_mesh(8)
    n = one.n_vertices
    edges = np.vstack([one.edges, one.edges + n])
    cx = SimplicialComplex(edges=edges,
                           lengths=np.concatenate([one.lengths, one.lengths]),
                           n_vertices=2 * n)
    f = ScalarField(np.concatenate([one.coords[:, 1], one.coords[:, 1] + 5]))
    graph, _ = build_reeb(cx, f)
    assert graph.n_components == 2
    assert graph.cycle_rank == 2


def test_field_length_checked():
    with pytest.raises(ValueError):
        build_reeb(circle_mesh(8), ScalarField([0.0, 1.0]))


# ------------------------------------------------------------- quotient map

def test_quotient_map_points_are_consistent():
    cx = torus_mesh(8, 4)
    f = height_field(cx)
    graph, qmap = build_reeb(cx, f)
    _check_quotient_map(cx, f, graph, qmap)


def _check_quotient_map(cx, f, graph, qmap):
    assert len(qmap) == cx.n_vertices
    for v in range(cx.n_vertices):
        pt = qmap.point(v)
        assert qmap.level(v) == f.resolved_values[v]
        if pt[0] == "node":
            assert graph.levels[pt[1]] == qmap.level(v)
        else:
            kind, eid, lvl = pt
            assert kind == "edge"
            u, w = graph.edges[eid]
            assert graph.levels[u] < lvl < graph.levels[w]
            assert lvl == qmap.level(v)


def _quotient_cases():
    """(complex, field) pairs: tied random fields, integer fields on the
    mixed complexes (disconnected and empty ones among them) and constant
    fields."""
    rng = np.random.default_rng(23)
    pool = small_fixtures()
    cases = [(cx, random_tied_field(cx, rng)) for cx in pool]
    for cx in mixed_complexes():
        cases.append((cx, ScalarField(
            rng.integers(0, 4, cx.n_vertices).astype(float))))
        cases.append((cx, ScalarField(np.full(cx.n_vertices, 1.5))))
    return cases


def test_quotient_map_points_match_the_per_vertex_reference():
    for cx, f in _quotient_cases():
        graph, qmap = build_reeb(cx, f)
        ref = oracles.quotient_points(qmap.on_node, qmap.target,
                                      f.resolved_values)
        assert qmap.points == ref, repr(cx)
        assert [qmap.point(v) for v in range(cx.n_vertices)] == ref
        for pt in qmap.points:
            assert type(pt[1]) is int
            assert pt[0] == "node" or type(pt[2]) is float
        _check_quotient_map(cx, f, graph, qmap)


def test_handed_component_count_matches_a_flood_fill():
    for cx, f in _quotient_cases():
        graph, _ = build_reeb(cx, f)
        assert graph.n_components == cx.n_components
        assert graph.n_components == oracles.reeb_components(graph), repr(cx)
        assert reeb_oracle(cx, f).n_components == graph.n_components


def test_contour_mates_land_on_one_graph_point():
    # vertices on a common contour of the resolved field map together
    cx = circle_mesh(8)
    vals = np.array([0.0, 1.0, 2.0, 1.0, 0.5, 2.0, 2.0, 1.0])
    graph, qmap = build_reeb(cx, ScalarField(vals))
    ref = reeb_oracle(cx, ScalarField(vals))
    assert isomorphic(graph, ref)
    # the two level-2 plateaus are separate graph points
    assert qmap.point(2) != qmap.point(5) or qmap.point(5) == qmap.point(6)


# ------------------------------------------------------------- invariances

def test_monotone_reparametrization_keeps_the_shape():
    cx = torus_mesh(12, 6)
    f = height_field(cx)
    g = ScalarField(np.exp(f.values))
    a, _ = build_reeb(cx, f)
    b, _ = build_reeb(cx, g)
    assert isomorphic(a, b, with_levels=False)
    assert a.cycle_rank == b.cycle_rank


def test_negation_flips_levels_keeps_rank():
    cx = torus_mesh(12, 6)
    a, _ = build_reeb(cx, height_field(cx))
    b, _ = build_reeb(cx, ScalarField(-height_field(cx).values))
    assert a.cycle_rank == b.cycle_rank
    # tie snapping picks the run's first sorted member, which flips under
    # negation; levels agree only up to that snap width
    assert np.allclose(sorted(np.asarray(a.levels).tolist()),
                       sorted((-np.asarray(b.levels)).tolist()), atol=1e-11)


# ------------------------------------------------------------- graph metric

def test_node_distances_match_oracle():
    cx = torus_mesh(16, 8)
    graph, _ = build_reeb(cx, height_field(cx))
    ours = graph.node_distances()
    ref = oracles.reeb_node_distances(graph)
    assert np.allclose(ours, ref, rtol=0.0, atol=1e-12)


def test_point_distance_matches_oracle():
    cx = torus_mesh(16, 8)
    f = height_field(cx)
    graph, qmap = build_reeb(cx, f)
    nd = oracles.reeb_node_distances(graph)
    rng = np.random.default_rng(11)
    for _ in range(40):
        i, j = rng.integers(0, cx.n_vertices, size=2)
        got = graph.distance(qmap.point(int(i)), qmap.point(int(j)))
        want = oracles.quotient_distance(graph, qmap, nd, int(i), int(j))
        assert got == pytest.approx(want, abs=1e-12)


def _two_paths():
    """Two four-vertex paths: the middle vertices of each land on one
    edge, and the two halves of the graph never meet."""
    cx = SimplicialComplex(edges=[[0, 1], [1, 2], [2, 3], [4, 5], [5, 6],
                                  [6, 7]], lengths=np.ones(6), n_vertices=8)
    return cx, ScalarField([0.0, 1.0, 2.0, 3.0, 0.0, 1.5, 2.0, 3.0])


@pytest.mark.parametrize("case", ["torus-tied", "theta", "two-paths"])
def test_point_distances_match_the_oracle_on_every_vertex_pair(case):
    if case == "two-paths":
        cx, f = _two_paths()
    else:
        cx = torus_mesh(8, 4) if case == "torus-tied" else theta_mesh(8, 3)
        f = random_tied_field(cx, np.random.default_rng(25))
    graph, qmap = build_reeb(cx, f)
    points = graph.point_ends(qmap.on_node, qmap.target, qmap.levels)
    n = cx.n_vertices
    got = graph.point_distances(points, np.arange(n)[:, None], np.arange(n))
    nd = oracles.reeb_node_distances(graph)
    eid = points[2]
    same = (eid[:, None] == eid[None, :]) & (eid[:, None] >= 0)
    assert qmap.on_node.any() and (same & ~np.eye(n, dtype=bool)).any()
    for i in range(n):
        for j in range(n):
            want = oracles.quotient_distance(graph, qmap, nd, i, j)
            assert got[i, j] == pytest.approx(want, abs=1e-12)
            assert graph.distance(qmap.point(i), qmap.point(j)) == got[i, j]
    assert np.isinf(got).any() == (case == "two-paths")


def test_same_edge_shortcut():
    graph = ReebGraph([(0.0, None), (10.0, None)], [(0, 1)])
    a = ("edge", 0, 2.0)
    b = ("edge", 0, 7.0)
    assert graph.distance(a, b) == pytest.approx(5.0, abs=0.0)
    assert graph.distance(a, ("node", 1)) == pytest.approx(8.0, abs=0.0)


def test_distance_is_infinite_across_components():
    graph = ReebGraph([(0.0, None), (1.0, None), (5.0, None), (6.0, None)],
                      [(0, 1), (2, 3)])
    assert graph.n_components == 2
    assert np.isinf(graph.distance(("node", 0), ("node", 3)))


def test_level_outside_edge_span_rejected():
    graph = ReebGraph([(0.0, None), (1.0, None)], [(0, 1)])
    with pytest.raises(ValueError, match="outside edge"):
        graph.distance(("edge", 0, 2.0), ("node", 0))


@pytest.mark.parametrize("point, match", [
    (("node", -1), "node id -1 out of range"),
    (("node", 3), "node id 3 out of range"),
    (("edge", -1, 3.0), "edge id -1 out of range"),
    (("edge", 7, 3.0), "edge id 7 out of range"),
    (("node", 1.5), "ids must be integers"),
    (("edge", 0.5, 0.5), "ids must be integers"),
])
def test_bad_point_ids_rejected(point, match):
    graph = ReebGraph([(0.0, None), (1.0, None), (5.0, None)],
                      [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=match):
        graph.distance(point, ("node", 0))


# ------------------------------------------------------- graph object basics

def test_horizontal_edge_rejected():
    with pytest.raises(ValueError, match="horizontal edge"):
        ReebGraph([(0.0, None), (0.0, None)], [(0, 1)])


def test_cycle_rank_euler_formula():
    for cx in (torus_mesh(8, 4), uv_sphere_mesh(4, 8), three_arc_mesh(4)):
        graph, _ = build_reeb(cx, ScalarField(
            np.round(np.random.default_rng(3).normal(size=cx.n_vertices), 1)))
        assert graph.cycle_rank == \
            graph.n_edges - graph.n_nodes + graph.n_components


def test_isomorphic_ignores_node_order():
    a = ReebGraph([(0.0, None), (1.0, None), (2.0, None)], [(0, 1), (1, 2)])
    b = ReebGraph([(2.0, None), (0.0, None), (1.0, None)], [(1, 2), (2, 0)])
    assert isomorphic(a, b)


def test_isomorphic_separates_path_from_cycle():
    path = ReebGraph([(0.0, None), (1.0, None)], [(0, 1)])
    loop = ReebGraph([(0.0, None), (1.0, None)], [(0, 1), (0, 1)])
    assert not isomorphic(path, loop)
    assert isomorphic(path, loop, with_levels=False) is False


def test_isomorphic_sees_levels():
    a = ReebGraph([(0.0, None), (1.0, None)], [(0, 1)])
    b = ReebGraph([(0.0, None), (2.0, None)], [(0, 1)])
    assert not isomorphic(a, b)
    assert isomorphic(a, b, with_levels=False)


def test_canonical_form_separates_tied_saddle_sides():
    # two loops over the same level window versus one doubled loop
    nodes = [(0.0, None), (1.0, None), (0.0, None), (1.0, None)]
    two = ReebGraph(nodes, [(0, 1), (0, 1), (2, 3), (2, 3)])
    chain = ReebGraph(nodes, [(0, 1), (0, 1), (2, 3), (0, 3)])
    assert not isomorphic(two, chain)


def test_json_doc_is_sorted_and_versioned():
    cx = torus_mesh(8, 4)
    graph, _ = build_reeb(cx, height_field(cx))
    doc = graph.to_json_doc()
    assert doc["schema"] == 1
    levels = [nd["level"] for nd in doc["nodes"]]
    assert levels == sorted(levels)
    assert [nd["id"] for nd in doc["nodes"]] == list(range(graph.n_nodes))
    assert doc["edges"] == sorted(doc["edges"])
    assert all(u < v or (u == v) is False for u, v in doc["edges"])


def test_dot_export_shape():
    graph = ReebGraph([(0.0, None), (1.0, None)], [(0, 1)])
    dot = graph.to_dot()
    assert dot.startswith("graph reeb {")
    assert "n0 -- n1;" in dot
    assert dot.endswith("}\n")
