"""Distortion measurement and the closed-form distortion bounds.

Frozen constants were produced by `python3 tests/oracles.py` (independent
Dijkstra and quotient-distance routes).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from reebscope.complexes import (LevelScan, ScalarField, contours_at,
                                 height_field, select_gaps)
from reebscope.complexes import levelscan
from reebscope.complexes.contours import sweep_diameters
from reebscope.complexes.generators import (circle_mesh, distance_field,
                                            flat_torus_mesh, generate_space,
                                            theta_mesh, torus_mesh,
                                            uv_sphere_mesh)
from reebscope.metric import (_FIRST_GAPS, BoundReport, MorseBoundParams,
                              bound_ratio, composed_intermediate_bound,
                              distance_function_bound, distortion,
                              gh_delta_bounds, intermediate_bounds,
                              max_contour_diameter, morse_bound_B, thickness)
from reebscope.reeb import build_reeb

# tests/oracles.py freeze run
CIRCLE64_HEIGHT_DISTORTION = 1.1403311569547545
THETA_24_6_AMBIENT_DISTORTION = 3.132628613281238


# ------------------------------------------------------------- bound report

def test_bound_report_inequality():
    assert BoundReport.check("t", 1.0, 1.0).passed
    assert not BoundReport.check("t", 1.0 + 1e-9, 1.0).passed
    assert BoundReport.check("t", 1.05, 1.0, tolerance=0.1).passed
    assert not BoundReport.check("t", 1.2, 1.0, tolerance=0.1).passed
    # absolute slack matters when the right side vanishes
    assert not BoundReport.check("t", 0.01, 0.0, tolerance=0.5).passed
    assert BoundReport.check("t", 0.01, 0.0, tolerance=0.5,
                             tol_abs=0.02).passed


def test_bound_report_json_doc():
    doc = BoundReport.check("name", 1.0, 2.0, tolerance=0.1, x=3).to_json_doc()
    assert doc == {"name": "name", "lhs": 1.0, "rhs": 2.0, "pass": True,
                   "tolerance": 0.1, "inputs": {"x": 3}}
    with_abs = BoundReport.check("name", 1.0, 2.0, tol_abs=0.5).to_json_doc()
    assert with_abs["tol_abs"] == 0.5


# --------------------------------------------------------------- distortion

def test_circle_height_distortion_frozen():
    cx = circle_mesh(64)
    f = ScalarField(cx.coords[:, 1])
    graph, qmap = build_reeb(cx, f)
    dis = distortion(cx, f, graph, qmap)
    assert dis == pytest.approx(CIRCLE64_HEIGHT_DISTORTION, rel=1e-12)
    # the continuum value is pi - 2 (antipodal pair versus folded diameter)
    assert dis == pytest.approx(math.pi - 2.0, abs=5e-3)


def test_circle_distance_field_distortion_vanishes():
    cx = circle_mesh(64)
    f = distance_field(cx, 0)
    graph, qmap = build_reeb(cx, f)
    assert distortion(cx, f, graph, qmap) <= 1e-12


def test_theta_ambient_distortion_frozen():
    cx = theta_mesh(24, 6)
    f = ScalarField(np.hypot(cx.coords[:, 0], cx.coords[:, 1]))
    graph, qmap = build_reeb(cx, f)
    dis = distortion(cx, f, graph, qmap)
    assert dis == pytest.approx(THETA_24_6_AMBIENT_DISTORTION, rel=1e-12)
    # collapsing the circle plateau loses half the polygon circumference
    assert dis == pytest.approx(24 * math.sin(math.pi / 24), rel=1e-12)


@pytest.mark.parametrize("make", [
    lambda: (circle_mesh(20), "height"),
    lambda: (torus_mesh(8, 4), "height"),
    lambda: (flat_torus_mesh(4), "distance"),
    lambda: (uv_sphere_mesh(4, 8), "height"),
    lambda: (torus_mesh(8, 4), "tied"),
])
def test_distortion_matches_oracle(make):
    cx, kind = make()
    if kind == "height":
        f = ScalarField(cx.coords[:, 2] if np.ptp(cx.coords[:, 2]) > 0
                        else cx.coords[:, 1])
    elif kind == "tied":
        f = ScalarField(np.round(cx.coords[:, 2] + cx.coords[:, 0], 1))
    else:
        f = distance_field(cx, 0)
    graph, qmap = build_reeb(cx, f)
    ours = distortion(cx, f, graph, qmap)
    ref = oracles.distortion_oracle(cx, f, graph, qmap)
    assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_graph_point_arrays_match_the_per_vertex_loop():
    rng = np.random.default_rng(5)
    cases = [(cx, ScalarField(np.round(rng.normal(size=cx.n_vertices), 1)))
             for cx in (torus_mesh(8, 4), circle_mesh(12), theta_mesh(8, 3),
                        flat_torus_mesh(4))]
    cx = torus_mesh(8, 4)
    cases += [(cx, height_field(cx)),
              (cx, ScalarField(np.full(cx.n_vertices, 2.0)))]
    for cx, f in cases:
        graph, qmap = build_reeb(cx, f)
        ends, costs, eid, _ = graph.point_ends(qmap.on_node, qmap.target,
                                               qmap.levels)
        got = (*ends, *costs, eid)
        want = oracles.graph_point_arrays(graph, qmap.points)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_distortion_input_validation():
    two = flat_torus_mesh(4)
    disjoint = type(two)(edges=[[0, 1], [2, 3]], lengths=[1.0, 1.0],
                         n_vertices=4)
    g2, q2 = build_reeb(disjoint, ScalarField([0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="connected"):
        distortion(disjoint, ScalarField([0.0, 1.0, 0.0, 1.0]), g2, q2)


# ------------------------------------------------- contour size and thickness

def test_max_contour_diameter_torus_height():
    cx = torus_mesh(24, 12)
    d = max_contour_diameter(cx, height_field(cx))
    # the widest contour spans at least the outer equator's chord; mesh
    # geodesics cut corners, so it stays below the half circumference
    assert 2.0 * 1.4 * 0.9 <= d <= math.pi * 1.4 + 1e-9
    exact = max(oracles.intrinsic_diameter(cx, c)
                for gap in LevelScan(cx, height_field(cx)).gaps()
                for c in gap.contours())
    assert d <= exact + 1e-12


def test_max_contour_diameter_subsampling_is_a_lower_bound():
    cx = torus_mesh(24, 12)
    f = height_field(cx)
    full = max_contour_diameter(cx, f)
    sub = max_contour_diameter(cx, f, max_levels=40)
    assert sub <= full + 1e-12
    assert sub > 0.5 * full


def _gaps_read(monkeypatch, measure, *args, **kwargs):
    """The number of distinct gaps whose contours `measure` reads."""
    read = set()
    contours = levelscan.GapView.contours

    def counted(gap):
        read.add((gap.lo, gap.hi))
        return contours(gap)

    monkeypatch.setattr(levelscan.GapView, "contours", counted)
    measure(*args, **kwargs)
    return len(read)


def test_level_sample_reads_gaps_with_level_sets(monkeypatch):
    # the sphere's height has whole rings of vertices at one value: its
    # 21 gaps must not be diluted by the vertex count
    sphere = generate_space("sphere", 0.15)
    n_gaps = len(list(LevelScan(sphere.complex, sphere.field).gaps()))
    assert n_gaps == 21
    assert _gaps_read(monkeypatch, thickness, sphere.complex, sphere.field,
                      max_levels=120) == 21

    torus = generate_space("torus", 0.15).complex
    f = distance_field(torus, 0)
    n_gaps = len(list(LevelScan(torus, f).gaps()))
    for m in (40, n_gaps, n_gaps + 10):
        assert _gaps_read(monkeypatch, max_contour_diameter, torus, f,
                          max_levels=m) == min(m, n_gaps)


def test_sampled_scan_labels_only_the_gaps_it_reads(monkeypatch):
    torus = generate_space("torus", 0.15).complex
    f = distance_field(torus, 0)
    labelled, read = [], []
    label, contours = levelscan.label_level_sets, levelscan.GapView.contours

    def counted_label(complex, g, levels):
        labelled.extend(np.asarray(levels).tolist())
        return label(complex, g, levels)

    def counted(gap):
        out = contours(gap)
        read.append(out.level)
        return out

    monkeypatch.setattr(levelscan, "label_level_sets", counted_label)
    monkeypatch.setattr(levelscan.GapView, "contours", counted)
    max_contour_diameter(torus, f, max_levels=40)
    # each gap read is labelled once, in value order, and no other is
    assert len(read) == 40
    assert labelled == read


def test_sampled_measures_equal_gap_by_gap_ones():
    # every sampled gap labelled alone by contours_at and each contour
    # swept alone give the same D and thickness as the batched scan
    torus = generate_space("torus", 0.15).complex
    f = distance_field(torus, 0)
    vals = np.unique(f.resolved_values)
    per_gap = []
    for level in (0.5 * (vals[:-1] + vals[1:])).tolist():
        conts = contours_at(torus, f, level)
        if not conts:
            continue
        diams = [float(sweep_diameters(torus, c.edge_ids, c.params,
                                       [0, len(c)])[0]) for c in conts]
        per_gap.append((max(diams), min(c.length(torus) / d for c, d
                                        in zip(conts, diams) if d > 0.0)))
    n_gaps = len(per_gap)
    for m in (40, n_gaps, None):
        picked = range(n_gaps) if m is None else sorted(select_gaps(
            n_gaps, min(_FIRST_GAPS, m), max(0, m - _FIRST_GAPS)))
        assert max_contour_diameter(torus, f, max_levels=m) \
            == max(per_gap[i][0] for i in picked)
        assert thickness(torus, f, max_levels=m) \
            == min(per_gap[i][1] for i in picked)


def test_thickness_torus_height_comfortably_above_one():
    # closed contours: length/diameter sits around 2 in the continuum and
    # well above 1 at this resolution despite diagonal shortcuts
    cx = torus_mesh(32, 16)
    t = thickness(cx, height_field(cx))
    assert 1.5 <= t <= 2.2


def test_thickness_requires_surface_and_coords():
    with pytest.raises(ValueError, match="surface"):
        thickness(circle_mesh(8), ScalarField(np.zeros(8)))
    flat = flat_torus_mesh(4)
    with pytest.raises(ValueError, match="coordinates"):
        thickness(flat, distance_field(flat, 0))


# ----------------------------------------------------------- closed forms

def test_distance_function_bound_constants():
    for D in (0.5, 1.0, 3.25):
        assert distance_function_bound(1, D) == (4 * D, 2 * D)
        for g in range(0, 6):
            dis, gh = distance_function_bound(g, D)
            assert dis == 2 * (g + 1) * D
            assert gh == (g + 1) * D
    with pytest.raises(ValueError):
        distance_function_bound(-1, 1.0)
    with pytest.raises(ValueError):
        distance_function_bound(1, -1.0)


@pytest.mark.parametrize("b", range(0, 6))
@pytest.mark.parametrize("area", [0.5, 1.0, 7.3])
def test_morse_bound_surface_closed_form(b, area):
    p = MorseBoundParams(b=b, L=1.0, n=2, volume=area, thickness=1.0,
                         diameter=3.0, eps_p=0.0)
    B, half = morse_bound_B(p)
    want = 4.0 * math.sqrt(2.0) * (b + 1) ** 1.5 * math.sqrt(area)
    assert B == pytest.approx(want, rel=1e-12)
    assert half == 0.5 * B


def test_morse_bound_lipschitz_and_proxy_terms():
    base = MorseBoundParams(b=1, L=1.0, n=3, volume=2.0, thickness=0.5,
                            diameter=4.0)
    B0, _ = morse_bound_B(base)
    with_eps = MorseBoundParams(b=1, L=1.0, n=3, volume=2.0, thickness=0.5,
                                diameter=4.0, eps_p=0.1)
    B1, _ = morse_bound_B(with_eps)
    assert B1 == pytest.approx(
        B0 + 4 * 4 * 8 * (4.0 ** (1 / 3) * 0.1 ** (2 / 3) + 0.1), rel=1e-12)
    with_L = MorseBoundParams(b=1, L=2.0, n=3, volume=2.0, thickness=0.5,
                              diameter=4.0)
    B2, _ = morse_bound_B(with_L)
    assert B2 == pytest.approx(
        16 * (2 * 2.0 / 2 * 2.0 / 0.5) ** (1 / 3) + 1.0 * 4.0, rel=1e-12)


def test_morse_params_validation():
    good = dict(b=0, L=1.0, n=2, volume=1.0, thickness=1.0, diameter=1.0)
    MorseBoundParams(**good)
    for key, bad in (("b", -1), ("L", -0.1), ("n", 1), ("volume", 0.0),
                     ("thickness", 0.0), ("diameter", 0.0), ("eps_p", -1.0)):
        with pytest.raises(ValueError):
            MorseBoundParams(**{**good, key: bad})


@given(st.integers(0, 8), st.integers(0, 8),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_morse_bound_monotone_in_rank_and_volume(b, db, v, dv):
    def B(b_, v_):
        return morse_bound_B(MorseBoundParams(
            b=b_, L=1.0, n=2, volume=v_, thickness=1.0, diameter=1.0))[0]
    assert B(b + db, v) >= B(b, v)
    assert B(b, v + dv) >= B(b, v)


def test_bound_ratio_torus_and_surface_families():
    for n in range(2, 11):
        assert bound_ratio(n, 1, n) == pytest.approx(
            ((n + 1) / 2.0) ** (2.0 - 1.0 / n), rel=1e-12)
    for g in range(1, 11):
        assert bound_ratio(2 * g, g, 2) == pytest.approx(
            (2.0 - 1.0 / (g + 1)) ** 1.5, rel=1e-12)
    assert bound_ratio(3, 3, 4) == 1.0
    with pytest.raises(ValueError):
        bound_ratio(1, 2, 3)
    with pytest.raises(ValueError):
        bound_ratio(2, 1, 1)


def test_intermediate_bounds_displays():
    eq15, eq16 = intermediate_bounds(b1_Rf=2, D=1.5, eps_p=0.0, L=1.0,
                                     diam=3.0, k=1, n=2, vol=4.0, T_f=0.5)
    assert eq15 == pytest.approx(5 * 1.5, rel=1e-12)
    # with eps_p = 0 the second display is the pure volume term
    assert eq16 == pytest.approx(math.sqrt(8 * 4.0 / 0.5), rel=1e-12)
    mu2 = 2.25
    _, again = intermediate_bounds(0, 0.0, 0.0, 1.0, 1.0, 1, 2, mu2, 0.5)
    assert again == pytest.approx(math.sqrt(8 * mu2 / 0.5), rel=1e-12)
    with pytest.raises(ValueError):
        intermediate_bounds(-1, 1.0, 0.0, 1.0, 1.0, 1, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        intermediate_bounds(0, 1.0, 0.0, 1.0, 1.0, 0, 2, 1.0, 1.0)


def test_composed_bound_sits_below_the_direct_form():
    """Chaining the displays with the worst-case k = b + 1 lands at the
    fraction (2b+1)/(2b+2) of the one-shot bound, not at equality."""
    for b in range(0, 6):
        for n in (2, 3, 5):
            p = MorseBoundParams(b=b, L=1.0, n=n, volume=3.0, thickness=0.7,
                                 diameter=2.0, eps_p=0.0)
            composed = composed_intermediate_bound(p)
            direct, _ = morse_bound_B(p)
            assert composed < direct
            assert composed / direct == pytest.approx(
                (2 * b + 1) / (2 * b + 2), rel=1e-12)


def test_gh_delta_bounds_values():
    for rho in (0.0, 1.0, 2.5):
        assert gh_delta_bounds(1, 1, rho) == (rho / 28, rho)
    lo, hi = gh_delta_bounds(0, 0, 3.0)
    assert (lo, hi) == (3.0 / 12, 3.0)
    lo, hi = gh_delta_bounds(5, 2, 1.0)
    assert (lo, hi) == (1.0 / 92, 1.0)
    # below the cycle rank the upper side needs the next scale
    lo, hi = gh_delta_bounds(1, 3, 2.0, a_next=0.25)
    assert lo == 2.0 / 60
    assert hi == 2.0 + 6.0 * 4 * 0.25
    with pytest.raises(ValueError, match="a_next"):
        gh_delta_bounds(1, 3, 2.0)
    with pytest.raises(ValueError):
        gh_delta_bounds(-1, 0, 1.0)
    with pytest.raises(ValueError):
        gh_delta_bounds(0, 0, -1.0)
