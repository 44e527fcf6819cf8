"""Reeb-width lower bounds: exact case values, seam continuity, the
global-to-local substitution, and the disk / hemisphere verifiers."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracles
from reebscope.complexes import ScalarField
from reebscope.complexes.generators import (disk_mesh, generate_space,
                                            hemisphere_mesh,
                                            random_smooth_field, theta_mesh,
                                            torus_mesh)
from reebscope.complexes.simplicial import SimplicialComplex
from reebscope.width import (TRIPOD_WIDTH, GlobalGeometry, LocalGeometry,
                             convexity_radius_bound, disk_contour_verify,
                             hemisphere_width_verify, reeb_width_global,
                             reeb_width_local, simplified_bounds,
                             sphere_chord, urysohn_volume_lower)
from reebscope.complexes import contours
from reebscope.complexes.contours import label_level_sets, link_components
from reebscope.suites import _disk_fields
from reebscope import width
from reebscope.width import (_candidate_levels, _max_contour_diam_certified,
                             _piece_points, _unit_sphere_arc)

SQRT3 = math.sqrt(3.0)


# ------------------------------------------------------------- local bound

def test_hemisphere_case_is_two_thirds_pi():
    assert reeb_width_local(math.pi / 2, 1.0, 2) == \
        pytest.approx(TRIPOD_WIDTH, rel=1e-15)
    assert TRIPOD_WIDTH == 2.0 * math.pi / 3.0


def test_high_dimension_gives_the_diameter():
    for n in (3, 4, 7):
        assert reeb_width_local(0.8, 5.0, n) == pytest.approx(1.6, abs=0.0)
        assert reeb_width_local(0.8, -5.0, n) == pytest.approx(1.6, abs=0.0)


def test_flat_or_negative_surface_case():
    assert reeb_width_local(2.0, 0.0, 2) == pytest.approx(2 * SQRT3,
                                                          rel=1e-15)
    assert reeb_width_local(2.0, -3.0, 2) == pytest.approx(2 * SQRT3,
                                                           rel=1e-15)


def test_spherical_case_saturates():
    # beyond r sqrt(K) = pi/2 the cap covers the hemisphere
    K = 4.0
    cap = reeb_width_local(math.pi / 4, K, 2)
    assert cap == pytest.approx(TRIPOD_WIDTH / math.sqrt(K), rel=1e-15)
    assert reeb_width_local(10.0, K, 2) == cap


def test_local_accepts_geometry_object():
    g = LocalGeometry(0.5, 1.0, 2)
    assert reeb_width_local(g) == reeb_width_local(0.5, 1.0, 2)


def test_local_matches_sphere_chord_identity():
    # worst fiber of the cap: the chord at azimuth separation 2pi/3
    for r, K in ((0.3, 1.0), (0.7, 2.5), (1.1, 0.9)):
        if r * math.sqrt(K) <= math.pi / 2:
            assert reeb_width_local(r, K, 2) == pytest.approx(
                sphere_chord(2 * math.pi / 3, r, K), rel=1e-15)


def test_geometry_validation():
    with pytest.raises(ValueError, match="radius must be positive"):
        LocalGeometry(0.0, 1.0, 2)
    with pytest.raises(ValueError, match="dimension"):
        LocalGeometry(1.0, 1.0, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        GlobalGeometry(-1.0, 1.0, 2)
    with pytest.raises(ValueError, match="volume"):
        GlobalGeometry(1.0, 1.0, 2, vol=0.0)
    with pytest.raises(ValueError, match="diameter"):
        GlobalGeometry(1.0, 1.0, 2, diam=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            LocalGeometry(bad, 1.0, 2)
        with pytest.raises(ValueError, match="finite"):
            LocalGeometry(1.0, bad, 2)
        with pytest.raises(ValueError, match="finite"):
            GlobalGeometry(bad, 1.0, 2)
        with pytest.raises(ValueError, match="finite"):
            GlobalGeometry(1.0, bad, 2)
        with pytest.raises(ValueError, match="finite"):
            GlobalGeometry(1.0, 1.0, 2, vol=bad)
        with pytest.raises(ValueError, match="finite"):
            GlobalGeometry(1.0, 1.0, 2, diam=bad)


# ------------------------------------------------------------ global bound

def test_global_case_values():
    assert reeb_width_global(2.0, -1.0, 3) == 2.0
    assert reeb_width_global(10.0, 4.0, 3) == pytest.approx(math.pi / 2,
                                                            rel=1e-15)
    assert reeb_width_global(2.0, 0.0, 2) == pytest.approx(SQRT3, rel=1e-15)
    assert reeb_width_global(math.pi, 1.0, 2) == pytest.approx(TRIPOD_WIDTH,
                                                               rel=1e-15)


def test_global_vacuous_at_zero_injectivity():
    with pytest.warns(UserWarning, match="vacuous, use local form"):
        assert reeb_width_global(0.0, 1.0, 2) == 0.0


def test_global_equals_local_at_substituted_radius():
    rng = np.random.default_rng(10)
    for _ in range(200):
        inj = float(rng.uniform(0.01, 10.0))
        K = float(rng.uniform(-5.0, 5.0))
        dim = int(rng.integers(2, 6))
        if K > 0:
            r = min(inj / 2.0, math.pi / (2.0 * math.sqrt(K)))
        else:
            r = inj / 2.0
        lhs = reeb_width_global(inj, K, dim)
        rhs = reeb_width_local(r, K, dim)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_injectivity_collapse_keeps_local_fixed():
    local = reeb_width_local(1.0, 1.0, 2)
    values = [reeb_width_global(inj, 1.0, 2)
              for inj in (1.0, 0.1, 0.01, 0.001)]
    assert values == sorted(values, reverse=True)
    assert values[-1] < 1e-3 * local < local


# ------------------------------------------------------------------ seams

def test_seam_continuity_in_curvature():
    for r in (0.3, 1.0, 2.7):
        below = reeb_width_local(r, -1e-9, 2)
        above = reeb_width_local(r, 1e-9, 2)
        assert abs(below - above) < 1e-6
    below = reeb_width_global(1.7, -1e-9, 2)
    above = reeb_width_global(1.7, 1e-9, 2)
    assert abs(below - above) < 1e-6


def test_seam_continuity_at_saturation():
    K = 2.0
    seam = math.pi / (2.0 * math.sqrt(K))
    assert abs(reeb_width_local(seam - 1e-9, K, 2)
               - reeb_width_local(seam + 1e-9, K, 2)) < 1e-6


# ----------------------------------------------------- simplified dominance

def test_simplified_bounds_values():
    s = simplified_bounds(LocalGeometry(0.5, 16.0, 2))
    assert s.value == 0.5
    assert float(s) == 0.5
    assert simplified_bounds(LocalGeometry(3.0, 16.0, 2)).value == 0.5
    assert simplified_bounds(GlobalGeometry(2.0, 1.0, 2)).value == 1.0
    assert simplified_bounds(GlobalGeometry(2.0, -1.0, 3)).value == 1.0
    assert s.linear_constant == pytest.approx(2 * SQRT3 / math.pi, rel=1e-15)
    assert s.curvature_constant == pytest.approx(TRIPOD_WIDTH, rel=1e-15)
    with pytest.raises(TypeError):
        simplified_bounds(1.0)


def test_simplified_never_exceeds_full():
    rng = np.random.default_rng(2)
    for _ in range(300):
        r = float(rng.uniform(0.01, 5.0))
        K = float(rng.uniform(-4.0, 4.0))
        n = int(rng.integers(2, 5))
        g = LocalGeometry(r, K, n)
        assert float(simplified_bounds(g)) <= reeb_width_local(g) + 1e-12
        inj = float(rng.uniform(0.01, 5.0))
        gg = GlobalGeometry(inj, K, n)
        assert float(simplified_bounds(gg)) <= reeb_width_global(gg) + 1e-12


# ------------------------------------------------------- auxiliary formulas

def test_convexity_radius_bound():
    assert convexity_radius_bound(3.0, -2.0) == 1.5
    assert convexity_radius_bound(math.pi, 1.0) == pytest.approx(math.pi / 2,
                                                                 rel=1e-15)
    assert convexity_radius_bound(0.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        convexity_radius_bound(-1.0, 1.0)


def test_sphere_chord_values():
    assert sphere_chord(2 * math.pi / 3, math.pi / 2, 1.0) == \
        pytest.approx(TRIPOD_WIDTH, rel=1e-15)
    assert sphere_chord(0.0, 1.0, 1.0) == 0.0
    # flat limit: the Euclidean chord of the latitude circle
    alpha, r = 1.1, 0.8
    flat = 2 * r * math.sin(alpha / 2)
    assert abs(sphere_chord(alpha, r, 1e-8) - flat) < 1e-6


def test_sphere_chord_validation():
    with pytest.raises(ValueError, match="K > 0"):
        sphere_chord(1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        sphere_chord(4.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="pi/2"):
        sphere_chord(1.0, 10.0, 1.0)


def test_urysohn_volume_lower():
    for n in (2, 3, 7):
        assert urysohn_volume_lower(1.0, 1.0, n, 1.0) == 1.0
    assert urysohn_volume_lower(8.0, 2.0, 3, 1.0) == 2.0
    assert urysohn_volume_lower(2.0, 1.0, 2, 0.5) == 1.0
    with pytest.raises(ValueError):
        urysohn_volume_lower(0.0, 1.0, 2, 1.0)
    with pytest.raises(ValueError):
        urysohn_volume_lower(1.0, 1.0, 1, 1.0)
    for bad in (math.nan, math.inf):
        for args in ((bad, 1.0, 2, 1.0), (1.0, bad, 2, 1.0),
                     (1.0, 1.0, 2, bad)):
            with pytest.raises(ValueError, match="finite"):
                urysohn_volume_lower(*args)


# ------------------------------------------------------------ disk verifier

def _disk_field(cx, fn):
    xy = cx.coords[:, :2]
    return ScalarField(fn(xy[:, 0], xy[:, 1]))


def test_disk_radial_witness_is_the_boundary_circle():
    cx = disk_mesh(10)
    rep = disk_contour_verify(cx, _disk_field(cx, np.hypot))
    assert rep.passed
    assert rep.best_level == pytest.approx(1.0, abs=1e-9)
    assert rep.boundary_diam == pytest.approx(2.0, abs=1e-9)


def test_disk_saddle_witness_is_the_level_zero_cross():
    cx = disk_mesh(10)
    rep = disk_contour_verify(cx, _disk_field(cx, lambda x, y: x * x - y * y))
    assert rep.passed
    assert rep.best_level == pytest.approx(0.0, abs=1e-12)
    assert rep.boundary_diam == pytest.approx(2.0, abs=1e-9)


def test_disk_taxicab_witness_touches_the_four_axis_points():
    cx = disk_mesh(10)
    rep = disk_contour_verify(cx,
                              _disk_field(cx, lambda x, y: np.abs(x)
                                          + np.abs(y)))
    assert rep.passed
    assert rep.best_level == pytest.approx(1.0, abs=1e-12)
    assert rep.boundary_diam == pytest.approx(2.0, abs=1e-9)


def test_disk_linear_witness_is_an_analytic_chord():
    cx = disk_mesh(10)
    rep = disk_contour_verify(cx, _disk_field(cx, lambda x, y: x))
    assert rep.passed
    # a vertical chord at level c meets the circle 2 sqrt(1-c^2) apart; the
    # mesh boundary is an 80-gon, so allow its sagitta (about 1.1e-3)
    c = rep.best_level
    chord = 2 * math.sqrt(1 - c * c)
    assert rep.boundary_diam <= chord + 1e-9
    assert rep.boundary_diam == pytest.approx(chord, abs=2e-3)
    full = disk_contour_verify(cx, _disk_field(cx, lambda x, y: x),
                               early_stop=False)
    assert full.best_level == pytest.approx(0.0, abs=1e-12)
    assert full.boundary_diam == pytest.approx(2.0, abs=1e-9)


def test_disk_constant_field_is_one_big_contour():
    cx = disk_mesh(6)
    rep = disk_contour_verify(cx, ScalarField(np.full(cx.n_vertices, 0.25)))
    assert rep.passed
    assert rep.best_level == 0.25
    assert rep.boundary_diam == pytest.approx(2.0, abs=1e-9)
    assert rep.interior_diam == pytest.approx(2.0, abs=1e-9)


def test_small_triangle_fails_the_threshold():
    cx = SimplicialComplex(triangles=[[0, 1, 2]],
                           coords=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                   [0.0, 1.0, 0.0]])
    f = ScalarField([0.0, 0.5, 1.0])
    rep = disk_contour_verify(cx, f)
    assert not rep.passed
    assert rep.boundary_diam < rep.threshold
    assert rep.interior_diam <= math.sqrt(2.0) + 1e-12
    # a permissive tolerance flips the verdict
    loose = disk_contour_verify(cx, f, tol=1.0)
    assert loose.passed
    assert loose.threshold == pytest.approx(SQRT3 - 1.0, rel=1e-15)


def test_disk_verifier_input_validation():
    flatland = SimplicialComplex(edges=[[0, 1]], lengths=[1.0], n_vertices=2)
    with pytest.raises(ValueError, match="coordinates"):
        disk_contour_verify(flatland, ScalarField([0.0, 1.0]))
    closed = torus_mesh(8, 4)
    with pytest.raises(ValueError, match="no boundary"):
        disk_contour_verify(closed,
                            ScalarField(closed.coords[:, 2].copy()))


@pytest.mark.parametrize("batch", [contours._BATCH_CROSSINGS, 64])
def test_disk_verifier_matches_the_per_piece_reference(monkeypatch, batch):
    # every piece measured by its own pdist calls; small batches carry the
    # running bests and the early stop across many labelling calls
    monkeypatch.setattr(contours, "_BATCH_CROSSINGS", batch)
    cx = generate_space("disk", 0.1).complex
    fields = [f for _, f in _disk_fields(cx, 3, 5)]
    # tied values: flat pieces, vertices on the level and boundary ties
    fields.append(ScalarField(np.round(4.0 * cx.coords[:, 0])))
    fields.append(ScalarField(np.round(3.0 * np.hypot(cx.coords[:, 0],
                                                      cx.coords[:, 1]))))
    for f in fields:
        for tol in (0.05, 0.6):
            for early in (True, False):
                rep = disk_contour_verify(cx, f, tol=tol, early_stop=early)
                got = (rep.best_level, rep.boundary_diam, rep.interior_diam,
                       rep.threshold, rep.passed)
                assert got == oracles.disk_contour_verify(
                    cx, f, tol=tol, early_stop=early)


def test_disk_verifier_measures_a_large_piece_exactly():
    # a band from a circle of radius 0.5 up to a wobbly circle of radius
    # about 1; the field is the height, so the top ring is one level piece
    # of 1,600 vertices, the widest of all, and its farthest pair is found
    # only by comparing all pairs
    from scipy.spatial.distance import pdist

    n = 1600
    t = 2.0 * math.pi * np.arange(n) / n
    r = 1.0 + 0.05 * np.random.default_rng(0).uniform(size=n)
    lower = np.column_stack([0.5 * np.cos(t), 0.5 * np.sin(t), np.zeros(n)])
    upper = np.column_stack([r * np.cos(t), r * np.sin(t), np.ones(n)])
    i = np.arange(n)
    j = (i + 1) % n
    cx = SimplicialComplex(
        triangles=np.concatenate([np.column_stack([i, j, n + i]),
                                  np.column_stack([j, n + j, n + i])]),
        coords=np.vstack([lower, upper]))
    rep = disk_contour_verify(cx, ScalarField(cx.coords[:, 2].copy()),
                              early_stop=False)
    assert rep.interior_diam == float(pdist(upper).max())
    assert rep.best_level == 1.0


def test_disk_suite_does_not_import_scipy_spatial():
    code = ("import sys\n"
            "from reebscope.suites import thm62_suite\n"
            "assert all(r.passed for r in thm62_suite(h=0.1))\n"
            "print('scipy.spatial' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_disk_report_json():
    cx = disk_mesh(4)
    doc = disk_contour_verify(cx, _disk_field(cx, np.hypot)).to_json_doc()
    assert doc["pass"] is True
    assert set(doc) == {"best_level", "boundary_diam", "interior_diam",
                        "threshold", "pass"}


# --------------------------------------------------------- level-set pieces

def _pieces(cx, values, level):
    g = np.asarray(values, dtype=float)
    pieces = label_level_sets(cx, g, [level])
    pts, onb = _piece_points(cx, g, pieces)
    b = pieces.bounds
    return [(pts[lo:hi], onb[lo:hi]) for lo, hi in zip(b, b[1:])]


def test_level_piece_keeps_saddle_arms_joined():
    # four triangles around a center vertex; the level through the center
    # is a cross and must come out as one piece
    cx = SimplicialComplex(
        triangles=[[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]],
        coords=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])
    pieces = _pieces(cx, [0.0, 1.0, -1.0, 1.0, -1.0], 0.0)
    assert len(pieces) == 1
    pts, onb = pieces[0]
    assert pts.shape[0] == 5  # four edge crossings plus the center
    assert int(onb.sum()) == 4  # the crossings sit on boundary edges


def test_level_piece_carries_flat_edges():
    cx = SimplicialComplex(edges=[[0, 1], [1, 2], [2, 3]],
                           lengths=None,
                           coords=[[0, 0, 0], [1, 0, 0], [2, 0, 0],
                                   [3, 0, 0]])
    pieces = _pieces(cx, [1.0, 1.0, 1.0, 2.0], 1.0)
    assert len(pieces) == 1
    pts, onb = pieces[0]
    assert pts.shape[0] == 3
    # in a pure graph the boundary flags mark leaf vertices
    assert int(onb.sum()) == 1


def test_level_pieces_separate_disjoint_contours():
    cx = disk_mesh(6)
    xy = cx.coords[:, :2]
    saddle = xy[:, 0] ** 2 - xy[:, 1] ** 2
    pieces = _pieces(cx, saddle, -0.5)
    assert len(pieces) == 2  # two hyperbola branches


def _oracle_candidate_levels(cx, g):
    lower, _, upper = oracles.link_components(cx, g)
    vals, counts = np.unique(g, return_counts=True)
    cand = set(vals[counts >= 2].tolist())
    for v in range(cx.n_vertices):
        if cx.boundary_vertices[v] or lower[v] != 1 or upper[v] != 1:
            cand.add(float(g[v]))
    return sorted(cand)


def _book(pages=3, n=5):
    """Pages of triangle strips glued along a common spine path."""
    coords = [[float(x), 0.0, 0.0] for x in range(n)]
    tris = []
    for p in range(pages):
        ang = 2.0 * math.pi * p / pages
        base = len(coords)
        coords += [[float(x), math.cos(ang), math.sin(ang)] for x in range(n)]
        for i in range(n - 1):
            tris += [[i, i + 1, base + i], [i + 1, base + i + 1, base + i]]
    return SimplicialComplex(triangles=tris, coords=coords)


def _book_fields(cx):
    xyz = cx.coords
    off_spine = np.hypot(xyz[:, 1], xyz[:, 2])
    return [xyz[:, 1] + 0.1 * xyz[:, 0],
            # every page falls away from the middle of the spine, so the
            # spine's middle vertex has three lower link components
            0.5 * (xyz[:, 0] - 2.0) ** 2 - off_spine,
            np.random.default_rng(3).normal(size=cx.n_vertices)]


def test_candidate_levels_match_the_link_oracle():
    disk = generate_space("disk", 0.05).complex
    cases = [(disk, f.resolved_values) for _, f in _disk_fields(disk, 8, 0)]
    book = _book()
    cases += [(book, ScalarField(v).resolved_values)
              for v in _book_fields(book)]
    graph = theta_mesh(24, 6)
    cases.append((graph, ScalarField(graph.coords[:, 0]).resolved_values))
    assert len(cases) == 16
    for cx, g in cases:
        counts = link_components(cx, g)
        assert tuple(c.tolist() for c in counts) \
            == oracles.link_components(cx, g)
        assert _candidate_levels(cx, g) == _oracle_candidate_levels(cx, g)
    lower, _, _ = oracles.link_components(book, _book_fields(book)[1])
    assert lower[2] == 3


# ------------------------------------------------------ hemisphere verifier

def test_unit_sphere_arc():
    assert _unit_sphere_arc(0.0) == 0.0
    assert _unit_sphere_arc(2.0) == pytest.approx(math.pi, rel=1e-15)
    assert _unit_sphere_arc(math.sqrt(2.0)) == pytest.approx(math.pi / 2,
                                                             rel=1e-12)
    xs = np.linspace(0.0, 2.0, 50)
    arcs = [_unit_sphere_arc(float(x)) for x in xs]
    assert all(a <= b + 1e-15 for a, b in zip(arcs, arcs[1:]))
    assert all(a >= x for a, x in zip(arcs, xs))


def test_hemisphere_verify_rejects_bad_resolution():
    for h in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            hemisphere_width_verify(h=h)


def test_hemisphere_verify_coarse_structure():
    # coarse mesh, loose tolerances: exercises the full reporting path
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = hemisphere_width_verify(h=0.1, tol=0.3, n_random=2, seed=1,
                                      tripod_rtol=0.1)
    assert set(rep.per_field) == {"tripod", "height", "random_0", "random_1"}
    assert rep.tripod_ok
    assert rep.all_ok
    assert rep.suite_min == min(rep.per_field.values())
    assert rep.tripod_diam == pytest.approx(TRIPOD_WIDTH,
                                            rel=rep.tripod_rtol)
    # the polar height field sees the full equator
    assert rep.per_field["height"] >= rep.target
    doc = rep.to_json_doc()
    assert doc["pass"] is True
    assert doc["tripod_diam"] == rep.tripod_diam


# hemisphere_width_verify(h=0.05, n_random=2) before the gap sampler was
# shared with the contour-size estimates
HEMISPHERE_005_PER_FIELD = {
    "tripod": 2.222389272323032,
    "height": 2.0764149778550136,
    "random_0": 2.139863448458934,
    "random_1": 2.043420091603936,
}


def test_hemisphere_verify_values_frozen():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = hemisphere_width_verify(h=0.05, n_random=2)
    assert rep.per_field == HEMISPHERE_005_PER_FIELD


def test_certified_retry_reuses_the_scan(monkeypatch):
    made = []

    class Counted(width.LevelScan):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(width, "LevelScan", Counted)
    mesh = hemisphere_mesh(16)
    f = random_smooth_field(mesh, np.random.default_rng(0))
    # the first pass tops out at 3.0831 on this field, so both targets
    # force the sweep of the top levels; values from before the sampler
    # was shared, which swept them with a second scan
    assert _max_contour_diam_certified(mesh, f, math.inf, 60, 120) \
        == 3.2093914912414903
    assert len(made) == 1
    # the sweep runs in value order and stops at the first level to
    # reach the target
    assert _max_contour_diam_certified(mesh, f, 3.1, 60, 120) \
        == 3.1014980917507837
