"""Verification suites over generated fixtures.

Each suite returns a list of BoundReports sorted by name, built
deterministically from (h, seed, tol).
"""

from __future__ import annotations

import zlib

import numpy as np
# geodesic loads scipy on its first Dijkstra call; thm31, thm52, ex66 and
# thickness_checks all make one, so pay for the import here, not in a run
import scipy.sparse.csgraph  # noqa: F401

from .complexes.generators import (distance_field, generate_space,
                                   random_smooth_field)
from .complexes.simplicial import ScalarField
from .metric import (BoundReport, distance_function_bound, distortion,
                     max_contour_diameter, thickness)
from .reeb.build import build_reeb
from .spaces import (Base, ConnSum, Product, Wedge, base_table, chain_check,
                     evaluate, parse_space)
from .width import (TRIPOD_WIDTH, disk_contour_verify,
                    hemisphere_width_verify)


def format_reports(reports) -> str:
    """Fixed-width table with name, lhs, rhs and pass columns."""
    width = max([len(r.name) for r in reports] + [4])
    lines = [f"{'name':<{width}}  {'lhs':>14}  {'rhs':>14}  pass"]
    for r in reports:
        lines.append(f"{r.name:<{width}}  {r.lhs:>14.6g}  {r.rhs:>14.6g}  "
                     f"{'ok' if r.passed else 'FAIL'}")
    return "\n".join(lines)


def _random_sources(space, count, seed, tag):
    rng = np.random.default_rng([seed, zlib.crc32(tag.encode())])
    return [int(v) for v in
            rng.choice(space.complex.n_vertices, size=count, replace=False)]


_THM31_FIXTURES = (
    ("sphere", {}),
    ("torus", {}),
    ("genus2", {"g": 2}),
    ("genus3", {"g": 3}),
    ("theta", {}),
    ("wedge3", {"r": 3}),
)

_GENERATOR_OF = {"sphere": "sphere", "torus": "torus", "genus2": "genus",
                 "genus3": "genus", "theta": "theta", "wedge3": "wedge"}


def thm31_suite(h=None, seed=0, tol=None):
    """cycle_rank(R_f) <= corank <= b1 on six fixtures, several fields."""
    h = 0.1 if h is None else h
    out = []
    for label, params in _THM31_FIXTURES:
        space = generate_space(_GENERATOR_OF[label], h, **params)
        b1 = space.betti[1]
        out.append(BoundReport.check(
            f"thm31:{label}:corank<=b1", space.b1_prime, b1,
            b1=b1, corank=space.b1_prime))
        fields = [("canonical", space.field)]
        for i, src in enumerate(_random_sources(space, 5, seed, label)):
            fields.append((f"dist{i}", distance_field(space.complex, src)))
        for fname, f in fields:
            graph, _ = build_reeb(space.complex, f)
            out.append(BoundReport.check(
                f"thm31:{label}:{fname}:cycle_rank<=corank",
                graph.cycle_rank, space.b1_prime,
                cycle_rank=graph.cycle_rank, corank=space.b1_prime, b1=b1))
    return sorted(out, key=lambda r: r.name)


_THM52_FIXTURES = (
    ("torus", "torus", {}),
    ("genus2", "genus", {"g": 2}),
    ("sphere", "sphere", {}),
    ("theta", "theta", {}),
)


def thm52_suite(h=None, seed=0, tol=None):
    """dis(phi) <= 2(corank+1) D for distance fields, with h-tolerances.

    D is sampled from below, covered by the relative (1 + 10h) factor; on
    one-dimensional fixtures every contour is a point, D = 0, and an
    absolute 10h term covers the O(h) distortion of the mesh quotient.
    """
    h = 0.15 if h is None else h
    out = []
    for label, gen, params in _THM52_FIXTURES:
        space = generate_space(gen, h, **params)
        graph_like = space.complex.n_triangles == 0
        for i, src in enumerate(_random_sources(space, 5, seed, label)):
            f = distance_field(space.complex, src)
            graph, qmap = build_reeb(space.complex, f)
            dis = distortion(space.complex, f, graph, qmap)
            D = max_contour_diameter(space.complex, f, max_levels=400)
            rhs, _ = distance_function_bound(space.b1_prime, D)
            out.append(BoundReport.check(
                f"thm52:{label}:dist{i}:dis<=2(corank+1)D", dis, rhs,
                tolerance=10.0 * space.h,
                tol_abs=10.0 * space.h if graph_like else 0.0,
                corank=space.b1_prime, D=D, source=src, h=space.h))
    return sorted(out, key=lambda r: r.name)


def _disk_fields(complex, count_random, seed):
    xy = complex.coords[:, :2]
    fields = [
        ("linear", xy[:, 0]),
        ("radial", np.hypot(xy[:, 0], xy[:, 1])),
        ("taxicab", np.abs(xy[:, 0]) + np.abs(xy[:, 1])),
        ("saddle", xy[:, 0] ** 2 - xy[:, 1] ** 2),
    ]
    rng = np.random.default_rng([seed, 62])
    for i in range(count_random):
        fields.append((f"random_{i}",
                       random_smooth_field(complex, rng).values))
    return [(name, ScalarField(np.asarray(v, dtype=np.float64)))
            for name, v in fields]


def thm62_suite(h=None, seed=0, tol=None):
    """Every disk field exposes a boundary pair at distance sqrt(3)-tol."""
    h = 0.02 if h is None else h
    tol = 0.05 if tol is None else tol
    space = generate_space("disk", h)
    out = []
    for name, f in _disk_fields(space.complex, 8, seed):
        rep = disk_contour_verify(space.complex, f, tol=tol)
        out.append(BoundReport.check(
            f"thm62:{name}:boundary_diam>=sqrt3-tol", rep.threshold,
            rep.boundary_diam, best_level=rep.best_level,
            interior_diam=rep.interior_diam, tol=tol, h=h))
    return sorted(out, key=lambda r: r.name)


def ex66_suite(h=None, seed=0, tol=None):
    """Hemisphere width 2pi/3: tripod within 3%, all fields above it."""
    h = 0.02 if h is None else h
    tol = 0.08 if tol is None else tol
    rep = hemisphere_width_verify(h=h, tol=tol, seed=seed)
    out = [BoundReport.check(
        "ex66:tripod:|diam-2pi/3|<=3%", abs(rep.tripod_diam - TRIPOD_WIDTH),
        rep.tripod_rtol * TRIPOD_WIDTH, tripod_diam=rep.tripod_diam,
        h=h)]
    for name in sorted(rep.per_field):
        out.append(BoundReport.check(
            f"ex66:{name}:max_diam>=2pi/3-tol", rep.target,
            rep.per_field[name], tol=tol, h=h))
    out.sort(key=lambda r: r.name)
    return out


_CHAIN_ENTRIES = tuple(
    [("point", {}), ("circle", {}), ("projective_plane", {})]
    + [("sphere_n", {"n": n}) for n in range(2, 5)]
    + [("torus_n", {"n": n}) for n in range(1, 11)]
    + [("orientable_surface_g", {"g": g}) for g in range(0, 11)]
    + [("nonorientable_surface_g", {"g": g}) for g in range(1, 11)]
    + [("orientable_surface_g_h_boundary", {"g": g, "h": b})
       for g in range(0, 4) for b in range(1, 4)]
    + [("nonorientable_surface_g_h_boundary", {"g": g, "h": b})
       for g in range(1, 4) for b in range(1, 4)]
    + [("wedge_of_r_circles", {"r": r}) for r in range(1, 6)]
)


def chain_suite(h=None, seed=0, tol=None):
    """corank <= isotropy <= b1 across the whole base table."""
    out = []
    for name, params in _CHAIN_ENTRIES:
        rec = base_table(name, **params)
        rep = chain_check(rec)
        args = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        out.append(BoundReport.check(
            f"chain:{name}({args})", rep.lhs, rep.rhs, **rep.inputs))
    out.sort(key=lambda r: r.name)
    return out


def _flag(name, ok, **inputs):
    """Encode a yes/no check as a report: lhs counts violations."""
    return BoundReport.check(name, 0.0 if ok else 1.0, 0.0, **inputs)


def rules_suite(h=None, seed=0, tol=None):
    """Composition rules: commutativity, associativity, table cross-checks,
    and required unknowns."""
    out = []
    torus3 = parse_space("product(torus(3), surface(g=2))")
    rec = evaluate(torus3)
    out.append(_flag("rules:product_corank_max", rec.b1_prime == 2,
                     got=rec.b1_prime, expected=2))

    a = Base("torus_n", (("n", 2),))
    b = Base("orientable_surface_g", (("g", 3),))
    c = Base("circle")
    for op in (Product, Wedge, ConnSum):
        l = evaluate(op(a, b))
        r = evaluate(op(b, a))
        out.append(_flag(f"rules:{op.__name__.lower()}_commutes",
                         (l.b1, l.b1_prime, l.h) == (r.b1, r.b1_prime, r.h)))
    assoc_l = evaluate(Product(Product(a, b), c))
    assoc_r = evaluate(Product(a, Product(b, c)))
    out.append(_flag("rules:product_associates",
                     (assoc_l.b1, assoc_l.b1_prime, assoc_l.h)
                     == (assoc_r.b1, assoc_r.b1_prime, assoc_r.h)))

    for g in range(2, 6):
        expr = Base("torus_n", (("n", 2),))
        for _ in range(g - 1):
            expr = ConnSum(expr, Base("torus_n", (("n", 2),)))
        got = evaluate(expr)
        want = base_table("orientable_surface_g", g=g)
        out.append(_flag(
            f"rules:connsum_{g}_tori_matches_table",
            (got.b1, got.b1_prime, got.h)
            == (want.b1, want.b1_prime, want.h),
            got=(got.b1, got.b1_prime, got.h)))

    wedge2 = evaluate(Wedge(Base("circle"), Base("circle")))
    table2 = base_table("wedge_of_r_circles", r=2)
    out.append(_flag("rules:wedge_circles_matches_table",
                     (wedge2.b1, wedge2.b1_prime, wedge2.h, wedge2.b2,
                      wedge2.k)
                     == (table2.b1, table2.b1_prime, table2.h, table2.b2,
                         table2.k)))

    nn = evaluate(parse_space("connsum(nonorientable(g=1), "
                              "nonorientable(g=1))"))
    out.append(_flag("rules:connsum_nonorientable_unknown",
                     nn.b1_prime is None and len(nn.notes) > 0,
                     notes="; ".join(nn.notes)))

    sample = [Base("circle"), Base("torus_n", (("n", 3),)),
              Base("orientable_surface_g", (("g", 2),)),
              Wedge(Base("circle"), Base("orientable_surface_g",
                                         (("g", 1),)))]
    ok = True
    for expr in sample:
        r = evaluate(expr)
        if r.b1_prime is not None and r.h is not None:
            ok = ok and r.b1_prime <= r.h
    out.append(_flag("rules:corank<=isotropy", ok))

    out.sort(key=lambda x: x.name)
    return out


def thickness_checks(h=None, seed=0, tol=None):
    """T_f >= 1 - 4h for smooth fields on the closed surface fixtures.

    Not a CLI suite; used by the acceptance tests.  Restricted to closed
    surfaces, where contours are closed curves and the ratio carries a
    comfortable margin over the 1 - 4h threshold.
    """
    h = 0.15 if h is None else h
    out = []
    for label, gen, params in (("sphere", "sphere", {}),
                               ("torus", "torus", {}),
                               ("genus2", "genus", {"g": 2})):
        space = generate_space(gen, h, **params)
        rng = np.random.default_rng([seed, zlib.crc32(label.encode())])
        fields = [("canonical", space.field)]
        for i in range(2):
            fields.append((f"random_{i}",
                           random_smooth_field(space.complex, rng)))
        for fname, f in fields:
            t = thickness(space.complex, f, max_levels=120)
            out.append(BoundReport.check(
                f"thickness:{label}:{fname}:T_f>=1-4h", 1.0 - 4.0 * h,
                t, thickness=t, h=h))
    return sorted(out, key=lambda r: r.name)


SUITES = {
    "thm31": thm31_suite,
    "thm52": thm52_suite,
    "thm62": thm62_suite,
    "ex66": ex66_suite,
    "chain": chain_suite,
    "rules": rules_suite,
}
