"""Builders for every test space, plus a resolution-driven front door.

All generators take explicit discretization counts; `generate_space` maps a
target edge length h to counts and attaches the expected topology (verified
on construction) and the canonical field.

Conventions worth knowing:

* The round torus stands on end (axis horizontal), so the vertical height
  field has exactly four PL-critical vertices at heights ±(R±r).
* Genus-g surfaces are g standing tori stacked vertically; adjacent apex
  vertices are removed and the hexagonal holes joined by a 12-triangle tube.
  Height keeps one min, one max and 2g saddles.
* Disk and hemisphere are rings of 8k resp. 6k vertices; ring ids are
  consecutive around each ring, so value plateaus form contiguous
  arcs.  Hemisphere ring counts are multiples of 6, which puts the three
  tripod meridians (azimuth 0, 2π/3, 4π/3) exactly on mesh edges.
* The flat torus is metric-only (no coordinates): an N×N grid with wrapped
  axis edges of length 1/N and (+1,+1) diagonals of length √2/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simplicial import ScalarField, SimplicialComplex, height_field
from .geodesic import single_source
from .homology import betti_numbers

TORUS_R = 1.0
TORUS_r = 0.4


# ---------------------------------------------------------------- 1-complexes

def path_mesh(n: int, length: float = 1.0) -> SimplicialComplex:
    if n < 2:
        raise ValueError("path needs at least 2 vertices")
    coords = np.zeros((n, 3))
    coords[:, 0] = np.linspace(0.0, length, n)
    edges = [(i, i + 1) for i in range(n - 1)]
    return SimplicialComplex(edges=edges, coords=coords, name="path")


def circle_mesh(n: int, radius: float = 1.0) -> SimplicialComplex:
    if n < 3:
        raise ValueError("circle needs at least 3 vertices")
    a = 2 * np.pi * np.arange(n) / n
    coords = np.column_stack([radius * np.cos(a), radius * np.sin(a),
                              np.zeros(n)])
    edges = [(i, (i + 1) % n) for i in range(n)]
    return SimplicialComplex(edges=edges, coords=coords, name="circle")


def three_arc_mesh(n: int) -> SimplicialComplex:
    """Two junctions A=(−1,0,0), B=(1,0,0) joined by a straight segment and
    two elliptic arcs, n edges per branch.  Cycle rank 2; any field with
    finite level sets has a Reeb graph isomorphic to the whole space."""
    if n < 2:
        raise ValueError("three_arc needs at least 2 edges per branch")
    coords = [(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    edges = []
    for sign, kind in ((0.0, "straight"), (0.75, "upper"), (-0.75, "lower")):
        prev = 0
        for i in range(1, n):
            t = i / n
            if kind == "straight":
                p = (2 * t - 1, 0.0, 0.0)
            else:
                p = (-math.cos(math.pi * t), sign * math.sin(math.pi * t), 0.0)
            coords.append(p)
            cur = len(coords) - 1
            edges.append((prev, cur))
            prev = cur
        edges.append((prev, 1))
    return SimplicialComplex(edges=edges, coords=np.asarray(coords),
                             name="three_arc")


def wedge_circles_mesh(r: int, n: int, loop_radius: float = 0.5
                       ) -> SimplicialComplex:
    """r polygonal loops of n edges each, sharing the origin vertex."""
    if r < 1 or n < 3:
        raise ValueError("need r ≥ 1 loops of n ≥ 3 edges")
    coords = [(0.0, 0.0, 0.0)]
    edges = []
    w = np.array([0.0, 0.0, 1.0])
    for j in range(r):
        a = 2 * np.pi * j / r
        u = np.array([math.cos(a), math.sin(a), 0.0])
        prev = 0
        for k in range(1, n):
            th = math.pi + 2 * math.pi * k / n
            p = loop_radius * ((1 + math.cos(th)) * u + math.sin(th) * w)
            coords.append(tuple(p))
            cur = len(coords) - 1
            edges.append((prev, cur))
            prev = cur
        edges.append((prev, 0))
    return SimplicialComplex(edges=edges, coords=np.asarray(coords),
                             name=f"wedge{r}")


def theta_mesh(n_circle: int, n_spoke: int) -> SimplicialComplex:
    """Unit circle with a subdivided radius from its (1,0,0) vertex to the
    circle's center.  Under the ambient distance from the center the whole
    circle is one level set, so the Reeb graph collapses to a segment."""
    if n_circle < 3 or n_spoke < 1:
        raise ValueError("need n_circle ≥ 3 and n_spoke ≥ 1")
    a = 2 * np.pi * np.arange(n_circle) / n_circle
    coords = [(math.cos(t), math.sin(t), 0.0) for t in a]
    edges = [(i, (i + 1) % n_circle) for i in range(n_circle)]
    prev = 0
    for k in range(1, n_spoke + 1):
        x = 1.0 - k / n_spoke
        coords.append((x, 0.0, 0.0))
        cur = len(coords) - 1
        edges.append((prev, cur))
        prev = cur
    return SimplicialComplex(edges=edges, coords=np.asarray(coords),
                             name="theta")


# ------------------------------------------------------------------ surfaces

def _grid_id(i, j, nu, nv):
    return (i % nu) * nv + (j % nv)


def _torus_points(nu, nv, R, r):
    """Grid vertex (i, j) at angles u = 2πi/nu and v = 2πj/nv, in the
    order of `_grid_id`."""
    u = (2 * np.pi * np.arange(nu) / nu)[:, None]
    v = 2 * np.pi * np.arange(nv) / nv
    w = R + r * np.cos(v)
    out = np.stack(np.broadcast_arrays(w * np.cos(u), r * np.sin(v),
                                       w * np.sin(u)), axis=-1)
    return out.reshape(nu * nv, 3)


def _grid_triangles(nu, nv):
    """The triangles (a, b, c) and (a, c, d) of each grid square abcd, in
    row-major order of the squares, as an int64 array."""
    i, j = np.divmod(np.arange(nu * nv, dtype=np.int64), nv)
    a, b = _grid_id(i, j, nu, nv), _grid_id(i + 1, j, nu, nv)
    c, d = _grid_id(i + 1, j + 1, nu, nv), _grid_id(i, j + 1, nu, nv)
    return np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)


def torus_mesh(nu: int, nv: int, R: float = TORUS_R, r: float = TORUS_r
               ) -> SimplicialComplex:
    """Round torus standing on end: u runs around the big circle in the
    xz-plane, so z = (R + r cos v) sin u and the apexes sit at u = ±π/2."""
    if nu % 4 or nu < 8 or nv % 2 or nv < 4:
        raise ValueError("need nu ≥ 8 divisible by 4 and nv ≥ 4 even")
    if not 0 < r < R:
        raise ValueError("need 0 < r < R")
    return SimplicialComplex(triangles=_grid_triangles(nu, nv),
                             coords=_torus_points(nu, nv, R, r), name="torus")


def _hex_ring(tris, apex, coords):
    """Neighbors of a grid apex, in cyclic order by azimuth around it."""
    nb = np.unique(tris[np.any(tris == apex, axis=1)])
    nb = nb[nb != apex].tolist()
    ang = [math.atan2(coords[v][1] - coords[apex][1],
                      coords[v][0] - coords[apex][0]) for v in nb]
    return [v for _, v in sorted(zip(ang, nb))]


def genus_mesh(g: int, nu: int, nv: int, R: float = TORUS_R,
               r: float = TORUS_r) -> SimplicialComplex:
    """Closed orientable genus-g surface: g standing tori stacked along z,
    glued through hexagonal apex holes."""
    if g < 1:
        raise ValueError("need g ≥ 1")
    if g == 1:
        return torus_mesh(nu, nv, R, r)
    if nu % 4 or nu < 8 or nv % 2 or nv < 4:
        raise ValueError("need nu ≥ 8 divisible by 4 and nv ≥ 4 even")

    delta = 2 * math.pi * r / nv
    step = 2 * (R + r) + delta
    base_pts = _torus_points(nu, nv, R, r)
    base_tris = _grid_triangles(nu, nv)
    top_apex = _grid_id(nu // 4, 0, nu, nv)
    bot_apex = _grid_id(3 * nu // 4, 0, nu, nv)

    hex_top = _hex_ring(base_tris, top_apex, base_pts)
    hex_bot = _hex_ring(base_tris, bot_apex, base_pts)

    coords = []
    tris = []
    remap_of = []
    start = 0
    for i in range(g):
        # torus i loses its bottom apex if one lies below it, and its top
        # apex if one lies above
        keep = np.ones(nu * nv, dtype=bool)
        keep[bot_apex] = i == 0
        keep[top_apex] = i == g - 1
        remap = start + np.cumsum(keep) - 1
        pts = base_pts[keep]
        pts[:, 2] += i * step
        coords.append(pts)
        tris.append(remap[base_tris[np.all(keep[base_tris], axis=1)]])
        remap_of.append(remap)
        start += len(pts)
    coords = np.concatenate(coords)

    seam = []
    for i in range(g - 1):
        a = remap_of[i][hex_top].tolist()
        b = remap_of[i + 1][hex_bot].tolist()
        # roll the upper hexagon so paired vertices share an azimuth
        ang_a0 = math.atan2(coords[a[0]][1], coords[a[0]][0])
        angs_b = [math.atan2(coords[v][1], coords[v][0]) for v in b]
        shift = min(range(6), key=lambda s: abs(
            math.remainder(angs_b[s] - ang_a0, 2 * math.pi)))
        b = b[shift:] + b[:shift]
        for k in range(6):
            k1 = (k + 1) % 6
            seam.append((a[k], b[k], b[k1]))
            seam.append((a[k], a[k1], b[k1]))
    tris.append(np.asarray(seam, dtype=np.int64))

    return SimplicialComplex(triangles=np.concatenate(tris), coords=coords,
                             name=f"genus{g}")


def uv_sphere_mesh(n_lat: int, n_lon: int, radius: float = 1.0
                   ) -> SimplicialComplex:
    """Unit-style sphere: poles plus n_lat−1 latitude rings of n_lon
    vertices; ring ids are consecutive around each ring."""
    if n_lat < 3 or n_lon < 3:
        raise ValueError("need n_lat ≥ 3 and n_lon ≥ 3")
    coords = [(0.0, 0.0, radius)]
    ring_start = []
    for k in range(1, n_lat):
        th = math.pi * k / n_lat
        ring_start.append(len(coords))
        for j in range(n_lon):
            ph = 2 * math.pi * j / n_lon
            coords.append((radius * math.sin(th) * math.cos(ph),
                           radius * math.sin(th) * math.sin(ph),
                           radius * math.cos(th)))
    south = len(coords)
    coords.append((0.0, 0.0, -radius))

    def rid(k, j):
        return ring_start[k] + (j % n_lon)

    tris = []
    for j in range(n_lon):
        tris.append((0, rid(0, j), rid(0, j + 1)))
    for k in range(n_lat - 2):
        for j in range(n_lon):
            a, b = rid(k, j), rid(k, j + 1)
            c, d = rid(k + 1, j), rid(k + 1, j + 1)
            tris.append((a, b, d))
            tris.append((a, d, c))
    for j in range(n_lon):
        tris.append((south, rid(n_lat - 2, j), rid(n_lat - 2, j + 1)))
    return SimplicialComplex(triangles=np.asarray(tris, dtype=np.int64),
                             coords=np.asarray(coords), name="sphere")


def _stitch_rings(inner, outer):
    """Triangulate the annulus between two concentric vertex rings whose
    positions are evenly spread by index fraction."""
    m, n = len(inner), len(outer)
    if m == 1:
        return [(inner[0], outer[j], outer[(j + 1) % n]) for j in range(n)]
    tris = []
    i = j = 0
    while i < m or j < n:
        adv_outer = j < n and (i >= m or (j + 1) / n <= (i + 1) / m)
        if adv_outer:
            tris.append((inner[i % m], outer[j % n], outer[(j + 1) % n]))
            j += 1
        else:
            tris.append((inner[i % m], inner[(i + 1) % m], outer[j % n]))
            i += 1
    return tris


def disk_mesh(n_rings: int, radius: float = 1.0) -> SimplicialComplex:
    """Flat unit disk: ring k has 8k vertices at radius k/n_rings, so the
    four axis touch points (±R,0), (0,±R) are always mesh vertices."""
    if n_rings < 1:
        raise ValueError("need n_rings ≥ 1")
    coords = [(0.0, 0.0, 0.0)]
    rings = [[0]]
    for k in range(1, n_rings + 1):
        rad = radius * k / n_rings
        ring = []
        cnt = 8 * k
        for j in range(cnt):
            a = 2 * math.pi * j / cnt
            ring.append(len(coords))
            coords.append((rad * math.cos(a), rad * math.sin(a), 0.0))
        rings.append(ring)
    tris = []
    for k in range(n_rings):
        tris.extend(_stitch_rings(rings[k], rings[k + 1]))
    return SimplicialComplex(triangles=tris, coords=np.asarray(coords),
                             name="disk")


def hemisphere_mesh(n_rings: int, radius: float = 1.0) -> SimplicialComplex:
    """Closed upper unit hemisphere; ring k has 6k vertices at polar angle
    (π/2)(k/n_rings); the equator ring is the boundary."""
    if n_rings < 1:
        raise ValueError("need n_rings ≥ 1")
    coords = [(0.0, 0.0, radius)]
    rings = [[0]]
    for k in range(1, n_rings + 1):
        th = 0.5 * math.pi * k / n_rings
        ring = []
        cnt = 6 * k
        for j in range(cnt):
            ph = 2 * math.pi * j / cnt
            ring.append(len(coords))
            coords.append((radius * math.sin(th) * math.cos(ph),
                           radius * math.sin(th) * math.sin(ph),
                           radius * math.cos(th)))
        rings.append(ring)
    tris = []
    for k in range(n_rings):
        tris.extend(_stitch_rings(rings[k], rings[k + 1]))
    return SimplicialComplex(triangles=tris, coords=np.asarray(coords),
                             name="hemisphere")


def flat_torus_mesh(n: int, side: float = 1.0) -> SimplicialComplex:
    """Square flat torus as a metric-only complex (no embedding)."""
    if n < 3:
        raise ValueError("need n ≥ 3")
    h = side / n
    edges = []
    lengths = []

    def vid(i, j):
        return (i % n) * n + (j % n)

    for i in range(n):
        for j in range(n):
            edges.append((vid(i, j), vid(i + 1, j)))
            lengths.append(h)
            edges.append((vid(i, j), vid(i, j + 1)))
            lengths.append(h)
            edges.append((vid(i, j), vid(i + 1, j + 1)))
            lengths.append(h * math.sqrt(2.0))
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return SimplicialComplex(edges=edges, lengths=lengths, triangles=tris,
                             n_vertices=n * n, name="flat_torus")


# ------------------------------------------------------------------- fields

def distance_field(complex: SimplicialComplex, source: int) -> ScalarField:
    d = single_source(complex, source)
    if not np.all(np.isfinite(d)):
        raise ValueError("distance field needs a connected complex")
    return ScalarField(d)


def tripod_field(complex: SimplicialComplex) -> ScalarField:
    """Geodesic distance to the three-legged meridian tree on the unit-style
    hemisphere: arcsin(sin θ · sin Δφ) with Δφ the azimuth distance to the
    nearest leg (always ≤ π/3)."""
    if complex.coords is None:
        raise ValueError("tripod field needs coordinates")
    p = complex.coords
    radius = float(np.max(np.linalg.norm(p, axis=1)))
    z = np.clip(p[:, 2] / radius, -1.0, 1.0)
    theta = np.arccos(z)
    phi = np.arctan2(p[:, 1], p[:, 0])
    legs = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    d = np.abs(phi[:, None] - legs[None, :])
    dphi = np.minimum(d, 2 * np.pi - d).min(axis=1)
    return ScalarField(radius * np.arcsin(np.sin(theta) * np.sin(dphi)))


def random_smooth_field(complex: SimplicialComplex, rng: np.random.Generator,
                        waves: int = 3, freq: float = 2.0) -> ScalarField:
    """Random low-frequency trigonometric field sampled at the vertices."""
    if complex.coords is None:
        raise ValueError("smooth field needs coordinates")
    p = complex.coords
    vals = np.zeros(complex.n_vertices)
    for _ in range(waves):
        k = rng.normal(size=3)
        k *= freq / max(np.linalg.norm(k), 1e-12)
        amp = rng.uniform(0.3, 1.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        vals += amp * np.sin(p @ k + phase)
    return ScalarField(vals)


# ------------------------------------------------------------- front door

@dataclass
class GeneratedSpace:
    name: str
    complex: SimplicialComplex
    field: ScalarField | None
    betti: tuple
    b1_prime: int
    h: float


_EXPECTED = {
    "sphere": ((1, 0, 1), 0),
    "torus": ((1, 2, 1), 1),
    "flat_torus": ((1, 2, 1), 1),
    "disk": ((1, 0, 0), 0),
    "hemisphere": ((1, 0, 0), 0),
    "theta": ((1, 1, 0), 1),
    "three_arc": ((1, 2, 0), 2),
    "circle": ((1, 1, 0), 1),
    "path": ((1, 0, 0), 0),
}


def _mult(x: float, base: int, lo: int) -> int:
    return max(lo, base * round(x / base))


def _torus_grid(h: float):
    """(nu, nv) of the torus and genus grids at target edge length h."""
    return (_mult(2 * math.pi * (TORUS_R + TORUS_r) / h, 4, 8),
            _mult(2 * math.pi * TORUS_r / h, 2, 4))


def generate_space(name: str, h: float, **params) -> GeneratedSpace:
    """Build the named fixture at target edge length h with its canonical
    field (height for embedded surfaces and graphs, distance-from-vertex on
    the flat torus, geodesic tripod distance on the hemisphere)."""
    if not 0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    field = None
    if name == "sphere":
        cx = uv_sphere_mesh(_mult(math.pi / h, 1, 3),
                            _mult(2 * math.pi / h, 4, 4))
        field = height_field(cx)
    elif name == "torus":
        cx = torus_mesh(*_torus_grid(h))
        field = height_field(cx)
    elif name == "genus":
        g = int(params.pop("g", 2))
        cx = genus_mesh(g, *_torus_grid(h))
        field = height_field(cx)
    elif name == "flat_torus":
        cx = flat_torus_mesh(_mult(1.0 / h, 2, 4))
        field = distance_field(cx, 0)
    elif name == "disk":
        cx = disk_mesh(max(1, round(1.0 / h)))
    elif name == "hemisphere":
        cx = hemisphere_mesh(max(1, round(0.5 * math.pi / h)))
        field = tripod_field(cx)
    elif name == "theta":
        cx = theta_mesh(max(4, round(2 * math.pi / h)), max(2, round(1.0 / h)))
        # ambient distance from the circle's center: 1 on the whole circle
        field = ScalarField(np.hypot(cx.coords[:, 0], cx.coords[:, 1]))
    elif name == "three_arc":
        cx = three_arc_mesh(max(2, round(2.0 / h)))
        field = distance_field(cx, 0)
    elif name == "wedge":
        r = int(params.pop("r", 3))
        cx = wedge_circles_mesh(r, max(3, round(math.pi / h)))
        field = height_field(cx)
    elif name == "circle":
        cx = circle_mesh(max(3, round(2 * math.pi / h)))
        field = height_field(cx, axis=1)
    elif name == "path":
        cx = path_mesh(max(2, round(1.0 / h)) + 1)
        field = height_field(cx, axis=0)
    else:
        raise ValueError(f"unknown generator {name!r}")
    if params:
        raise ValueError(f"unused parameters {sorted(params)} for {name!r}")

    if name == "genus":
        expected, b1p = (1, 2 * g, 1), g
        label = f"genus{g}"
    elif name == "wedge":
        expected, b1p = (1, r, 0), r
        label = f"wedge{r}"
    else:
        expected, b1p = _EXPECTED[name]
        label = name

    got = betti_numbers(cx)
    if got != expected:
        raise ValueError(
            f"{label}: generated betti {got}, expected {expected}")
    return GeneratedSpace(name=label, complex=cx, field=field,
                          betti=expected, b1_prime=b1p, h=h)
