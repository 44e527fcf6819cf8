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
* Sphere, disk and hemisphere are lists of concentric vertex rings, a
  pole or centre being a one-vertex ring, and one function (`_stitch`)
  triangulates the band between each ring and the next; it also builds
  the genus seams.  Disk and hemisphere rings have 8k resp. 6k vertices;
  ring ids are consecutive around each ring, so value plateaus form
  contiguous arcs.  Hemisphere ring counts are multiples of 6, which puts
  the three tripod meridians (azimuth 0, 2π/3, 4π/3) exactly on mesh edges.
* Builders may list triangles in any order: `SimplicialComplex` sorts each
  triangle and then the list, and derives embedded edges from them, so
  only the triangle set and the vertex order shape the complex.
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

def _ring(n, rad, z):
    """n points at azimuths 2πj/n on the circle of radius rad at height z."""
    a = 2 * np.pi * np.arange(n) / n
    return np.column_stack([rad * np.cos(a), rad * np.sin(a), np.full(n, z)])


def _chain(*ids):
    """The edges of the path through the given vertex ids and id ranges,
    in order."""
    ids = np.concatenate([np.atleast_1d(i) for i in ids]).astype(np.int64)
    return np.column_stack([ids[:-1], ids[1:]])


def path_mesh(n: int, length: float = 1.0) -> SimplicialComplex:
    if n < 2:
        raise ValueError("path needs at least 2 vertices")
    coords = np.zeros((n, 3))
    coords[:, 0] = np.linspace(0.0, length, n)
    return SimplicialComplex(edges=_chain(np.arange(n)), coords=coords,
                             name="path")


def circle_mesh(n: int, radius: float = 1.0) -> SimplicialComplex:
    if n < 3:
        raise ValueError("circle needs at least 3 vertices")
    return SimplicialComplex(edges=_chain(np.arange(n), 0),
                             coords=_ring(n, radius, 0.0), name="circle")


def three_arc_mesh(n: int) -> SimplicialComplex:
    """Two junctions A=(−1,0,0), B=(1,0,0) joined by a straight segment and
    two elliptic arcs, n edges per branch.  Cycle rank 2; any field with
    finite level sets has a Reeb graph isomorphic to the whole space."""
    if n < 2:
        raise ValueError("three_arc needs at least 2 edges per branch")
    t = np.arange(1, n) / n
    zero = np.zeros(n - 1)
    coords = [[(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
              np.column_stack([2 * t - 1, zero, zero])]
    coords += [np.column_stack([-np.cos(np.pi * t),
                                sign * np.sin(np.pi * t), zero])
               for sign in (0.75, -0.75)]
    edges = [_chain(0, np.arange(2, n + 1) + k * (n - 1), 1)
             for k in range(3)]
    return SimplicialComplex(edges=np.concatenate(edges),
                             coords=np.concatenate(coords), name="three_arc")


def wedge_circles_mesh(r: int, n: int, loop_radius: float = 0.5
                       ) -> SimplicialComplex:
    """r polygonal loops of n edges each, sharing the origin vertex."""
    if r < 1 or n < 3:
        raise ValueError("need r ≥ 1 loops of n ≥ 3 edges")
    th = (math.pi + 2 * math.pi * np.arange(1, n) / n)[:, None]
    w = np.array([0.0, 0.0, 1.0])
    coords = [np.zeros((1, 3))]
    for j in range(r):
        a = 2 * np.pi * j / r
        u = np.array([math.cos(a), math.sin(a), 0.0])
        coords.append(loop_radius * ((1 + np.cos(th)) * u + np.sin(th) * w))
    edges = [_chain(0, np.arange(1, n) + j * (n - 1), 0) for j in range(r)]
    return SimplicialComplex(edges=np.concatenate(edges),
                             coords=np.concatenate(coords), name=f"wedge{r}")


def theta_mesh(n_circle: int, n_spoke: int) -> SimplicialComplex:
    """Unit circle with a subdivided radius from its (1,0,0) vertex to the
    circle's center.  Under the ambient distance from the center the whole
    circle is one level set, so the Reeb graph collapses to a segment."""
    if n_circle < 3 or n_spoke < 1:
        raise ValueError("need n_circle ≥ 3 and n_spoke ≥ 1")
    spoke = np.zeros((n_spoke, 3))
    spoke[:, 0] = 1.0 - np.arange(1, n_spoke + 1) / n_spoke
    # one walk: around the circle back to vertex 0, then down the spoke
    edges = _chain(np.arange(n_circle), 0, n_circle + np.arange(n_spoke))
    return SimplicialComplex(edges=edges,
                             coords=np.concatenate([_ring(n_circle, 1.0, 0.0),
                                                    spoke]), name="theta")


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

    for i in range(g - 1):
        a = remap_of[i][hex_top]
        b = remap_of[i + 1][hex_bot]
        # roll the upper hexagon so paired vertices share an azimuth
        ang_a0 = math.atan2(coords[a[0]][1], coords[a[0]][0])
        shift = min(range(6), key=lambda s: abs(math.remainder(
            math.atan2(coords[b[s]][1], coords[b[s]][0]) - ang_a0,
            2 * math.pi)))
        tris.append(_stitch(a, np.roll(b, -shift)))

    return SimplicialComplex(triangles=np.concatenate(tris), coords=coords,
                             name=f"genus{g}")


def _stitch(inner, outer):
    """The band of triangles between two rings of vertex ids.  Both rings
    are walked by index fraction, the outer one first on ties: each outer
    step (j → j+1) makes a triangle with the current inner vertex, each
    inner step (i → i+1) one with the current outer vertex.  A one-vertex
    ring takes no steps, so it caps the other."""
    inner, outer = np.asarray(inner), np.asarray(outer)
    m, n = len(inner), len(outer)
    keys = np.concatenate([np.arange(1, n + 1) / n, np.arange(1, m + 1) / m])
    inner_step = np.argsort(keys, kind="stable") >= n
    i = np.cumsum(inner_step) - inner_step  # inner steps before this one
    j = np.arange(m + n) - i                # outer steps before this one
    tris = np.column_stack([
        inner[i % m],
        np.where(inner_step, inner[(i + 1) % m], outer[j % n]),
        outer[(j + ~inner_step) % n]])
    return tris[np.where(inner_step, m > 1, n > 1)]


def _ring_mesh(rings, name):
    """The surface whose vertices are the given rings of points, in order,
    each ring stitched to the next."""
    ends = np.cumsum([len(r) for r in rings])
    ids = [np.arange(e - len(r), e) for r, e in zip(rings, ends)]
    tris = [_stitch(a, b) for a, b in zip(ids, ids[1:])]
    return SimplicialComplex(triangles=np.concatenate(tris),
                             coords=np.concatenate(rings), name=name)


def uv_sphere_mesh(n_lat: int, n_lon: int, radius: float = 1.0
                   ) -> SimplicialComplex:
    """Unit-style sphere: poles plus n_lat−1 latitude rings of n_lon
    vertices; ring ids are consecutive around each ring."""
    if n_lat < 3 or n_lon < 3:
        raise ValueError("need n_lat ≥ 3 and n_lon ≥ 3")
    rings = [_ring(1, 0.0, radius)]
    for k in range(1, n_lat):
        th = math.pi * k / n_lat
        rings.append(_ring(n_lon, radius * math.sin(th),
                           radius * math.cos(th)))
    return _ring_mesh(rings + [_ring(1, 0.0, -radius)], "sphere")


def disk_mesh(n_rings: int, radius: float = 1.0) -> SimplicialComplex:
    """Flat unit disk: ring k has 8k vertices at radius k/n_rings, so the
    four axis touch points (±R,0), (0,±R) are always mesh vertices."""
    if n_rings < 1:
        raise ValueError("need n_rings ≥ 1")
    return _ring_mesh([_ring(1, 0.0, 0.0),
                       *(_ring(8 * k, radius * k / n_rings, 0.0)
                         for k in range(1, n_rings + 1))], "disk")


def hemisphere_mesh(n_rings: int, radius: float = 1.0) -> SimplicialComplex:
    """Closed upper unit hemisphere; ring k has 6k vertices at polar angle
    (π/2)(k/n_rings); the equator ring is the boundary."""
    if n_rings < 1:
        raise ValueError("need n_rings ≥ 1")
    rings = [_ring(1, 0.0, radius)]
    for k in range(1, n_rings + 1):
        th = 0.5 * math.pi * k / n_rings
        rings.append(_ring(6 * k, radius * math.sin(th),
                           radius * math.cos(th)))
    return _ring_mesh(rings, "hemisphere")


def flat_torus_mesh(n: int, side: float = 1.0) -> SimplicialComplex:
    """Square flat torus as a metric-only complex (no embedding).  Vertex
    (i, j) has, in row-major order, its two axis edges and its diagonal."""
    if n < 3:
        raise ValueError("need n ≥ 3")
    h = side / n
    tris = _grid_triangles(n, n)
    # each square's triangles are a b c, a c d: take ab, ad and ac
    edges = tris.reshape(-1, 6)[:, [0, 1, 0, 5, 0, 2]].reshape(-1, 2)
    lengths = np.tile([h, h, h * math.sqrt(2.0)], n * n)
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
