"""Closed-form lower bounds for the Reeb width of Riemannian manifolds,
plus empirical verifiers on the disk and hemisphere fixtures.

Unit contract: lengths and radii in length units, angles in radians,
curvature bounds in 1/length^2.  The local bound concerns a convex ball
of radius r on which K bounds the sectional curvature from above; the
global form substitutes a convexity-radius bound for r.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .complexes.contours import (batch_end, contour_arrays, crossing_counts,
                                 crossing_points, extrinsic_diameters,
                                 label_level_sets, link_components,
                                 piece_diameters, sweep_diameters)
from .complexes.levelscan import LevelScan
from .complexes.simplicial import ScalarField, SimplicialComplex

_HALF_SQRT3 = math.sqrt(3.0) / 2.0
TRIPOD_WIDTH = 2.0 * math.pi / 3.0
# display constants: b >= (2*sqrt(3)/pi) r and 2*pi/3 * (1/sqrt(K))
LINEAR_DISPLAY_CONSTANT = 2.0 * math.sqrt(3.0) / math.pi
CURVATURE_DISPLAY_CONSTANT = 2.0 * math.pi / 3.0


@dataclass(frozen=True)
class LocalGeometry:
    """Ball data: radius r, curvature upper bound K, dimension n.

    That r stays below the convexity and injectivity radii at the center
    is a caller-asserted precondition.
    """
    r: float
    K: float
    n: int

    def __post_init__(self):
        _require_finite(r=self.r, K=self.K)
        if self.r <= 0:
            raise ValueError("radius must be positive")
        if self.n < 2:
            raise ValueError("dimension must be at least 2")


@dataclass(frozen=True)
class GlobalGeometry:
    """Whole-manifold data for the global width bound."""
    inj: float
    K: float
    dim: int
    vol: float | None = None
    diam: float | None = None

    def __post_init__(self):
        _require_finite(inj=self.inj, K=self.K, vol=self.vol, diam=self.diam)
        if self.inj < 0:
            raise ValueError("injectivity radius must be nonnegative")
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.vol is not None and self.vol <= 0:
            raise ValueError("volume must be positive when given")
        if self.diam is not None and self.diam <= 0:
            raise ValueError("diameter must be positive when given")


def _require_finite(**values):
    """Reject NaN and infinite inputs; None stands for an absent one."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _as_local(r, K, n) -> LocalGeometry:
    if isinstance(r, LocalGeometry):
        return r
    return LocalGeometry(float(r), float(K), int(n))


def _as_global(inj, K, dim) -> GlobalGeometry:
    if isinstance(inj, GlobalGeometry):
        return inj
    return GlobalGeometry(float(inj), float(K), int(dim))


def _spherical_width(x: float, K: float) -> float:
    return 2.0 / math.sqrt(K) * math.asin(_HALF_SQRT3 * math.sin(x))


def reeb_width_local(r, K=None, n=None) -> float:
    """Width of a convex r-ball's worst fiber: 2r in dimension >= 3,
    sqrt(3) r on flat-or-negative surfaces, and the spherical-cap arc
    (2/sqrt(K)) arcsin((sqrt(3)/2) sin(min(r sqrt(K), pi/2))) when K > 0
    in dimension 2 (saturating at 2 pi/(3 sqrt(K)))."""
    g = _as_local(r, K, n)
    if g.n >= 3:
        return 2.0 * g.r
    if g.K <= 0:
        return math.sqrt(3.0) * g.r
    x = min(g.r * math.sqrt(g.K), math.pi / 2.0)
    return _spherical_width(x, g.K)


def reeb_width_global(inj, K=None, dim=None) -> float:
    """Whole-manifold width bound from injectivity radius and curvature.

    Case display of the underlying theorem; equals the local form at
    r = min(inj/2, pi/(2 sqrt(K))) (or inj/2 when K <= 0).
    """
    g = _as_global(inj, K, dim)
    if g.inj == 0:
        warnings.warn("global bound vacuous, use local form")
        return 0.0
    if g.dim >= 3:
        if g.K <= 0:
            return g.inj
        return min(g.inj, math.pi / math.sqrt(g.K))
    if g.K <= 0:
        return math.sqrt(3.0) / 2.0 * g.inj
    x = min(math.sqrt(g.K) / 2.0 * g.inj, math.pi / 2.0)
    return _spherical_width(x, g.K)


@dataclass(frozen=True)
class SimplifiedBound:
    """Coarse corollary value with the two display constants."""
    value: float
    linear_constant: float = LINEAR_DISPLAY_CONSTANT
    curvature_constant: float = CURVATURE_DISPLAY_CONSTANT

    def __float__(self):
        return self.value


def simplified_bounds(g) -> SimplifiedBound:
    """min(r, 2/sqrt(K)) for balls, min(inj/2, 2/sqrt(K)) globally;
    the curvature term is +inf when K <= 0."""
    if isinstance(g, LocalGeometry):
        base = g.r
    elif isinstance(g, GlobalGeometry):
        base = g.inj / 2.0
    else:
        raise TypeError("expected LocalGeometry or GlobalGeometry")
    if g.K > 0:
        return SimplifiedBound(min(base, 2.0 / math.sqrt(g.K)))
    return SimplifiedBound(base)


def convexity_radius_bound(inj: float, K: float) -> float:
    """min(inj/2, pi/(2 sqrt(K))) for K > 0; exactly inj/2 otherwise."""
    if inj < 0:
        raise ValueError("injectivity radius must be nonnegative")
    if K > 0:
        return min(inj / 2.0, math.pi / (2.0 * math.sqrt(K)))
    return inj / 2.0


def sphere_chord(alpha: float, r: float, K: float) -> float:
    """Geodesic distance between two points at azimuth separation alpha on
    the latitude circle at polar radius r, on the sphere of curvature K."""
    if K <= 0:
        raise ValueError("sphere_chord needs K > 0")
    if not 0 <= alpha <= math.pi:
        raise ValueError("alpha must lie in [0, pi]")
    if r < 0 or r * math.sqrt(K) > math.pi / 2.0 + 1e-15:
        raise ValueError("need 0 <= r sqrt(K) <= pi/2")
    return 2.0 / math.sqrt(K) * math.asin(
        math.sin(alpha / 2.0) * math.sin(r * math.sqrt(K)))


def urysohn_volume_lower(vol: float, diam: float, n: int,
                         c_n: float) -> float:
    """(c_n vol / diam)^(1/(n-1)); c_n is a user-supplied constant."""
    _require_finite(vol=vol, diam=diam, c_n=c_n)
    if vol <= 0 or diam <= 0 or c_n <= 0:
        raise ValueError("vol, diam, c_n must be positive")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return (c_n * vol / diam) ** (1.0 / (n - 1))


# ---------------------------------------------------------------------------
# disk fixture verifier

@dataclass(frozen=True)
class DiskReport:
    """Best boundary-touching contour found on the disk fixture."""
    best_level: float | None
    boundary_diam: float
    interior_diam: float
    threshold: float
    passed: bool

    def to_json_doc(self) -> dict:
        return {
            "best_level": self.best_level,
            "boundary_diam": self.boundary_diam,
            "interior_diam": self.interior_diam,
            "threshold": self.threshold,
            "pass": self.passed,
        }


def _candidate_levels(complex, g):
    """Sorted values where the level set can change shape: boundary vertex
    values, values shared by two or more vertices (which covers a vertex
    tied with a link neighbour), and the values of interior vertices that
    are extrema or saddles of the vertex order."""
    lower, _, upper = link_components(complex, g)
    bvert = complex.boundary_vertices
    cand = set(np.unique(g[bvert]).tolist())
    vals, counts = np.unique(g, return_counts=True)
    cand.update(vals[counts >= 2].tolist())
    cand.update(g[~bvert & ((lower != 1) | (upper != 1))].tolist())
    return sorted(cand)


def _piece_points(complex, g, pieces):
    """Coordinates of the points of level-set pieces, in their order, and
    a mask marking the ones on the boundary."""
    items, at_vertex = pieces.items, pieces.on_vertex
    level = np.repeat(pieces.levels[pieces.piece_level],
                      np.diff(pieces.bounds))
    pts = np.empty((items.size, 3))
    onb = np.empty(items.size, dtype=bool)
    cross = ~at_vertex
    u, w = complex.edges[items[cross]].T
    pts[cross] = crossing_points(complex, items[cross],
                                 (level[cross] - g[u]) / (g[w] - g[u]))
    onb[cross] = complex.boundary_edges[items[cross]]
    pts[at_vertex] = complex.coords[items[at_vertex]]
    onb[at_vertex] = complex.boundary_vertices[items[at_vertex]]
    return pts, onb


def _masked_diameters(pts, bounds, mask):
    """Per piece, the extrinsic diameter of its points that `mask` keeps."""
    kept = np.concatenate([[0], np.cumsum(mask)])[bounds]
    return piece_diameters(pts[mask], kept)


def disk_contour_verify(complex: SimplicialComplex, field: ScalarField,
                        tol: float = 0.05,
                        early_stop: bool = True) -> DiskReport:
    """Search for a level whose contour meets the boundary at points far
    apart (extrinsic distance), reporting the best level and whether it
    clears sqrt(3) - tol.

    Candidate levels are every boundary vertex value, every value shared
    by two or more vertices, every interior critical value, and the
    midpoints in between.  Level sets at those values are scanned with
    their vertices included, so a contour that only touches the boundary
    at isolated vertices, or joins its arms at a saddle, is measured
    exactly rather than sampled nearby.  Each batch of levels measures all
    its pieces by `piece_diameters`: the boundary points of every piece,
    and all points of every piece for the interior diameter of the
    closed-disk form.  The reported level is the first
    to reach the best boundary diameter.  With `early_stop` the scan ends
    after the first level clearing the threshold, keeping the report a
    valid witness.
    """
    if complex.coords is None:
        raise ValueError("disk verification needs embedded coordinates")
    if not np.any(complex.boundary_edges):
        raise ValueError("fixture has no boundary edges")
    threshold = math.sqrt(3.0) - tol

    g = field.resolved_values
    base = _candidate_levels(complex, g)
    levels = sorted(base + [0.5 * (a + b) for a, b in zip(base, base[1:])])

    before = np.concatenate([[0], np.cumsum(
        crossing_counts(complex, g, levels))])
    best_level = None
    best_b = 0.0
    best_i = 0.0
    start = 0
    while start < len(levels):
        batch = levels[start:batch_end(before, start)]
        start += len(batch)
        pieces = label_level_sets(complex, g, batch)
        pts, onb = _piece_points(complex, g, pieces)
        inner = piece_diameters(pts, pieces.bounds)
        outer = _masked_diameters(pts, pieces.bounds, onb)

        # the running bests after each level of the batch
        ends = np.searchsorted(pieces.piece_level, np.arange(len(batch)),
                               side="right")
        run_i = np.maximum.accumulate(np.append(best_i, inner))[ends]
        run_b = np.maximum.accumulate(np.append(best_b, outer))[ends]
        last = len(batch) - 1
        if early_stop and run_b[-1] >= threshold:
            last = int(np.argmax(run_b >= threshold))
        if run_b[last] > best_b:
            # the first piece holding the new best sets the level
            best_b = float(run_b[last])
            k = pieces.piece_level[int(np.argmax(outer == best_b))]
            best_level = float(batch[k])
        best_i = float(run_i[last])
        if early_stop and best_b >= threshold:
            return DiskReport(best_level, best_b, best_i, threshold, True)
    return DiskReport(best_level, best_b, best_i, threshold,
                      best_b >= threshold)


# ---------------------------------------------------------------------------
# hemisphere fixture verifier

def _unit_sphere_arc(extrinsic: float) -> float:
    """Great-circle distance below any path between two unit-sphere points
    at the given straight-line separation."""
    return 2.0 * math.asin(min(1.0, max(0.0, extrinsic / 2.0)))


def _swept_max(complex, sets, target=math.inf):
    """Largest farthest-point sweep diameter over the contour sets `sets`,
    in their order, with one kernel call per set; stops once `target` is
    reached."""
    best = 0.0
    for c in sets:
        if c.edge_ids.size >= 2:
            best = max(best, float(sweep_diameters(
                complex, *contour_arrays([c])).max()))
            if best >= target:
                break
    return best


def _max_contour_diam_certified(complex, field, target, first, spread):
    """Cheap lower bound on the max intrinsic contour diameter.

    First pass converts extrinsic crossing-point diameters to great-circle
    arcs (valid on the unit sphere) and stops once `target` is cleared; if
    that fails, the most promising levels get the full sweep treatment,
    on the contour sets the first pass read.
    """
    best = 0.0
    candidates = []
    for gap in LevelScan(complex, field).sample(first, spread):
        if gap.n_crossings < 2:
            continue
        c = gap.contours()
        level_best = _unit_sphere_arc(float(extrinsic_diameters(
            complex, *contour_arrays([c])).max()))
        best = max(best, level_best)
        if best >= target:
            return best
        candidates.append((level_best, len(candidates), c))

    # extrinsic folding may hide a long contour; re-examine the top levels,
    # in value order
    top = sorted(candidates, key=lambda c: c[:2], reverse=True)[:10]
    retry = [c for _, _, c in sorted(top, key=lambda c: c[1])]
    return max(best, _swept_max(complex, retry, target))


@dataclass(frozen=True)
class HemisphereReport:
    """Per-field max contour diameters on the hemisphere fixture."""
    per_field: dict
    suite_min: float
    tripod_diam: float
    target: float
    tol: float
    tripod_rtol: float
    tripod_ok: bool
    all_ok: bool

    def to_json_doc(self) -> dict:
        return {
            "per_field": dict(self.per_field),
            "suite_min": self.suite_min,
            "tripod_diam": self.tripod_diam,
            "target": self.target,
            "tol": self.tol,
            "tripod_rtol": self.tripod_rtol,
            "tripod_ok": self.tripod_ok,
            "pass": self.tripod_ok and self.all_ok,
        }


def hemisphere_width_verify(h: float = 0.02, tol: float = 0.08,
                            n_random: int = 10, seed: int = 0,
                            tripod_rtol: float = 0.03) -> HemisphereReport:
    """Check the hemisphere width value 2pi/3 against a function suite.

    The tripod distance field must realize a max contour diameter of
    2pi/3 within `tripod_rtol`; every field in the suite (tripod, polar
    height, `n_random` random smooth fields) must reach at least
    2pi/3 - tol.  Diameters are intrinsic, measured through the mesh, so
    each value estimates its field's true max from below.
    """
    from .complexes.generators import (hemisphere_mesh, random_smooth_field,
                                       tripod_field)
    from .complexes.simplicial import ScalarField

    if not 0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    mesh = hemisphere_mesh(max(2, round(math.pi / 2.0 / h)))
    target = TRIPOD_WIDTH - tol
    rng = np.random.default_rng(seed)

    per_field = {}
    tripod = tripod_field(mesh)
    per_field["tripod"] = _swept_max(mesh, (
        gap.contours() for gap in LevelScan(mesh, tripod).sample(40, 40)))
    height = ScalarField(np.arccos(np.clip(mesh.coords[:, 2], -1.0, 1.0)))
    per_field["height"] = _max_contour_diam_certified(
        mesh, height, target, first=60, spread=120)
    for i in range(n_random):
        f = random_smooth_field(mesh, rng)
        per_field[f"random_{i}"] = _max_contour_diam_certified(
            mesh, f, target, first=60, spread=120)

    tripod_diam = per_field["tripod"]
    tripod_ok = abs(tripod_diam - TRIPOD_WIDTH) <= tripod_rtol * TRIPOD_WIDTH
    all_ok = all(v >= target for v in per_field.values())
    return HemisphereReport(per_field, min(per_field.values()), tripod_diam,
                            target, tol, tripod_rtol, tripod_ok, all_ok)
