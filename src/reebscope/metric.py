"""Distortion of the Reeb quotient map and closed-form distortion bounds.

The empirical side compares the geodesic metric of a complex with the
quotient metric of its Reeb graph over vertex pairs.  The closed-form side
evaluates the distortion bounds exactly as displayed, left to right, so
identity tests between different routes through the formulas are stable up
to a few ulps.  Contour diameters and lengths live in the edge skeleton;
crossing points act as exact subdivision points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .complexes.contours import (_BATCH_CROSSINGS, contour_arrays,
                                 sweep_diameters)
from .complexes.geodesic import distance_rows
from .complexes.levelscan import LevelScan
from .complexes.simplicial import ScalarField, SimplicialComplex
from .reeb.graph import QuotientMap, ReebGraph

# Contours reach the sweep kernel in arrays of about this many crossings,
# laid end to end from the contour sets of many levels.  Half a level-scan
# batch keeps the peak memory of the thm52 suite at that of a per-contour
# sweep; a whole batch raised it by about 1 MB.
_SWEEP_CROSSINGS = _BATCH_CROSSINGS // 2

# Vertex rows that `distortion` compares at once: each end-pair plane it
# gathers is then 64 by V, which keeps its peak memory small.
_DISTORTION_ROWS = 64

# gaps at the low end that a capped level sample always reads
_FIRST_GAPS = 25


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality: pass means lhs <= rhs*(1+tolerance)+tol_abs.

    `tol_abs` defaults to zero, recovering the plain relative form; it is
    used where the right side vanishes although the left side carries an
    O(h) discretization error.
    """
    name: str
    lhs: float
    rhs: float
    passed: bool
    tolerance: float
    inputs: dict
    tol_abs: float = 0.0

    @staticmethod
    def check(name: str, lhs: float, rhs: float, tolerance: float = 0.0,
              tol_abs: float = 0.0, **inputs) -> "BoundReport":
        ok = lhs <= rhs * (1.0 + tolerance) + tol_abs
        return BoundReport(str(name), float(lhs), float(rhs), bool(ok),
                           float(tolerance), dict(inputs), float(tol_abs))

    def to_json_doc(self) -> dict:
        doc = {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "inputs": self.inputs,
        }
        if self.tol_abs:
            doc["tol_abs"] = self.tol_abs
        return doc


@dataclass(frozen=True)
class MorseBoundParams:
    """Inputs of the codimension-one distortion bound for manifolds."""
    b: int
    L: float
    n: int
    volume: float
    thickness: float
    diameter: float
    eps_p: float = 0.0

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("cycle-rank bound b must be nonnegative")
        if self.L < 0:
            raise ValueError("Lipschitz constant must be nonnegative")
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if self.volume <= 0:
            raise ValueError("volume must be positive")
        if self.thickness <= 0:
            raise ValueError("thickness must be positive")
        if self.diameter <= 0:
            raise ValueError("diameter must be positive")
        if self.eps_p < 0:
            raise ValueError("eps_p must be nonnegative")


def distortion(complex: SimplicialComplex, field: ScalarField,
               reeb: ReebGraph, qmap: QuotientMap) -> float:
    """max |d_X(x, y) - d_R(phi x, phi y)| over all vertex pairs.

    Restricting to vertices makes this a lower bound on the true supremum.
    """
    if complex.n_components != 1:
        raise ValueError("distortion needs a connected complex")
    n = complex.n_vertices
    if n < 2:
        return 0.0
    points = reeb.point_ends(qmap.on_node, qmap.target, qmap.levels)

    best = 0.0
    all_cols = np.arange(n)
    for start in range(0, n, _DISTORTION_ROWS):
        rows = np.arange(start, min(start + _DISTORTION_ROWS, n))
        dx = distance_rows(complex, rows)
        dr = reeb.point_distances(points, rows[:, None], all_cols)
        best = max(best, float(np.abs(dx - dr).max()))
    return best


def _level_samples(complex, field, max_levels):
    """Yield the contour sets of the chosen levels of the sweep, in lists
    of about _SWEEP_CROSSINGS crossings, so one kernel call measures many."""
    scan = LevelScan(complex, field)
    gaps = scan.gaps()
    if max_levels is not None:
        m = max(1, int(max_levels))
        gaps = scan.sample(min(_FIRST_GAPS, m), max(0, m - _FIRST_GAPS))
    batch = []
    held = 0
    for gap in gaps:
        batch.append(gap.contours())
        held += gap.n_crossings
        if held >= _SWEEP_CROSSINGS:
            yield batch
            batch, held = [], 0
    if batch:
        yield batch


def max_contour_diameter(complex: SimplicialComplex, field: ScalarField,
                         max_levels: int | None = None) -> float:
    """Largest contour diameter over sampled levels, estimated from below.

    Levels are the midpoints of the gaps between distinct vertex values
    that carry level sets: all of them, or at most `max_levels`, the
    lowest _FIRST_GAPS and an even spread of the rest.  Diameters come
    from the farthest-point sweep, run by the batched kernel
    `contours.sweep_diameters` over the contours of many levels at once.
    """
    best = 0.0
    for sets in _level_samples(complex, field, max_levels):
        best = max(best, float(np.max(sweep_diameters(
            complex, *contour_arrays(sets)))))
    return best


def thickness(complex: SimplicialComplex, field: ScalarField,
              max_levels: int | None = None) -> float:
    """min over sampled contours of length / diameter.

    Contours are sampled at the gap midpoints that `max_contour_diameter`
    reads.  Point contours carry no length scale and are excluded (with a
    warning), matching the convention that the thickness of a field only
    sees its one-dimensional contours.  Diameters come from the batched
    sweep kernel `contours.sweep_diameters`.
    """
    if not complex.is_surface:
        raise ValueError("thickness is defined for surface complexes")
    if complex.coords is None:
        raise ValueError("contour lengths need embedded coordinates")
    best = math.inf
    skipped = 0
    for sets in _level_samples(complex, field, max_levels):
        diams = sweep_diameters(complex, *contour_arrays(sets))
        for c, diam in zip((c for s in sets for c in s), diams.tolist()):
            if diam <= 0.0:
                skipped += 1
                continue
            best = min(best, c.length(complex) / diam)
    if skipped:
        warnings.warn(f"excluded {skipped} degenerate point contour(s) "
                      "from the thickness infimum")
    if math.isinf(best):
        warnings.warn("no one-dimensional contours were sampled")
    return best


def distance_function_bound(b1_prime: int, D: float):
    """Distortion bound 2(b1'+1)D for distance fields, with its GH half."""
    if b1_prime < 0:
        raise ValueError("b1_prime must be nonnegative")
    if D < 0:
        raise ValueError("D must be nonnegative")
    dis = 2.0 * (b1_prime + 1) * D
    return dis, (b1_prime + 1) * D


def morse_bound_B(p: MorseBoundParams):
    """Distortion bound B(b) for Morse fields on closed manifolds.

    Evaluated left to right exactly as displayed; returns (B, B/2), the
    second being the Gromov-Hausdorff form.
    """
    term_vol = (2.0 * p.L / (p.b + 1) * p.volume / p.thickness) ** (1.0 / p.n)
    term_eps = 8.0 * (p.diameter ** (1.0 / p.n)
                      * p.eps_p ** ((p.n - 1) / p.n) + p.eps_p)
    B = 4.0 * (p.b + 1) ** 2 * (term_vol + term_eps) \
        + abs(p.L - 1.0) * p.diameter
    return B, 0.5 * B


def intermediate_bounds(b1_Rf: int, D: float, eps_p: float, L: float,
                        diam: float, k: int, n: int, vol: float,
                        T_f: float):
    """The two one-step displays behind the Morse bound, evaluated literally.

    The first bounds dis(phi) by (2 b1(R_f) + 1)(D + 4 eps_p) plus the
    Lipschitz defect; the second bounds D itself through volume, thickness
    and the contour count k.
    """
    if b1_Rf < 0 or k < 1:
        raise ValueError("b1_Rf must be nonnegative and k at least 1")
    MorseBoundParams(b=0, L=L, n=n, volume=vol, thickness=T_f,
                     diameter=diam, eps_p=eps_p)
    if D < 0:
        raise ValueError("D must be nonnegative")
    eq15 = (2 * b1_Rf + 1) * (D + 4.0 * eps_p) + abs(L - 1.0) * diam
    eq16 = (2.0 ** (n + 1) * k ** (n - 1) * L * vol / T_f) ** (1.0 / n) \
        + 8.0 * k * (diam ** (1.0 / n)
                     * eps_p ** ((n - 1) / n) + eps_p)
    return eq15, eq16


def composed_intermediate_bound(p: MorseBoundParams) -> float:
    """Chain the two displays: bound D by the second, feed the first.

    Uses b1(R_f) = b and k = b + 1, the worst cases allowed by the
    cycle-rank bound.
    """
    _, d_bound = intermediate_bounds(p.b, 0.0, p.eps_p, p.L, p.diameter,
                                     p.b + 1, p.n, p.volume, p.thickness)
    eq15, _ = intermediate_bounds(p.b, d_bound, p.eps_p, p.L, p.diameter,
                                  p.b + 1, p.n, p.volume, p.thickness)
    return eq15


def bound_ratio(b1: int, b1_prime: int, n: int) -> float:
    """Improvement factor ((b1+1)/(b1'+1))^(2-1/n) of the corank bound."""
    if not 0 <= b1_prime <= b1:
        raise ValueError("need 0 <= b1_prime <= b1")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return ((b1 + 1) / (b1_prime + 1)) ** (2.0 - 1.0 / n)


def gh_delta_bounds(i: int, b: int, rho: float, a_next: float | None = None):
    """Two-sided bounds on the best rank-i graph approximation distance.

    Above the cycle rank the answer is pinched between rho/(16i+12) and
    rho; below it the upper side pays 6(b+1) times the caller-supplied
    next approximation scale.
    """
    if i < 0 or b < 0:
        raise ValueError("i and b must be nonnegative")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if i >= b:
        return rho / (16 * i + 12), rho
    if a_next is None:
        raise ValueError("a_next is required when i < b")
    return rho / (16 * b + 12), rho + 6.0 * (b + 1) * a_next
