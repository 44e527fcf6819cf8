"""Betti numbers of a simplicial 2-complex over the rationals.

b0 is the component count of the complex, and rank of the edge boundary
map is the standard identity V - #components.  Rank of the triangle
boundary map is computed by fraction-free integer elimination on a sparse
column dictionary; entries stay integers (divided by their gcd after each
step), so there is no float or exact-rational blowup to worry about at the
sizes we use.
"""

from __future__ import annotations

import math

from .simplicial import SimplicialComplex


def _boundary2_columns(complex: SimplicialComplex):
    """One column per triangle, as {edge_id: coefficient}.

    For a sorted triangle (i, j, k) the boundary is (jk) - (ik) + (ij).
    """
    cols = []
    for t in range(complex.n_triangles):
        e_ij, e_ik, e_jk = complex.triangle_edges[t]
        cols.append({int(e_ij): 1, int(e_ik): -1, int(e_jk): 1})
    return cols


def _rank_sparse_int(cols):
    """Rank of an integer matrix given as a list of sparse columns."""
    cols = [dict(c) for c in cols if c]
    rank = 0
    pivot_of_row = {}
    # shortest columns first keeps fill-in low on mesh boundary maps
    cols.sort(key=len)
    for col in cols:
        while col:
            # eliminate against already-chosen pivots
            hit = None
            for r in col:
                if r in pivot_of_row:
                    hit = r
                    break
            if hit is None:
                break
            prow, pcol = pivot_of_row[hit]
            a = pcol[hit]
            b = col[hit]
            merged = {}
            for r, v in col.items():
                merged[r] = a * v
            for r, v in pcol.items():
                merged[r] = merged.get(r, 0) - b * v
            col = {r: v for r, v in merged.items() if v != 0}
            if col:
                g = math.gcd(*[abs(v) for v in col.values()]) \
                    if len(col) > 1 else abs(next(iter(col.values())))
                if g > 1:
                    col = {r: v // g for r, v in col.items()}
        if col:
            # choose the row with the smallest support as pivot row
            r0 = min(col)
            pivot_of_row[r0] = (r0, col)
            rank += 1
    return rank


def betti_numbers(complex: SimplicialComplex):
    """(b0, b1, b2) with rational coefficients."""
    v = complex.n_vertices
    b0 = complex.n_components
    rank_d1 = v - b0
    rank_d2 = _rank_sparse_int(_boundary2_columns(complex))
    b1 = complex.n_edges - rank_d1 - rank_d2
    b2 = complex.n_triangles - rank_d2
    return b0, b1, b2


def euler_characteristic(complex: SimplicialComplex) -> int:
    return complex.n_vertices - complex.n_edges + complex.n_triangles
