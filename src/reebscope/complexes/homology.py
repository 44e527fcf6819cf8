"""Betti numbers of a simplicial 2-complex over the rationals.

b0 is the component count of the complex, and rank ∂1 is the standard
identity V - b0.  Rank ∂2 is T - b2, with b2 = dim ker ∂2 read off the
dual graph of the triangles (Delfinado and Edelsbrunner, CAGD 1995;
Edelsbrunner and Harer, *Computational Topology*, 2010).

A sorted triangle t = (i, j, k) has boundary +ij - ik + jk, so a 2-chain
c is a cycle when sum_t a_et c_t = 0 on every edge e, with a_et = ±1 the
sign of e in t.  The equations of the edges in one or two triangles are
solved as a graph:

* an edge in one triangle t forces c_t = 0;
* an edge in two triangles t, u forces c_u = -a_et a_eu c_t.

One `components` call on the double cover, with nodes t+ and
t- and an edge joining t± to u± or u∓ as that sign says, labels the dual
components.  A component whose t+ and t- share a label is non-orientable
and forces c = 0 on it, as does one that holds an edge of the first
kind.  On every other component c_t = σ_t x with one free variable x and
signs σ_t = ±1.  The edges in three or more triangles are then the rows
of a small integer matrix M over these variables, with entries
sum_t a_et σ_t, and b2 = #free variables - rank M.  Each eliminated
equation has a unit coefficient, so the count is exact over Q; rank M
comes from fraction-free integer elimination on sparse columns, and M
is empty on surfaces.
"""

from __future__ import annotations

import math

import numpy as np

from .simplicial import SimplicialComplex, components

# sign of each column of triangle_edges (ij, ik, jk) in the boundary
_EDGE_SIGNS = np.array([1, -1, 1])


def _rank_sparse_int(cols):
    """Rank of an integer matrix given as a list of sparse columns."""
    cols = [dict(c) for c in cols if c]
    rank = 0
    pivot_of_row = {}
    # shortest columns first keeps fill-in low
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


def _cycle_rank(complex: SimplicialComplex) -> int:
    """dim ker ∂2 over Q, from the signed dual graph of the triangles."""
    t = complex.n_triangles
    # incidences sorted by edge; incidence k is triangle k // 3
    order = np.argsort(complex.triangle_edges.ravel(), kind="stable")
    edge = complex.triangle_edges.ravel()[order]
    tri = order // 3
    sign = _EDGE_SIGNS[order % 3]
    count = complex.edge_triangle_count[edge]

    # an edge in two triangles has its incidences side by side
    pair = np.flatnonzero(count == 2)
    a, b = pair[0::2], pair[1::2]
    # c_u = c_t joins t+ to u+; c_u = -c_t joins t+ to u-
    flip = np.where(sign[a] == sign[b], t, 0)
    rows = np.concatenate([tri[a], tri[a] + t])
    cols = np.concatenate([tri[b] + flip, tri[b] + t - flip])
    label = components(2 * t, rows, cols)[1]
    up, down = label[:t], label[t:]
    comp = np.minimum(up, down)
    sigma = np.where(up == comp, 1, -1)

    dead = np.zeros(2 * t, dtype=bool)
    dead[comp[up == down]] = True
    dead[comp[tri[count == 1]]] = True
    free = np.unique(comp[~dead[comp]])

    # rows of M: the edges in three or more triangles that meet a free
    # component, with the signed incidences of each component summed
    hub = np.flatnonzero((count >= 3) & ~dead[comp[tri]])
    var = np.searchsorted(free, comp[tri[hub]])
    key, where = np.unique(edge[hub] * len(free) + var, return_inverse=True)
    coef = np.bincount(where, weights=sign[hub] * sigma[tri[hub]]
                       ).astype(np.int64)
    matrix = [{} for _ in range(len(free))]
    for k, c in zip(key[coef != 0].tolist(), coef[coef != 0].tolist()):
        e, v = divmod(k, len(free))
        matrix[v][e] = c
    return len(free) - _rank_sparse_int(matrix)


def betti_numbers(complex: SimplicialComplex):
    """(b0, b1, b2) with rational coefficients."""
    b0 = complex.n_components
    rank_d1 = complex.n_vertices - b0
    b2 = _cycle_rank(complex)
    rank_d2 = complex.n_triangles - b2
    b1 = complex.n_edges - rank_d1 - rank_d2
    return b0, b1, b2


def euler_characteristic(complex: SimplicialComplex) -> int:
    return complex.n_vertices - complex.n_edges + complex.n_triangles
