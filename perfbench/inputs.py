"""Inputs of the reeb-mesh workload, made without the program under test.

The mesh is the double of a rectangle with three rectangular holes: a
top sheet and a bottom sheet of the same grid triangulation, bulged apart
and glued along the outer rim and the three hole rims.  That is a closed
orientable surface of genus 3.  The mesh does not depend on the seed; the
field, a random sum of plane waves over the embedded coordinates, does.
"""

from __future__ import annotations

import numpy as np

NX, NY = 210, 70          # grid cells along x and y; cells are 1/NY wide
HOLE = 21                 # hole side, in cells
BULGE = 0.12              # sheet half-thickness far from every rim
WAVES = 4


def _hole_boxes():
    """Cell ranges [x0, x1) x [y0, y1) of the three holes."""
    y0 = (NY - HOLE) // 2
    step = NX // 3
    return [(k * step + (step - HOLE) // 2, k * step + (step + HOLE) // 2,
             y0, y0 + HOLE) for k in range(3)]


def genus3_mesh():
    """(coords (V, 3) float array, triangles (T, 3) int array)."""
    holes = _hole_boxes()
    cell_in = np.ones((NX, NY), dtype=bool)
    for x0, x1, y0, y1 in holes:
        cell_in[x0:x1, y0:y1] = False
    # a grid vertex is on the surface if a kept cell touches it, and on a
    # rim if a missing cell (or the outside) touches it as well
    pad = np.zeros((NX + 2, NY + 2), dtype=bool)
    pad[1:-1, 1:-1] = cell_in
    touch = [pad[a:a + NX + 1, b:b + NY + 1] for a in (0, 1) for b in (0, 1)]
    used = touch[0] | touch[1] | touch[2] | touch[3]
    inner = touch[0] & touch[1] & touch[2] & touch[3]

    gi, gj = np.meshgrid(np.arange(NX + 1), np.arange(NY + 1), indexing="ij")
    dist = np.minimum.reduce([gi, NX - gi, gj, NY - gj]).astype(float)
    for x0, x1, y0, y1 in holes:
        dx = np.maximum(np.maximum(x0 - gi, gi - x1), 0)
        dy = np.maximum(np.maximum(y0 - gj, gj - y1), 0)
        dist = np.minimum(dist, np.maximum(dx, dy))
    height = BULGE * np.minimum(dist, 8.0) / 8.0

    top = np.full((NX + 1, NY + 1), -1, dtype=np.int64)
    bot = np.full((NX + 1, NY + 1), -1, dtype=np.int64)
    top[used] = np.arange(int(used.sum()))
    n_top = int(used.sum())
    bot[used] = top[used]
    interior = used & inner
    bot[interior] = n_top + np.arange(int(interior.sum()))

    xy = np.stack([gi, gj], axis=-1).astype(float) / NY
    coords = np.zeros((n_top + int(interior.sum()), 3))
    coords[top[used], :2] = xy[used]
    coords[top[used], 2] = height[used]
    coords[bot[interior], :2] = xy[interior]
    coords[bot[interior], 2] = -height[interior]

    ci, cj = np.nonzero(cell_in)
    # cut each cell along a-c, except where a triangle would have all its
    # corners on a rim: both sheets would share it (at the outer corners)
    rim = used & ~inner
    ra, rb = rim[ci, cj], rim[ci + 1, cj]
    rc, rd = rim[ci + 1, cj + 1], rim[ci, cj + 1]
    other = (ra & rc) & (rb | rd)
    tris = []
    for ids, flip in ((top, False), (bot, True)):
        a, b = ids[ci, cj], ids[ci + 1, cj]
        c, d = ids[ci + 1, cj + 1], ids[ci, cj + 1]
        t1 = np.where(other[:, None], np.stack([a, b, d], axis=1),
                      np.stack([a, b, c], axis=1))
        t2 = np.where(other[:, None], np.stack([b, c, d], axis=1),
                      np.stack([a, c, d], axis=1))
        if flip:
            t1, t2 = t1[:, ::-1], t2[:, ::-1]
        tris.extend([t1, t2])
    return coords, np.concatenate(tris)


def random_field(coords, seed: int):
    """Sum of WAVES plane waves with seeded directions, amplitudes and
    phases; drawn again until the vertex values are pairwise distinct by a
    margin far above float noise."""
    rng = np.random.default_rng([seed, 3])
    while True:
        vals = np.zeros(coords.shape[0])
        for _ in range(WAVES):
            k = rng.normal(size=3)
            k *= rng.uniform(2.0, 5.0) / np.linalg.norm(k)
            vals += rng.uniform(0.3, 1.0) * np.sin(coords @ k
                                                  + rng.uniform(0, 2 * np.pi))
        gaps = np.diff(np.sort(vals))
        if gaps.min() > 1e-10 * max(1.0, float(np.abs(vals).max())):
            return vals


def write_off(path, coords, tris):
    lines = ["OFF", f"{coords.shape[0]} {tris.shape[0]} 0"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in coords.tolist()]
    lines += [f"3 {a} {b} {c}" for a, b, c in tris.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_field(path, values):
    with open(path, "w") as fh:
        fh.write("\n".join(repr(v) for v in values.tolist()) + "\n")
