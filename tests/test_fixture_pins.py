"""Every fixture builder, pinned bit for bit.

Each builder is swept over its sizes, and one SHA-256 digest covers the
dtype, shape and bytes of `edges`, `triangles`, `coords` and `lengths` of
every complex it built (and, for `generate_space`, the canonical field).
The digests were computed from the loop-based builders that preceded the
shared ring stitcher, by running

    PYTHONPATH=src python3 tests/test_fixture_pins.py

so a rewrite of a builder passes only if it builds the same arrays.
"""

import hashlib

import numpy as np
import pytest

from reebscope.complexes.generators import (disk_mesh, flat_torus_mesh,
                                            generate_space, genus_mesh,
                                            hemisphere_mesh, theta_mesh,
                                            three_arc_mesh, uv_sphere_mesh,
                                            wedge_circles_mesh)

RINGS = [*range(1, 61), 79]
SPHERE_GRIDS = sorted({*((a, b) for a in range(3, 30) for b in (3, 4, 7, 48)),
                       *((a, b) for a in (3, 4, 17) for b in range(3, 49))})
GENUS_GRIDS = [(8, 4), (8, 6), (12, 4), (16, 8), (20, 6), (24, 10),
               (32, 12)]
FIXTURES = ["sphere", "torus", "genus", "flat_torus", "disk", "hemisphere",
            "theta", "three_arc", "wedge", "circle", "path"]
FIXTURE_H = [0.02, 0.05, 0.1, 0.15, 0.25, 0.4]


def _spaces():
    for h in FIXTURE_H:
        for name in FIXTURES:
            yield generate_space(name, h)


SWEEPS = {
    "disk": lambda: (disk_mesh(k) for k in RINGS),
    "hemisphere": lambda: (hemisphere_mesh(k) for k in RINGS),
    "uv_sphere": lambda: (uv_sphere_mesh(a, b) for a, b in SPHERE_GRIDS),
    "flat_torus": lambda: (flat_torus_mesh(n) for n in range(3, 40)),
    "three_arc": lambda: (three_arc_mesh(n) for n in range(2, 41)),
    "wedge": lambda: (wedge_circles_mesh(r, n) for r in range(1, 6)
                      for n in range(3, 31)),
    "theta": lambda: (theta_mesh(a, b) for a in range(3, 31)
                      for b in (1, 2, 5)),
    "genus": lambda: (genus_mesh(g, nu, nv) for g in (2, 3, 4)
                      for nu, nv in GENUS_GRIDS),
    "generate_space": _spaces,
}

PINNED = {
    "disk": "89a3561c471888a9120dd5dfecf5438660e4160838be36839a3103cd6bd28c96",
    "flat_torus": "10a29e1bb2e66e22b965659238637c7dae963f325a3e4dab020352ad80f61e4f",
    "generate_space": "533711116d3c6d0f50981f54350969e2d7d3e3dfa5903ad4a8ae5c00aff9b6ca",
    "genus": "2770f7296f72445c5aa9fe81ddac6c754738b75f21a90983c50c2db2d69c8612",
    "hemisphere": "a5accaf1fc499808023c096a22f93a12e31cf5df46a8fd9f64cd8e10ceb4989f",
    "theta": "bd02b27dc762651124477b3280b3312648eee084438cac20baea6623b96068a4",
    "three_arc": "46eb74b84e7376eba22a92080249d8b9056593a74fc31820231b20022c32c2a0",
    "uv_sphere": "48e355a48f69e59a26faaee6a7aee2216f7ed98be3b6b24b4572c4937e3b4aee",
    "wedge": "4fe33d036e5729233bc5e26e337e59c7a66322ad226264572ccb11c5e064a528",
}


def _update(sha, arr):
    if arr is None:
        sha.update(b"None;")
        return
    arr = np.ascontiguousarray(arr)
    sha.update(f"{arr.dtype.str}{arr.shape};".encode())
    sha.update(arr.tobytes())


def sweep_digest(builder):
    """The digest of every complex (or generated space) the sweep builds."""
    sha = hashlib.sha256()
    for item in SWEEPS[builder]():
        cx = getattr(item, "complex", item)
        sha.update(f"{cx.name}:{cx.n_vertices};".encode())
        for arr in (cx.edges, cx.triangles, cx.coords, cx.lengths):
            _update(sha, arr)
        if cx is not item:
            sha.update(f"{item.name}{item.betti}{item.b1_prime};".encode())
            _update(sha, None if item.field is None else item.field.values)
    return sha.hexdigest()


@pytest.mark.parametrize("builder", sorted(SWEEPS))
def test_fixture_arrays_are_pinned(builder):
    assert sweep_digest(builder) == PINNED[builder]


if __name__ == "__main__":
    for name in sorted(SWEEPS):
        print(f"    {name!r}: {sweep_digest(name)!r},")
