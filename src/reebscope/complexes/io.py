"""Mesh and field file formats.

OFF: `OFF` (any case), the vertex, face and unread edge counts, x y z per
vertex and `3 i j k` per face (ids in [0, V)), as whitespace-split decimals;
`#` comments run to the line end, and numbers past the last face are ignored.
The JSON complex document carries {"vertices": [[x,y,z], ...], "edges":
[[i,j], ...], "triangles": [[i,j,k], ...]}; metric-only complexes omit
"vertices" and write edges as [i, j, length] triples with an explicit
"n_vertices".  Fields are one decimal per line, or a JSON array.  Floats are
written with repr, which round-trips exactly (17 significant digits suffice
for binary64).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .simplicial import ScalarField, SimplicialComplex


def load_complex(path) -> SimplicialComplex:
    path = Path(path)
    read = {".off": _read_off, ".json": _read_json}.get(path.suffix.lower())
    if read is None:
        raise ValueError(f"unknown mesh format {path.suffix!r} (use .off or .json)")
    try:
        return read(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_complex(cx: SimplicialComplex, path) -> None:
    path = Path(path)
    if path.suffix.lower() == ".off":
        if cx.coords is None:
            raise ValueError("OFF needs coordinates; use the JSON format")
        lines = ["OFF", f"{cx.n_vertices} {cx.n_triangles} 0"]
        lines += [f"{x!r} {y!r} {z!r}" for x, y, z in cx.coords.tolist()]
        lines += [f"3 {i} {j} {k}" for i, j, k in cx.triangles.tolist()]
        path.write_text("\n".join(lines) + "\n")
        return
    if path.suffix.lower() != ".json":
        raise ValueError(f"unknown mesh format {path.suffix!r}")
    doc = {"triangles": cx.triangles.tolist()}
    if cx.coords is not None:
        doc["vertices"] = [[float(x) for x in p] for p in cx.coords]
        doc["edges"] = cx.edges.tolist()
    else:
        doc["n_vertices"] = cx.n_vertices
        doc["edges"] = [[int(i), int(j), float(l)] for (i, j), l in
                        zip(cx.edges.tolist(), cx.lengths)]
    path.write_text(json.dumps(doc, sort_keys=True))


def _read_off(path: Path) -> SimplicialComplex:
    head = re.sub("#.*", "", path.read_text()).split(None, 4)
    if not head or head[0].upper() != "OFF":
        raise ValueError("not an OFF file")
    if len(head) < 4:
        raise ValueError("truncated OFF header")
    nv, nf = int(head[1]), int(head[2])
    if nv < 0 or nf < 0:
        raise ValueError(f"negative count in OFF header {nv} {nf}")
    # split() starts the body at a token: blanks alone read as [-1.0]
    nums = np.fromstring(head.pop() if len(head) > 4 else "", sep=" ")
    if nums.size < 3 * nv:
        raise ValueError("truncated OFF vertex list")
    # each face is a count, 3, and three vertex ids
    faces = nums[3 * nv:3 * nv + 4 * nf]
    if np.any(faces[::4] != 3):
        raise ValueError("only triangle faces supported")
    if faces.size < 4 * nf:
        raise ValueError("truncated OFF face list")
    # checked before the complex's int64 cast, which would wrap 1e20
    ids = faces.reshape(nf, 4)[:, 1:]
    if np.any((ids < 0) | (ids >= nv)):
        raise ValueError("triangle vertex index out of range")
    coords, tris = nums[:3 * nv].reshape(nv, 3).copy(), ids.copy()
    del nums, faces, ids  # free the numbers before the set-up
    return SimplicialComplex(triangles=tris, coords=coords, name=path.stem)


def _read_json(path: Path) -> SimplicialComplex:
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError("JSON mesh must be an object")
    if "vertices" not in doc and "n_vertices" not in doc:
        raise ValueError("JSON mesh needs 'vertices' or 'n_vertices'")
    rows = doc.get("edges") or []
    tris = doc.get("triangles") or []
    try:
        if "vertices" in doc:
            coords = np.asarray(doc["vertices"], dtype=float)
        elif any(len(e) != 3 for e in rows):
            raise ValueError("metric-only edges need [i, j, length]")
        else:
            n_vertices = doc["n_vertices"]
            if type(n_vertices) is not int or n_vertices < 0:
                raise ValueError(f"'n_vertices' must be a nonnegative "
                                 f"integer, not {n_vertices!r}")
            lengths = np.asarray([e[2] for e in rows], dtype=float)
        edges = [e[:2] for e in rows]
    except TypeError as exc:
        raise ValueError(f"malformed JSON mesh ({exc})") from None
    if "vertices" in doc:
        return SimplicialComplex(edges=edges, triangles=tris, coords=coords,
                                 name=path.stem)
    return SimplicialComplex(edges=edges, lengths=lengths, triangles=tris,
                             n_vertices=n_vertices, name=path.stem)


def load_field(path, n_vertices=None) -> ScalarField:
    path = Path(path)
    text = path.read_text()
    try:
        if path.suffix.lower() == ".json":
            vals = json.loads(text)
            if not isinstance(vals, list):
                raise ValueError("a JSON field must be an array of numbers")
        else:
            vals = [float(line) for line in text.splitlines() if line.strip()]
        field = ScalarField(np.asarray(vals, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if n_vertices is not None and len(field) != n_vertices:
        raise ValueError(f"{path}: field has {len(field)} values "
                         f"for a mesh with {n_vertices} vertices")
    return field


def save_field(field: ScalarField, path) -> None:
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(json.dumps([float(v) for v in field.values]))
    else:
        path.write_text("\n".join(repr(float(v)) for v in field.values) + "\n")
