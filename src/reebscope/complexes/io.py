"""Mesh and field file formats.

OFF carries vertices and triangles.  The JSON complex document carries
{"vertices": [[x,y,z], ...], "edges": [[i,j], ...], "triangles": [[i,j,k],
...]}; metric-only complexes omit "vertices" and write edges as [i, j,
length] triples with an explicit "n_vertices".  Fields are one decimal per
line, or a JSON array.  Floats are written with repr, which round-trips
exactly (17 significant digits suffice for binary64).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .simplicial import ScalarField, SimplicialComplex


def load_complex(path) -> SimplicialComplex:
    path = Path(path)
    if path.suffix.lower() == ".off":
        return _read_off(path)
    if path.suffix.lower() == ".json":
        return _read_json(path)
    raise ValueError(f"unknown mesh format {path.suffix!r} (use .off or .json)")


def save_complex(cx: SimplicialComplex, path) -> None:
    path = Path(path)
    if path.suffix.lower() == ".off":
        if cx.coords is None:
            raise ValueError("OFF needs coordinates; use the JSON format")
        lines = ["OFF", f"{cx.n_vertices} {cx.n_triangles} 0"]
        for p in cx.coords:
            lines.append(" ".join(repr(float(x)) for x in p))
        for t in cx.triangles.tolist():
            lines.append("3 " + " ".join(str(v) for v in t))
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
    text = path.read_text()
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0]
                         for line in text.splitlines())
    tokens = text.split()
    if not tokens or tokens[0].upper() != "OFF":
        raise ValueError(f"{path}: not an OFF file")
    if len(tokens) < 4:
        raise ValueError(f"{path}: truncated OFF header")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        if nv < 0 or nf < 0:
            raise ValueError(f"negative count in OFF header {nv} {nf}")
        coords = np.array(tokens[4:4 + 3 * nv], dtype=float)
        if coords.size < 3 * nv:
            raise ValueError("truncated OFF vertex list")
        # each face is a count, 3, and three vertex ids
        faces = tokens[4 + 3 * nv:4 + 3 * nv + 4 * nf]
        if np.any(np.array(faces[::4], dtype=np.int64) != 3):
            raise ValueError("only triangle faces supported")
        if len(faces) < 4 * nf:
            raise ValueError("truncated OFF face list")
        tris = np.array(faces, dtype=np.int64).reshape(-1, 4)[:, 1:]
        return SimplicialComplex(triangles=tris,
                                 coords=coords.reshape(nv, 3),
                                 name=path.stem)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_json(path: Path) -> SimplicialComplex:
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: JSON mesh must be an object")
    if "vertices" not in doc and "n_vertices" not in doc:
        raise ValueError(f"{path}: JSON mesh needs 'vertices' or "
                         f"'n_vertices'")
    rows = doc.get("edges") or []
    tris = doc.get("triangles") or []
    try:
        if "vertices" in doc:
            coords = np.asarray(doc["vertices"], dtype=float)
        elif any(len(e) != 3 for e in rows):
            raise ValueError(f"{path}: metric-only edges need [i, j, length]")
        else:
            n_vertices = doc["n_vertices"]
            if type(n_vertices) is not int or n_vertices < 0:
                raise ValueError(f"{path}: 'n_vertices' must be a "
                                 f"nonnegative integer, not {n_vertices!r}")
            lengths = np.asarray([e[2] for e in rows], dtype=float)
        edges = [e[:2] for e in rows]
    except TypeError as exc:
        raise ValueError(f"{path}: malformed JSON mesh ({exc})") from None
    try:
        if "vertices" in doc:
            return SimplicialComplex(edges=edges, triangles=tris,
                                     coords=coords, name=path.stem)
        return SimplicialComplex(edges=edges, lengths=lengths, triangles=tris,
                                 n_vertices=n_vertices, name=path.stem)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
