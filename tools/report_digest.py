"""SHA-256 digests of the reports of one reebscope checkout.

    python3 tools/report_digest.py

Prints one line per suite and per kind of output, so that two checkouts
can be compared line by line for byte-identical results:

- `verify/<suite>`: the stdout of `reebscope verify --suite <suite>` at
  seed 0 and the suite's default h, for all six suites, with the exit code;
- `coarse/<suite>`: the `repr` of the reports of the suites that
  perfbench runs, at perfbench's coarse h (its `SUITE_H`) and seed 0;
- `thickness`: the `repr` of the `thickness_checks()` reports at seed 0;
- `fixtures`: the dtype, shape and bytes of the edges, triangles,
  coordinates, lengths and canonical field of every `generate_space`
  fixture, at each suite's default h and at perfbench's coarse h; this
  covers `flat_torus`, `three_arc`, `circle` and `path`, which no
  `verify` line reaches;
- `reeb/field-<k>`: the JSON and DOT files written by `reebscope reeb` on
  `perfbench/inputs.py`'s genus-3 mesh under its field of seed k, for
  k = 6 and 7, with the exit code; `reeb/crlf-6` is the same run on a
  copy of the mesh with a `#` comment line and CRLF line ends.

The checkout is the one this file lies in; its `src/` is imported ahead
of any installed reebscope.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# perfbench/worker.py's SUITE_H
COARSE_H = {"thm31": 0.25, "thm52": 0.4, "thm62": 0.05}
# the suites' own default h, `thickness_checks` included
DEFAULT_H = {"thm31": 0.1, "thm52": 0.15, "thm62": 0.02, "ex66": 0.02,
             "thickness": 0.15}
FIXTURES = ("sphere", "torus", "genus", "flat_torus", "disk", "hemisphere",
            "theta", "three_arc", "wedge", "circle", "path")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(*args):
    """One `reebscope` run of this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "reebscope.cli", *args],
                          cwd=ROOT, env=env, capture_output=True)


def _verify(suite: str):
    """Digest and exit code of one `reebscope verify` run's stdout."""
    proc = _cli("verify", "--suite", suite, "--seed", "0")
    return _digest(proc.stdout), proc.returncode


def _reeb(mesh: str, field: str):
    """Digest of the JSON and DOT files of one `reebscope reeb` run, which
    lie next to the field, and its exit code."""
    out = os.path.splitext(field)[0]
    proc = _cli("reeb", "--mesh", mesh, "--field", field, "--out", out)
    body = b""
    for ext in (".json", ".dot"):
        if os.path.exists(out + ext):
            with open(out + ext, "rb") as fh:
                body += fh.read()
    return _digest(body), proc.returncode


def _fixtures_digest() -> str:
    from reebscope.complexes.generators import generate_space

    sha = hashlib.sha256()
    for h in sorted({*COARSE_H.values(), *DEFAULT_H.values()}):
        for name in FIXTURES:
            space = generate_space(name, h)
            cx, field = space.complex, space.field
            sha.update(f"{space.name}@{h}:{cx.n_vertices};".encode())
            for arr in (cx.edges, cx.triangles, cx.coords, cx.lengths,
                        None if field is None else field.values):
                if arr is None:
                    sha.update(b"None;")
                    continue
                sha.update(f"{arr.dtype.str}{arr.shape};".encode())
                sha.update(arr.tobytes())
    return sha.hexdigest()


def _reeb_lines(tmp: str):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import inputs

    coords, triangles = inputs.genus3_mesh()
    mesh = os.path.join(tmp, "genus3.off")
    inputs.write_off(mesh, coords, triangles)
    with open(mesh) as fh:
        lines = ["# genus-3 mesh of perfbench/inputs.py"] + \
            fh.read().splitlines()
    crlf = os.path.join(tmp, "genus3-crlf.off")
    with open(crlf, "wb") as fh:
        fh.write("\r\n".join(lines).encode() + b"\r\n")
    for name, path, k in (("field-6", mesh, 6), ("field-7", mesh, 7),
                          ("crlf-6", crlf, 6)):
        field = os.path.join(tmp, f"{name}.txt")
        inputs.write_field(field, inputs.random_field(coords, k))
        digest, code = _reeb(path, field)
        print(f"{'reeb/' + name:<15} {digest} exit={code}", flush=True)


def main() -> int:
    sys.path.insert(0, SRC)
    from reebscope.suites import SUITES, thickness_checks

    for suite in SUITES:
        digest, code = _verify(suite)
        print(f"verify/{suite:<8} {digest} exit={code}", flush=True)
    for suite, h in COARSE_H.items():
        reports = SUITES[suite](h=h, seed=0)
        print(f"coarse/{suite:<8} {_digest(repr(reports).encode())}",
              flush=True)
    print(f"{'thickness':<15} "
          f"{_digest(repr(thickness_checks(seed=0)).encode())}", flush=True)
    print(f"{'fixtures':<15} {_fixtures_digest()}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        _reeb_lines(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
