"""The benchmark's worker runs on this checkout.

perfbench/worker.py reaches the program through `cli.load_complex`,
`cli.load_field`, `cli.build_reeb`, the graph's exports and counts, the
quotient map's graph points and the suites.  Each round here runs in a
fresh process, as the benchmark runs it, and must exit 0 with its own
checks passing.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _round(args, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"),
                          *map(str, args)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_reeb_mesh_round_passes_its_checks_and_is_reproducible(tmp_path):
    # fields 6 and 7 are the inputs of run.py's seed 3
    inputs = _load("inputs")
    coords, triangles = inputs.genus3_mesh()
    mesh = tmp_path / "genus3.off"
    inputs.write_off(mesh, coords, triangles)
    for k in (2, 6, 7):
        field = tmp_path / f"field-{k}.txt"
        inputs.write_field(field, inputs.random_field(coords, k))
        digests = []
        for hash_seed in ("0", "1"):
            doc = _round(["reeb-mesh", k, 0, mesh, field,
                          tmp_path / f"graph-{k}-{hash_seed}"], hash_seed)
            assert doc["errors"] == [], k
            assert doc["attempted"] == 1 and doc["failed"] == 0
            digests.append(doc["digest"])
        assert digests[0] == digests[1], k


@pytest.mark.parametrize("k", [10, 11, 14, 15])
def test_reeb_mesh_round_on_the_fields_of_run_seeds_5_and_7(tmp_path, k):
    # run.py's seed s builds fields 2s and 2s + 1
    inputs = _load("inputs")
    coords, triangles = inputs.genus3_mesh()
    mesh, field = tmp_path / "genus3.off", tmp_path / f"field-{k}.txt"
    inputs.write_off(mesh, coords, triangles)
    inputs.write_field(field, inputs.random_field(coords, k))
    doc = _round(["reeb-mesh", k, 0, mesh, field, tmp_path / f"graph-{k}"])
    assert doc["errors"] == []
    assert doc["attempted"] == 1 and doc["failed"] == 0


@pytest.mark.parametrize("workload", ["thm62", "thm52"])
def test_suite_round_at_the_first_seed_of_run_seed_7(tmp_path, workload):
    # run.py's seed s runs the suite seeds 4s to 4s + 3
    doc = _round([workload, 28, 0, "-", "-", tmp_path / workload])
    assert doc["errors"] == []
    assert doc["attempted"] > 0 and doc["failed"] == 0


def test_thm62_round_passes_its_checks(tmp_path):
    doc = _round(["thm62", 1, 0, "-", "-", tmp_path / "thm62"])
    assert doc["errors"] == []
    assert doc["attempted"] == 12


def test_thm52_round_passes_its_checks(tmp_path):
    # the distortion recorder reads the quotient map's graph points
    doc = _round(["thm52", 1, 0, "-", "-", tmp_path / "thm52"])
    assert doc["errors"] == []
    assert doc["attempted"] > 0 and doc["failed"] == 0


def test_traced_thm31_round_stays_covered_by_named_spans(tmp_path):
    doc = _round(["thm31", 2, 1, "-", "-", tmp_path / "thm31"])
    assert doc["errors"] == []
    assert doc["layers"]["trace.coverage"] >= 0.9


def test_traced_thm52_round_records_every_expected_layer(tmp_path):
    # perfbench wraps the level scan, the contour diameters and the Reeb
    # graph's node distances by name; a refactor that moves one of them
    # leaves its layer without calls
    doc = _round(["thm52", 1, 1, "-", "-", tmp_path / "thm52"])
    assert doc["errors"] == []
    silent = [layer for layer in _load("run").EXPECTED_CALLS["thm52"]
              if doc["calls"].get(layer, 0) == 0]
    assert silent == []
