"""CLI contract: JSON on stdout, tables on stderr, exit codes 0/1/2,
and byte-identical output for a fixed seed."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from reebscope import cli
from reebscope.cli import main
from reebscope.complexes.generators import (disk_mesh, genus_mesh,
                                            random_smooth_field, theta_mesh,
                                            torus_mesh)
from reebscope.complexes.io import save_complex, save_field
from reebscope.complexes.simplicial import ScalarField


@pytest.fixture()
def runner():
    return CliRunner()


def _torus_files(tmp_path):
    cx = torus_mesh(8, 4)
    mesh = tmp_path / "torus.off"
    field = tmp_path / "height.json"
    save_complex(cx, mesh)
    save_field(ScalarField(cx.coords[:, 2].copy()), field)
    return cx, str(mesh), str(field)


# ------------------------------------------------------------------- reeb

def test_reeb_command_writes_json_and_dot(runner, tmp_path):
    _, mesh, field = _torus_files(tmp_path)
    out = str(tmp_path / "graph")
    res = runner.invoke(main, ["reeb", "--mesh", mesh, "--field", field,
                               "--out", out])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert doc["schema"] == 1
    assert doc["cycle_rank"] == 1  # height on the torus
    assert doc["out"] == [out + ".json", out + ".dot"]
    on_disk = json.loads((tmp_path / "graph.json").read_text())
    assert on_disk["schema"] == 1
    assert len(on_disk["nodes"]) == doc["nodes"]
    dot = (tmp_path / "graph.dot").read_text()
    assert dot.startswith("graph reeb {") and " -- " in dot


def test_reeb_command_on_a_tree_shaped_quotient(runner, tmp_path):
    cx = disk_mesh(3)
    mesh = tmp_path / "disk.off"
    field = tmp_path / "radial.json"
    save_complex(cx, mesh)
    save_field(ScalarField(np.hypot(cx.coords[:, 0], cx.coords[:, 1])),
               field)
    res = runner.invoke(main, ["reeb", "--mesh", str(mesh), "--field",
                               str(field), "--out", str(tmp_path / "g")])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["cycle_rank"] == 0


def _assert_usage_error(res):
    assert res.exit_code == 2, (res.output, res.exception)
    assert "error:" in res.stderr
    assert "Traceback" not in res.output


@pytest.mark.parametrize("name, text", [
    ("no_vertices.json", "{\"schema\": 1}"),
    ("header_only.off", "OFF\n"),
    ("short_faces.off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"),
    ("quad.off", "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"),
    ("array.json", "[1, 2]"),
    ("object_vertices.json", "{\"vertices\": {\"a\": 1}}"),
    ("float_id.json", "{\"vertices\": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "
                      "\"triangles\": [[0, 1, 2.9]]}"),
    ("bool_id.json", "{\"vertices\": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "
                     "\"triangles\": [[0, 1, true]]}"),
    ("float_count.json", "{\"n_vertices\": 2.5, "
                         "\"edges\": [[0, 1, 1.0]]}"),
    ("bool_count.json", "{\"n_vertices\": true, \"edges\": []}"),
    ("negative_faces.off", "OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n"),
    ("word_count.off", "OFF\nx 0 0\n"),
    ("word_coordinate.off", "OFF\n1 0 0\n0 y 0\n"),
], ids=["no-vertices", "off-header-only", "off-short-faces", "off-quad",
        "json-array", "json-object-vertices", "json-float-vertex-id",
        "json-bool-vertex-id", "json-float-vertex-count",
        "json-bool-vertex-count", "off-negative-face-count",
        "off-word-vertex-count", "off-word-coordinate"])
def test_reeb_command_rejects_malformed_mesh(runner, tmp_path, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    field = tmp_path / "f.json"
    field.write_text("[0.0]")
    res = runner.invoke(main, ["reeb", "--mesh", str(bad), "--field",
                               str(field), "--out", str(tmp_path / "g")])
    _assert_usage_error(res)
    assert str(bad) in res.stderr


@pytest.mark.parametrize("name, text", [
    ("short.json", "[0.0, 1.0]"),
    ("object.json", "{\"a\": 1}"),
    ("objects.json", "[{\"a\": 1}]"),
    ("nested.json", "[[0.0, 1.0]]"),
    ("words.txt", "0.0\nzero\n"),
], ids=["short", "json-object", "json-array-of-objects", "json-nested",
        "text-not-a-number"])
def test_reeb_command_rejects_field_length_mismatch(runner, tmp_path, name,
                                                    text):
    _, mesh, _ = _torus_files(tmp_path)
    bad = tmp_path / name
    bad.write_text(text)
    res = runner.invoke(main, ["reeb", "--mesh", mesh, "--field",
                               str(bad), "--out", str(tmp_path / "g")])
    _assert_usage_error(res)
    assert str(bad) in res.stderr


def test_reeb_command_rejects_nan_coordinates(runner, tmp_path):
    mesh = tmp_path / "nan.off"
    mesh.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n0 nan 0\n1 1 0\n"
                    "3 0 1 2\n3 1 3 2\n")
    field = tmp_path / "f.json"
    field.write_text("[0.0, 1.0, 2.0, 3.0]")
    res = runner.invoke(main, ["reeb", "--mesh", str(mesh), "--field",
                               str(field), "--out", str(tmp_path / "g")])
    assert res.exit_code == 2
    assert "error:" in res.stderr
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("stage", ["load_complex", "build_reeb"])
def test_reeb_command_reports_lack_of_memory(runner, tmp_path, monkeypatch,
                                             stage):
    _, mesh, field = _torus_files(tmp_path)

    def starved(*args):
        raise MemoryError

    monkeypatch.setattr(cli, stage, starved)
    res = runner.invoke(main, ["reeb", "--mesh", mesh, "--field", field,
                               "--out", str(tmp_path / "g")])
    _assert_usage_error(res)
    assert mesh in res.stderr and "memory" in res.stderr
    assert not (tmp_path / "g.json").exists()


def _reeb_process(mesh, field, out, hash_seed):
    """Run `reebscope reeb` in a fresh process with the given string hash
    seed; its stdout document.  Output that follows hash order or object
    addresses then differs between two seeds every time."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    res = subprocess.run([sys.executable, "-m", "reebscope.cli", "reeb",
                          "--mesh", str(mesh), "--field", str(field),
                          "--out", str(out)], capture_output=True, env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def _graph_files(prefix):
    return (Path(f"{prefix}.json").read_bytes(),
            Path(f"{prefix}.dot").read_bytes())


def test_reeb_command_is_reproducible_across_processes_on_ties(tmp_path):
    # an integer field has tied critical values, whose nodes must still
    # come out in the same order in every process
    cx = torus_mesh(8, 4)
    mesh, field = tmp_path / "torus.off", tmp_path / "tied.json"
    save_complex(cx, mesh)
    values = np.random.default_rng(8).integers(0, 4, cx.n_vertices)
    save_field(ScalarField(values.astype(float)), field)
    files = []
    for run, hash_seed in (("a", "0"), ("b", "1")):
        _reeb_process(mesh, field, tmp_path / run, hash_seed)
        files.append(_graph_files(tmp_path / run))
    assert files[0] == files[1]


def test_reeb_command_on_a_genus_three_mesh(tmp_path):
    # the shape of the benchmark's mesh workload, at a few thousand vertices
    cx = genus_mesh(3, 40, 20)
    assert 2000 <= cx.n_vertices <= 5000
    f = random_smooth_field(cx, np.random.default_rng(3), waves=4,
                            freq=3.0)
    g = f.resolved_values
    assert np.unique(g).size == g.size
    mesh, field = tmp_path / "genus3.off", tmp_path / "smooth.json"
    save_complex(cx, mesh)
    save_field(f, field)
    doc = _reeb_process(mesh, field, tmp_path / "graph", "0")
    assert doc["cycle_rank"] == 3
    again = _reeb_process(mesh, field, tmp_path / "again", "1")
    assert again["cycle_rank"] == 3
    assert _graph_files(tmp_path / "graph") == _graph_files(tmp_path / "again")
    graph = json.loads((tmp_path / "graph.json").read_text())
    degree = np.bincount(np.asarray(graph["edges"]).ravel(),
                         minlength=len(graph["nodes"]))
    # a vertex is an extremum when all its neighbours lie on one side
    up = np.zeros(cx.n_vertices, dtype=int)
    down = np.zeros(cx.n_vertices, dtype=int)
    for a, b in cx.edges.tolist():
        lo, hi = (a, b) if g[a] < g[b] else (b, a)
        up[lo] += 1
        down[hi] += 1
    extrema = int(np.sum((up == 0) | (down == 0)))
    assert extrema >= 2
    assert int(np.sum(degree == 1)) == extrema


# ----------------------------------------------------------------- verify

def test_verify_chain_suite(runner):
    res = runner.invoke(main, ["verify", "--suite", "chain"])
    assert res.exit_code == 0, res.output
    assert "ok" in res.stderr and "name" in res.stderr
    doc = json.loads(res.stdout)
    assert doc["schema"] == 1
    assert doc["suite"] == "chain"
    assert doc["reports"]
    assert all(r["pass"] for r in doc["reports"])


def test_verify_rules_suite_and_out_file(runner, tmp_path):
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--suite", "rules", "--out",
                               str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text()) == json.loads(res.stdout)


def test_verify_rejects_unknown_suite(runner):
    res = runner.invoke(main, ["verify", "--suite", "nope"])
    assert res.exit_code == 2
    assert "Invalid value" in res.stderr


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "thm62", "--h", "inf"],
    ["verify", "--suite", "thm52", "--h", "nan"],
    ["verify", "--suite", "chain", "--tol", "nan"],
    ["verify", "--suite", "rules", "--tol", "-inf"],
    ["width", "local", "--r", "nan", "--k", "0", "--n", "2"],
    ["width", "local", "--r", "1", "--k", "inf", "--n", "2"],
    ["width", "global", "--inj", "nan", "--k", "0", "--dim", "2"],
    ["width", "global", "--inj", "1", "--k", "-inf", "--dim", "2"],
    ["width", "global", "--inj", "1", "--k", "0", "--dim", "2",
     "--vol", "inf", "--diam", "1", "--c", "1"],
    ["width", "global", "--inj", "1", "--k", "0", "--dim", "2",
     "--vol", "1", "--diam", "nan", "--c", "1"],
    ["width", "global", "--inj", "1", "--k", "0", "--dim", "2",
     "--vol", "1", "--diam", "1", "--c", "nan"],
    ["width", "global", "--inj", "1", "--k", "0", "--dim", "2",
     "--vol", "1", "--diam", "1", "--c", "0"],
    ["verify", "--suite", "ex66", "--h", "-0.5"],
    ["verify", "--suite", "ex66", "--h", "0"],
])
def test_non_finite_options_exit_with_a_usage_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.output
    assert res.stdout == ""


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "chain", "--tol", "0.1", "--h", "0.5"],
    ["width", "local", "--r", "1", "--k", "0", "--n", "2"],
    ["width", "global", "--inj", "1", "--k", "0", "--dim", "2",
     "--vol", "1", "--diam", "1", "--c", "2"],
])
def test_finite_options_print_strict_json(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert _strict_json(res.stdout)["schema"] == 1


def test_verify_output_is_deterministic_across_processes():
    cmd = [sys.executable, "-m", "reebscope.cli", "verify", "--suite",
           "chain", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["seed"] == 7


# ------------------------------------------------------------------ space

def test_space_command_evaluates_products(runner):
    res = runner.invoke(main, ["space", "product(torus(3), surface(g=2))"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert doc["b1"] == 7
    assert doc["b1_prime"] == 2


def test_space_command_reports_parse_position(runner):
    res = runner.invoke(main, ["space", "product(torus(3),"])
    assert res.exit_code == 2
    assert "error:" in res.stderr and "position" in res.stderr


def test_space_command_reports_table_errors(runner):
    res = runner.invoke(main, ["space", "torus(0)"])
    assert res.exit_code == 2
    assert "needs n >= 1" in res.stderr


# ------------------------------------------------------------------ width

def test_width_local_values(runner):
    res = runner.invoke(main, ["width", "local", "--r", "0.5", "--K", "16",
                               "--n", "2"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert doc["bound"] == pytest.approx(math.pi / 6, rel=1e-12)
    assert doc["simplified"] == 0.5
    assert doc["constants"]["linear"] == pytest.approx(
        2 * math.sqrt(3) / math.pi, rel=1e-12)
    assert doc["constants"]["curvature"] == pytest.approx(
        2 * math.pi / 3, rel=1e-12)


def test_width_global_with_volume_term(runner):
    res = runner.invoke(main, ["width", "global", "--inj", "2", "--k", "1",
                               "--dim", "3", "--vol", "8", "--diam", "2",
                               "--c", "1"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert doc["bound"] == 2.0
    assert doc["simplified"] == 1.0
    assert doc["volume_width_bound"] == pytest.approx(2.0, rel=1e-12)


def test_width_local_rejects_bad_geometry(runner):
    res = runner.invoke(main, ["width", "local", "--r", "0", "--K", "1",
                               "--n", "2"])
    assert res.exit_code == 2
    assert "radius must be positive" in res.stderr


def test_width_global_warns_when_vacuous(runner):
    with pytest.warns(UserWarning, match="vacuous"):
        res = runner.invoke(main, ["width", "global", "--inj", "0", "--k",
                                   "1", "--dim", "2"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["bound"] == 0.0
