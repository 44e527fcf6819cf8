"""What the command line loads: `reebscope reeb` measures no distance, so
neither the CLI's import nor a reeb run may load scipy (whose Dijkstra
only the suites need) or `numpy.ma` (which `np.unique` imports).  Each
check runs in a fresh process, as the command runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from reebscope import cli, suites
from reebscope.complexes.generators import torus_mesh
from reebscope.complexes.io import save_complex, save_field
from reebscope.complexes.simplicial import ScalarField

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in ("scipy", "numpy.ma") if m in sys.modules)
from reebscope import cli
after_import = loaded()
cli.main(["reeb", "--mesh", sys.argv[1], "--field", sys.argv[2],
          "--out", sys.argv[3]], standalone_mode=False)
print(json.dumps({"import": after_import, "reeb": loaded()}))
"""


def test_import_and_reeb_run_load_neither_scipy_nor_numpy_ma(tmp_path):
    # a tied field, so that the builder cuts at shared critical values
    cx = torus_mesh(16, 8)
    mesh, field = tmp_path / "torus.off", tmp_path / "field.txt"
    save_complex(cx, mesh)
    save_field(ScalarField(cx.coords[:, 2].round(1)), field)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-c", _PROBE, str(mesh),
                          str(field), str(tmp_path / "graph")], cwd=ROOT,
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert json.loads(lines[-1]) == {"import": [], "reeb": []}
    assert json.loads("\n".join(lines[:-1]))["cycle_rank"] == 1
    assert (tmp_path / "graph.json").stat().st_size > 0
    assert (tmp_path / "graph.dot").stat().st_size > 0


def test_cli_suites_are_the_suites_modules():
    assert cli.SUITES is suites.SUITES
    assert cli.SUITE_NAMES == tuple(suites.SUITES)
    with pytest.raises(AttributeError):
        cli.NO_SUCH_NAME


@pytest.mark.parametrize("name", [*suites.SUITES, "disk", "hemisphere"])
def test_verify_accepts_every_suite_and_alias(name):
    # a non-finite --h is rejected only after the suite name was accepted
    res = CliRunner().invoke(cli.main, ["verify", "--suite", name,
                                        "--h", "nan"])
    assert res.exit_code == 2
    assert "error: --h must be finite" in res.stderr


def test_verify_rejects_an_unknown_suite():
    res = CliRunner().invoke(cli.main, ["verify", "--suite", "thm99"])
    assert res.exit_code == 2
    assert "Invalid value for '--suite'" in res.stderr
