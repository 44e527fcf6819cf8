"""Command-line interface.

Machine-readable JSON goes to stdout (byte-identical for a fixed seed);
human-readable tables go to stderr.  Exit codes: 0 success, 1 at least
one suite check failed, 2 usage or validation error or lack of memory.
"""

from __future__ import annotations

import json
import math
import sys

import click

from .complexes.io import load_complex, load_field
from .reeb.build import build_reeb
from .spaces import evaluate, parse_space
from .width import (GlobalGeometry, LocalGeometry, reeb_width_global,
                    reeb_width_local, simplified_bounds,
                    urysohn_volume_lower)


def _emit(doc) -> None:
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


def _fail_usage(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


@click.group()
def main():
    """Reeb graphs of PL fields, their metric distortion, and the
    closed-form bounds that control them."""


@main.command("reeb")
@click.option("--mesh", "mesh_path", required=True,
              help="Mesh file (.off, or .json; JSON may be metric-only).")
@click.option("--field", "field_path", required=True,
              help="Field file (JSON array or one value per line).")
@click.option("--out", "out_prefix", required=True,
              help="Output prefix; writes <out>.json and <out>.dot.")
def cmd_reeb(mesh_path, field_path, out_prefix):
    """Build the Reeb graph of FIELD on MESH and write JSON + DOT."""
    try:
        complex = load_complex(mesh_path)
        field = load_field(field_path, complex.n_vertices)
        graph, _ = build_reeb(complex, field)
    except (OSError, ValueError) as exc:
        _fail_usage(str(exc))
    except MemoryError:
        _fail_usage(f"{mesh_path}: not enough memory for its Reeb graph")
    with open(out_prefix + ".json", "w") as fh:
        fh.write(graph.to_json())
    with open(out_prefix + ".dot", "w") as fh:
        fh.write(graph.to_dot())
    _emit({
        "schema": 1,
        "cycle_rank": graph.cycle_rank,
        "nodes": graph.n_nodes,
        "edges": graph.n_edges,
        "out": [out_prefix + ".json", out_prefix + ".dot"],
    })


# the keys of `suites.SUITES`: `suites` loads scipy, so only `verify`
# imports it, and `cli.SUITES` imports it on first access
SUITE_NAMES = ("thm31", "thm52", "thm62", "ex66", "chain", "rules")
_SUITE_ALIASES = {"disk": "thm62", "hemisphere": "ex66"}


def __getattr__(name):
    if name == "SUITES":
        from .suites import SUITES
        return SUITES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@main.command("verify")
@click.option("--suite", required=True,
              type=click.Choice(sorted({*SUITE_NAMES, *_SUITE_ALIASES})),
              help="Which verification suite to run.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--h", "h", default=None, type=float,
              help="Fixture resolution; suite-specific default.")
@click.option("--tol", default=None, type=float,
              help="Tolerance override; suite-specific default.")
@click.option("--out", "out_path", default=None,
              help="Also write the JSON report to this path.")
def cmd_verify(suite, seed, h, tol, out_path):
    """Run a verification suite; nonzero exit iff any check fails."""
    from .suites import SUITES, format_reports
    name = _SUITE_ALIASES.get(suite, suite)
    for option, value in (("--h", h), ("--tol", tol)):
        if value is not None and not math.isfinite(value):
            _fail_usage(f"{option} must be finite, got {value!r}")
    try:
        reports = SUITES[name](h=h, seed=seed, tol=tol)
    except ValueError as exc:
        _fail_usage(str(exc))
    except MemoryError:
        at = "its default h" if h is None else f"h={h!r}"
        _fail_usage(f"suite {name} at {at}: not enough memory")
    click.echo(format_reports(reports), err=True)
    doc = {"schema": 1, "suite": name, "seed": seed,
           "reports": [r.to_json_doc() for r in reports]}
    body = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(body + "\n")
    click.echo(body)
    if not all(r.passed for r in reports):
        sys.exit(1)


@main.command("space")
@click.argument("expr")
def cmd_space(expr):
    """Evaluate a space expression, e.g.
    'product(torus(3), surface(g=2))'."""
    try:
        record = evaluate(parse_space(expr))
    except ValueError as exc:  # SpaceParseError among them
        _fail_usage(str(exc))
    _emit({"schema": 1, **record.to_json_doc()})


@main.group("width")
def cmd_width():
    """Closed-form Reeb-width lower bounds."""


@cmd_width.command("local")
@click.option("--r", "r", required=True, type=float,
              help="Ball radius (caller asserts convexity).")
@click.option("--k", "--K", "K", required=True, type=float,
              help="Sectional curvature upper bound on the ball.")
@click.option("--n", required=True, type=int, help="Dimension, >= 2.")
def cmd_width_local(r, K, n):
    try:
        g = LocalGeometry(r, K, n)
    except ValueError as exc:
        _fail_usage(str(exc))
    simplified = simplified_bounds(g)
    _emit({
        "schema": 1,
        "bound": reeb_width_local(g),
        "simplified": simplified.value,
        "constants": {"linear": simplified.linear_constant,
                      "curvature": simplified.curvature_constant},
    })


@cmd_width.command("global")
@click.option("--inj", required=True, type=float,
              help="Injectivity radius of the manifold.")
@click.option("--k", "--K", "K", required=True, type=float,
              help="Sectional curvature bound sec(M).")
@click.option("--dim", required=True, type=int, help="Dimension, >= 2.")
@click.option("--vol", default=None, type=float)
@click.option("--diam", default=None, type=float)
@click.option("--c", "c_n", default=None, type=float,
              help="Constant for the volume-based width lower bound.")
def cmd_width_global(inj, K, dim, vol, diam, c_n):
    try:
        g = GlobalGeometry(inj, K, dim, vol=vol, diam=diam)
        volume_bound = (urysohn_volume_lower(vol, diam, dim, c_n)
                        if None not in (vol, diam, c_n) else None)
    except ValueError as exc:
        _fail_usage(str(exc))
    simplified = simplified_bounds(g)
    doc = {
        "schema": 1,
        "bound": reeb_width_global(g),
        "simplified": simplified.value,
        "constants": {"linear": simplified.linear_constant,
                      "curvature": simplified.curvature_constant},
    }
    if volume_bound is not None:
        doc["volume_width_bound"] = volume_bound
    _emit(doc)


if __name__ == "__main__":
    main()
