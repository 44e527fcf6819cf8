"""reebscope benchmark.

    python3 perfbench/run.py --workload thm31 --seed 1 --seconds 10 --trace 0

Runs whole panels of ROUNDS rounds of one workload, each round in a fresh
Python process (perfbench/worker.py), until --seconds have passed.  The
rounds of a panel take their inputs from seeds derived from --seed (see
_panel), so that a run averages over several inputs.  On reeb-mesh each
input comes twice, and its two rounds must write byte-identical files.
Each round checks its outputs.  The last line of stdout is one JSON
object: the end-to-end metrics with --trace 0 (run_s is the mean over
the rounds, setup_s and peak_rss_mb are medians), the per-layer metrics
(medians) with --trace 1.  Run it from the root of a source checkout;
see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("thm31", "thm52", "thm62", "reeb-mesh")
ROUNDS = 4
ROUND_TIMEOUT_S = 120
LAST_START_S = 90      # start no panel after this, to end within 180 s

END_TO_END = ("setup_s", "run_s", "peak_rss_mb")

# Layers that must record calls on each workload in a traced run.
EXPECTED_CALLS = {
    "thm31": ("reeb.build_reeb", "geodesic.vertex_distances",
              "generators.generate_space", "simplicial.complex_init",
              "homology.betti_numbers"),
    "thm52": ("reeb.build_reeb", "geodesic.vertex_distances",
              "levelscan.contours", "metric.max_contour_diameter",
              "metric.distortion", "reeb.graph.node_distances",
              "generators.generate_space", "simplicial.complex_init",
              "homology.betti_numbers"),
    "thm62": ("width.disk_contour_verify", "generators.generate_space",
              "simplicial.complex_init"),
    "reeb-mesh": ("io.load_complex", "io.load_field",
                  "simplicial.complex_init", "reeb.build_reeb",
                  "reeb.graph.export"),
}
MIN_COVERAGE = 0.9


def _units():
    """Metric name -> unit, from the benchmark's declaration."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def _panel(workload, seed):
    """The input seed of each round: four suite seeds, or two mesh fields
    each built twice."""
    if workload == "reeb-mesh":
        return [2 * seed + k % 2 for k in range(ROUNDS)]
    return [ROUNDS * seed + k for k in range(ROUNDS)]


def _prepare(workload, seeds):
    """Per round, the mesh and field files (reeb-mesh only) and the output
    prefix.  Files of earlier runs are removed first."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    if workload != "reeb-mesh":
        return [("-", "-", os.path.join(WORK, workload)) for _ in seeds]
    sys.path.insert(0, HERE)
    import inputs
    mesh = os.path.join(WORK, "genus3.off")
    coords, triangles = inputs.genus3_mesh()
    inputs.write_off(mesh, coords, triangles)
    files = []
    for s in seeds:
        field = os.path.join(WORK, f"field-{s}.txt")
        if not any(f == field for _, f, _ in files):
            inputs.write_field(field, inputs.random_field(coords, s))
        files.append((mesh, field, os.path.join(WORK, f"graph-{s}")))
    return files


def _round(workload, seed, trace, mesh, field, out):
    env = dict(os.environ)
    env.pop("REEBSCOPE_THREADS", None)    # the program's default pool
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload,
         str(seed), "1" if trace else "0", mesh, field, out],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} round exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "reebscope")):
        raise SystemExit("error: no src/reebscope here; run from the root "
                         "of a reebscope checkout")
    seeds = _panel(args.workload, args.seed)
    files = _prepare(args.workload, seeds)

    rounds = []
    start = time.perf_counter()
    while True:
        for seed, (mesh, field, out) in zip(seeds, files):
            rounds.append(_round(args.workload, seed, args.trace, mesh,
                                 field, out))
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds or elapsed >= LAST_START_S:
            break

    errors = sorted({e for r in rounds for e in r["errors"]})
    if args.workload == "reeb-mesh":
        written = {}
        for seed, r in zip(seeds * len(rounds), rounds):
            written.setdefault(seed, set()).add(r["digest"])
        if any(len(d) != 1 for d in written.values()):
            errors.append("two rounds on one input wrote different files")
    if args.trace:
        names = rounds[0]["layers"]
        metrics = {n: statistics.median(r["layers"][n] for r in rounds)
                   for n in names}
        for layer in EXPECTED_CALLS[args.workload]:
            if any(r["calls"].get(layer, 0) == 0 for r in rounds):
                errors.append(f"traced layer {layer} recorded no calls")
        if metrics["trace.coverage"] < MIN_COVERAGE:
            errors.append(f"named spans cover {metrics['trace.coverage']:.3f}"
                          f" of run_s, below {MIN_COVERAGE}")
    else:
        metrics = {n: statistics.median(r[n] for r in rounds)
                   for n in END_TO_END}
        metrics["run_s"] = statistics.fmean(r["run_s"] for r in rounds)
    units = _units()
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    print(f"{args.workload} seed {args.seed}: run_s of the rounds "
          + " ".join(f"{r['run_s']:.3f}" for r in rounds), file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
