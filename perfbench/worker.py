"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE MESH FIELD OUT

The clock starts before reebscope (and numpy, scipy and click with it) is
imported.  Set-up ends when the inputs are in memory; the run is the
workload's work, timed with tracing off unless TRACE is 1.  After the
run, outside every timed region, the outputs are checked by perfbench's
own checks, and each check is shown to reject a deliberately corrupted
output.  The last line of stdout is one JSON object for run.py.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# Suite resolutions: coarser than the suites' defaults (0.1, 0.15, 0.02),
# which take 30-60 s per call on two cores, so that a whole benchmark
# pass fits its time budget.  Each call takes about 4-6 s.
SUITE_H = {"thm31": 0.25, "thm52": 0.4, "thm62": 0.05}

KNOWN_LOOPS = {"sphere": 0, "torus": 1, "genus2": 2, "genus3": 3,
               "wedge3": 3, "theta": 0}
MESH_GENUS = 3


def main():
    workload, seed, trace, mesh_path, field_path, out_prefix = sys.argv[1:7]
    seed, trace = int(seed), trace == "1"

    from reebscope import cli

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    record = []
    if workload == "reeb-mesh":
        complex = cli.load_complex(mesh_path)
        field = cli.load_field(field_path, complex.n_vertices)
    else:
        _record_outputs(workload, record)
    setup_s = time.perf_counter() - T0

    w0, c0 = time.perf_counter(), time.process_time()
    if workload == "reeb-mesh":
        graph, _ = cli.build_reeb(complex, field)
        with open(out_prefix + ".json", "w") as fh:
            fh.write(graph.to_json())
        with open(out_prefix + ".dot", "w") as fh:
            fh.write(graph.to_dot())
    else:
        reports = cli.SUITES[workload](h=SUITE_H[workload], seed=seed,
                                       tol=None)
    w1, c1 = time.perf_counter(), time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks
    if workload == "reeb-mesh":
        attempted, failed = 1, 0
        with open(out_prefix + ".json", "rb") as fh:
            body = fh.read()
        with open(out_prefix + ".dot", "rb") as fh:
            body += fh.read()
        digest = hashlib.sha256(body).hexdigest()
        errors = _check_mesh(checks, complex, field, graph)
    else:
        attempted = len(reports)
        failed = sum(not r.passed for r in reports)
        digest = None
        errors = CHECKS[workload](checks, reports, record)

    out = {"setup_s": setup_s, "run_s": w1 - w0,
           "peak_rss_mb": peak_rss_mb, "attempted": attempted,
           "failed": failed, "errors": errors, "digest": digest}
    if tracer is not None:
        from tracing import span_cost
        out["calls"] = tracer.calls
        out["layers"] = _layer_metrics(tracer, w0, w1, (c1 - c0) / (w1 - w0),
                                       span_cost())
    print(json.dumps(out), flush=True)


# ------------------------------------------------------------ recording

def _record_outputs(workload, record):
    """Keep, for the checks, the inputs and outputs of the calls the suite
    makes, wrapping the function where the suites module looks it up.
    Only arrays and small results are kept, not the complexes."""
    from reebscope import suites

    def arrays(cx):
        return (cx.n_vertices, cx.edges, cx.triangles, cx.coords, cx.lengths)

    if workload == "thm31":
        inner = suites.build_reeb

        def build_reeb(cx, f):
            graph, qmap = inner(cx, f)
            record.append((arrays(cx), f.resolved_values, graph.levels,
                           graph.edges))
            return graph, qmap
        suites.build_reeb = build_reeb
    elif workload == "thm52":
        inner = suites.distortion

        def distortion(cx, f, graph, qmap, **kw):
            dis = inner(cx, f, graph, qmap, **kw)
            record.append((arrays(cx), graph.levels, graph.edges,
                           qmap.points, qmap.levels, dis))
            return dis
        suites.distortion = distortion
    elif workload == "thm62":
        inner = suites.disk_contour_verify

        def disk_contour_verify(cx, f, **kw):
            rep = inner(cx, f, **kw)
            record.append((arrays(cx), f.resolved_values, rep))
            return rep
        suites.disk_contour_verify = disk_contour_verify


# --------------------------------------------------------------- checks

def _mesh(checks, arrays):
    n, edges, triangles, coords, lengths = arrays
    return checks.Mesh(n, edges, triangles, coords, lengths)


def _check_thm31(checks, reports, record):
    errors = []
    canonical = {}
    for r in reports:
        parts = r.name.split(":")
        if parts[2] == "canonical":
            canonical[parts[1]] = int(r.lhs)
    errors += _known_loops(canonical)
    bad = dict(canonical)
    bad["torus"] += 1
    if not _known_loops(bad):
        errors.append("self-test: a cycle rank off by one was accepted")

    ranks = sorted(int(r.inputs["cycle_rank"]) for r in reports
                   if "cycle_rank" in r.inputs)
    mine = []
    for arrays, values, levels, edges in record:
        mesh = _mesh(checks, arrays)
        mine.append(checks.cycle_rank(len(levels), edges))
        errors += _guarded(checks.check_reeb_graph, mesh, values, levels,
                           edges)
    if sorted(mine) != ranks:
        errors.append(f"reported cycle ranks {ranks} != graphs' {mine}")
    arrays, values, levels, edges = max(record, key=lambda x: len(x[3]))
    if not _guarded(checks.check_reeb_graph, _mesh(checks, arrays), values,
                    levels, edges[1:]):
        errors.append("self-test: a Reeb graph missing an edge was accepted")
    return errors


def _known_loops(canonical):
    if canonical == KNOWN_LOOPS:
        return []
    return [f"canonical cycle ranks {canonical} != {KNOWN_LOOPS}"]


def _check_thm52(checks, reports, record):
    """All pairs on the one-dimensional fixture and on the surface field
    with the largest distortion; a sample of pairs on the others."""
    errors = []
    if sorted(r.lhs for r in reports) != sorted(x[-1] for x in record):
        errors.append("reported distortions differ from the computed ones")
    surfaces = [x for x in record if len(x[0][2])]
    if len(surfaces) == len(record):
        errors.append("no one-dimensional fixture was measured")
    widest = max(surfaces, key=lambda x: x[-1])
    for x in record:
        arrays, levels, edges, points, qlevels, dis = x
        mesh = _mesh(checks, arrays)
        sources = (None if x is widest or not len(arrays[2])
                   else range(0, mesh.n, max(1, mesh.n // 8)))
        errors += _guarded(checks.check_distortion, mesh, levels, edges,
                           points, qlevels, dis, sources)
    arrays, levels, edges, points, qlevels, dis = widest
    if not _guarded(checks.check_distortion, _mesh(checks, arrays), levels,
                    edges, points, qlevels, 0.99 * dis):
        errors.append("self-test: a distortion lowered by 1% was accepted")
    return errors


def _check_thm62(checks, reports, record):
    errors = []
    if sorted(r.rhs for r in reports) != sorted(x[2].boundary_diam
                                                for x in record):
        errors.append("reported boundary diameters differ from the "
                      "verifier's")
    for arrays, values, rep in record:
        mesh = _mesh(checks, arrays)
        errors += _guarded(checks.check_disk_witness, mesh, values,
                           rep.best_level, rep.boundary_diam, rep.threshold)
        if rep.best_level is None:
            continue
        moved = checks.neighbouring_level(values, rep.best_level)
        if not _guarded(checks.check_disk_witness, mesh, values, moved,
                        rep.boundary_diam, rep.threshold):
            errors.append("self-test: a witness moved to a neighbouring "
                          f"level was accepted ({rep.best_level!r})")
    return errors


CHECKS = {"thm31": _check_thm31, "thm52": _check_thm52,
          "thm62": _check_thm62}


def _check_mesh(checks, complex, field, graph):
    values = field.resolved_values
    mesh = checks.Mesh(complex.n_vertices, complex.edges, complex.triangles)
    errors = []
    rank = checks.cycle_rank(graph.n_nodes, graph.edges)
    if rank != MESH_GENUS or graph.cycle_rank != MESH_GENUS:
        errors.append(f"cycle rank {graph.cycle_rank} (recounted {rank}) "
                      f"!= genus {MESH_GENUS}")
    leaves = checks.leaf_count(graph.n_nodes, graph.edges)
    extrema = checks.extrema_count(mesh, values)
    if leaves != extrema:
        errors.append(f"{leaves} degree-1 nodes, {extrema} extrema")
    errors += _guarded(checks.check_reeb_graph, mesh, values, graph.levels,
                       graph.edges, 64)
    if not _guarded(checks.check_reeb_graph, mesh, values, graph.levels,
                    graph.edges[1:], 64):
        errors.append("self-test: a Reeb graph missing an edge was accepted")
    return errors


def _guarded(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return [f"{check.__name__}: {exc}"]


# ---------------------------------------------------------------- trace

def _layer_metrics(tracer, w0, w1, cpu_per_wall, cost):
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("reeb.build_reeb", "geodesic.vertex_distances",
                 "levelscan.contours", "metric.max_contour_diameter",
                 "width.disk_contour_verify", "metric.distortion",
                 "generators.generate_space", "simplicial.complex_init"):
        m[name + ".calls"] = calls.get(name, 0)
    for name in ("reeb.build_reeb", "geodesic.vertex_distances",
                 "levelscan.contours", "metric.max_contour_diameter",
                 "width.disk_contour_verify", "metric.distortion",
                 "reeb.graph.node_distances", "generators.generate_space",
                 "simplicial.complex_init", "homology.betti_numbers",
                 "io.load_complex", "io.load_field", "reeb.graph.export"):
        m[name + ".self_s"] = self_s.get(name, 0.0)
    for name in ("reeb.build_reeb.vertices",
                 "geodesic.vertex_distances.sources", "levelscan.gaps",
                 "levelscan.contours.returned",
                 "simplicial.complex_init.edges", "io.bytes_read"):
        m[name] = counts.get(name, 0)
    m["reeb.build_reeb.vertices_per_s"] = ratio(
        m["reeb.build_reeb.vertices"], m["reeb.build_reeb.self_s"])
    m["geodesic.vertex_distances.distinct_source_ratio"] = ratio(
        counts.get("geodesic.vertex_distances.distinct", 0),
        m["geodesic.vertex_distances.sources"])
    m["levelscan.gap_use_ratio"] = ratio(
        counts.get("levelscan.gaps_measured", 0), m["levelscan.gaps"])
    m["suites.cpu_per_wall"] = cpu_per_wall
    m["trace.coverage"] = tracer.coverage(w0, w1)
    m["trace.overhead_s"] = tracer.spans * cost
    return m


if __name__ == "__main__":
    main()
