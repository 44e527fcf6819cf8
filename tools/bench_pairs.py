"""Paired benchmark runs of two reebscope checkouts.

    python3 tools/bench_pairs.py --base ../parent --change . \
        --workload thm52 --workload thm31 --seeds 1-10 --out BENCH.json

For each workload and seed, runs the unchanged `perfbench/run.py` once in
each checkout, one after the other, the base first on even pairs and the
change first on odd pairs, so that drift in the machine's speed falls on
both sides alike.  Writes one JSON document: per workload and side, the
median and quartiles of `setup_s`, `run_s` and `peak_rss_mb` and every
run's values; per metric, the number of pairs in which the change was
lower; and both commits, the seeds and the machine.  A run that exits
nonzero or reports `correct: false` is recorded as such, and the tool
exits 1 after writing the document.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

METRICS = ("setup_s", "run_s", "peak_rss_mb")


def _seeds(text):
    """'1-10' or '1,4,7' -> a list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _commit(checkout):
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, text=True,
                              capture_output=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain"))}


def _machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = __import__(name).__version__
        except ImportError:
            versions[name] = None
    return {"platform": platform.platform(), "cpu": model,
            "cpus": os.cpu_count(), "python": platform.python_version(),
            **versions}


def _run(checkout, workload, seed, seconds):
    """One perfbench run; its end-to-end metrics, exit code and wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    run = {"seed": seed, "exit": proc.returncode, "wall_s": round(wall, 3)}
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        run["correct"] = False
        run["stderr"] = proc.stderr[-2000:]
        return run
    run["correct"] = bool(doc["correct"]) and proc.returncode == 0
    run.update({m: doc["metrics"][m]["value"] for m in METRICS})
    if not run["correct"]:
        run["stderr"] = proc.stderr[-2000:]
    return run


def _summary(values):
    if not values:
        return None
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="checkout to compare to")
    ap.add_argument("--change", required=True, help="checkout to measure")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sides = {"base": args.base, "change": args.change}
    doc = {"base": _commit(args.base), "change": _commit(args.change),
           "seeds": args.seeds, "seconds": args.seconds,
           "machine": _machine(), "workloads": {}}
    ok = True
    for workload in args.workload:
        runs = {"base": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                run = _run(sides[side], workload, seed, args.seconds)
                runs[side].append(run)
                ok &= run["correct"]
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{m}={run.get(m)}" for m in METRICS)
                      + f" correct={run['correct']}", file=sys.stderr,
                      flush=True)
        entry = {side: {"runs": runs[side],
                        **{m: _summary([r[m] for r in runs[side] if m in r])
                           for m in METRICS}}
                 for side in runs}
        entry["change_lower"] = {
            m: sum(c[m] < b[m] for b, c in zip(runs["base"], runs["change"])
                   if m in b and m in c)
            for m in METRICS}
        entry["pairs"] = len(args.seeds)
        doc["workloads"][workload] = entry
    with open(args.out, "w") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
