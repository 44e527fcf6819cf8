"""SHA-256 digests of the reports of one reebscope checkout.

    python3 tools/report_digest.py

Prints one line per suite and per kind of output, so that two checkouts
can be compared line by line for byte-identical results:

- `verify/<suite>`: the stdout of `reebscope verify --suite <suite>` at
  seed 0 and the suite's default h, for all six suites, with the exit code;
- `coarse/<suite>`: the `repr` of the reports of the suites that
  perfbench runs, at perfbench's coarse h (its `SUITE_H`) and seed 0;
- `thickness`: the `repr` of the `thickness_checks()` reports at seed 0.

The checkout is the one this file lies in; its `src/` is imported ahead
of any installed reebscope.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# perfbench/worker.py's SUITE_H
COARSE_H = {"thm31": 0.25, "thm52": 0.4, "thm62": 0.05}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _verify(suite: str):
    """Digest and exit code of one `reebscope verify` run's stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "reebscope.cli", "verify", "--suite", suite,
         "--seed", "0"], cwd=ROOT, env=env, capture_output=True)
    return _digest(proc.stdout), proc.returncode


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
