"""Entry point of the higman benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs in a child process
(harness.py) under a wall budget, so a hang is recorded as a failed run
rather than waited on. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the Python version, core count, commit, seed and pass count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("envelope-ladder", "metric-table", "minmax-search", "cli-batch")
# the whole run, set-up included, must end well inside three minutes
CHILD_BUDGET_S = 170.0


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="higman benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    for needed in ("src/higman/__init__.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2

    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # a session of its own, so that a timeout also ends its CLI processes
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_BUDGET_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: workload {args.workload} ran past {CHILD_BUDGET_S:g} s", file=sys.stderr)
        return 1
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload child exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    # the largest process of the tree: the workload child or one of its CLI runs
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    meta = result.pop("meta")
    meta.update(
        python=platform.python_version(),
        nproc=os.cpu_count(),
        commit=commit(),
        peak_rss_mb=peak_kb / 1024,
    )
    print(json.dumps({"meta": meta}))
    for failure in meta["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
