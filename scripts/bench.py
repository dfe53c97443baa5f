"""Run the perfbench end-to-end benchmark and commit its numbers as JSON.

    python scripts/bench.py --tag T [--seconds S]

Runs ``perfbench/run.py --workload all --seconds S`` unchanged in a
subprocess (each workload in its own process) and writes ``BENCH_<T>.json``
at the repository root: the end-to-end metrics and the correct/attempted/
failed counts per workload, the Python, numpy and scipy versions, the
thread environment and the git commit of the measured tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
_HEADER = re.compile(r"^perfbench (\S+) seed=")


def parse_workloads(stdout: str) -> dict:
    """Per workload, the JSON line that ends its output in a ``--workload all``
    run, keyed by the name on the ``perfbench <name> seed=...`` header before it."""
    rows, name = {}, None
    for line in stdout.splitlines():
        header = _HEADER.match(line)
        if header:
            name = header.group(1)
        elif name is not None and line.startswith("{"):
            rows[name], name = json.loads(line), None
    return rows


def assemble(tag: str, seconds: float, rows: dict, environment: dict) -> dict:
    """The BENCH record: one entry per workload with its end-to-end metric
    values and units, and the environment they were measured in."""
    return {
        "tag": tag,
        "seconds": seconds,
        "environment": environment,
        "workloads": {
            name: {
                "correct": row["correct"],
                "attempted": row["attempted"],
                "failed": row["failed"],
                "metrics": {k: m["value"] for k, m in row["metrics"].items()},
                "units": {k: m["unit"] for k, m in row["metrics"].items()},
            }
            for name, row in rows.items()
        },
    }


def environment() -> dict:
    import numpy
    import scipy

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": cpus,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit.stdout.strip() if commit.returncode == 0 else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    ap.add_argument("--seconds", type=float, default=25.0, help="perfbench --seconds per workload")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.tag):
        ap.error("--tag may hold letters, digits, '_', '.' and '-' only")
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "all", "--seconds", str(args.seconds)],
                          cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return proc.returncode
    record = assemble(args.tag, args.seconds, parse_workloads(proc.stdout), environment())
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
