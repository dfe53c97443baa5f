"""Record the reference observables the benchmark's correctness gate uses.

    python3 perfbench/record_reference.py [--workload NAME ...] [--seeds N]

Runs one unit of each workload for every input seed 0..N-1 with the current
sources and writes perfbench/reference.json (existing entries of other
workloads are kept).  Record at a commit whose results are trusted; the gate
then flags any later change of the observables beyond the relative tolerance
``workloads.REF_RTOL``.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads as wl  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="*", default=list(wl.WORKLOADS))
    ap.add_argument("--seeds", type=int, default=wl.N_INPUT_SEEDS)
    args = ap.parse_args(argv)

    path = wl.REFERENCE_FILE
    ref = json.loads(path.read_text()) if path.exists() else {}
    ref["recorded_with"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    work = ROOT / ".bench_out" / "reference"
    status = 0
    for name in args.workload:
        table = ref.setdefault(name, {})
        for seed in range(args.seeds):
            out = work / f"{name}-{seed}"
            shutil.rmtree(out, ignore_errors=True)
            res = wl.WORKLOADS[name](seed).run_unit(out)
            shutil.rmtree(out, ignore_errors=True)
            print(f"{name} seed {seed}: {res.wall_s:.2f} s {res.observables} {res.problems}",
                  flush=True)
            if res.problems:
                status = 1
                continue
            table[str(seed)] = res.observables
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
