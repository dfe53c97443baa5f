"""Run the perfbench end-to-end benchmark and commit its numbers as JSON.

    python scripts/bench.py --tag T [--tree DIR] [--seconds S] [--repeat N]
    python scripts/bench.py --tag A --tree DIR_A --tag B --tree DIR_B --repeat N

Runs ``perfbench/run.py --workload all --seconds S`` of the checkout DIR
(default: this one) unchanged in a subprocess, N times, and writes
``BENCH_<T>.json`` at the root of this repository: per workload, each
end-to-end metric's median, quartiles and samples (one per run), the
correct/attempted/failed counts summed over the runs, and the Python, numpy
and scipy versions (scipy None where it is not installed), the thread
environment and the git commit of the measured tree.  After each perfbench run the tree's Tier-1 test command
(``TIER1``, with the tree's ``src`` on PYTHONPATH) runs once; the record
holds its wall time (median, quartiles, samples) and its pass/fail/error
counts per run, and the line count of the tree's ``src/nsmlimit/*.py``,
all lines and code lines alone (``src_code_lines``).
Several ``--tag``/``--tree`` pairs are measured in turn, one run of each
per repeat, in reversed order on every other repeat, so that their samples
alternate and each side runs first as often.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import re
import subprocess
import sys
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
_HEADER = re.compile(r"^perfbench (\S+) seed=")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
_TIER1_COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")


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


def summarize(samples: list) -> dict:
    """Median, quartiles (linear interpolation) and the samples themselves."""
    import numpy as np

    q1, median, q3 = (float(q) for q in np.percentile(samples, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "samples": list(samples)}


def parse_tier1(stdout: str) -> dict:
    """The passed, failed and error counts of pytest's closing summary line."""
    counts = {"passed": 0, "failed": 0, "errors": 0}
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    for n, kind in _TIER1_COUNT.findall(summary):
        counts["errors" if kind.startswith("error") else kind] = int(n)
    return counts


def run_tier1(tree: Path) -> dict:
    """Wall time and ``parse_tier1`` counts of one Tier-1 run of ``tree``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - start, **parse_tier1(proc.stdout)}


def src_lines(tree: Path = ROOT) -> int:
    """Lines of ``src/nsmlimit/*.py`` in ``tree``, as ``wc -l`` counts them."""
    return sum(path.read_text().count("\n") for path in (tree / "src" / "nsmlimit").glob("*.py"))


# tokens that are no code of their own
_LAYOUT_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                  tokenize.ENCODING, tokenize.ENDMARKER}


def src_code_lines(tree: Path = ROOT) -> int:
    """Lines of ``src/nsmlimit/*.py`` in ``tree`` that hold code: not blank,
    not a comment alone, and not part of a module, class or function
    docstring."""
    total = 0
    for path in (tree / "src" / "nsmlimit").glob("*.py"):
        text = path.read_text()
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _LAYOUT_TOKENS:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = node.body[0] if node.body else None
                if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                        and isinstance(doc.value.value, str)):
                    lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
        total += len(lines)
    return total


def assemble(tag: str, seconds: float, runs: list, environment: dict,
             tier1: list = (), lines: int | None = None, code_lines: int | None = None) -> dict:
    """The BENCH record of ``runs``, one ``parse_workloads`` result per run:
    per workload, every end-to-end metric's ``summarize`` over the runs with
    its unit, and the unit counts summed over the runs; with ``tier1``, one
    ``run_tier1`` result per run, the Tier-1 wall time's ``summarize`` and
    the per-run counts; and ``lines`` and ``code_lines``, the ``src_lines``
    and ``src_code_lines`` of the tree."""
    workloads = {}
    for name in runs[0]:
        rows = [run[name] for run in runs]
        metrics = rows[0]["metrics"]
        workloads[name] = {
            "correct": all(row["correct"] for row in rows),
            "attempted": sum(row["attempted"] for row in rows),
            "failed": sum(row["failed"] for row in rows),
            "metrics": {k: summarize([row["metrics"][k]["value"] for row in rows]) for k in metrics},
            "units": {k: m["unit"] for k, m in metrics.items()},
        }
    record = {"tag": tag, "seconds": seconds, "runs": len(runs), "environment": environment,
              "workloads": workloads, "src_lines": lines,
              "src_code_lines": code_lines, "tier1": None}
    if tier1:
        record["tier1"] = {"command": "python " + " ".join(TIER1),
                           "wall_s": summarize([r["wall_s"] for r in tier1]),
                           **{k: [r[k] for r in tier1] for k in ("passed", "failed", "errors")}}
    return record


def environment(tree: Path = ROOT) -> dict:
    import numpy

    try:  # a test dependency only; None where it is not installed
        import scipy
    except ImportError:
        scipy = None
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": None if scipy is None else scipy.__version__,
        "platform": platform.platform(),
        "nproc": cpus,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit.stdout.strip() if commit.returncode == 0 else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", action="append", required=True,
                    help="names the output file BENCH_<tag>.json; repeat it to measure several trees")
    ap.add_argument("--tree", action="append", type=Path, default=None,
                    help="the checkout to measure, once per --tag (default: this one)")
    ap.add_argument("--seconds", type=float, default=25.0, help="perfbench --seconds per workload")
    ap.add_argument("--repeat", type=int, default=1, help="runs per tree, alternating between trees")
    args = ap.parse_args(argv)
    trees = args.tree or [ROOT]
    if len(trees) != len(args.tag):
        ap.error("give one --tree per --tag")
    if any(not re.fullmatch(r"[\w.-]+", tag) for tag in args.tag):
        ap.error("--tag may hold letters, digits, '_', '.' and '-' only")
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    trees = [tree.resolve() for tree in trees]
    runs = {tag: [] for tag in args.tag}
    tier1 = {tag: [] for tag in args.tag}
    sides = list(zip(args.tag, trees))
    for i in range(args.repeat):
        for tag, tree in sides if i % 2 == 0 else sides[::-1]:
            print(f"bench: run {i + 1}/{args.repeat} of {tag} ({tree})", flush=True)
            proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"), "--workload", "all",
                                   "--seconds", str(args.seconds)], cwd=tree, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            runs[tag].append(parse_workloads(proc.stdout))
            tier1[tag].append(run_tier1(tree))
            print(f"bench: Tier-1 of {tag}: {tier1[tag][-1]}", flush=True)
    for tag, tree in sides:
        record = assemble(tag, args.seconds, runs[tag], environment(tree), tier1[tag], src_lines(tree),
                          src_code_lines(tree))
        out = ROOT / f"BENCH_{tag}.json"
        out.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
