"""nsmlimit benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload sweep_1d --seed 7 --seconds 25 --trace 0

Workloads: sweep_1d, paired_3d, audit_1d (see perfbench/README.md);
``--workload all`` runs each in its own process and prints one table.

--trace 0 measures the end-to-end metrics: units back to back until
--seconds have passed (the last unit is finished, so a run lasts at most one
unit longer), each unit's set-up time taken inside it; every unit's outputs
are checked.  --trace 1 runs one untraced unit, then one traced unit
(spans, FFT counts), checks that both wrote byte-identical CSV/JSON records
and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results
(environment, samples, span summary) go to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

WORKLOAD_NAMES = ("sweep_1d", "paired_3d", "audit_1d")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "point_steps_per_s": "1/s"}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = cap + 1
        os.environ[var] = str(min(current, cap))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                    help="one workload, or 'all' to run each in its own process")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of their metrics."""
    import subprocess

    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nworkload   metric                             value")
    for name, row in rows.items():
        for metric, m in row["metrics"].items():
            print(f"{name:10s} {metric:34s} {m['value']:.6g} {m['unit']}")
        print(f"{name:10s} {'fail_frac':34s} {row['failed'] / row['attempted']:g} "
              f"({row['failed']}/{row['attempted']})")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "nsmlimit" / "__init__.py").is_file():
        print(f"perfbench: no nsmlimit sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import tracing as tr  # noqa: E402  (after the thread cap: imports numpy)

    fft_counter = None
    if args.trace:
        fft_counter = tr.FftCounter()
        fft_counter.install()  # before nsmlimit binds any numpy.fft name
    t0 = time.perf_counter()
    import nsmlimit.cli  # noqa: E402,F401
    import_s = time.perf_counter() - t0
    if Path(nsmlimit.cli.__file__).resolve().parent != (SRC / "nsmlimit").resolve():
        print(f"perfbench: imported nsmlimit from {nsmlimit.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads as wl  # noqa: E402

    workload = wl.WORKLOADS[args.workload](args.seed)
    reference = wl.load_reference()
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            result = traced_run(workload, reference, run_dir, fft_counter, import_s, tr, wl)
        else:
            result = timed_run(workload, reference, run_dir, args.seconds, tr, wl)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result["env"] = environment(args, workload)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(results_dir / f"{stem}.spans.jsonl", "w") as fh:
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    print_report(args, result)
    metrics = {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }, allow_nan=False))
    return 0


# ---------------------------------------------------------------------------
# end-to-end run


def run_checked(workload, reference, unit_dir: Path, wl):
    """One unit plus its gate; an exception counts as a failed unit."""
    t0 = time.perf_counter()
    try:
        res = workload.run_unit(unit_dir)
    except Exception:  # a failing unit is reported, not fatal to the run
        return wl.UnitResult(wall_s=time.perf_counter() - t0,
                             problems=[traceback.format_exc(limit=3)])
    res.problems.extend(
        wl.check_reference(workload.name, workload.input_seed, res.observables, reference)
    )
    return res


def timed_run(workload, reference, run_dir: Path, seconds: float, tr, wl) -> dict:
    setup = tr.SetupTimer()
    samples, cpu_samples, setup_times, problems = [], [], [], []
    attempted = failed = 0
    steal0 = steal_seconds()
    start = time.perf_counter()
    while True:
        unit_dir = run_dir / f"unit{attempted}"
        attempted += 1
        n_setups = len(setup.samples)
        res = run_checked(workload, reference, unit_dir, wl)
        samples.append(res.wall_s)
        cpu_samples.append(res.cpu_s)
        # a unit's set-up: that of every run_single it called (one per kappa)
        if len(setup.samples) > n_setups:
            setup_times.append(sum(setup.samples[n_setups:]))
        if not res.ok:
            failed += 1
            problems.append(res.problems)
        shutil.rmtree(unit_dir, ignore_errors=True)
        if time.perf_counter() - start >= seconds:
            break

    if not setup_times:
        raise RuntimeError("no run_single reached its first step; set-up time not measured")
    wall = statistics.median(samples)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "point_steps_per_s": workload.point_steps() / wall,
    }
    return {
        "mode": "end_to_end",
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": dict(E2E_UNITS),
        "fail_frac": failed / attempted,
        "wall_samples_s": samples,
        "wall_max_s": max(samples),
        "cpu_samples_s": cpu_samples,
        "machine_steal_s": steal_seconds() - steal0,
        "setup_samples_s": setup_times,
        "run_single_setup_samples_s": setup.samples,
        "point_steps_per_unit": workload.point_steps(),
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# traced run


def traced_run(workload, reference, run_dir, fft_counter, import_s, tr, wl) -> dict:
    plain = run_checked(workload, reference, run_dir / "untraced", wl)

    tracer = tr.Tracer(fft_counter)
    tracer.install_spans()
    tracer.active = True
    with tracer.span("bench.unit"):
        traced = run_checked(workload, reference, run_dir / "traced", wl)
    read_back_error = None
    if not workload.reads_back and traced.ok:
        read_back_error = probe_read_back(workload, run_dir / "traced", tracer)
    tracer.active = False

    problems = [f"untraced: {p}" for p in plain.problems]
    problems += [f"traced: {p}" for p in traced.problems]
    problems += [f"faithful: {p}" for p in compare_records(run_dir / "untraced", run_dir / "traced")]
    unit_wall = tracer.durations("bench.unit")[0]
    metrics, units = tr.layer_metrics(tracer, unit_wall, plain.wall_s, import_s)
    failed = int(not plain.ok) + int(not traced.ok or any(p.startswith("faithful") for p in problems))
    return {
        "mode": "traced",
        "correct": not problems,
        "attempted": 2,
        "failed": failed,
        "metrics": metrics,
        "units": units,
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": unit_wall,
        "problems": problems,
        "missing_spans": tracer.missing,
        "hook_errors": tracer.hook_errors,
        "read_back_error": read_back_error,
        "load_rss_delta_mb": [b / (1 << 20) for b in tracer.load_rss_delta],
        "fft_entry_points": fft_counter.installed,
        "fft_total": tr.fft_dict(tracer.fft_total),
        "layer_self_s": tracer.layer_self_seconds(),
        "span_summary": tracer.summary(),
        "spans": tracer.spans,
    }


def probe_read_back(workload, out_dir: Path, tracer) -> str | None:
    """Load and audit a snapshot file the traced unit wrote, so the read-back
    layers are measured on every workload.  A failure (a renamed function,
    no npz written) is returned, not raised: it leaves those spans missing."""
    try:
        with tracer.span("bench.read_back"):
            workload.read_back(out_dir)
    except Exception as exc:  # the probe is measurement only
        return f"{type(exc).__name__}: {exc}"
    return None


def compare_records(a: Path, b: Path) -> list:
    """CSV/JSON records of two runs must be byte-identical."""
    names = sorted({p.name for d in (a, b) for p in d.glob("*") if p.suffix in (".csv", ".json")})
    if not names:
        return ["no CSV/JSON records written"]
    return [f"{n} differs between untraced and traced run" for n in names
            if not ((a / n).is_file() and (b / n).is_file()
                    and (a / n).read_bytes() == (b / n).read_bytes())]


# ---------------------------------------------------------------------------
# environment and report


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine's CPUs (all of them),
    from /proc/stat; 0 where unavailable."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes() -> int:
    """Size of the last-level cache of CPU 0 from sysfs (0 if unknown)."""
    best_level, size = -1, 0
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((idx / "level").read_text())
            raw = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(raw[-1:], 1)
        value = int(raw.rstrip("KMG")) * mult
        if level > best_level:
            best_level, size = level, value
    return size


def paired_3d_sizes(llc: int) -> dict:
    """Array sizes of the paired_3d problem from its grid (computed from
    shapes and dtypes, not measured bandwidth)."""
    import workloads as wl

    m = wl.Paired3D(7).config().grid.npoints
    sizes = {
        "grid_points": m,
        "full_state_bytes": 13 * m * 8,        # n, u, jt, E, B as float64
        "limit_state_bytes": 4 * m * 8,        # n, u
        "spectral_stack_bytes": 9 * m * 16,    # (M, 9) complex J, E, B stack
        "operator_bytes": 2 * (9 + 81) * m * 16,  # gen + half-step prop, u and JEB blocks
    }
    sizes["two_operators_bytes"] = 2 * sizes["operator_bytes"]
    if llc:
        sizes["two_operators_over_llc"] = sizes["two_operators_bytes"] / llc
        sizes["spectral_stack_over_llc"] = sizes["spectral_stack_bytes"] / llc
    sizes["note"] = "computed from array shapes; not a measured bandwidth"
    return sizes


def environment(args, workload) -> dict:
    import numpy
    import scipy

    llc = _llc_bytes()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "input_seed": workload.input_seed,
        "seconds": args.seconds,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "llc_bytes": llc,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "paired_3d_computed": paired_3d_sizes(llc),
    }


def print_report(args, result: dict) -> None:
    env = result["env"]
    print(f"perfbench {args.workload} seed={args.seed} (input seed {env['input_seed']}) "
          f"mode={result['mode']} nproc={env['nproc']} commit={env['git_commit'][:12]}")
    if result["mode"] == "end_to_end":
        n = len(result["wall_samples_s"])
        print(f"  samples: {n} units, {len(result['run_single_setup_samples_s'])} run_single set-ups")
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:.6g} {result['units'][name]}")
    print(f"  fail_frac {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:g}")
    if result["mode"] == "traced":
        if result["missing_spans"]:
            print(f"  missing spans: {', '.join(result['missing_spans'])}")
        if result["read_back_error"]:
            print(f"  read-back probe failed: {result['read_back_error']}")
    for p in result["problems"]:
        print(f"  PROBLEM: {p}")


if __name__ == "__main__":
    sys.exit(main())
