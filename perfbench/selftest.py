"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Shows that the reference gate passes on a real audit_1d unit, trips when a
wrong reference value is planted for any workload, admits a perturbation of
the size reordered rounding produces, that set-up time is taken inside the
unit, that a renamed span target is reported as missing and a failing
read-back probe is reported, both without crashing, and that the FFT counter
counts transforms per call as documented.  Exits 1 if any of these fails.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

COUNTER = tracing.FftCounter()
COUNTER.install()  # before nsmlimit is imported, as run.py does

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402

# relative size of a rounding-order perturbation the gate must admit
REORDER = {"sweep_1d": 1e-12, "paired_3d": 1e-12, "audit_1d": 1e-5}


def main() -> int:
    reference = wl.load_reference()
    results = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}")

    out = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    workload = wl.Audit1D(7)
    setup = tracing.SetupTimer()
    try:
        res = run.run_checked(workload, reference, out / "good", wl)
        check("audit_1d unit passes its gate at the recorded reference", res.ok,
              "; ".join(res.problems))
        check("one set-up time taken inside the unit, shorter than the unit",
              len(setup.samples) == 1 and 0 < setup.samples[0] < res.wall_s,
              str(setup.samples))
        planted = copy.deepcopy(reference)
        planted["audit_1d"][str(workload.input_seed)]["max_residual"] *= 1.01
        res = run.run_checked(workload, planted, out / "planted", wl)
        check("audit_1d unit fails its gate with a planted wrong reference", not res.ok,
              "; ".join(res.problems))
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for name in wl.WORKLOADS:
        seed_in = wl.input_seed(7)
        stored = reference[name][str(seed_in)]
        rtol = wl.REF_RTOL[name]
        exact = wl.check_reference(name, seed_in, dict(stored), reference)
        check(f"{name}: stored values pass", not exact, "; ".join(exact))
        jitter = {k: v * (1.0 + REORDER[name]) for k, v in stored.items()}
        admitted = wl.check_reference(name, seed_in, jitter, reference)
        check(f"{name}: {REORDER[name]:g} relative perturbation passes", not admitted,
              "; ".join(admitted))
        for key in stored:
            planted = copy.deepcopy(reference)
            planted[name][str(seed_in)][key] *= 1.0 + 10.0 * rtol
            tripped = wl.check_reference(name, seed_in, dict(stored), planted)
            check(f"{name}: planted wrong {key} trips the gate", bool(tripped))

    tracer = tracing.Tracer(COUNTER)
    tracer.install_spans(targets=(("nsmlimit.harness", "renamed_away", "harness.gone"),))
    check("renamed span target is reported missing",
          tracer.missing == ["nsmlimit.harness.renamed_away"], str(tracer.missing))

    tracer.active = True
    error = run.probe_read_back(wl.Paired3D(7), ROOT / ".bench_out" / "selftest-empty", tracer)
    check("read-back probe without a snapshot file is reported, not raised",
          error is not None, str(error))
    with tracer.span("probe"):
        np.fft.ifftn(np.fft.fftn(np.zeros((3, 64, 1, 1)), axes=(-3,)), axes=(-3,))
        np.fft.fftn(np.zeros((3, 8, 8, 8)), axes=(-3, -2, -1))
    tracer.active = False
    counts = tracer.fft_incl["probe"]
    check("FFT counter: 3 calls, 9 scalar transforms", counts[:2] == [3, 9], str(counts[:2]))

    failed = results.count(False)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
