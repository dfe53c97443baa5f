"""The three benchmark workloads and their correctness gates.

Each workload has a *unit*: the user-facing entry calls, timed as a whole.
A unit returns the observables that the gate compares with the recorded
reference values.  Set-up time is taken inside the unit (see
``tracing.SetupTimer``).

Import this module only after ``nsmlimit`` is importable (``run.py`` puts the
checkout's ``src`` first on ``sys.path``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from nsmlimit import cli, diagnostics, harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"

# Reference values exist for input seeds 0 .. N_INPUT_SEEDS-1; the benchmark
# seed selects one of them, so every run is checked against a stored value.
N_INPUT_SEEDS = 16
# Relative tolerance of the reference comparison, per workload.  Swapping the
# numpy transforms for scipy's (same maths, reordered rounding) moved the
# sweep's sup_error by <= 1e-13 relative and the audit's max_residual, a
# normalised difference of nearly equal terms, by 4e-6.  The tolerances
# leave a wide margin over that and still catch a change of the method.
REF_RTOL = {"sweep_1d": 1e-8, "paired_3d": 1e-8, "audit_1d": 1e-3}
CONSTRAINT_TOL = 1e-10


def input_seed(seed: int) -> int:
    return seed % N_INPUT_SEEDS


@dataclass
class UnitResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    problems: list = field(default_factory=list)
    observables: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def load_config(path: Path, seed: int):
    cfg = harness.parse_config(path)
    return replace(cfg, initial=replace(cfg.initial, seed=seed))


class Workload:
    name = ""
    config_path: Path
    reads_back = False  # whether the unit itself loads and audits snapshots

    def __init__(self, seed: int):
        self.input_seed = input_seed(seed)

    def config(self):
        return load_config(self.config_path, self.input_seed)

    def kappas(self, cfg) -> tuple:
        return (cfg.params.kappa,)

    def point_steps(self) -> int:
        """Grid points x paired steps of one unit."""
        cfg = self.config()
        steps = round(cfg.step.t_end / cfg.step.dt)
        return cfg.grid.npoints * steps * len(self.kappas(cfg))

    def run_unit(self, out_dir: Path) -> UnitResult:
        raise NotImplementedError

    def read_back(self, out_dir: Path) -> None:
        """Load and audit a snapshot file the unit wrote (``nsmlimit audit``).
        The traced run calls this after the unit so the read-back layers are
        measured on every workload; it is not part of the unit's wall time."""
        cfg = self.config()
        npz = sorted(out_dir.glob("*_snapshots.npz"))[0]
        kappa, snaps = harness.load_snapshots(npz)
        diagnostics.energy_identity_audit(snaps, replace(cfg.params, kappa=kappa))


class Sweep1D(Workload):
    """``nsmlimit sweep`` on the acceptance configuration (headline rate study)."""

    name = "sweep_1d"
    config_path = ROOT / "configs" / "acceptance.ini"

    def kappas(self, cfg) -> tuple:
        return cfg.kappa_list

    def run_unit(self, out_dir: Path) -> UnitResult:
        res = UnitResult()
        argv = ["sweep", "--config", str(self.config_path), "--out", str(out_dir),
                "--jobs", "1", "--seed", str(self.input_seed)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = _timed(res, cli.main, argv)
        if rc != 0:
            res.problems.append(f"nsmlimit sweep exited {rc}")
        try:
            summary = json.loads((out_dir / "sweep_summary.json").read_text())
        except (OSError, ValueError) as exc:
            res.problems.append(f"no sweep summary: {exc}")
            return res
        for k, e in zip(summary["kappa"], summary["sup_error"]):
            res.observables[f"sup_error[{k:g}]"] = e
            # for many seeds the sup is attained at t = 0; the last ledger row
            # of each member checks the dynamics too
            try:
                res.observables[f"final_sqrt_gamma[{k:g}]"] = _final_sqrt_gamma(
                    out_dir / f"run_kappa{k:g}.csv")
            except (OSError, ValueError, KeyError) as exc:
                res.problems.append(f"no ledger for kappa {k:g}: {exc!r}")
        return res


class Paired3D(Workload):
    """One paired run plus its record on a 32^3 grid at kappa 0.1."""

    name = "paired_3d"
    config_path = HERE / "paired_3d.ini"

    def run_unit(self, out_dir: Path) -> UnitResult:
        res = UnitResult()
        cfg = self.config()

        def entry():
            rec = harness.run_single(cfg)
            harness.write_record(rec, out_dir)
            return rec

        rec = _timed(res, entry)
        if rec.status != "completed":
            res.problems.append(f"run status {rec.status}: {rec.message}")
        for col in ("divE", "divB", "mass_err"):
            worst = max(getattr(r, col) for r in rec.rows)
            if not worst <= CONSTRAINT_TOL:
                res.problems.append(f"{col} = {worst:.3e} > {CONSTRAINT_TOL:g}")
        res.observables = {
            "sup_sqrt_gamma": rec.sup_sqrt_gamma(),
            # sup is attained at t = 0; the last row checks the dynamics too
            "final_sqrt_gamma": math.sqrt(rec.rows[-1].gamma),
        }
        return res


class Audit1D(Workload):
    """``nsmlimit run`` with a snapshot every step, then ``nsmlimit audit``
    on the written file, through the same public calls the CLI makes."""

    name = "audit_1d"
    config_path = HERE / "audit_1d.ini"
    reads_back = True

    def run_unit(self, out_dir: Path) -> UnitResult:
        res = UnitResult()
        cfg = self.config()

        def entry():
            rec = harness.run_single(cfg)
            paths = harness.write_record(rec, out_dir)
            kappa, snaps = harness.load_snapshots(paths["npz"])
            report = diagnostics.energy_identity_audit(snaps, replace(cfg.params, kappa=kappa))
            return rec, snaps, report

        rec, snaps, report = _timed(res, entry)
        if rec.status != "completed":
            res.problems.append(f"run status {rec.status}: {rec.message}")
        res.problems.extend(_compare_snapshots(rec.snapshots, snaps))
        res.observables = {"max_residual": report.max_residual}
        return res


WORKLOADS = {w.name: w for w in (Sweep1D, Paired3D, Audit1D)}


def _timed(res: UnitResult, fn, *args):
    c0, t0 = time.process_time(), time.perf_counter()
    out = fn(*args)
    res.wall_s = time.perf_counter() - t0
    res.cpu_s = time.process_time() - c0
    return out


def _final_sqrt_gamma(csv_path: Path) -> float:
    """sqrt(gamma) of the last row of a ledger CSV written by write_record."""
    lines = csv_path.read_text().splitlines()
    col = lines[0].split(",").index("gamma")
    return math.sqrt(float(lines[-1].split(",")[col]))


def _compare_snapshots(written, loaded) -> list:
    if len(written) != len(loaded):
        return [f"{len(loaded)} snapshots read back, {len(written)} written"]
    for i, ((t0, f0, l0), (t1, f1, l1)) in enumerate(zip(written, loaded)):
        pairs = [(t0, t1), (f0.n.values, f1.n.values), (f0.u.values, f1.u.values),
                 (f0.jt.values, f1.jt.values), (f0.E.values, f1.E.values),
                 (f0.B.values, f1.B.values), (l0.n.values, l1.n.values),
                 (l0.u.values, l1.u.values)]
        if not all(np.array_equal(a, b) for a, b in pairs):
            return [f"snapshot {i} read back differs from the one written"]
    return []


# ---------------------------------------------------------------------------
# reference values


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text())


def check_reference(workload: str, seed_in: int, observables: dict, reference: dict) -> list:
    """Problems found comparing observables with the recorded values."""
    rtol = REF_RTOL[workload]
    expected = reference.get(workload, {}).get(str(seed_in))
    if expected is None:
        return [f"no reference value for {workload} at input seed {seed_in}"]
    problems = []
    for key, ref in expected.items():
        got = observables.get(key)
        if got is None:
            problems.append(f"{key} missing from outputs")
        elif not (math.isfinite(got) and abs(got - ref) <= rtol * abs(ref)):
            problems.append(f"{key} = {got!r}, reference {ref!r} (rtol {rtol:g})")
    return problems
