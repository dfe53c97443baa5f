"""Run configuration, paired full/limit runs, kappa sweeps and persistence.

A run evolves the scaled system and its limit on the same grid and step,
recording an EnergyLedger row every ``snapshot_stride`` steps.  A sweep runs
a decreasing kappa list and fits the log-log rate of sup_t sqrt(Gamma)
against kappa.

A run steps one stacked array per system and builds states only where it
records.  ``run_single`` with a tuple of kappas runs them as one batch: the
full systems of all members are one stack (one ``step_full`` call per
step), and the limit system, which does not depend on kappa, is built,
stepped and recorded once for all of them.  Each member's records are
bit for bit those of its own run.  A member that blows up or hits vacuum
gets its own status, message and step count and leaves the batch; the
others redo that step without it.  A sweep is one such batch.

``run_single`` calls ``step_full``, ``step_limit``, ``build_stiff_operator``,
``make_energy_ledger``, ``make_limit_data``, ``make_well_prepared`` and
``hypothesis_certificate`` through this module's names, and ``run_sweep``
goes through ``run_single``: perfbench wraps these names for its spans and
times set-up by swapping ``harness.step_full`` for a one-shot probe.

Outputs per run (written atomically):
  <tag>.csv            ledger rows, fixed header, 17-significant-digit floats
  <tag>.json           record without timings (byte-reproducible)
  <tag>_snapshots.npz  stored states for the energy-identity audit
  <tag>.time.txt       wall-clock timing (kept out of the reproducible files);
                       a batch member's is the whole batch's, and the file
                       then says so and adds ``batch_members = K``
Sweep summary: sweep_summary.json with
  {kappa, sup_error, slope, intercept, r2, config_hash}.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import math
import os
import time as _time
import warnings
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .diagnostics import (
    LEDGER_COLUMNS,
    bound_monitor,
    make_energy_ledger,
)
from .errors import BlowUpError, ConfigError, VacuumError
from .initdata import WellPreparedSpec, hypothesis_certificate, make_limit_data, make_well_prepared
from .integrator import StepControl, build_stiff_operator, step_full, step_limit, _n_fixed_steps
from .model import FullState, LimitState, Params, PressureLaw, _stacked, _state_view
from .spectral import Grid, ScalarField, VectorField, grid_integral

__all__ = [
    "RunConfig",
    "InitialSpec",
    "RunRecord",
    "parse_config",
    "parse_config_text",
    "default_config_text",
    "run_single",
    "run_sweep",
    "SweepResult",
    "SweepRow",
    "fit_rate",
    "RateFit",
    "summarize_sweep",
    "write_record",
    "load_snapshots",
    "SLOPE_RANGE",
    "R2_MIN",
    "REFORM_TOL",
]

SLOPE_RANGE = (0.8, 1.3)
R2_MIN = 0.98
REFORM_TOL = 1e-9


@dataclass(frozen=True)
class InitialSpec:
    seed: int = 7
    base_amplitude: float = 0.1
    velocity_amplitude: float | None = None
    c0: float = 1.0
    max_wavenumber: float = 4.0
    well_prepared: bool = True


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    params: Params
    step: StepControl
    initial: InitialSpec
    kappa_list: tuple[float, ...]
    l: float = 4.0
    out_dir: str = "out"
    snapshot_stride: int = 25
    config_text: str = ""

    def __post_init__(self):
        ks = self.kappa_list
        if any(k2 >= k1 for k1, k2 in zip(ks, ks[1:])):
            raise ConfigError("kappa_list must be strictly decreasing")
        if any(not (0.0 < k <= 1.0) for k in ks):
            raise ConfigError("kappa values must lie in (0, 1]")
        if self.snapshot_stride < 1:
            raise ConfigError("snapshot_stride must be >= 1")

    @property
    def config_hash(self) -> str:
        return _text_hash(self.config_text)


def _text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# config file format: flat INI sections mirroring the dataclasses;
# unknown sections or keys are errors.

_SCHEMA = {
    "grid": {"dims_active": int, "points_per_dim": int, "period": float},
    "params": {
        "kappa": float, "epsilon": float, "mu": float, "lambda": float,
        "tau": float, "eta": float, "kappa_ei": float, "k_rate": float,
        "pressure_amplitude": float, "pressure_gamma": float,
    },
    "step": {"dt": float, "t_end": float, "cfl": float, "mode": str},
    "initial": {
        "seed": int, "base_amplitude": float, "velocity_amplitude": float,
        "c0": float, "max_wavenumber": float, "well_prepared": bool,
    },
    "sweep": {"kappa_list": str},
    "diagnostics": {"l": float, "snapshot_stride": int},
    "output": {"directory": str},
}


def default_config_text() -> str:
    return """\
[grid]
dims_active = 1
points_per_dim = 64
period = 6.283185307179586

[params]
kappa = 0.1
epsilon = 0.1
mu = 0.1
lambda = 0.0
tau = 1.0
eta = 1.0
kappa_ei = 1.0
k_rate = 1.0
pressure_amplitude = 1.0
pressure_gamma = 1.6666666666666667

[step]
dt = 2e-4
t_end = 0.1
cfl = 0.5
mode = fixed_dt

[initial]
seed = 7
base_amplitude = 0.1
c0 = 1.0
max_wavenumber = 4
well_prepared = true

[sweep]
kappa_list = 0.4, 0.2, 0.1, 0.05

[diagnostics]
l = 4
snapshot_stride = 25

[output]
directory = out
"""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}")


def parse_config_text(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc

    values: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        values[section] = {}
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            typ = _SCHEMA[section][key]
            try:
                if typ is bool:
                    values[section][key] = _parse_bool(raw)
                else:
                    values[section][key] = typ(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc

    def get(section, key, default):
        return values.get(section, {}).get(key, default)

    try:
        grid = Grid(
            dims_active=get("grid", "dims_active", 1),
            points_per_dim=get("grid", "points_per_dim", 64),
            period=get("grid", "period", 2.0 * math.pi),
        )
        params = Params(
            kappa=get("params", "kappa", 0.1),
            epsilon=get("params", "epsilon", 0.1),
            mu=get("params", "mu", 0.1),
            lam=get("params", "lambda", 0.0),
            tau=get("params", "tau", 1.0),
            eta=get("params", "eta", 1.0),
            kappa_ei=get("params", "kappa_ei", 1.0),
            k_rate=get("params", "k_rate", 1.0),
            pressure=PressureLaw(
                amplitude=get("params", "pressure_amplitude", 1.0),
                gamma=get("params", "pressure_gamma", 5.0 / 3.0),
            ),
        )
        step = StepControl(
            dt=get("step", "dt", 2e-4),
            t_end=get("step", "t_end", 0.1),
            cfl=get("step", "cfl", 0.5),
            mode=get("step", "mode", "fixed_dt"),
        )
        initial = InitialSpec(
            seed=get("initial", "seed", 7),
            base_amplitude=get("initial", "base_amplitude", 0.1),
            velocity_amplitude=get("initial", "velocity_amplitude", None),
            c0=get("initial", "c0", 1.0),
            max_wavenumber=get("initial", "max_wavenumber", 4.0),
            well_prepared=get("initial", "well_prepared", True),
        )
        raw_list = get("sweep", "kappa_list", "0.4, 0.2, 0.1, 0.05")
        kappa_list = tuple(float(tok) for tok in raw_list.replace(",", " ").split())
        return RunConfig(
            grid=grid,
            params=params,
            step=step,
            initial=initial,
            kappa_list=kappa_list,
            l=get("diagnostics", "l", 4.0),
            out_dir=get("output", "directory", "out"),
            snapshot_stride=get("diagnostics", "snapshot_stride", 25),
            config_text=text,
        )
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# run records


@dataclass
class RunRecord:
    kappa: float
    status: str
    message: str
    n_steps: int
    dt: float
    t_end: float
    l: float
    rows: list
    certificates: dict
    config_text: str
    wall_seconds: float
    snapshots: list  # [(t, FullState, LimitState)]
    tag: str
    batch_members: int = 1  # members stepped together; they share wall_seconds

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.rows])

    def gammas(self) -> np.ndarray:
        return np.array([r.gamma for r in self.rows])

    def sup_gamma(self) -> float:
        return float(self.gammas().max())

    def sup_sqrt_gamma(self) -> float:
        return math.sqrt(self.sup_gamma())


def run_single(
    cfg: RunConfig,
    kappa: float | tuple[float, ...] | None = None,
    tag: str | None = None,
):
    """Evolve the paired full/limit systems, collecting ledger rows and
    snapshots at the configured stride.

    ``kappa`` is one value (default: the config's), returning one
    RunRecord, or a tuple of values, returning their RunRecords in order.
    A tuple is a batch run together.  The run holds one stack of the
    members' physical rows (n, u, j~, E, B), (K, 13, *shape), or (13,
    *shape) for a lone member, and one (4, *shape) stack of the limit
    system, which does not depend on kappa and is made once; every step is
    one ``step_full`` and one ``step_limit`` call.  A record builds
    FullState/LimitState views of the current stacks (the steppers return
    new ones, so a snapshot is never overwritten).  A member's records are
    bit for bit those of its own run.  A member that blows up or hits
    vacuum gets its own status, message and step count and leaves the
    stack; the others redo that step.  Every member's ``wall_seconds`` is
    the batch's, and ``batch_members`` says how many ran.  ``tag`` names a
    single run; batch members are tagged by kappa.

    This is the only loop that steps both systems (``integrator.evolve``
    marches one).  It calls the solver through this module's names on
    every step (see the module docstring): perfbench wraps them there, and
    times set-up from entry to the first ``harness.step_full`` call."""
    if cfg.step.mode != "fixed_dt":
        raise ConfigError("paired runs use fixed_dt stepping; adaptive mode is for exploratory evolve() calls")
    batch = isinstance(kappa, tuple)
    if batch and tag is not None:
        raise ConfigError("tag names a single run; batch members are tagged by kappa")
    kappas = kappa if batch else (cfg.params.kappa if kappa is None else kappa,)
    try:
        params = tuple(replace(cfg.params, kappa=k) for k in kappas)
    except ValueError as exc:  # a kappa override outside (0, 1]
        raise ConfigError(str(exc)) from None
    grid = cfg.grid
    ini = cfg.initial
    dt = cfg.step.dt

    limit = make_limit_data(
        grid, seed=ini.seed, amplitude=ini.base_amplitude,
        velocity_amplitude=ini.velocity_amplitude,
        max_wavenumber=ini.max_wavenumber,
    )
    records, fulls, masses, n_means = [], [], [], []
    for p in params:
        spec = WellPreparedSpec.from_seed(
            limit, seed=ini.seed, c0=ini.c0, kappa=p.kappa, l=cfg.l,
            max_wavenumber=ini.max_wavenumber, well_prepared=ini.well_prepared,
        )
        full = make_well_prepared(spec)
        records.append(RunRecord(
            kappa=p.kappa, status="completed", message="", n_steps=0, dt=dt,
            t_end=cfg.step.t_end, l=cfg.l, rows=[], snapshots=[],
            certificates=hypothesis_certificate(full, limit, p.kappa, ini.c0, cfg.l),
            config_text=cfg.config_text, wall_seconds=0.0,
            tag=tag if tag is not None else f"run_kappa{p.kappa:g}",
            batch_members=len(params),
        ))
        fulls.append(_stacked(full))
        masses.append(grid_integral(grid, full.n.values))
        n_means.append(full.n.mean)
    live = list(range(len(params)))  # members still stepping, in stack order
    x_full = np.stack(fulls) if len(live) > 1 else fulls[0]
    x_limit = _stacked(limit)
    steps_done, op_full = 0, None

    def leave(i, exc):
        """The member at stack position i fails and leaves the stack; the
        others get a new operator."""
        nonlocal x_full, op_full
        k = live.pop(i)
        records[k].status = "blowup" if isinstance(exc, BlowUpError) else "vacuum"
        records[k].message = str(exc)
        records[k].n_steps = steps_done
        if live:
            rest = np.delete(x_full, i, axis=0)
            x_full = rest if len(live) > 1 else rest[0]
        op_full = None

    def record(t):
        """A ledger row and a snapshot of every live member, as views of the stacks."""
        limit = _state_view(grid, x_limit)
        for i in reversed(range(len(live))):  # backwards, so leave() keeps the positions before i
            k = live[i]
            full = _state_view(grid, x_full if len(live) == 1 else x_full[i])
            try:
                records[k].rows.append(make_energy_ledger(t, full, limit, params[k], cfg.l, masses[k]))
            except VacuumError as exc:  # from the ledger's own density checks
                leave(i, exc)
            else:
                records[k].snapshots.append((t, full, limit))

    start = _time.perf_counter()
    record(0.0)
    n_steps = _n_fixed_steps(cfg.step)
    op_limit = build_stiff_operator(grid, params[0], limit.n.mean, dt) if n_steps else None
    while steps_done < n_steps and live:
        t = steps_done * dt
        if op_full is None:
            members, means = zip(*[(params[k], n_means[k]) for k in live])
            if len(live) == 1:
                members, means = members[0], means[0]
            op_full = build_stiff_operator(grid, members, means, dt)
        try:
            stepped = step_full(grid, x_full, members, cfg.step, op=op_full, t=t)
        except (BlowUpError, VacuumError) as exc:
            leave(exc.member, exc)  # the others redo this step
            continue
        try:
            x_limit = step_limit(grid, x_limit, params[0], cfg.step, op=op_limit, t=t)
        except (BlowUpError, VacuumError) as exc:
            while live:
                leave(0, exc)
            break
        x_full = stepped
        steps_done += 1
        if steps_done % cfg.snapshot_stride == 0:
            record(steps_done * dt)
    for k in live:
        records[k].n_steps = steps_done
    wall = _time.perf_counter() - start
    for rec in records:
        rec.wall_seconds = wall
    return records if batch else records[0]


# ---------------------------------------------------------------------------
# persistence


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _csv_text(rows) -> str:
    lines = [",".join(LEDGER_COLUMNS)]
    for r in rows:
        lines.append(",".join(f"{x:.17g}" for x in r.as_tuple()))
    return "\n".join(lines) + "\n"


def record_json_dict(rec: RunRecord) -> dict:
    """JSON payload; timings deliberately excluded so reruns are byte-identical."""
    times = rec.times()
    gams = rec.gammas()
    bound = bound_monitor(times, gams, rec.certificates.get("budget", 1.0), rec.kappa)
    return {
        "kappa": rec.kappa,
        "status": rec.status,
        "message": rec.message,
        "n_steps": rec.n_steps,
        "dt": rec.dt,
        "t_end": rec.t_end,
        "l": rec.l,
        "certificates": rec.certificates,
        "sup_gamma": rec.sup_gamma(),
        "sup_sqrt_gamma": rec.sup_sqrt_gamma(),
        "sup_gamma_over_kappa2": bound.sup_ratio,
        "bound_envelope": bound.c_envelope,
        "bound_growth_rate": bound.growth_rate,
        "config_hash": _text_hash(rec.config_text),
        "config": rec.config_text,
    }


def write_record(rec: RunRecord, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": out / f"{rec.tag}.csv",
        "json": out / f"{rec.tag}.json",
        "npz": out / f"{rec.tag}_snapshots.npz",
        "time": out / f"{rec.tag}.time.txt",
    }
    _atomic_write_text(paths["csv"], _csv_text(rec.rows))
    _atomic_write_text(
        paths["json"], json.dumps(record_json_dict(rec), indent=2) + "\n"
    )
    if rec.snapshots:
        grid = rec.snapshots[0][1].grid
        arrays = {
            "t": np.array([t for t, _, _ in rec.snapshots]),
            "full_n": np.stack([f.n.values for _, f, _ in rec.snapshots]),
            "full_u": np.stack([f.u.values for _, f, _ in rec.snapshots]),
            "full_jt": np.stack([f.jt.values for _, f, _ in rec.snapshots]),
            "full_E": np.stack([f.E.values for _, f, _ in rec.snapshots]),
            "full_B": np.stack([f.B.values for _, f, _ in rec.snapshots]),
            "limit_n": np.stack([lm.n.values for _, _, lm in rec.snapshots]),
            "limit_u": np.stack([lm.u.values for _, _, lm in rec.snapshots]),
            "grid_meta": np.array(
                [grid.dims_active, grid.points_per_dim, grid.period]
            ),
            "kappa": np.array([rec.kappa]),
        }
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        _atomic_write_bytes(paths["npz"], buf.getvalue())
    timing = f"wall_seconds = {rec.wall_seconds:.6f}\n"
    if rec.batch_members > 1:
        timing += ("# wall_seconds is the wall time of the whole batch this run was stepped in\n"
                   f"batch_members = {rec.batch_members}\n")
    _atomic_write_text(paths["time"], timing)
    return paths


def load_snapshots(path: str | Path):
    """Rebuild (kappa, [(t, FullState, LimitState), ...]) from a snapshots file.

    Each stored array is read once; the snapshots' fields are views into it.
    A file that cannot be read, or does not hold such snapshots, raises
    ConfigError.
    """
    try:
        with np.load(path) as data:
            a = {key: data[key] for key in data.files}
        dims, pts, period = a["grid_meta"]
        grid = Grid(int(dims), int(pts), float(period))
        snaps = []
        for i, t in enumerate(a["t"]):
            full = FullState(
                ScalarField(grid, a["full_n"][i]),
                VectorField(grid, a["full_u"][i]),
                VectorField(grid, a["full_jt"][i]),
                VectorField(grid, a["full_E"][i]),
                VectorField(grid, a["full_B"][i]),
            )
            limit = LimitState(ScalarField(grid, a["limit_n"][i]), VectorField(grid, a["limit_u"][i]))
            snaps.append((float(t), full, limit))
        return float(a["kappa"][0]), snaps
    except (OSError, EOFError, KeyError, IndexError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read snapshots file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# rate fitting and sweeps


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float
    n_used: int
    excluded: tuple = ()


def fit_rate(pairs) -> RateFit:
    """Ordinary least squares of log(error) against log(kappa)."""
    kept = []
    excluded = []
    for kap, err in pairs:
        if err > 0.0 and np.isfinite(err):
            kept.append((kap, err))
        else:
            excluded.append((kap, err))
            warnings.warn(f"fit_rate: excluding nonpositive error at kappa={kap}")
    if len(kept) < 2:
        raise ValueError("need at least 2 positive (kappa, error) pairs")
    x = np.log([k for k, _ in kept])
    y = np.log([e for _, e in kept])
    A = np.stack([np.ones_like(x), x], axis=1)
    coeff, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_res = float(res[0]) if len(res) else float(((A @ coeff - y) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        slope=float(coeff[1]),
        intercept=float(coeff[0]),
        r2=float(r2),
        n_used=len(kept),
        excluded=tuple(excluded),
    )


def summarize_sweep(kappas, sup_errors, config_hash: str) -> dict:
    """Assemble the sweep summary (also used with injected synthetic errors)."""
    fit = fit_rate(zip(kappas, sup_errors))
    return {
        "kappa": list(kappas),
        "sup_error": list(sup_errors),
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r2,
        "config_hash": config_hash,
    }


@dataclass(frozen=True)
class SweepRow:
    """Per-kappa summary of a sweep member."""

    kappa: float
    sup_sqrt_gamma: float
    sup_gamma_over_kappa2: float
    envelope: float
    growth_rate: float
    status: str


@dataclass
class SweepResult:
    summary: dict
    rows: list  # SweepRows in kappa_list order
    records: list  # RunRecords in kappa_list order
    failed: list
    paths: dict


def run_sweep(cfg: RunConfig, out_dir: str | Path | None = None) -> SweepResult:
    """Run the kappa list as one batch (``run_single`` with a tuple of
    kappas), write every member's record, then fit the rate."""
    if len(cfg.kappa_list) < 3:
        raise ConfigError("sweep needs at least 3 kappa values")
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records = run_single(cfg, kappa=tuple(cfg.kappa_list))
    rows = []
    for rec in records:
        write_record(rec, out)
        bound = bound_monitor(rec.times(), rec.gammas(), rec.certificates.get("budget", 1.0), rec.kappa)
        rows.append(SweepRow(rec.kappa, rec.sup_sqrt_gamma(), bound.sup_ratio, bound.c_envelope,
                             bound.growth_rate, rec.status))

    survivors = [(r.kappa, r.sup_sqrt_gamma) for r in rows if r.status == "completed"]
    failed = [(r.kappa, r.status) for r in rows if r.status != "completed"]
    if failed:
        warnings.warn(f"sweep members failed: {failed}")
    if len(survivors) < 3:
        raise ConfigError("fewer than 3 sweep members completed; no rate fit")

    sup_errors = [e for _, e in survivors]
    if any(b > a * (1.0 + 1e-12) for a, b in zip(sup_errors, sup_errors[1:])):
        warnings.warn(
            "sup_t sqrt(Gamma) is not monotone nonincreasing along the kappa sweep"
        )
    summary = summarize_sweep([k for k, _ in survivors], sup_errors, cfg.config_hash)
    summary_path = out / "sweep_summary.json"
    _atomic_write_text(summary_path, json.dumps(summary, indent=2) + "\n")
    return SweepResult(
        summary=summary, rows=rows, records=records, failed=failed,
        paths={"summary": summary_path, "out_dir": out},
    )
