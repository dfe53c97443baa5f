"""Run configuration, paired full/limit runs, kappa sweeps and persistence.

A run marches one member set (``integrator.march``): the limit system,
which does not depend on kappa and is the scaled system without current
and fields, first, then the scaled system at each kappa of the run.  So a
paired step is one ``step_full`` call, and the set's one operator serves
both systems.  Each recorded step gives every member a snapshot, and after
the march each member's snapshots get their EnergyLedger rows.
``run_single`` with a tuple of kappas runs them as one batch, with one
limit for all; each member's records are bit for bit those of its own run.
A sweep is one such batch, and fits the log-log rate of sup_t sqrt(Gamma)
against kappa.

``run_single`` calls ``step_full``, ``build_stiff_operator``,
``make_energy_ledger``, ``make_limit_data``, ``make_well_prepared`` and
``hypothesis_certificate`` through this module's names, and ``run_sweep``
goes through ``run_single``: perfbench wraps these names for its spans and
times set-up by swapping ``harness.step_full`` for a one-shot probe.

Outputs per run (written atomically):
  <tag>.csv            ledger rows, fixed header, 17-significant-digit floats
  <tag>.json           record without timings (byte-reproducible)
  <tag>_snapshots.npz  stored states for the energy-identity audit, and the
                       run's config text under ``config`` when it has one
                       (``load_snapshot_config``)
  <tag>.time.txt       wall-clock timing (kept out of the reproducible files);
                       a batch member's is the whole batch's, and the file
                       then says so and adds ``batch_members = K``
Sweep summary: sweep_summary.json with
  {kappa, sup_error, slope, intercept, r2, config_hash}.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import time as _time
import warnings
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .diagnostics import LEDGER_COLUMNS, _check_ledger_densities, bound_monitor, make_energy_ledger
from .diagnostics import _LEDGER_STACK_BUDGET, _ledger_stack_bytes
from .errors import ConfigError, VacuumError
from .initdata import (WellPreparedSpec, _perturbations, hypothesis_certificate, make_limit_data,
                       make_well_prepared)
from .integrator import StepControl, build_stiff_operator, march, step_full
from .model import FullState, LimitState, Params, PressureLaw, _drop, _join, _stacked, _state_view
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
    "load_snapshot_config",
    "SLOPE_RANGE",
    "R2_MIN",
    "REFORM_TOL",
]

SLOPE_RANGE = (0.8, 1.3)
R2_MIN = 0.98
REFORM_TOL = 1e-9


def _require_finite(section: str, **values) -> None:
    """ConfigError for a non-finite number, named by its config key."""
    for key, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{section}.{key} must be finite, got {value!r}")


@dataclass(frozen=True)
class InitialSpec:
    seed: int = 7
    base_amplitude: float = 0.1
    velocity_amplitude: float | None = None
    c0: float = 1.0
    max_wavenumber: float = 4.0
    well_prepared: bool = True

    def __post_init__(self):
        _require_finite("initial", base_amplitude=self.base_amplitude,
                        velocity_amplitude=self.velocity_amplitude, c0=self.c0,
                        max_wavenumber=self.max_wavenumber)
        if not 0.0 <= self.base_amplitude < 1.0:
            raise ConfigError(f"initial.base_amplitude must lie in [0, 1), got {self.base_amplitude!r}")
        for key, value in (("velocity_amplitude", self.velocity_amplitude), ("c0", self.c0)):
            if value is not None and value < 0.0:
                raise ConfigError(f"initial.{key} must be nonnegative, got {value!r}")


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
        _require_finite("diagnostics", l=self.l)
        if self.l < 0.0:
            raise ConfigError(f"diagnostics.l must be nonnegative, got {self.l!r}")
        stack = _ledger_stack_bytes(self.grid, self.l)
        if stack > _LEDGER_STACK_BUDGET:
            raise ConfigError(f"diagnostics.l = {self.l!r} needs a {stack / 2**20:.0f} MiB ledger derivative "
                              f"stack on this grid, above the {_LEDGER_STACK_BUDGET // 2**20} MiB budget")
        k_min = 2.0 * math.pi / self.grid.period  # the lowest nonzero wavenumber
        if self.initial.max_wavenumber < k_min:
            raise ConfigError(f"initial.max_wavenumber must be at least 2 pi/period = {k_min:g}, "
                              f"got {self.initial.max_wavenumber!r}")
        # the stepper holds the 2/3-rule box alone (spectral, "Conventions"):
        # data modes above it would be dropped by the first step
        k_cut = 2.0 / 3.0 * self.grid.nyquist_wavenumber
        if self.initial.max_wavenumber > k_cut:
            raise ConfigError(f"initial.max_wavenumber must be at most the 2/3-rule cutoff "
                              f"(2/3) pi points/period = {k_cut:g}, got {self.initial.max_wavenumber!r}")
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
# config file format: flat INI sections mirroring the dataclasses.  A file
# is read over default_config_text(), the one source of defaults, so every
# key it leaves out keeps its default.  Unknown sections or keys are errors;
# a value is converted by its type here, a bool by configparser's getboolean.

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


# sections whose numbers the dataclasses they fill check for finiteness
_CHECKED_BY_DATACLASS = ("initial", "diagnostics")


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


def parse_config_text(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(default_config_text())
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
                values[section][key] = cp.getboolean(section, key) if typ is bool else typ(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
            if typ is float and section not in _CHECKED_BY_DATACLASS:
                _require_finite(section, **{key: values[section][key]})

    physics, stepping, diagnostics = values["params"], values["step"], values["diagnostics"]
    try:
        grid = Grid(**values["grid"])
        pressure = PressureLaw(amplitude=physics.pop("pressure_amplitude"), gamma=physics.pop("pressure_gamma"))
        params = Params(lam=physics.pop("lambda"), pressure=pressure, **physics)
        # [step] cfl and mode are kept for old configs; the step is always fixed
        if not 0.0 < stepping["cfl"] <= 1.0:
            raise ConfigError("cfl must lie in (0, 1]")
        if stepping["mode"] != "fixed_dt":
            raise ConfigError("mode must be 'fixed_dt', the only stepping mode")
        step = StepControl(dt=stepping["dt"], t_end=stepping["t_end"])
        initial = InitialSpec(**values["initial"])
        kappa_list = tuple(float(tok) for tok in values["sweep"]["kappa_list"].replace(",", " ").split())
        return RunConfig(
            grid=grid,
            params=params,
            step=step,
            initial=initial,
            kappa_list=kappa_list,
            l=diagnostics["l"],
            out_dir=values["output"]["directory"],
            snapshot_stride=diagnostics["snapshot_stride"],
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
):
    """March the paired full/limit systems (``integrator.march``),
    collecting snapshots every ``snapshot_stride`` steps and at the last.

    ``kappa`` is one value (default: the config's), returning one
    RunRecord, or a tuple of values, a batch run together, returning their
    RunRecords in order.  A record views the stack its step returned and
    runs the ledger's density checks.  After the march, each member's
    ledger rows are one ``make_energy_ledger`` call on its snapshots.  A
    member that blows up, hits vacuum or fails a record's density check
    gets its own status, message and step count and leaves the set.  A
    failure of the limit ends every member with the limit's message and
    step count; a member that fails the same check is reported first, with
    its own.  Every member's ``wall_seconds`` is the batch's, and
    ``batch_members`` says how many ran.  A record is tagged
    ``run_kappa<kappa>``.  Initial data with a nonpositive density raise
    ConfigError, naming the member's kappa and min n, before any step."""
    batch = isinstance(kappa, tuple)
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
    records, stacks, masses, n_means = [], [_stacked(limit)], [], []
    perturbations = None  # the members' unit perturbations: their specs differ in kappa alone
    for p in params:
        spec = WellPreparedSpec.from_seed(
            limit, seed=ini.seed, c0=ini.c0, kappa=p.kappa, l=cfg.l,
            max_wavenumber=ini.max_wavenumber, well_prepared=ini.well_prepared,
        )
        if perturbations is None:
            perturbations = _perturbations(spec)
        try:
            full = make_well_prepared(spec, perturbations)
        except VacuumError as exc:  # inadmissible data: a config error, before anything is written
            raise ConfigError(f"initial data at kappa = {p.kappa:g}: {exc}") from None
        records.append(RunRecord(
            kappa=p.kappa, status="completed", message="", n_steps=0, dt=dt,
            t_end=cfg.step.t_end, l=cfg.l, rows=[], snapshots=[],
            certificates=hypothesis_certificate(full, limit, p.kappa, ini.c0, cfg.l),
            config_text=cfg.config_text, wall_seconds=0.0,
            tag=f"run_kappa{p.kappa:g}",
            batch_members=len(params),
        ))
        stacks.append(_stacked(full))
        masses.append(grid_integral(grid, full.n.values))
        n_means.append(full.n.mean)
    live = list(range(len(params)))  # members still stepping, in stack order after the limit
    limit_mean = limit.n.mean
    x = _join(stacks)
    del stacks, perturbations, full, limit, spec  # x holds their rows

    def end(k, exc, steps):
        records[k].status, records[k].message, records[k].n_steps = exc.status, str(exc), steps

    def build():
        return build_stiff_operator(grid, cfg.params, dt, [kappas[k] for k in live],
                                    [n_means[k] for k in live], limit_mean)

    def record(i, y):
        """A snapshot of every live member, as views of the stack.  The
        ledger's density checks run here, so a member leaves at the step they
        fail."""
        t = i * dt
        limit = _state_view(grid, y)
        for pos in reversed(range(1, len(live) + 1)):  # backwards, so a drop keeps the positions before
            full = _state_view(grid, y, pos)
            try:
                _check_ledger_densities((t,), full.n.values[None], limit.n.values[None])
            except VacuumError as exc:
                end(live.pop(pos - 1), exc, i)
                y = _drop(y, pos)
            else:
                records[live[pos - 1]].snapshots.append((t, full, limit))
        return y if live else None

    def leave(i, exc):
        """The member at stack position ``exc.member`` leaves; a failure of
        the limit (position 0) ends every member."""
        for k in [live[exc.member - 1]] if exc.member else live[:]:
            live.remove(k)
            end(k, exc, i)
        return bool(live)

    start = _time.perf_counter()
    # step_full is looked up per step: perfbench swaps it for a one-shot probe
    steps = march(x, build, cfg.step.n_steps, dt, cfg.snapshot_stride, record, leave,
                  step=lambda *a, **k: step_full(*a, **k))
    for k in live:
        records[k].n_steps = steps
    for rec, p, mass0 in zip(records, params, masses):
        if rec.snapshots:
            rec.rows = make_energy_ledger(*zip(*rec.snapshots), p, cfg.l, mass0)
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


def _snapshot_arrays(rec: RunRecord):
    """The snapshots file's (key, array) entries in ``np.savez``'s order, each
    field's stack built only when the entry is reached."""
    snaps = rec.snapshots
    grid = snaps[0][1].grid
    yield "t", np.array([t for t, _, _ in snaps])
    for name in ("n", "u", "jt", "E", "B"):
        yield f"full_{name}", np.stack([getattr(f, name).values for _, f, _ in snaps])
    for name in ("n", "u"):
        yield f"limit_{name}", np.stack([getattr(lm, name).values for _, _, lm in snaps])
    yield "grid_meta", np.array([grid.dims_active, grid.points_per_dim, grid.period])
    yield "kappa", np.array([rec.kappa])
    if rec.config_text:
        yield "config", np.array(rec.config_text)


def _write_snapshots(path: Path, rec: RunRecord) -> None:
    """The snapshots file, streamed entry by entry into its ``.tmp`` file with
    the calls ``np.savez`` makes, then moved into place.  It holds the bytes
    ``np.savez`` writes, while memory holds about one field's stack and its
    bytes at a time, not every stack and the whole file.  A write that fails
    removes the ``.tmp`` file and leaves ``path`` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with zipfile.ZipFile(tmp, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
            for key, array in _snapshot_arrays(rec):
                with zf.open(key + ".npy", "w", force_zip64=True) as fid:
                    np.lib.format.write_array(fid, array)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


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
        _write_snapshots(paths["npz"], rec)
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


def load_snapshot_config(path: str | Path) -> str | None:
    """The config text of the run that wrote a snapshots file, or None for
    a file that stores none.  A file that cannot be read raises
    ConfigError."""
    try:
        with np.load(path) as data:
            return str(data["config"]) if "config" in data.files else None
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
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
    summary: dict | None  # None when fewer than 3 members completed
    rows: list  # SweepRows in kappa_list order
    records: list  # RunRecords in kappa_list order
    failed: list
    paths: dict


def run_sweep(cfg: RunConfig, out_dir: str | Path | None = None) -> SweepResult:
    """Run the kappa list as one batch (``run_single`` with a tuple of
    kappas), write every member's record, then fit the rate.

    With fewer than 3 completed members there is no fit: ``summary`` is
    None and no sweep_summary.json is written."""
    if len(cfg.kappa_list) < 3:
        raise ConfigError("sweep needs at least 3 kappa values")
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
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
    paths = {"out_dir": out}
    if len(survivors) < 3:
        return SweepResult(summary=None, rows=rows, records=records, failed=failed, paths=paths)

    sup_errors = [e for _, e in survivors]
    if any(b > a * (1.0 + 1e-12) for a, b in zip(sup_errors, sup_errors[1:])):
        warnings.warn(
            "sup_t sqrt(Gamma) is not monotone nonincreasing along the kappa sweep"
        )
    summary = summarize_sweep([k for k, _ in survivors], sup_errors, cfg.config_hash)
    paths["summary"] = out / "sweep_summary.json"
    _atomic_write_text(paths["summary"], json.dumps(summary, indent=2) + "\n")
    return SweepResult(summary=summary, rows=rows, records=records, failed=failed, paths=paths)
