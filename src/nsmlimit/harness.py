"""Run configuration, paired full/limit runs, kappa sweeps and persistence.

A run marches one member set (``integrator.march``): the limit system,
which does not depend on kappa and is the scaled system without current
and fields, first, then the scaled system at each kappa of the run.  So a
paired step is one ``step_full`` call, and the set's one operator serves
both systems.  Each recorded step gives every member a snapshot.  A run
holds at most one ledger chunk of them (``diagnostics._chunk_size``) in
memory and appends each full chunk to an unnamed spill file in
``tempfile``'s directory, which its RunRecords own and which goes with
them (``_Snapshots``); the march frees every grid stack once its set is
on the box.  A member's records in a chunk are one stack, (count, rows,
*shape), from the march to the CSV: after the march each member's
snapshots get their EnergyLedger rows, one ``make_energy_ledger`` call
per chunk on its stack and the limit's, and no state is built on the
way.  So a run's memory does not grow with its snapshot count; its disk
use does.
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
import tempfile
import time as _time
import warnings
import zipfile
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .diagnostics import LEDGER_COLUMNS, _check_ledger_densities, bound_monitor, make_energy_ledger
from .diagnostics import _LEDGER_STACK_BUDGET, _chunk_size, _ledger_stack_bytes
from .errors import ConfigError, VacuumError
from .initdata import (WellPreparedSpec, _perturbations, hypothesis_certificate, make_limit_data,
                       make_well_prepared)
from .integrator import StepControl, build_stiff_operator, march, step_full
from .model import FullState, LimitState, Params, PressureLaw, _drop, _join, _layout, _stacked, _state_view
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
            raise ConfigError(f"sweep.kappa_list must be strictly decreasing, got {ks!r}")
        for k in ks:
            if not 0.0 < k <= 1.0:
                raise ConfigError(f"sweep.kappa_list values must lie in (0, 1], got {k!r}")
        if self.snapshot_stride < 1:
            raise ConfigError(f"diagnostics.snapshot_stride must be >= 1, got {self.snapshot_stride!r}")

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

# the config keys of the fields that Params and PressureLaw name otherwise
_CONFIG_KEYS = {"lam": "lambda", "pressure amplitude": "pressure_amplitude",
                "adiabatic exponent": "pressure_gamma"}


def _keyed(section: str, build: Callable):
    """``build()``, its ValueError, whose message names a field before
    " must ", turned into a ConfigError that names the config key
    ``section.key`` instead."""
    try:
        return build()
    except ValueError as exc:
        field, _, rest = str(exc).partition(" must ")
        raise ConfigError(f"{section}.{_CONFIG_KEYS.get(field, field)} must {rest}") from None


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
        grid = _keyed("grid", partial(Grid, **values["grid"]))
        pressure = _keyed("params", partial(PressureLaw, amplitude=physics.pop("pressure_amplitude"),
                                            gamma=physics.pop("pressure_gamma")))
        params = _keyed("params", partial(Params, lam=physics.pop("lambda"), pressure=pressure, **physics))
        # [step] cfl and mode are kept for old configs; the step is always fixed
        if not 0.0 < stepping["cfl"] <= 1.0:
            raise ConfigError(f"step.cfl must lie in (0, 1], got {stepping['cfl']!r}")
        if stepping["mode"] != "fixed_dt":
            raise ConfigError(f"step.mode must be 'fixed_dt', the only stepping mode, got {stepping['mode']!r}")
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


# (first row, rows) of n, u, j~, E and B in a member's own stack; the limit's are the first two
_FIELDS = ((0, 1), (1, 3), (4, 3), (7, 3), (10, 3))


class _Snapshots:
    """The snapshots of a run's member set, held a ledger chunk at a time.

    A record is the set's grid stack at a recorded step, as the step
    returned it, with the members it holds.  An owner is the limit (0) or
    member k (k + 1), and its records in a chunk are one block: the
    (count, rows, *shape) stack of its own stacks (``model._stacked``),
    with rows (n, u) of the limit and (n, u, j~, E, B) of a member.  The
    records of the open chunk stay in memory, and a block of it is
    gathered from their set stacks.  When ``diagnostics._chunk_size`` of
    them have come, the block of the limit and that of every member with
    records among them are appended to the spill file, written from the
    set stacks' row runs with plain writes, and the chunk is let go; a
    spilled block is read back with one ``readinto``.  So a run holds at
    most one chunk of records: 32 on the 64-point line, one on 16^3 and
    above.  The spill is made at the first full chunk, in ``tempfile``'s
    directory (``TMPDIR``), with no name: the kernel reclaims it when the
    store, which the run's RunRecords share, is freed, or when the process
    dies.  A member's snapshots are the first records of the run, as many
    as it has."""

    def __init__(self, grid: Grid, members: int):
        self.grid, self.size = grid, _chunk_size(grid)
        self.times, self.counts, self.open = [], [0] * members, []
        self.offsets = {}  # (chunk, owner) -> spill offset of the owner's block
        self.spill = None

    def add(self, t: float, y: np.ndarray, live: list) -> None:
        """Record the grid stack y at time t; ``live`` are the members it
        holds, in stack order after the limit."""
        self.times.append(t)
        self.open.append((y, tuple(live)))
        for k in live:
            self.counts[k] += 1
        if len(self.open) == self.size:
            self._write()

    def _records(self, owner: int) -> list:
        """(set stack, the owner's rows in it) of each record of the open
        chunk that holds the owner."""
        return [(y, _layout(len(y)).member_rows(live.index(owner - 1) + 1 if owner else 0))
                for y, live in self.open if not owner or owner - 1 in live]

    def _write(self) -> None:
        """Append the blocks of the open chunk to the spill and let it go."""
        if self.spill is None:
            self.spill = tempfile.TemporaryFile(prefix="nsmlimit-spill-")
        self.spill.seek(0, os.SEEK_END)
        chunk = len(self.times) // self.size - 1
        for owner in [0] + [k + 1 for k, n in enumerate(self.counts) if n > chunk * self.size]:
            self.offsets[chunk, owner] = self.spill.tell()
            for y, rows in self._records(owner):
                for first, width in _FIELDS if owner else _FIELDS[:2]:
                    self.spill.write(y[rows[first]:rows[first] + width])
        self.open = []

    def block(self, k: int, owner: int, chunk: int, rows: slice = slice(None)) -> np.ndarray:
        """The rows ``rows`` (all by default) of the block of ``owner``
        (k + 1, or 0 for the limit) in member k's records of a chunk,
        (count, rows, *shape), in new memory.  A spilled block is read from
        the first of those rows to the last with one ``readinto``."""
        count = min(self.size, self.counts[k] - chunk * self.size)
        width = 13 if owner else 4
        first, stop, _ = rows.indices(width)
        if (chunk, owner) not in self.offsets:
            out = np.empty((count, stop - first) + self.grid.shape)
            for i, (y, own) in enumerate(self._records(owner)[:count]):
                y.take(own[first:stop], axis=0, out=out[i])
            return out
        span = np.empty(((count - 1) * width + stop - first,) + self.grid.shape)
        self.spill.seek(self.offsets[chunk, owner] + first * span[0].nbytes)
        if self.spill.readinto(span) != span.nbytes:
            raise OSError("the snapshot spill file is shorter than its records")
        return np.ndarray((count, stop - first) + span.shape[1:], buffer=span,
                          strides=(width * span.strides[0],) + span.strides)

    def chunks(self, k: int):
        """Member k's records a chunk at a time, as (times, its block, the
        limit's block)."""
        for chunk in range(-(-self.counts[k] // self.size)):
            ts = self.times[chunk * self.size:min((chunk + 1) * self.size, self.counts[k])]
            yield ts, self.block(k, k + 1, chunk), self.block(k, 0, chunk)


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
    store: _Snapshots = field(repr=False)  # the run's snapshots, shared by its records
    tag: str
    batch_members: int = 1  # members stepped together; they share wall_seconds
    member: int = 0  # this record's member of the run

    @property
    def snapshots(self) -> list:
        """[(t, FullState, LimitState)] of every record of the member, read
        from the run's store at each access: each state views one row of
        its chunk's block (``model._state_view``).  So a run's snapshots
        are in memory only while the list is."""
        grid = self.store.grid
        return [(t, _state_view(grid, full), _state_view(grid, limit))
                for ts, fulls, limits in self.store.chunks(self.member)
                for t, full, limit in zip(ts, fulls, limits)]

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
    RunRecords in order.  A record runs the ledger's density checks and
    hands the stack its step returned to the run's store (``_Snapshots``),
    which keeps the open chunk of records and spills each full one; it
    computes no ledger row.  The stack of the initial set reaches
    ``march`` in a one-slot holder, so the first step frees it.  After the
    march, each member's ledger rows are one ``make_energy_ledger`` call
    per chunk of its snapshots, on the stacks of its records and the
    limit's read back from the store (``_Snapshots.chunks``).  A
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
    store = _Snapshots(grid, len(params))
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
            t_end=cfg.step.t_end, l=cfg.l, rows=[], store=store, member=len(records),
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
    x = [_join(stacks)]  # march takes the set's stack out of this holder
    del stacks, perturbations, full, limit, spec  # x holds their rows

    def end(k, exc, steps):
        records[k].status, records[k].message, records[k].n_steps = exc.status, str(exc), steps

    def build():
        return build_stiff_operator(grid, cfg.params, dt, [kappas[k] for k in live],
                                    [n_means[k] for k in live], limit_mean)

    def record(i, y):
        """The stack y goes to the store for every live member.  The
        ledger's density checks run here, so a member leaves at the step they
        fail."""
        t = i * dt
        for pos in reversed(range(1, len(live) + 1)):  # backwards, so a drop keeps the positions before
            try:
                _check_ledger_densities((t,), y[pos:pos + 1], y[:1])
            except VacuumError as exc:
                end(live.pop(pos - 1), exc, i)
                y = _drop(y, pos)
        if not live:
            return None
        store.add(t, y, live)
        return y

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
    for k, (rec, p, mass0) in enumerate(zip(records, params, masses)):
        rec.rows = [row for ts, fulls, limits in store.chunks(k)
                    for row in make_energy_ledger(grid, ts, fulls, limits, p, cfg.l, mass0)]
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
    """The snapshots file's (key, entry) pairs in ``np.savez``'s order.  An
    entry is an array, or for a field's stack its shape, and its owner and
    rows in the blocks of the run's store (``_Snapshots``)."""
    store, k = rec.store, rec.member
    count = store.counts[k]
    grid = store.grid
    yield "t", np.array(store.times[:count])
    for prefix, owner, names in (("full", k + 1, ("n", "u", "jt", "E", "B")), ("limit", 0, ("n", "u"))):
        for name, (first, width) in zip(names, _FIELDS):
            shape = (count,) + ((width,) if width > 1 else ()) + grid.shape
            yield f"{prefix}_{name}", (shape, owner, slice(first, first + width))
    yield "grid_meta", np.array([grid.dims_active, grid.points_per_dim, grid.period])
    yield "kappa", np.array([rec.kappa])
    if rec.config_text:
        yield "config", np.array(rec.config_text)


_STACK_HEADER = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)), "fortran_order": False}


def _write_snapshots(path: Path, rec: RunRecord) -> None:
    """The snapshots file, streamed entry by entry into its ``.tmp`` file,
    then moved into place.  It holds the bytes ``np.savez`` writes: a
    field's entry is the header ``np.savez`` writes for its stack, followed
    by the field's rows of each chunk's block, so memory holds one chunk's
    field at a time.  A write that fails removes the ``.tmp`` file and leaves
    ``path`` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    store = rec.store
    try:
        with zipfile.ZipFile(tmp, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
            for key, entry in _snapshot_arrays(rec):
                with zf.open(key + ".npy", "w", force_zip64=True) as fid:
                    if isinstance(entry, np.ndarray):
                        np.lib.format.write_array(fid, entry)
                        continue
                    shape, owner, rows = entry
                    np.lib.format.write_array_header_1_0(fid, _STACK_HEADER | {"shape": shape})
                    for chunk in range(-(-shape[0] // store.size)):  # one write per chunk
                        fid.write(np.ascontiguousarray(store.block(rec.member, owner, chunk, rows)))
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
    if rec.store.counts[rec.member]:
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
