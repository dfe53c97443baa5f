import gc
import io
import json
import math
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from support import inject_faults

from nsmlimit import harness
from nsmlimit.cli import _with_seed, main
from nsmlimit.diagnostics import LEDGER_COLUMNS
from nsmlimit.errors import ConfigError, VacuumError
from nsmlimit.initdata import make_limit_data
from nsmlimit.integrator import HalfStack, evolve
from nsmlimit.model import FullState, LimitState, Params
from nsmlimit.spectral import box_rfft
from nsmlimit.harness import (
    InitialSpec,
    RunConfig,
    default_config_text,
    fit_rate,
    load_snapshot_config,
    load_snapshots,
    parse_config,
    parse_config_text,
    run_single,
    run_sweep,
    summarize_sweep,
    write_record,
)

SHORT_CONFIG = """\
[grid]
dims_active = 1
points_per_dim = 64

[step]
dt = 2e-4
t_end = 0.01

[sweep]
kappa_list = 0.4, 0.2, 0.1

[diagnostics]
snapshot_stride = 10
"""

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE_PATH = ROOT / "configs" / "acceptance.ini"
ACCEPTANCE_TEXT = ACCEPTANCE_PATH.read_text()


def _velocity_kick(grid, n):
    """A velocity of -6000 sin x: the density of the next SSP-RK2 predictor
    stage turns negative where u_x falls steeply."""
    add = np.zeros((4,) + n.shape)
    add[1] = -6000.0 * np.sin(grid.coordinate(0))
    return add


def _density_hole(grid, n):
    """A density of -0.5 at one point."""
    add = np.zeros((4,) + n.shape)
    add[0].flat[5] = -0.5 - n.flat[5]
    return add


def _faulted_text(monkeypatch, kappa_list: str, gamma: str = "1.0") -> str:
    """The acceptance config at t_end = 0.02, with ``kappa_list`` and
    pressure_gamma ``gamma``, where every member completes, and every run of
    it given two faults (``inject_faults``).  Member 0.4 gets a density hole
    before step 4: the predictor check skips a member whose entry density is
    not positive, linear pressure keeps its rates finite, and the step ends
    in a vacuum.  Member 0.1 gets a velocity kick before step 65, which
    empties the density of its SSP-RK2 predictor stage.  Neither step is a
    multiple of the snapshot stride 25."""
    inject_faults(monkeypatch, (0.4, 3, _density_hole), (0.1, 64, _velocity_kick))
    return (ACCEPTANCE_TEXT.replace("t_end = 0.1", "t_end = 0.02")
            .replace("pressure_gamma = 1.6666666666666667", f"pressure_gamma = {gamma}")
            .replace("kappa_list = 0.4, 0.2, 0.1, 0.05", f"kappa_list = {kappa_list}"))


def _assert_same_files(out, alone_paths):
    for kind in ("csv", "json", "npz"):
        assert (out / alone_paths[kind].name).read_bytes() == alone_paths[kind].read_bytes(), kind


class TestConfigParsing:
    def test_default_roundtrip(self):
        cfg = parse_config_text(default_config_text())
        assert cfg.grid.points_per_dim == 64
        assert cfg.params.epsilon == 0.1
        assert cfg.kappa_list == (0.4, 0.2, 0.1, 0.05)
        assert cfg.l == 4.0
        assert cfg.config_hash == parse_config_text(default_config_text()).config_hash

    def test_minimal_config_uses_defaults(self):
        cfg = parse_config_text(SHORT_CONFIG)
        assert cfg.step.t_end == 0.01
        assert cfg.params.mu == 0.1
        assert cfg.initial.c0 == 1.0

    def test_empty_config_gives_the_dataclass_defaults(self):
        # default_config_text() and the dataclass defaults are the two
        # sources of defaults; they must agree
        cfg = parse_config_text("")
        assert cfg.params == Params()
        assert cfg.initial == InitialSpec()
        defaults = {f.name: f.default for f in fields(RunConfig)}
        assert (cfg.l, cfg.snapshot_stride, cfg.out_dir) == (
            defaults["l"], defaults["snapshot_stride"], defaults["out_dir"])

    def test_defaults_reproduce_the_acceptance_config(self):
        default = parse_config_text(default_config_text())
        assert replace(parse_config(ACCEPTANCE_PATH), config_text=default.config_text) == default

    def test_partial_section_keeps_the_other_defaults(self):
        cfg = parse_config_text("[params]\nmu = 0.2\n")
        default = parse_config_text("")
        assert cfg.params == replace(default.params, mu=0.2)
        assert replace(cfg, params=default.params, config_text="") == default

    @pytest.mark.parametrize("raw, value", [("yes", True), ("On", True), ("1", True), ("TRUE", True),
                                            ("no", False), ("off", False), ("0", False), ("False", False)])
    def test_boolean_spellings(self, raw, value):
        assert parse_config_text(f"[initial]\nwell_prepared = {raw}\n").initial.well_prepared is value

    def test_duplicate_key_names_its_line_in_the_file(self):
        # the default text is read first, but as a source of its own, so the
        # line number is that of the file
        with pytest.raises(ConfigError, match=r"^config parse failure: .*\[line +3\]: option "
                                              r"'dims_active' in section 'grid' already exists$"):
            parse_config_text("[grid]\ndims_active = 1\ndims_active = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[grid]\npoints = 64\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config_text("[grids]\ndims_active = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("[grid]\npoints_per_dim = many\n")

    def test_kappa_list_must_decrease(self):
        with pytest.raises(ConfigError, match="strictly decreasing"):
            parse_config_text("[sweep]\nkappa_list = 0.1, 0.2\n")

    def test_kappa_list_bounds(self):
        with pytest.raises(ConfigError):
            parse_config_text("[sweep]\nkappa_list = 1.5, 0.2, 0.1\n")

    def test_cfl_out_of_range_rejected(self):
        # [step] cfl is checked and otherwise unused: the step is always fixed
        assert parse_config_text("[step]\ncfl = 1.0\n").step.dt == 2e-4
        for cfl in ("0.0", "1.5"):
            with pytest.raises(ConfigError, match=r"cfl must lie in \(0, 1\]"):
                parse_config_text(f"[step]\ncfl = {cfl}\n")

    @pytest.mark.parametrize("mode", ["leapfrog", "adaptive"])
    def test_mode_other_than_fixed_dt_rejected(self, tmp_path, capsys, mode):
        text = f"[step]\nmode = {mode}\n"
        with pytest.raises(ConfigError, match="mode must be 'fixed_dt'"):
            parse_config_text(text)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "config error: step.mode must be 'fixed_dt'" in capsys.readouterr().err


class TestFitRate:
    def test_exact_slope_one(self):
        fit = fit_rate([(1.0, 1.0), (0.5, 0.5), (0.25, 0.25)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_slope_two(self):
        fit = fit_rate([(1.0, 1.0), (0.5, 0.25)])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_noisy_slope_within_band(self):
        rng = np.random.default_rng(17)
        kappas = np.array([0.8, 0.4, 0.2, 0.1, 0.05, 0.025])
        errors = 0.3 * kappas * (1.0 + 0.05 * rng.standard_normal(6))
        fit = fit_rate(zip(kappas, errors))
        assert 0.9 <= fit.slope <= 1.1

    def test_nonpositive_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="excluding"):
            fit = fit_rate([(1.0, 1.0), (0.5, 0.5), (0.25, 0.0)])
        assert fit.n_used == 2
        assert fit.excluded == ((0.25, 0.0),)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0)])


class TestSummarizeSweep:
    def test_synthetic_injection_linear(self):
        kappas = [0.4, 0.2, 0.1, 0.05]
        summary = summarize_sweep(kappas, [0.3 * k for k in kappas], "hash")
        assert summary["slope"] == pytest.approx(1.0, abs=1e-12)
        assert summary["r2"] == pytest.approx(1.0, abs=1e-12)
        assert summary["intercept"] == pytest.approx(math.log(0.3), abs=1e-12)

    def test_synthetic_injection_quadratic(self):
        kappas = [0.4, 0.2, 0.1, 0.05]
        summary = summarize_sweep(kappas, [0.3 * k**2 for k in kappas], "hash")
        assert summary["slope"] == pytest.approx(2.0, abs=1e-12)

    def test_schema_keys(self):
        summary = summarize_sweep([1.0, 0.5, 0.25], [1.0, 0.5, 0.25], "abc")
        assert list(summary.keys()) == [
            "kappa", "sup_error", "slope", "intercept", "r2", "config_hash",
        ]


class TestRunSingle:
    def test_zero_perturbation_gamma_floor(self):
        # with c0 = 0 both solvers march the same solution; Gamma stays at
        # the paired-splitting roundoff floor
        text = SHORT_CONFIG + "\n[initial]\nseed = 7\nc0 = 0.0\n"
        cfg = parse_config_text(text)
        rec = run_single(cfg, kappa=0.2)
        assert rec.status == "completed"
        assert rec.gammas().max() <= 1e-10

    def test_t_end_zero_initial_row_only(self):
        cfg = parse_config_text(SHORT_CONFIG.replace("t_end = 0.01", "t_end = 0.0"))
        rec = run_single(cfg, kappa=0.2)
        assert len(rec.rows) == 1
        assert rec.rows[0].t == 0.0
        assert rec.n_steps == 0

    def test_rerun_is_bit_identical(self):
        cfg = parse_config_text(SHORT_CONFIG)
        a = run_single(cfg, kappa=0.2)
        b = run_single(cfg, kappa=0.2)
        assert a.rows == b.rows
        assert a.certificates == b.certificates

    def test_certificates_recorded(self):
        cfg = parse_config_text(SHORT_CONFIG)
        rec = run_single(cfg, kappa=0.1)
        assert rec.certificates["satisfied"]
        assert rec.certificates["hypothesis_norm"] <= 0.1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_predictor_stage_vacuum_is_typed(self, monkeypatch):
        # the density of the SSP-RK2 predictor turns negative before the
        # gamma-law pressure sees it; that used to end as a blow-up in u
        text = _faulted_text(monkeypatch, "0.4, 0.1, 0.01", gamma="1.6666666666666667")
        rec = run_single(parse_config_text(text), kappa=0.1)
        assert rec.status == "vacuum"
        assert rec.message.startswith("vacuum state in the SSP-RK2 predictor stage at t=0.013: min n = -")
        assert rec.n_steps == 64

    def test_record_time_vacuum_keeps_status_message_and_steps(self, monkeypatch):
        # a density made nonpositive after step 40 of member 0.1, where no
        # step checks it, fails the ledger's check when that step is
        # recorded: the member leaves there, with the rows of its 40 earlier
        # snapshots; the other member is unchanged
        cfg = parse_config_text(SHORT_CONFIG.replace("snapshot_stride = 10", "snapshot_stride = 1"))
        clean = run_single(cfg, kappa=(0.4, 0.1))
        steps = []

        def step_full(x, *args, _step=harness.step_full, **kwargs):
            steps.append(len(x[0]))  # the rows stepped, in march's holder: 4 of the limit, 13 per member
            out = _step(x, *args, **kwargs)
            if len(steps) == 40:
                out[2, 5] = -0.5  # the density of member 0.1, after the limit's and 0.4's
            return out

        monkeypatch.setattr(harness, "step_full", step_full)
        kept, left = run_single(cfg, kappa=(0.4, 0.1))
        assert (left.status, left.message, left.n_steps) == (
            "vacuum", "vacuum state: total density nonpositive (min n = -0.5) at t=0.008", 40)
        assert len(left.snapshots) == 40 and left.rows == clean[1].rows[:40]
        assert steps == [4 + 2 * 13] * 40 + [4 + 13] * 10
        assert (kept.status, kept.n_steps, kept.rows) == ("completed", 50, clean[0].rows)

    def test_ledger_calls_per_chunk_after_the_march(self, monkeypatch):
        # a stride-1 run records 51 snapshots per member, more than one chunk
        # of 32: each member with snapshots gets its rows from one call per
        # chunk, 32 and 19 snapshots, after the last step, and a member that
        # left at t = 0 gets none
        cfg = parse_config_text(SHORT_CONFIG.replace("snapshot_stride = 10", "snapshot_stride = 1"))
        clean = run_single(cfg, kappa=(0.4, 0.2))
        calls = []

        def step_full(*args, _step=harness.step_full, **kwargs):
            calls.append("step")
            return _step(*args, **kwargs)

        def make_energy_ledger(t, *args, _ledger=harness.make_energy_ledger):
            calls.append(len(t))
            return _ledger(t, *args)

        def check(*args, _check=harness._check_ledger_densities):
            if not calls:  # the first check: the last member's record at t = 0
                calls.append("left")
                raise VacuumError("vacuum state: forced")
            _check(*args)

        monkeypatch.setattr(harness, "step_full", step_full)
        monkeypatch.setattr(harness, "make_energy_ledger", make_energy_ledger)
        monkeypatch.setattr(harness, "_check_ledger_densities", check)
        recs = run_single(cfg, kappa=(0.4, 0.2, 0.1))
        assert calls == ["left"] + ["step"] * 50 + [32, 19, 32, 19]
        assert [r.rows for r in recs] == [clean[0].rows, clean[1].rows, []]
        assert (recs[2].status, recs[2].message, recs[2].n_steps) == ("vacuum", "vacuum state: forced", 0)

    def test_non_finite_initial_spec_is_a_config_error(self):
        # built in code, not parsed: c0 = nan used to run to a blow-up with a
        # nan Gamma
        cfg = parse_config_text(SHORT_CONFIG)
        with pytest.raises(ConfigError, match=r"^initial\.c0 must be finite, got nan$"):
            run_single(replace(cfg, initial=replace(cfg.initial, c0=math.nan)), kappa=0.2)
        with pytest.raises(ConfigError, match=r"^initial\.max_wavenumber must be finite, got inf$"):
            run_single(replace(cfg, initial=replace(cfg.initial, max_wavenumber=math.inf)), kappa=0.2)

    def test_non_finite_l_is_a_config_error(self):
        # replace(cfg, l=nan) used to fail inside run_single with "cannot
        # convert float NaN to integer"
        cfg = parse_config_text(SHORT_CONFIG)
        with pytest.raises(ConfigError, match=r"^diagnostics\.l must be finite, got nan$"):
            run_single(replace(cfg, l=math.nan), kappa=0.2)

    def test_batch_returns_records_in_order(self):
        cfg = parse_config_text(SHORT_CONFIG)
        recs = run_single(cfg, kappa=(0.4, 0.1))
        assert [r.kappa for r in recs] == [0.4, 0.1]
        assert [r.tag for r in recs] == ["run_kappa0.4", "run_kappa0.1"]
        assert all(r.batch_members == 2 for r in recs)
        # one shared limit run, held once in the store the records share
        assert recs[0].store is recs[1].store
        limits = [r.snapshots[1][2] for r in recs]
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(vars(limits[0]).values(), vars(limits[1]).values()))

    def test_states_built_only_where_recorded(self, monkeypatch):
        # the paired loop steps one stack per system, and neither a step nor
        # a record builds a state: the ledger builds one FullState and one
        # LimitState per member snapshot, after the march; states made by
        # the initial-data calls are not counted
        built = {FullState: 0, LimitState: 0}
        setting_up = []
        for cls in built:
            def init(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
                built[_cls] += not setting_up
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", init)
        for name in ("make_limit_data", "make_well_prepared", "hypothesis_certificate"):
            def setup(*args, _fn=getattr(harness, name), **kwargs):
                setting_up.append(True)
                try:
                    return _fn(*args, **kwargs)
                finally:
                    setting_up.pop()
            monkeypatch.setattr(harness, name, setup)
        cfg = parse_config_text(SHORT_CONFIG.replace("snapshot_stride = 10", "snapshot_stride = 25"))
        ledgers = []

        def ledger(*args, _fn=harness.make_energy_ledger):
            ledgers.append(dict(built))
            return _fn(*args)

        monkeypatch.setattr(harness, "make_energy_ledger", ledger)
        recs = run_single(cfg, kappa=(0.4, 0.2, 0.1))
        assert ledgers[0] == {FullState: 3, LimitState: 3}  # the first member's chunk, built for its call
        assert built == {FullState: 3 * 3, LimitState: 3 * 3}
        assert [r.n_steps for r in recs] == [50] * 3
        assert [len(r.snapshots) for r in recs] == [3] * 3
        # the members of one record view the one stack of the open chunk
        assert recs[0].snapshots[1][1].n.values.base is recs[2].snapshots[1][1].B.values.base


class TestSetupProbe:
    """perfbench times a run's set-up with a one-shot probe in place of
    ``harness.step_full`` that puts the original back on its first call, so
    a run must look the name up at every step."""

    @pytest.mark.parametrize("kappa", [0.2, (0.4, 0.2, 0.1)], ids=["single", "batch"])
    def test_probe_runs_once_and_every_later_step_reaches_the_original(self, monkeypatch, kappa):
        original, probed, stepped = harness.step_full, [], []

        def counted(*args, **kwargs):
            stepped.append(True)
            return original(*args, **kwargs)

        def probe(*args, **kwargs):
            probed.append(True)
            harness.step_full = counted
            return counted(*args, **kwargs)

        monkeypatch.setattr(harness, "step_full", probe)
        recs = run_single(parse_config_text(SHORT_CONFIG), kappa=kappa)
        assert all(r.status == "completed" for r in (recs if isinstance(kappa, tuple) else [recs]))
        assert (len(probed), len(stepped)) == (1, 50)


class TestUnrecordedSteps:
    """Between two records a run's steps stay on the half-spectrum
    (``step_full`` with ``record=False``): a member set that closes its steps
    on the grid only where it records."""

    # Snapshots of one run at strides 1 and 5 differ by roundoff only: the
    # unrecorded steps fuse the closing and the opening half-step into one
    # exp(dt L) and skip a transform pair.  Over the 50 steps of the short
    # batch below the largest field difference measured 3.3e-14 of the
    # field's sup (E of kappa 0.1) and the largest Gamma difference 5.7e-13
    # relative.  The bounds give a 30x margin over those figures, so a
    # machine whose FFT rounds differently still passes, and they stay four
    # orders below the 1e-8 at which the benchmark references would move;
    # a propagator or ordering error is O(dt) or larger and fails them.
    FIELD_BOUND = 1e-12
    GAMMA_BOUND = 2e-11

    def test_strides_agree_at_shared_times(self):
        kappas = (0.4, 0.2, 0.1)
        every, fused = (run_single(parse_config_text(SHORT_CONFIG.replace("snapshot_stride = 10",
                                                                          f"snapshot_stride = {stride}")),
                                   kappa=kappas) for stride in (1, 5))
        for a, b in zip(every, fused):
            assert len(a.snapshots) == 51 and len(b.snapshots) == 11
            shared = a.snapshots[::5]
            assert [t for t, _, _ in shared] == [t for t, _, _ in b.snapshots]
            for (_, full_a, limit_a), (_, full_b, limit_b) in zip(shared, b.snapshots):
                for x, y in zip(list(vars(full_a).values()) + list(vars(limit_a).values()),
                                list(vars(full_b).values()) + list(vars(limit_b).values())):
                    scale = max(np.abs(x.values).max(), np.abs(y.values).max(), 1e-300)
                    assert np.abs(x.values - y.values).max() <= self.FIELD_BOUND * scale
            gam_a, gam_b = a.gammas()[::5], b.gammas()
            assert np.abs(gam_a - gam_b).max() <= self.GAMMA_BOUND * gam_a.max()

    def test_final_step_is_recorded(self):
        # 10 steps at stride 50: the last step is recorded although 10 is not
        # a multiple of 50, as at stride 10, where it is; the ledger used to
        # hold the t = 0 row alone
        text = SHORT_CONFIG.replace("t_end = 0.01", "t_end = 2e-3")
        rec = run_single(parse_config_text(text.replace("snapshot_stride = 10", "snapshot_stride = 50")), kappa=0.2)
        whole = run_single(parse_config_text(text), kappa=0.2)
        assert (rec.status, rec.n_steps) == ("completed", 10)
        assert [t for t, _, _ in rec.snapshots] == [0.0, 10 * 2e-4]
        assert rec.rows == whole.rows

    def test_vacuum_after_a_step_and_in_the_predictor_stage(self, monkeypatch):
        # members 0.4 and 0.1 of the faulted config leave after steps 3
        # and 64, neither a multiple of the stride 25: with the time, step,
        # member and message (min n included) of a run that records every
        # step, which are those of the steps that all closed on the grid;
        # the other member redoes each step and keeps its own run's records
        cfg = parse_config_text(_faulted_text(monkeypatch, "0.4, 0.1, 0.01"))
        recs = run_single(cfg, kappa=tuple(cfg.kappa_list))
        assert [(r.status, r.n_steps, r.message) for r in recs] == [
            ("vacuum", 3, "vacuum state at t=0.0008: min n = -0.027218"),
            ("vacuum", 64, "vacuum state in the SSP-RK2 predictor stage at t=0.013: min n = -0.0995365"),
            ("completed", 100, "")]
        every = run_single(replace(cfg, snapshot_stride=1), kappa=tuple(cfg.kappa_list))
        assert [(r.status, r.n_steps, r.message) for r in every] == [
            (r.status, r.n_steps, r.message) for r in recs]
        assert recs[2].rows == run_single(cfg, kappa=0.01).rows

    def test_non_finite_member(self, monkeypatch):
        # member 0.2 (set member 2) gets a NaN in u before step 4, which is not
        # recorded: its step closes on the grid to name the first non-finite
        # field, as a recorded step does, and it leaves at 3 steps; 0.4
        # redoes the step and keeps its own run's records
        cfg = parse_config_text(SHORT_CONFIG)

        def nan_velocity(grid, n):
            add = np.zeros((4,) + n.shape)
            add[1].flat[5] = math.nan
            return add

        spoiled = inject_faults(monkeypatch, (0.2, 3, nan_velocity))
        kept, left = run_single(cfg, kappa=(0.4, 0.2))
        assert spoiled == [False]
        assert (left.status, left.n_steps, left.message) == (
            "blowup", 3, "blow-up detected at t=0.0008: non-finite n")
        assert len(left.snapshots) == 1
        monkeypatch.undo()
        assert (kept.status, kept.n_steps, kept.rows) == ("completed", 50, run_single(cfg, kappa=0.4).rows)


class TestPersistence:
    def test_written_files_and_header(self, tmp_path):
        cfg = parse_config_text(SHORT_CONFIG)
        rec = run_single(cfg, kappa=0.2)
        paths = write_record(rec, tmp_path)
        csv_text = paths["csv"].read_text()
        header = csv_text.splitlines()[0]
        assert header == ",".join(LEDGER_COLUMNS)
        assert header == (
            "t,gamma,norm_N,norm_U,norm_J,norm_E,norm_B,enthalpy_fn,"
            "weighted_high,diss_U,diss_J,divE,divB,mass_err"
        )
        assert paths["json"].exists() and paths["npz"].exists()
        assert not list(tmp_path.glob("*.tmp"))
        payload = json.loads(paths["json"].read_text())
        assert payload["kappa"] == 0.2
        assert payload["status"] == "completed"
        assert "wall" not in json.dumps(payload)  # timings live in the sidecar
        assert paths["time"].read_text().startswith("wall_seconds")

    def test_snapshot_roundtrip(self, tmp_path):
        cfg = parse_config_text(SHORT_CONFIG)
        rec = run_single(cfg, kappa=0.2)
        paths = write_record(rec, tmp_path)
        kappa, snaps = load_snapshots(paths["npz"])
        assert kappa == 0.2
        assert len(snaps) == len(rec.snapshots)
        t0, full0, limit0 = snaps[0]
        assert np.array_equal(full0.n.values, rec.snapshots[0][1].n.values)
        assert np.array_equal(limit0.u.values, rec.snapshots[0][2].u.values)

    def test_loaded_snapshots_share_one_array_per_field(self, tmp_path):
        # each stored array is read once; snapshots are views into it
        rec = run_single(parse_config_text(SHORT_CONFIG), kappa=0.2)
        _, snaps = load_snapshots(write_record(rec, tmp_path)["npz"])

        def owner(a):
            while isinstance(a.base, np.ndarray):
                a = a.base
            return a

        assert len(snaps) == len(rec.snapshots)
        for field_of in (lambda s: s[1].n.values, lambda s: s[2].u.values):
            owners = {id(owner(field_of(s))): owner(field_of(s)) for s in snaps}
            assert len(owners) == 1
            # the one owner holds exactly the stored snapshots, nothing more
            assert next(iter(owners.values())).nbytes == sum(field_of(s).nbytes for s in snaps)
            assert all(np.array_equal(field_of(s), field_of(r)) for s, r in zip(snaps, rec.snapshots))


    @staticmethod
    def _savez_bytes(rec) -> bytes:
        """The snapshots file as ``np.savez`` of every stack at once wrote it."""
        snaps = rec.snapshots
        grid = snaps[0][1].grid
        arrays = {"t": np.array([t for t, _, _ in snaps])}
        for name in ("n", "u", "jt", "E", "B"):
            arrays[f"full_{name}"] = np.stack([getattr(f, name).values for _, f, _ in snaps])
        for name in ("n", "u"):
            arrays[f"limit_{name}"] = np.stack([getattr(lm, name).values for _, _, lm in snaps])
        arrays["grid_meta"] = np.array([grid.dims_active, grid.points_per_dim, grid.period])
        arrays["kappa"] = np.array([rec.kappa])
        if rec.config_text:
            arrays["config"] = np.array(rec.config_text)
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return buf.getvalue()

    THREE_D = ("[grid]\ndims_active = 3\npoints_per_dim = 8\n\n[step]\ndt = 2e-4\nt_end = 1e-3\n\n"
               "[initial]\nmax_wavenumber = 2\n\n[diagnostics]\nsnapshot_stride = 2\n")

    @pytest.mark.parametrize("text, config_text, kappa", [
        (SHORT_CONFIG, None, 0.2),
        # 4 records, one spilled chunk of 8^3, then 6: a spilled chunk and 2 in memory
        (THREE_D, "", 0.2),
        (THREE_D.replace("snapshot_stride = 2", "snapshot_stride = 1"), "", 0.2),
        # at stride 1 members 0.4 and 0.1 leave after 4 and 65 of the 101
        # records: each ends on a part of a spilled chunk of 32
        ("faulted", None, (0.4, 0.1, 0.01)),
    ], ids=["1d-with-config", "3d-without-config", "3d-spilled-and-held", "1d-members-leave-early"])
    def test_snapshots_file_is_the_bytes_of_savez(self, tmp_path, monkeypatch, text, config_text, kappa):
        # the streamed writer holds one chunk's field at a time and writes
        # what np.savez of all the stacks writes, from the spill as from
        # memory; the file loads back to the record
        if text == "faulted":
            text = _faulted_text(monkeypatch, "0.4, 0.1, 0.01").replace("snapshot_stride = 25",
                                                                         "snapshot_stride = 1")
        recs = run_single(parse_config_text(text), kappa=kappa)
        recs = recs if isinstance(kappa, tuple) else [recs]
        if isinstance(kappa, tuple):
            assert [len(r.snapshots) for r in recs] == [4, 65, 101] and recs[0].store.spill is not None
        for rec in recs:
            if config_text is not None:
                rec = replace(rec, config_text=config_text)
            path = write_record(rec, tmp_path)["npz"]
            assert path.read_bytes() == self._savez_bytes(rec)
            assert load_snapshot_config(path) == (rec.config_text or None)
            kappa, snaps = load_snapshots(path)
            assert kappa == rec.kappa and len(snaps) == len(rec.snapshots) >= 3
            for (t, full, limit), (t0, full0, limit0) in zip(snaps, rec.snapshots):
                assert t == t0
                for a, b in zip(list(vars(full).values()) + list(vars(limit).values()),
                                list(vars(full0).values()) + list(vars(limit0).values())):
                    assert np.array_equal(a.values, b.values)

    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        # a write that raises part-way, at its third array, removes its .tmp
        # file and leaves the snapshots file it would have replaced as it was
        cfg = parse_config_text(SHORT_CONFIG)
        path = write_record(run_single(cfg, kappa=0.2), tmp_path)["npz"]
        before = path.read_bytes()
        rec = run_single(replace(cfg, snapshot_stride=5), kappa=0.2)
        calls, write_array = [], np.lib.format.write_array

        def failing(*args, **kwargs):
            calls.append(True)
            if len(calls) == 3:
                raise OSError("disk full")
            return write_array(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", failing)
        with pytest.raises(OSError, match="disk full"):
            write_record(rec, tmp_path)
        assert len(calls) == 3
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))
        monkeypatch.undo()
        assert write_record(rec, tmp_path)["npz"].read_bytes() != before  # the write would have changed it


class TestMemory:
    """Guards on the memory a run and its record hold, read with tracemalloc,
    so they do not depend on the heap or on what the process held before."""

    def test_write_record_holds_one_stack_at_a_time(self, tmp_path):
        # perfbench/paired_3d.ini at 16 points per axis: 3 snapshots of 17
        # rows of 16^3 points, 1,632 KiB; building every stack and then the
        # whole npz image before writing used to take 3,568 KiB above the
        # record, streaming takes about 592 KiB
        text = (ROOT / "perfbench" / "paired_3d.ini").read_text()
        rec = run_single(parse_config_text(text.replace("points_per_dim = 32", "points_per_dim = 16")))
        assert len(rec.snapshots) == 3
        data = sum(f.values.nbytes for _, full, limit in rec.snapshots
                   for f in list(vars(full).values()) + list(vars(limit).values()))
        assert data == 3 * 17 * 16**3 * 8
        write_record(rec, tmp_path / "warm")  # imports and first-call caches stay out of the figure
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_record(rec, tmp_path)
            transient = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert transient < data / 2

    @pytest.mark.parametrize("kappa", [0.2, (0.4, 0.2, 0.1)], ids=["single", "batch"])
    def test_initial_data_are_let_go_before_the_first_step(self, monkeypatch, kappa):
        # once the set's stack holds them, the states the initial-data calls
        # returned are dropped: at the first step, in a one-shot probe in
        # place of harness.step_full, no field array of theirs is alive
        refs, alive = [], []
        for name in ("make_limit_data", "make_well_prepared"):
            def watched(*args, _fn=getattr(harness, name), **kwargs):
                state = _fn(*args, **kwargs)
                refs.extend(weakref.ref(f.values) for f in vars(state).values())
                return state
            monkeypatch.setattr(harness, name, watched)
        original = harness.step_full

        def probe(*args, **kwargs):
            harness.step_full = original
            gc.collect()
            alive.extend(ref for ref in refs if ref() is not None)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "step_full", probe)
        recs = run_single(parse_config_text(SHORT_CONFIG), kappa=kappa)
        members = len(kappa) if isinstance(kappa, tuple) else 1
        assert len(refs) == 2 + 5 * members
        assert alive == []
        assert all(r.status == "completed" for r in (recs if isinstance(kappa, tuple) else [recs]))


class TestRunSweep:
    def test_needs_three_kappas(self, tmp_path):
        cfg = parse_config_text(SHORT_CONFIG.replace(
            "kappa_list = 0.4, 0.2, 0.1", "kappa_list = 0.4, 0.2"))
        with pytest.raises(ConfigError, match="at least 3"):
            run_sweep(cfg, out_dir=tmp_path)

    def test_summary_written_and_sane(self, tmp_path):
        cfg = parse_config_text(SHORT_CONFIG)
        result = run_sweep(cfg, out_dir=tmp_path)
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary == result.summary
        assert len(summary["kappa"]) == 3
        assert 0.8 <= summary["slope"] <= 1.3

    def test_byte_identical_outputs(self, tmp_path):
        cfg = parse_config_text(SHORT_CONFIG)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_sweep(cfg, out_dir=out1)
        run_sweep(cfg, out_dir=out2)
        for name in sorted(p.name for p in out1.glob("*.csv")):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in sorted(p.name for p in out1.glob("*.json")):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestBatchedSweep:
    def test_members_match_standalone_runs(self, tmp_path):
        cfg = parse_config_text(SHORT_CONFIG)
        out = tmp_path / "sweep"
        run_sweep(cfg, out_dir=out)
        for kap in cfg.kappa_list:
            paths = write_record(run_single(cfg, kappa=kap), tmp_path / "alone")
            _assert_same_files(out, paths)
            timing = (out / paths["time"].name).read_text().splitlines()
            assert timing[0].startswith("wall_seconds = ")
            assert "whole batch" in timing[1]
            assert timing[2] == "batch_members = 3"
            assert len(paths["time"].read_text().splitlines()) == 1

    def test_member_failure_keeps_the_others(self, tmp_path, monkeypatch):
        cfg = parse_config_text(_faulted_text(monkeypatch, "0.4, 0.1, 0.01, 0.003, 0.001"))
        out = tmp_path / "sweep"
        with pytest.warns(UserWarning, match="sweep members failed"):
            result = run_sweep(cfg, out_dir=out)
        recs = {r.kappa: r for r in result.records}
        assert recs[0.4].status == "vacuum" and recs[0.4].n_steps == 3
        assert recs[0.4].message.startswith("vacuum state at t=0.0008: min n = -")
        assert recs[0.1].status == "vacuum" and recs[0.1].n_steps == 64
        assert recs[0.1].message.startswith("vacuum state in the SSP-RK2 predictor stage at t=0.013:")
        assert [r.status for r in result.rows] == ["vacuum", "vacuum", "completed", "completed", "completed"]
        assert result.failed == [(0.4, "vacuum"), (0.1, "vacuum")]
        for kap in cfg.kappa_list:
            _assert_same_files(out, write_record(run_single(cfg, kappa=kap), tmp_path / "alone"))
        assert result.summary["kappa"] == [0.01, 0.003, 0.001]
        survivors = [recs[k].sup_sqrt_gamma() for k in (0.01, 0.003, 0.001)]
        assert result.summary["sup_error"] == survivors


class TestPairedLimit:
    """The limit system steps as the first member of a run's stack."""

    @staticmethod
    def _evolved_limit(cfg):
        """(t, n, u) of ``evolve`` on the run's limit data, at the run's
        snapshot stride."""
        ini = cfg.initial
        limit = make_limit_data(cfg.grid, seed=ini.seed, amplitude=ini.base_amplitude,
                                velocity_amplitude=ini.velocity_amplitude,
                                max_wavenumber=ini.max_wavenumber)
        seen = []
        _, log = evolve(limit, cfg.params, cfg.step, stride=cfg.snapshot_stride,
                        observer=lambda i, t, s: seen.append((t, s.n.values.copy(), s.u.values.copy())))
        assert log.status == "completed"
        return seen

    @staticmethod
    def _assert_prefix(rec, want):
        assert 0 < len(rec.snapshots) <= len(want)
        for (t, _, limit), (t_want, n, u) in zip(rec.snapshots, want):
            assert t == t_want
            assert np.array_equal(limit.n.values, n) and np.array_equal(limit.u.values, u)

    @pytest.mark.parametrize("kappa", [0.2, (0.4, 0.2, 0.1)], ids=["single", "batch"])
    def test_limit_snapshots_are_evolve_s(self, kappa):
        cfg = parse_config_text(SHORT_CONFIG)
        want = self._evolved_limit(cfg)
        recs = run_single(cfg, kappa=kappa)
        for rec in recs if isinstance(kappa, tuple) else [recs]:
            assert rec.status == "completed" and len(rec.snapshots) == len(want)
            self._assert_prefix(rec, want)

    def test_limit_snapshots_when_a_member_leaves(self, monkeypatch):
        # members 0.4 and 0.1 leave at steps 3 and 64; the limit steps on
        # with 0.01 as it does alone
        cfg = parse_config_text(_faulted_text(monkeypatch, "0.4, 0.1, 0.01"))
        want = self._evolved_limit(cfg)
        recs = run_single(cfg, kappa=tuple(cfg.kappa_list))
        assert [(r.status, r.n_steps) for r in recs] == [("vacuum", 3), ("vacuum", 64), ("completed", 100)]
        assert len(recs[2].snapshots) == len(want)
        for rec in recs:
            self._assert_prefix(rec, want)

    @pytest.mark.parametrize("value, status, message", [
        (math.nan, "blowup", "blow-up detected at t=0.0008: non-finite n"),
        (-1.0, "vacuum", "vacuum state at t=0.0008: min n = -"),
    ], ids=["blowup", "vacuum"])
    def test_limit_failure_ends_every_member(self, monkeypatch, value, status, message):
        # the limit's density is spoiled at one point before step 4, once:
        # its failure ends every member at 3 steps with its message, and no
        # member redoes the step; linear pressure keeps the rates finite at
        # negative density.  Step 3 is not recorded, so step 4 takes the set
        # on the 2/3-rule box: its grid densities and their transform are
        # spoiled alike
        cfg = parse_config_text(SHORT_CONFIG + "\n[params]\npressure_gamma = 1.0\n")
        spoiled = []

        def step_full(x, op, *args, _step=harness.step_full, t=0.0, **kwargs):
            if t == 3 * op.dt and not spoiled:
                spoiled.append(t)
                n, half = x.n.copy(), x.half.copy()
                n[0, 5] = value  # the limit's n, the stack's first row
                half[:1] = box_rfft(cfg.grid, n[:1])
                x = HalfStack(half, n)
            return _step(x, op, *args, t=t, **kwargs)

        monkeypatch.setattr(harness, "step_full", step_full)
        recs = run_single(cfg, kappa=(0.4, 0.2))
        assert [(r.status, r.n_steps) for r in recs] == [(status, 3)] * 2
        assert recs[0].message == recs[1].message
        assert recs[0].message.startswith(message)
        assert [len(r.snapshots) for r in recs] == [1, 1]


class TestCli:
    def test_run_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SHORT_CONFIG)
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--kappa", "0.2"])
        assert rc == 0
        assert (tmp_path / "out" / "run_kappa0.2.csv").exists()

    def test_config_error_exit_two(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[grid]\nbogus = 1\n")
        assert main(["run", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("section, key", [
        ("step", "dt"), ("step", "t_end"), ("diagnostics", "l"), ("params", "mu"),
        ("params", "pressure_gamma"), ("initial", "c0"), ("params", "tau"), ("params", "lambda"),
        ("params", "eta"), ("params", "kappa_ei"), ("params", "k_rate"), ("params", "pressure_amplitude")])
    def test_non_finite_value_exit_two(self, tmp_path, capsys, section, key, value):
        # a non-finite number is a config error before anything runs or is written
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"config error: {section}.{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("diagnostics", "l", "-1", "diagnostics.l must be nonnegative, got -1.0"),
        ("initial", "c0", "-1", "initial.c0 must be nonnegative, got -1.0"),
        ("initial", "max_wavenumber", "0.5",
         "initial.max_wavenumber must be at least 2 pi/period = 1, got 0.5"),
        ("initial", "base_amplitude", "1.5", "initial.base_amplitude must lie in [0, 1), got 1.5"),
        ("initial", "base_amplitude", "-0.1", "initial.base_amplitude must lie in [0, 1), got -0.1"),
        ("initial", "velocity_amplitude", "-0.1",
         "initial.velocity_amplitude must be nonnegative, got -0.1"),
        ("initial", "well_prepared", "maybe", "bad value for initial.well_prepared: 'maybe'"),
        ("step", "dt", "-1", "step.dt must be positive, got -1.0"),
        ("step", "t_end", "0.0003", "step.t_end = 0.0003 must be an integer multiple of step.dt = 0.0002"),
        ("params", "kappa", "2", "params.kappa must lie in (0, 1], got 2.0"),
        ("params", "epsilon", "0", "params.epsilon must lie in (0, 1], got 0.0"),
        ("params", "mu", "0", "params.mu must be positive, got 0.0"),
        ("params", "lambda", "-1", "params.lambda must exceed -2 mu/3 = -0.0666667, got -1.0"),
        ("params", "tau", "0", "params.tau must be positive, got 0.0"),
        ("params", "eta", "-1", "params.eta must be positive, got -1.0"),
        ("params", "kappa_ei", "0", "params.kappa_ei must be positive, got 0.0"),
        ("params", "k_rate", "0", "params.k_rate must be positive, got 0.0"),
        ("params", "pressure_amplitude", "0", "params.pressure_amplitude must be positive, got 0.0"),
        ("params", "pressure_gamma", "0.5", "params.pressure_gamma must be >= 1, got 0.5"),
        ("grid", "dims_active", "4", "grid.dims_active must be 1, 2 or 3, got 4"),
        ("grid", "points_per_dim", "12", "grid.points_per_dim must be a power of two >= 8, got 12"),
        ("grid", "period", "0", "grid.period must be positive, got 0.0"),
        ("step", "cfl", "1.5", "step.cfl must lie in (0, 1], got 1.5"),
        ("step", "mode", "leapfrog", "step.mode must be 'fixed_dt', the only stepping mode, got 'leapfrog'"),
        ("sweep", "kappa_list", "0.1, 0.2", "sweep.kappa_list must be strictly decreasing, got (0.1, 0.2)"),
        ("sweep", "kappa_list", "2, 0.1", "sweep.kappa_list values must lie in (0, 1], got 2.0"),
        ("diagnostics", "snapshot_stride", "0", "diagnostics.snapshot_stride must be >= 1, got 0"),
    ], ids=["l", "c0", "max_wavenumber", "base_amplitude_above_1", "base_amplitude_negative",
            "velocity_amplitude", "well_prepared", "dt", "t_end", "kappa", "epsilon", "mu", "lambda", "tau",
            "eta", "kappa_ei", "k_rate", "pressure_amplitude", "pressure_gamma", "dims_active",
            "points_per_dim", "period", "cfl", "mode", "kappa_list_order", "kappa_list_range",
            "snapshot_stride"])
    def test_out_of_range_value_exit_two(self, tmp_path, capsys, section, key, value, message):
        # each is a config error naming its key and value before anything
        # runs; most used to crash inside the run (exit 1) or, when
        # negative, run silently with flat data
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_max_wavenumber_above_the_cutoff_exit_two(self, tmp_path, capsys, command):
        # the stepper holds the 2/3-rule box alone, |k_i| <= (2/3) pi
        # points/period (21.33 on 64 points), so data modes above it would
        # be dropped by the first step; up to it the data are admitted
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[initial]\nmax_wavenumber = 21.5\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: initial.max_wavenumber must be at most the 2/3-rule "
                                           "cutoff (2/3) pi points/period = 21.3333, got 21.5\n")
        assert not out.exists()
        assert parse_config_text("[initial]\nmax_wavenumber = 21.3\n").initial.max_wavenumber == 21.3
        with pytest.raises(ConfigError, match=r"cutoff \(2/3\) pi points/period = 2\.66667, got 4\.0$"):
            parse_config_text("[grid]\ndims_active = 3\npoints_per_dim = 8\n")

    def test_overflowing_step_count_exit_two(self, tmp_path, capsys):
        # a positive dt so small that t_end / dt overflows used to crash in
        # StepControl.n_steps with an OverflowError (exit 1)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[step]\ndt = 1e-320\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "config error: step.dt = 1e-320 is too small" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, kappa, min_n", [
        ("sweep", "", "0.4", "-6.91588"),
        ("run", "well_prepared = false\n", "0.1", "-18.938"),
    ], ids=["sweep", "run_not_well_prepared"])
    def test_inadmissible_initial_data_exit_two(self, tmp_path, capsys, command, extra, kappa, min_n):
        # a c0 so large that the perturbed density is negative used to end
        # in an uncaught VacuumError (exit 1) that named neither the member
        # nor its density; nothing is written
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[initial]\nc0 = 5000\n{extra}\n[step]\nt_end = 0.002\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"config error: initial data at kappa = {kappa}: vacuum state: "
                                           f"perturbed density nonpositive (min n = {min_n})\n")
        assert not out.exists()

    @pytest.mark.parametrize("path", ["configs/acceptance.ini", "perfbench/paired_3d.ini",
                                      "perfbench/audit_1d.ini"])
    def test_shipped_configs_within_ledger_budget(self, path):
        cfg = parse_config_text((Path(__file__).resolve().parent.parent / path).read_text())
        assert cfg.l == 4.0

    def test_ledger_stack_over_budget_exit_two(self, tmp_path, capsys):
        # l = 20 on 32^3 would hold 1,772 derivative rows of a snapshot at
        # once in each ledger call
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[grid]\ndims_active = 3\npoints_per_dim = 32\n[diagnostics]\nl = 20\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert ("config error: diagnostics.l = 20.0 needs a 914 MiB ledger derivative stack on this "
                "grid, above the 256 MiB budget\n") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kappa", ["2", "0"])
    def test_kappa_out_of_range_exit_two(self, tmp_path, capsys, kappa):
        out = tmp_path / "out"
        assert main(["run", "--kappa", kappa, "--out", str(out)]) == 2
        assert "config error: kappa must lie in (0, 1]" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_sweep_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SHORT_CONFIG)
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--jobs", "1"])
        assert rc == 0
        assert (tmp_path / "out" / "sweep_summary.json").exists()

    def test_sweep_too_few_completed_exit_three(self, tmp_path, capsys, monkeypatch):
        # two of three members hit vacuum: every record is written and the
        # table printed, but there is no rate fit and no summary file
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(_faulted_text(monkeypatch, "0.4, 0.1, 0.01"))
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="sweep members failed"):
            rc = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        statuses = [line.split()[-1] for line in captured.out.splitlines()[1:]]
        assert statuses == ["vacuum", "vacuum", "completed"]
        assert "no rate fit" in captured.err
        for kap in ("0.4", "0.1", "0.01"):
            for suffix in (".csv", ".json", "_snapshots.npz"):
                assert (out / f"run_kappa{kap}{suffix}").exists()
        assert not (out / "sweep_summary.json").exists()

    def test_sweep_jobs_other_than_one_exit_two(self, tmp_path, capsys):
        # a sweep runs its kappa list as one batch: --jobs 1 is accepted,
        # any other value is a config error and writes nothing
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SHORT_CONFIG)
        for jobs in ("2", "0"):
            out = tmp_path / f"out{jobs}"
            assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--jobs", jobs]) == 2
            assert "config error: --jobs must be 1" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["moser", "--pairs", "0"], ["moser", "--pairs", "-2"], ["reform-check", "--states", "0"],
    ], ids=["pairs0", "pairs-2", "states0"])
    def test_count_below_one_exit_two(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err and "at least 1" in captured.err
        assert captured.out == ""

    def test_reform_check_exit_zero(self, tmp_path):
        rc = main(["reform-check", "--states", "3"])
        assert rc == 0

    def test_moser_exit_zero(self, tmp_path):
        rc = main(["moser", "--pairs", "5"])
        assert rc == 0

    @pytest.mark.parametrize("l", ["0", "0.5"])
    def test_moser_order_below_one_exit_two(self, tmp_path, capsys, l):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[diagnostics]\nl = {l}\n")
        assert main(["moser", "--config", str(cfg_path), "--pairs", "3"]) == 2
        captured = capsys.readouterr()
        assert "config error: moser ensemble needs a derivative order s of at least 1, got 0" in captured.err
        assert captured.out == ""

    def test_audit_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        text = SHORT_CONFIG.replace("snapshot_stride = 10", "snapshot_stride = 5")
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--kappa", "0.1"]) == 0
        rc = main(["audit", "--config", str(cfg_path),
                   "--record", str(out / "run_kappa0.1_snapshots.npz")])
        assert rc == 0

    def test_audit_takes_params_from_the_record(self, tmp_path, capsys):
        # a mu = 0.5 run audits under mu = 0.5 without --config; a --config
        # with other params, or a record without a stored config and no
        # --config, is a config error
        run_cfg = tmp_path / "mu.ini"
        run_cfg.write_text("[params]\nmu = 0.5\n\n[step]\ndt = 2e-4\nt_end = 1e-3\n\n"
                           "[diagnostics]\nsnapshot_stride = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(run_cfg), "--out", str(out)]) == 0
        record = out / "run_kappa0.1_snapshots.npz"
        assert load_snapshot_config(record) == run_cfg.read_text()
        capsys.readouterr()

        def max_residual(argv):
            assert main(["audit", "--record", str(record), *argv]) == 0
            line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("max residual"))
            return float(line.split("=")[1])

        stored = max_residual([])
        assert stored < 1e-4
        assert max_residual(["--config", str(run_cfg)]) == stored
        default_cfg = tmp_path / "default.ini"
        default_cfg.write_text("")
        assert main(["audit", "--record", str(record), "--config", str(default_cfg)]) == 2
        assert "config error: the [params] of" in capsys.readouterr().err

        with np.load(record) as data:
            arrays = {key: data[key] for key in data.files if key != "config"}
        np.savez(record, **arrays)
        assert load_snapshot_config(record) is None
        assert main(["audit", "--record", str(record)]) == 2
        assert "stores no run config; pass --config" in capsys.readouterr().err
        assert max_residual(["--config", str(run_cfg)]) == stored
        # the default params audit the same states far worse
        assert max_residual(["--config", str(default_cfg)]) > 100 * stored

    @pytest.mark.parametrize("t_end, extra, message", [
        ("2e-4", [], "need at least 3 snapshots"),
        ("4e-4", ["--drop-term", "7"], "drop_term must be in 1..6"),
        ("4e-4", ["--drop-term", "0"], "drop_term must be in 1..6"),
    ], ids=["two_snapshots", "drop_term7", "drop_term0"])
    def test_audit_bad_input_exit_two(self, tmp_path, capsys, t_end, extra, message):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[step]\ndt = 2e-4\nt_end = {t_end}\n\n[diagnostics]\nsnapshot_stride = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        record = out / "run_kappa0.1_snapshots.npz"
        assert main(["audit", "--config", str(cfg_path), "--record", str(record), *extra]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("t_end, count", [("0", "1 snapshot"), ("2e-4", "2 snapshots")],
                             ids=["no_step", "one_step"])
    def test_audit_too_short_record_names_the_file_and_count(self, tmp_path, capsys, t_end, count):
        # a run of one step records its start and its last step; the audit
        # refuses it before it reads the params, naming the file
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[step]\ndt = 2e-4\nt_end = {t_end}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        record = out / "run_kappa0.1_snapshots.npz"
        assert main(["audit", "--record", str(record)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: need at least 3 snapshots for the energy audit; "
                                f"{record} holds {count}\n")
        assert captured.out == ""

    def test_audit_uneven_snapshot_times_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[step]\ndt = 2e-4\nt_end = 6e-4\n\n[diagnostics]\nsnapshot_stride = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        record = out / "run_kappa0.1_snapshots.npz"
        with np.load(record) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["t"] = arrays["t"] ** 1.5
        np.savez(record, **arrays)
        assert main(["audit", "--config", str(cfg_path), "--record", str(record)]) == 2
        captured = capsys.readouterr()
        assert "config error: nonuniform snapshot spacing" in captured.err
        assert captured.out == ""

    def test_audit_leaves_out_a_short_last_spacing(self, tmp_path, capsys):
        # 7 steps at stride 2 record steps 0, 2, 4, 6 and the last, 7: the
        # audit leaves that one out and reads what the run to step 6 gives
        outs = []
        for t_end in ("1.4e-3", "1.2e-3"):
            cfg_path = tmp_path / f"cfg{t_end}.ini"
            cfg_path.write_text(f"[step]\ndt = 2e-4\nt_end = {t_end}\n\n[diagnostics]\nsnapshot_stride = 2\n")
            out = tmp_path / t_end
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["audit", "--record", str(out / "run_kappa0.1_snapshots.npz")]) == 0
            outs.append(capsys.readouterr().out.splitlines())
        assert outs[0][0] == "snapshots: 4 (the last, at t=0.0014, left out: a shorter spacing)  interior points: 2"
        assert outs[1][0] == "snapshots: 4  interior points: 2"
        assert outs[0][1:] == outs[1][1:]

    @pytest.mark.parametrize("content", [None, b"not an npz file\n", "wrong_keys"],
                             ids=["missing", "not_npz", "wrong_keys"])
    def test_audit_unreadable_record_exit_two(self, tmp_path, capsys, content):
        record = tmp_path / "run_snapshots.npz"
        if content == "wrong_keys":
            np.savez(record, t=np.zeros(3))
        elif content is not None:
            record.write_bytes(content)
        assert main(["audit", "--record", str(record)]) == 2
        assert f"config error: cannot read snapshots file {record}" in capsys.readouterr().err

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SHORT_CONFIG)
        outs, records = [], []
        for seed, sub in ((1, "o1"), (2, "o2"), (None, "o3")):
            out = tmp_path / sub
            override = [] if seed is None else ["--seed", str(seed)]
            main(["run", "--config", str(cfg_path), "--out", str(out), "--kappa", "0.2", *override])
            outs.append((out / "run_kappa0.2.csv").read_text())
            records.append(json.loads((out / "run_kappa0.2.json").read_text()))
        assert outs[0] != outs[1]
        # the recorded config names the seed the run used, so the hashes differ
        assert records[0]["config_hash"] != records[1]["config_hash"]
        for seed, rec in zip((1, 2), records):
            assert parse_config_text(rec["config"]).initial.seed == seed
            assert rec["config"].startswith(SHORT_CONFIG)
        assert records[2]["config"] == SHORT_CONFIG  # no --seed: the text as written

    @pytest.mark.parametrize("text, want", [
        ("# c\n[initial]\nseed = 7  # data seed\nc0 = 1.0\n[step]\ndt = 1e-3\n",
         "# c\n[initial]\nseed = 42  # data seed\nc0 = 1.0\n[step]\ndt = 1e-3\n"),
        ("[initial]\nc0 = 1.0\n[step]\nseed_note = 1\n",
         "[initial]\nseed = 42\nc0 = 1.0\n[step]\nseed_note = 1\n"),
        ("[step]\ndt = 1e-3", "[step]\ndt = 1e-3\n\n[initial]\nseed = 42\n"),
    ], ids=["replaced", "added_line", "added_section"])
    def test_seed_override_keeps_other_lines(self, text, want):
        assert _with_seed(text, 42) == want
