import json
import math
from pathlib import Path

import numpy as np
import pytest

from nsmlimit import harness
from nsmlimit.cli import main
from nsmlimit.diagnostics import LEDGER_COLUMNS
from nsmlimit.errors import ConfigError
from nsmlimit.model import FullState, LimitState
from nsmlimit.harness import (
    RunConfig,
    default_config_text,
    fit_rate,
    load_snapshots,
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

ACCEPTANCE_TEXT = (Path(__file__).resolve().parent.parent / "configs" / "acceptance.ini").read_text()


def _stiff_epsilon_config(kappa_list: str):
    """The acceptance config at epsilon = 1e-6 and t_end = 0.02, where the
    larger kappas lose positivity."""
    text = (ACCEPTANCE_TEXT.replace("epsilon = 0.1", "epsilon = 1e-6")
            .replace("t_end = 0.1", "t_end = 0.02")
            .replace("kappa_list = 0.4, 0.2, 0.1, 0.05", f"kappa_list = {kappa_list}"))
    return parse_config_text(text)


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
    def test_predictor_stage_vacuum_is_typed(self):
        # the density of the SSP-RK2 predictor turns negative before the
        # pressure law sees it; that used to end as a blow-up in u
        rec = run_single(_stiff_epsilon_config("0.4, 0.1, 0.01"), kappa=0.1)
        assert rec.status == "vacuum"
        assert rec.message.startswith("vacuum state in the SSP-RK2 predictor stage at t=0.013: min n = -")
        assert rec.n_steps == 64

    def test_batch_returns_records_in_order(self):
        cfg = parse_config_text(SHORT_CONFIG)
        recs = run_single(cfg, kappa=(0.4, 0.1))
        assert [r.kappa for r in recs] == [0.4, 0.1]
        assert [r.tag for r in recs] == ["run_kappa0.4", "run_kappa0.1"]
        assert all(r.batch_members == 2 for r in recs)
        assert recs[0].snapshots[1][2] is recs[1].snapshots[1][2]  # one shared limit run
        with pytest.raises(ConfigError, match="tag names a single run"):
            run_single(cfg, kappa=(0.4, 0.1), tag="both")

    def test_states_built_only_where_recorded(self, monkeypatch):
        # the paired loop steps one stack per system: a record builds one
        # FullState per member and one LimitState, and a step builds none;
        # states made by the initial-data calls are not counted
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
        recs = run_single(cfg, kappa=(0.4, 0.2, 0.1))
        assert [r.n_steps for r in recs] == [50] * 3
        assert [len(r.snapshots) for r in recs] == [3] * 3
        assert built == {FullState: 3 * 3, LimitState: 3}
        # the members of one record view one stack
        assert recs[0].snapshots[1][1].n.values.base is recs[2].snapshots[1][1].B.values.base


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

    def test_member_failure_keeps_the_others(self, tmp_path):
        cfg = _stiff_epsilon_config("0.4, 0.1, 0.01, 0.003, 0.001")
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
        outs = []
        for seed, sub in ((1, "o1"), (2, "o2")):
            out = tmp_path / sub
            main(["run", "--config", str(cfg_path), "--out", str(out),
                  "--seed", str(seed), "--kappa", "0.2"])
            outs.append((out / "run_kappa0.2.csv").read_text())
        assert outs[0] != outs[1]
