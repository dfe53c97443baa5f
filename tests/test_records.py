"""A run holds at most one ledger chunk of records: the rest go to a spill
file that its records own, and the grid stack a step is handed is freed once
the set is on the box.  So a run's memory does not grow with its snapshot
count, and its outputs keep their bytes."""

import gc
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from support import inject_faults

from nsmlimit import harness, integrator
from nsmlimit.integrator import HalfStack
from nsmlimit.harness import parse_config_text, run_single, write_record

ROOT = Path(__file__).resolve().parent.parent
PAIRED_16 = (ROOT / "perfbench" / "paired_3d.ini").read_text().replace("points_per_dim = 32", "points_per_dim = 16")
STEPS = 7  # of PAIRED_16 below: 2 records at stride 7, 8 at stride 1


def _paired_16(stride: int) -> str:
    return (PAIRED_16.replace("t_end = 0.002", f"t_end = {STEPS * 2e-4!r}")
            .replace("snapshot_stride = 5", f"snapshot_stride = {stride}"))


def _spills() -> list:
    return sorted(Path(tempfile.gettempdir()).glob("nsmlimit-spill-*"))


@pytest.fixture
def no_cyclic_gc():
    """Cyclic garbage collection off for the test: only reference counting
    frees what it makes."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_peak_does_not_grow_with_the_record_count(tmp_path):
    # a 16^3 paired run of 7 steps at 2 and at 8 records: its traced peak,
    # run_single and write_record together, differs by less than one
    # record's stack (17 rows of 16^3 doubles, 544 KiB).  Keeping every
    # record until the march ended added one stack per record.
    cfgs = {records: parse_config_text(_paired_16(stride)) for records, stride in ((2, STEPS), (8, 1))}
    peaks = {}
    for records, cfg in cfgs.items():
        write_record(run_single(cfg), tmp_path / "warm")  # first-call caches stay out of the figure
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rec = run_single(cfg)
            write_record(rec, tmp_path / str(records))
            peaks[records] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(rec.snapshots) == records
        del rec
    stack = 17 * 16**3 * 8
    assert abs(peaks[8] - peaks[2]) < stack, peaks


def test_the_initial_stack_is_freed_before_the_first_rate(monkeypatch, no_cyclic_gc):
    # march gets the set's stack in a one-slot holder and the first step
    # lets go of it once the set is on the box: at its first rate nothing
    # holds the stack run_single handed march (on 16^3 a chunk is one
    # record, so record 0 is already spilled)
    refs, alive = [], []

    def march(x, *args, _march=harness.march, **kwargs):
        refs.append(weakref.ref(x[0] if isinstance(x, list) else x))
        return _march(x, *args, **kwargs)

    def rate(*args, _rate=integrator._full_rate):
        if not alive:
            alive.append(refs[0]() is not None)
        return _rate(*args)

    monkeypatch.setattr(harness, "march", march)
    monkeypatch.setattr(integrator, "_full_rate", rate)
    rec = run_single(parse_config_text(_paired_16(STEPS)))
    assert rec.status == "completed" and len(refs) == 1
    assert alive == [False]


def test_records_that_fit_one_chunk_make_no_spill():
    # the acceptance sweep records 21 snapshots per member against a chunk
    # of 32 on its 64-point line: no spill file is made
    cfg = harness.parse_config(ROOT / "configs" / "acceptance.ini")
    before = _spills()
    recs = run_single(cfg, kappa=tuple(cfg.kappa_list))
    assert [len(r.snapshots) for r in recs] == [21] * 4
    assert recs[0].store.spill is None and _spills() == before


def test_the_spill_goes_with_the_records(tmp_path, no_cyclic_gc):
    # a 16^3 batch spills every record; the one spill file of the run is
    # removed by reference counting once its records are let go
    before = _spills()
    recs = run_single(parse_config_text(_paired_16(3)), kappa=(0.4, 0.1))
    made = [p for p in _spills() if p not in before]
    assert len(made) == 1 and made[0].stat().st_size > 0
    for rec in recs:
        write_record(rec, tmp_path)
    del rec
    assert [len(r.snapshots) for r in recs] == [4, 4]
    del recs
    assert _spills() == before


def _density_hole(grid, n):
    """A density of -0.5 at one point."""
    add = np.zeros((4,) + n.shape)
    add[0].flat[5] = -0.5 - n.flat[5]
    return add


# the acceptance config at t_end = 0.02 with linear pressure, which keeps
# the rates of a member with a density hole finite until its step ends in
# a vacuum
FAULTED = ((ROOT / "configs" / "acceptance.ini").read_text()
           .replace("t_end = 0.1", "t_end = 0.02")
           .replace("pressure_gamma = 1.6666666666666667", "pressure_gamma = 1.0")
           .replace("kappa_list = 0.4, 0.2, 0.1, 0.05", "kappa_list = 0.4, 0.1, 0.01"))


def _assert_same_files(out, alone_paths):
    for kind in ("csv", "json", "npz"):
        assert (out / alone_paths[kind].name).read_bytes() == alone_paths[kind].read_bytes(), kind


def test_members_that_fail_in_a_step_entered_from_the_grid_keep_their_records(tmp_path, monkeypatch):
    # member 0.1 gets a density hole before the first step and member 0.4
    # before the step after the record at step 25: both steps are entered
    # from a grid stack in march's holder.  Each failing member leaves with
    # the records of its own run, and the others redo the step from the
    # entered HalfStack the holder keeps, dropped by the member that left;
    # their records are bit for bit those of their own runs, which enter
    # every step from the grid stack alone
    inject_faults(monkeypatch, (0.1, 0, _density_hole), (0.4, 25, _density_hole))
    entered = []

    def step_full(x, *args, _step=harness.step_full, **kwargs):
        entered.append(type(x[0]) if isinstance(x, list) else None)
        return _step(x, *args, **kwargs)

    monkeypatch.setattr(harness, "step_full", step_full)
    cfg = parse_config_text(FAULTED)
    recs = run_single(cfg, kappa=tuple(cfg.kappa_list))
    assert [(r.status, r.n_steps, len(r.snapshots)) for r in recs] == [
        ("vacuum", 25, 2), ("vacuum", 0, 1), ("completed", 100, 5)]
    assert [r.message.split(": min n = -")[0] for r in recs] == [
        "vacuum state at t=0.0052", "vacuum state at t=0.0002", ""]
    # first step: entered, failed, redone from the entered set; the same after the record at 25
    assert entered[:2] == [np.ndarray, HalfStack] and entered[26:28] == [np.ndarray, HalfStack]
    out = tmp_path / "batch"
    for rec in recs:
        write_record(rec, out)
    for kappa in cfg.kappa_list:
        _assert_same_files(out, write_record(run_single(cfg, kappa=kappa), tmp_path / "alone"))
