"""A run's grid and its caches are freed by reference counting when the run
ends: nothing cached on a Grid refers back to it, so no reference cycle
keeps them until the next cyclic collection."""

import gc
import types
import weakref
from dataclasses import replace
from functools import cached_property, partial

import pytest

from nsmlimit import harness
from nsmlimit.diagnostics import energy_identity_audit
from nsmlimit.initdata import WellPreparedSpec, make_limit_data, make_well_prepared
from nsmlimit.integrator import StepControl, evolve
from nsmlimit.model import Params, random_two_fluid_state, reformulation_check
from nsmlimit.spectral import Grid, box_rfft, moser_ensemble

GRIDS = [(1, 16), (2, 16), (3, 8)]
MAX_K = 2.0  # inside the 2/3-rule box of 8 points
RUN_CONFIG = f"""\
[step]
dt = 2e-4
t_end = 2e-3

[initial]
max_wavenumber = {MAX_K}

[diagnostics]
snapshot_stride = 2
"""


def _reaches(start, target) -> bool:
    """Whether ``target`` is among the objects that ``start`` reaches by
    gc.get_referents.  Modules and classes are not followed, and a function
    only into its closure and its defaults, not into its module's
    globals."""
    seen, todo = set(), list(start)
    while todo:
        obj = todo.pop()
        if obj is target:
            return True
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FunctionType):
            todo += gc.get_referents(*(obj.__closure__ or ())) + list(obj.__defaults__ or ())
        else:
            todo += gc.get_referents(obj)
    return False


def test_a_grid_caches_nothing_that_reaches_it():
    grid = Grid(3, 8)
    names = [name for name, attr in vars(Grid).items() if isinstance(attr, cached_property)]
    for name in names:
        getattr(grid, name)
    assert set(names) <= set(vars(grid)) and "box" in names
    assert not _reaches(vars(grid).values(), grid)
    # the walk finds a transform bound to the grid, as a cached layout held one
    assert _reaches([(grid.box.k, partial(box_rfft, grid))], grid)


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


def _record_and_audit(grid, tmp_path):
    """``run_single``, its record written and read back, and the audit of
    the snapshots read; the weakrefs of the grid they were read onto."""
    cfg = replace(harness.parse_config_text(RUN_CONFIG), grid=grid)
    rec = harness.run_single(cfg)
    paths = harness.write_record(rec, tmp_path)
    _, snaps = harness.load_snapshots(paths["npz"])
    energy_identity_audit(snaps, cfg.params)
    return [weakref.ref(snaps[0][1].grid)]


def _evolve(grid, tmp_path):
    limit = make_limit_data(grid, seed=3, amplitude=0.1, max_wavenumber=MAX_K)
    full = make_well_prepared(WellPreparedSpec.from_seed(limit, seed=3, c0=1.0, kappa=0.4,
                                                         max_wavenumber=MAX_K))
    seen = []
    evolve(full, Params(kappa=0.4), StepControl(dt=2e-4, t_end=1e-3),
           observer=lambda i, t, state: seen.append(state))
    assert len(seen) == 6
    return []


def _reformulation_check(grid, tmp_path):
    p = Params(kappa=0.4)
    reformulation_check(random_two_fluid_state(grid, p, seed=1, max_wavenumber=MAX_K), p)
    return []


def _moser_ensemble(grid, tmp_path):
    moser_ensemble(grid, s=2, n_pairs=2)
    return []


@pytest.mark.parametrize("path", [_record_and_audit, _evolve, _reformulation_check, _moser_ensemble],
                         ids=["record_and_audit", "evolve", "reformulation_check", "moser_ensemble"])
@pytest.mark.parametrize("dims,points", GRIDS, ids=[f"{d}d{n}" for d, n in GRIDS])
def test_the_runs_grid_is_freed_when_the_run_ends(path, dims, points, tmp_path, no_cyclic_gc):
    grid = Grid(dims, points)
    refs = [weakref.ref(grid)] + path(grid, tmp_path)
    del grid
    assert [ref() is None for ref in refs] == [True] * len(refs)
