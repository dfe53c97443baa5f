"""Calls whose blocks the CPUs share (``spectral._in_parts``): forced to
share them, the transforms, the step, the ledger, the audit and a whole run
give the bits of the calling thread alone; a grid of one axis never starts
the pool, and a forked child drops it."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from support import state_ledger

import nsmlimit.spectral as spectral
from nsmlimit.diagnostics import _audit_chunk
from nsmlimit.harness import parse_config, parse_config_text, run_single, write_record
from nsmlimit.initdata import WellPreparedSpec, make_limit_data, make_well_prepared
from nsmlimit.integrator import HalfStack, build_stiff_operator, step_full
from nsmlimit.model import Params, _join, _stacked
from nsmlimit.spectral import Grid, array_irfft, array_rfft, box_irfft, box_rfft

ROOT = Path(__file__).resolve().parent.parent
GRIDS = [Grid(3, 8), Grid(3, 16)]
GRID_IDS = ["3d8", "3d16"]


@pytest.fixture
def parts(monkeypatch):
    """``parts(workers, floor)`` makes every later call of three axes share
    its blocks as if the pool had ``workers`` threads and a thread needed
    ``floor`` grid points (a block holds at most as many), in a pool of its
    own, shut down at the end; ``workers`` 0 keeps the calling thread
    alone."""
    monkeypatch.setattr(spectral, "_pool", None)

    def force(workers, floor=spectral._SPLIT_POINTS):
        if spectral._pool is not None:
            spectral._pool.shutdown()
        monkeypatch.setattr(spectral, "_pool", None)
        monkeypatch.setattr(spectral, "_workers", workers)
        monkeypatch.setattr(spectral, "_SPLIT_POINTS", floor)

    yield force
    if spectral._pool is not None:
        spectral._pool.shutdown()


# two threads on blocks of one row or plane, three on blocks of several rows on 8^3
SPLITS = [(1, 1), (2, 2048)]


def _same(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _states(grid, kappa):
    limit = make_limit_data(grid, seed=7, amplitude=0.1)
    full = make_well_prepared(WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=kappa))
    return full, limit


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("workers, floor", SPLITS)
def test_transforms_keep_their_bits(grid, workers, floor, parts, rng):
    values = rng.standard_normal((2, 7) + grid.shape)
    half = array_rfft(grid, values)
    box = box_rfft(grid, values)
    want = [half, array_irfft(grid, half), array_irfft(grid, half.copy(), overwrite=True), box,
            box_irfft(grid, box)]
    parts(workers, floor)
    out = np.empty_like(box)
    got = [array_rfft(grid, values), array_irfft(grid, half), array_irfft(grid, half.copy(), overwrite=True),
           box_rfft(grid, values, out=out), box_irfft(grid, box)]
    assert spectral._pool is not None
    assert all(_same(g, w) for g, w in zip(got, want))
    assert got[3] is out


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("workers, floor", SPLITS)
def test_steps_keep_their_bits(grid, workers, floor, parts):
    # the limit and a batch of 4, from a grid stack, then carried and
    # unrecorded, then recorded
    p = Params(kappa=0.1)
    full, limit = _states(grid, p.kappa)
    x = _join([_stacked(limit)] + [_stacked(full)] * 4)
    op = build_stiff_operator(grid, p, 2e-4, (0.4, 0.2, 0.1, 0.05), (full.n.mean,) * 4, limit.n.mean)

    def steps():
        carried = step_full(x, op, record=False)
        again = step_full(carried, op, t=2e-4, record=False)
        return [carried.half, carried.n, again.half, step_full(again, op, t=4e-4), step_full(x, op)]

    want = steps()
    parts(workers, floor)
    got = steps()
    assert isinstance(step_full(x, op, record=False), HalfStack)
    assert all(_same(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("workers, floor", SPLITS)
def test_ledger_and_audit_keep_their_bits(grid, workers, floor, parts):
    p = Params(kappa=0.1)
    snaps = [_states(grid, kappa) for kappa in (0.1, 0.2, 0.3)]
    ts, fulls, limits = (0.0, 0.01, 0.02), tuple(f for f, _ in snaps), tuple(lim for _, lim in snaps)

    def diagnostics():
        rows = state_ledger(ts, fulls, limits, p, 4.0, 1.0)
        terms = _audit_chunk(ts, fulls, limits, p)
        return [np.array([r.as_tuple() for r in rows])] + [terms[key] for key in sorted(terms)]

    want = diagnostics()
    parts(workers, floor)
    got = diagnostics()
    assert all(_same(g, w) for g, w in zip(got, want))


def _outputs(out: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(out.iterdir()) if not f.name.endswith(".time.txt")}


def test_paired_run_writes_the_same_bytes(parts, tmp_path):
    # perfbench/paired_3d.ini at 16^3: every output but the wall-time sidecar
    cfg = parse_config_text((ROOT / "perfbench" / "paired_3d.ini").read_text()
                            .replace("points_per_dim = 32", "points_per_dim = 16"))
    assert cfg.grid == Grid(3, 16)
    written = {}
    for name, workers, floor in (("one", 0, spectral._SPLIT_POINTS), ("split", 1, 4096)):
        parts(workers, floor)
        write_record(run_single(cfg), tmp_path / name)
        written[name] = _outputs(tmp_path / name)
    assert spectral._pool is not None
    assert sorted(written["one"]) == ["run_kappa0.1.csv", "run_kappa0.1.json", "run_kappa0.1_snapshots.npz"]
    assert written["split"] == written["one"]


def test_one_axis_never_starts_the_pool(parts):
    # the acceptance batch stays in the calling thread with a pool of 3,
    # and a short 1-D run even with parts of a single grid point
    cfg = parse_config(ROOT / "configs" / "acceptance.ini")
    parts(3)
    records = run_single(cfg, kappa=tuple(cfg.kappa_list))
    assert [r.status for r in records] == ["completed"] * 4
    parts(3, 1)
    rec = run_single(parse_config_text(cfg.config_text.replace("t_end = 0.1", "t_end = 0.002")))
    assert rec.status == "completed" and rec.n_steps == 10
    assert spectral._pool is None


def test_one_axis_run_imports_no_thread_pool():
    # concurrent.futures is imported at the first split alone
    code = ("import sys\n"
            "from nsmlimit.harness import parse_config_text, run_single\n"
            "import nsmlimit.spectral as spectral\n"
            "rec = run_single(parse_config_text('[step]\\ndt = 2e-4\\nt_end = 1e-3\\n'))\n"
            "assert rec.status == 'completed', rec.message\n"
            "print(spectral._pool is None, 'concurrent.futures' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                     os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "False"]


def test_every_block_runs_once_and_an_error_waits_for_every_thread(parts):
    # 4 threads on 10 blocks of 3 units and one of 2; when the block at 6
    # raises, its thread takes no more, the others take the rest, and every
    # block has ended before the call raises
    parts(3)
    blocks = [(lo, min(lo + 3, 32)) for lo in range(0, 32, 3)]
    taken = []
    spectral._in_parts(3, 32, spectral._SPLIT_POINTS // 3, lambda lo, hi: taken.append((lo, hi)))
    assert sorted(taken) == blocks
    started, ended = [], []

    def body(lo, hi):
        started.append(lo)
        time.sleep(0.01)
        if lo == 6:
            raise ValueError("block 6")
        ended.append(lo)

    with pytest.raises(ValueError, match="block 6"):
        spectral._in_parts(3, 32, spectral._SPLIT_POINTS // 3, body)
    assert sorted(started) == [lo for lo, _ in blocks]
    assert sorted(ended + [6]) == sorted(started)
    assert spectral._pool is not None


def test_blocks_are_handed_out_once_under_contention(parts):
    # 8 threads, more than the CPUs, take 5,000 blocks of one unit with the
    # interpreter switching threads as often as it can: a block lost or
    # handed out twice would show in the list
    parts(7)
    taken = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        spectral._in_parts(3, 5000, spectral._SPLIT_POINTS, lambda lo, hi: taken.append((lo, hi)))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == [(lo, lo + 1) for lo in range(5000)]


def test_shares_without_an_affinity_mask_or_fork_hooks():
    # where os has neither (macOS, Windows) the module imports, the pool
    # takes the CPU count, and a shared call keeps its bits
    code = ("import os\n"
            "del os.sched_getaffinity, os.register_at_fork\n"
            "import numpy as np\n"
            "import nsmlimit.spectral as spectral\n"
            "grid = spectral.Grid(3, 8)\n"
            "values = np.random.default_rng(7).standard_normal((3,) + grid.shape)\n"
            "want = spectral.box_rfft(grid, values)\n"
            "spectral._SPLIT_POINTS = 1\n"
            "got = spectral.box_rfft(grid, values)\n"
            "print(spectral._workers == (os.cpu_count() or 1) - 1, got.tobytes() == want.tobytes())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                     os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "True"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_drops_the_pool(parts, rng):
    parts(1, 1)
    grid, values = Grid(3, 8), rng.standard_normal((3,) + Grid(3, 8).shape)
    want = array_rfft(grid, values)
    assert spectral._pool is not None
    pid = os.fork()
    if pid == 0:  # the child: no pool until its own first split, which makes one
        ok = spectral._pool is None and _same(array_rfft(grid, values), want) and spectral._pool is not None
        os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish")
    assert os.waitstatus_to_exitcode(done[1]) == 0
