"""The scripts under scripts/ run end to end and print their tables."""

import importlib.util
import json
import re
import sys
import types
import weakref
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SWEEP_CONFIG = """\
[step]
dt = 2e-4
t_end = 4e-3

[sweep]
kappa_list = 0.4, 0.2, 0.1
"""


def _load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_energy_audit_script(capsys):
    assert _load("energy_audit").main(["--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^dt = 0\.004: max residual = \S+ \(mean \S+\)$", out, re.M)
    assert re.search(r"^dt = 0\.002: max residual = \S+ \(mean \S+\)$", out, re.M)
    assert re.search(r"^shrink under halving: x\d+\.\d\d$", out, re.M)
    for term in range(1, 7):
        assert re.search(rf"^  drop T{term}: residual \S+ \(x\d+\.\d\)$", out, re.M)


def test_convergence_sweep_script(tmp_path, capsys):
    config = tmp_path / "sweep.ini"
    config.write_text(SWEEP_CONFIG)
    out_dir = tmp_path / "out"
    code = _load("convergence_sweep").main(["--config", str(config), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0, out
    lines = out.splitlines()
    assert lines[0].split() == ["kappa", "sup", "sqrt(Gamma)", "sup", "Gamma/k^2",
                                "envelope", "C", "growth", "c", "status"]
    rows = [line.split() for line in lines[1:4]]
    assert [float(r[0]) for r in rows] == [0.4, 0.2, 0.1]
    assert all(len(r) == 6 and r[5] == "completed" for r in rows)
    assert lines[4].startswith("fitted slope = ")
    assert (out_dir / "sweep_summary.json").exists()


def test_bench_record_assembly():
    # the JSON assembly of scripts/bench.py, on the output shape of
    # ``perfbench/run.py --workload all``, without running the benchmark
    bench = _load("bench")

    def row(wall):
        return json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": 64.0, "unit": "MB"}}})

    def stdout(sweep_wall, paired_wall):
        return "\n".join([
            "perfbench sweep_1d seed=7 (input seed 7) mode=end_to_end nproc=2 commit=abc",
            "  wall_s 1.1 s", row(sweep_wall),
            "perfbench paired_3d seed=7 (input seed 7) mode=end_to_end nproc=2 commit=abc",
            row(paired_wall),
            "", "workload   metric                             value",
            "sweep_1d   wall_s                             1.1 s",
        ])

    rows = bench.parse_workloads(stdout(1.1, 1.9))
    assert list(rows) == ["sweep_1d", "paired_3d"]
    env = {"python": "3", "numpy": "2", "scipy": "1", "thread_env": {}, "git_commit": "abc"}
    record = json.loads(json.dumps(bench.assemble("t", 15.0, [rows], env)))
    assert record["tag"] == "t" and record["seconds"] == 15.0 and record["environment"] == env
    assert record["runs"] == 1
    sweep = record["workloads"]["sweep_1d"]
    assert sweep["metrics"]["wall_s"] == {"median": 1.1, "q1": 1.1, "q3": 1.1, "samples": [1.1]}
    assert sweep["units"] == {"wall_s": "s", "peak_rss_mb": "MB"}
    assert (sweep["correct"], sweep["attempted"], sweep["failed"]) == (True, 3, 0)
    assert record["workloads"]["paired_3d"]["metrics"]["wall_s"]["median"] == 1.9
    assert set(bench.environment()) >= {"python", "numpy", "scipy", "thread_env", "git_commit"}


def test_bench_environment_without_scipy(monkeypatch):
    # scipy is a test dependency only: where it cannot be imported the
    # record names no version for it
    import builtins

    bench = _load("bench")
    real_import = builtins.__import__

    def refuse_scipy(name, *args, **kwargs):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} refused")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", refuse_scipy)
    env = bench.environment()
    assert env["scipy"] is None and env["numpy"]


def test_bench_repeats_give_median_and_quartiles():
    bench = _load("bench")

    def run(wall, correct=True):
        return {"sweep_1d": {"correct": correct, "attempted": 3, "failed": int(not correct),
                             "metrics": {"wall_s": {"value": wall, "unit": "s"}}}}

    runs = [run(1.0), run(4.0), run(2.0), run(3.0, correct=False), run(5.0)]
    sweep = bench.assemble("t", 25.0, runs, {})["workloads"]["sweep_1d"]
    assert sweep["metrics"]["wall_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                          "samples": [1.0, 4.0, 2.0, 3.0, 5.0]}
    assert (sweep["correct"], sweep["attempted"], sweep["failed"]) == (False, 15, 1)


def test_bench_needs_one_tree_per_tag(tmp_path, capsys):
    bench = _load("bench")
    for argv in (["--tag", "a", "--tag", "b"], ["--tag", "a", "--tree", str(tmp_path), "--tree", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            bench.main(argv)
        assert exc.value.code == 2
        assert "give one --tree per --tag" in capsys.readouterr().err


def test_bench_rotates_the_tree_order():
    # two trees alternate; with three, each runs first, in the middle and
    # last once in three repeats
    bench = _load("bench")
    assert [bench.run_order(["A", "B"], i) for i in range(4)] == [["A", "B"], ["B", "A"]] * 2
    orders = [bench.run_order(["A", "B", "C"], i) for i in range(3)]
    assert orders == [["A", "B", "C"], ["B", "C", "A"], ["C", "A", "B"]]
    assert all(sorted(place) == ["A", "B", "C"] for place in zip(*orders))


def test_bench_records_tier1_and_src_lines(tmp_path):
    bench = _load("bench")
    assert bench.parse_tier1("....\n419 passed in 19.69s\n") == {"passed": 419, "failed": 0, "errors": 0}
    assert bench.parse_tier1("F.E\n= 1 failed, 417 passed, 1 error in 20.1s =\n") == {
        "passed": 417, "failed": 1, "errors": 1}
    pkg = tmp_path / "src" / "nsmlimit"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not counted\n")
    assert bench.src_lines(tmp_path) == 3
    assert bench.src_code_lines(tmp_path) == 3
    # blank lines, comments and docstrings are no code; strings and
    # continued lines are
    (pkg / "c.py").write_text('"""Module\n\ndocstring."""\n\n# a comment\nclass C:\n    """One line."""\n\n'
                              '    def f(self):  # trailing comment\n        """Two\n        lines."""\n'
                              '        return ("""a\nb""",\n                1)\n')
    assert bench.src_lines(tmp_path) == 3 + 14
    assert bench.src_code_lines(tmp_path) == 3 + 5

    run = {"sweep_1d": {"correct": True, "attempted": 3, "failed": 0,
                        "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}}
    tier1 = [{"wall_s": 21.0, "passed": 419, "failed": 0, "errors": 0},
             {"wall_s": 23.0, "passed": 418, "failed": 1, "errors": 0}]
    record = json.loads(json.dumps(bench.assemble("t", 25.0, [run, run], {}, tier1, 3300, 2100)))
    assert (record["src_lines"], record["src_code_lines"]) == (3300, 2100)
    assert record["tier1"] == {"command": "python -m pytest -q --continue-on-collection-errors",
                               "wall_s": {"median": 22.0, "q1": 21.5, "q3": 22.5, "samples": [21.0, 23.0]},
                               "passed": [419, 418], "failed": [0, 1], "errors": [0, 0]}
    assert bench.assemble("t", 25.0, [run], {})["tier1"] is None


def test_step_ab_smoke(tmp_path, capsys):
    # this tree against itself on tiny inputs: one batch (1-D) and one single
    # run (3-D), which alone reports the tracemalloc peak per step; each side
    # is imported under its own package name.  8 points keep modes up to
    # 8/3 inside the 2/3 cutoff, so the data are band-limited to |k| <= 2
    step_ab = _load("step_ab")
    sweep, run = tmp_path / "sweep.ini", tmp_path / "run.ini"
    sweep.write_text("[grid]\npoints_per_dim = 16\n\n[step]\ndt = 2e-4\nt_end = 2e-3\n\n"
                     "[sweep]\nkappa_list = 0.4, 0.2\n")
    run.write_text("[grid]\ndims_active = 3\npoints_per_dim = 8\n\n[step]\ndt = 2e-4\nt_end = 2e-3\n\n"
                   "[initial]\nmax_wavenumber = 2\n")
    tree = str(SCRIPTS.parent)
    try:
        assert step_ab.main(["--tree", tree, "--tree", tree, "--rounds", "2", "--steps", "2",
                             "--sweep", str(sweep), "--run", str(run)]) == 0
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in ("nsmlimit_a", "nsmlimit_b")]:
            del sys.modules[name]
    out = capsys.readouterr().out
    assert re.search(r"^sweep sweep\.ini: 2 rounds of 2 paired steps per tree$", out, re.M)
    assert re.search(r"^run run\.ini: 2 rounds of 2 paired steps per tree$", out, re.M)
    assert len(re.findall(r"^  tree +median_ms +q1_ms +q3_ms +faults/step$", out, re.M)) == 1
    assert len(re.findall(r"^  tree +median_ms +q1_ms +q3_ms +faults/step +peak_MiB/step$", out, re.M)) == 1
    times = r" +\d+\.\d{3} +\d+\.\d{3} +\d+\.\d{3} +\d+"
    for tag in "AB":
        assert len(re.findall(rf"^  {tag}{times}$", out, re.M)) == 1
        peaks = re.findall(rf"^  {tag}{times} +(\d+\.\d{{3}})$", out, re.M)
        assert len(peaks) == 1 and float(peaks[0]) > 0.0
    assert len(re.findall(r"B faster in \d/2 rounds; final states bit-identical$", out, re.M)) == 2
    # the single run alone reports the traced memory held at its first step,
    # the transients of writing its record and of its ledger, and the peak
    # of a whole unit, which is above the first
    assert len(re.findall(r"^  traced MiB: held at the first step; transients of write_record "
                          r"and make_energy_ledger on the run's record; peak of a whole "
                          r"run_single \+ write_record$", out, re.M)) == 1
    assert len(re.findall(r"^  tree +held_MiB +write_MiB +ledger_MiB +unit_MiB$", out, re.M)) == 1
    for tag in "AB":
        memory = re.findall(rf"^  {tag} +(\d+\.\d\d) +(\d+\.\d\d) +(\d+\.\d\d) +(\d+\.\d\d)$", out, re.M)
        assert len(memory) == 1 and all(float(v) > 0.0 for v in memory[0])
        assert float(memory[0][3]) > float(memory[0][0])
    # the 3-D run alone ends with the A/B of its rate's box transforms: the
    # paired stack (the limit's 4 rows and the member's 13) to the grid, its
    # 33 product rows forward, 11 conservative-rate rows back and 9
    # quotient rows forward
    assert re.findall(r"^  transforms of one rate evaluation, rows: (.*)$", out, re.M) == [
        "inverse 17, forward 33, inverse 11, forward 9"]
    assert len(re.findall(r"^  tree +median_ms +q1_ms +q3_ms$", out, re.M)) == 1
    for tag in "AB":
        assert len(re.findall(rf"^  {tag} +\d+\.\d{{3}} +\d+\.\d{{3}} +\d+\.\d{{3}}$", out, re.M)) == 1
    assert re.search(r"^  transforms B/A median \d+\.\d{3}; B faster in \d/2 rounds$", out, re.M)


def test_step_ab_phases_smoke(tmp_path, capsys):
    # this tree against itself on a tiny 3-D run, phase by phase, in a fresh
    # process per tree and round: none of them is imported here
    step_ab = _load("step_ab")
    run = tmp_path / "run.ini"
    run.write_text("[grid]\ndims_active = 3\npoints_per_dim = 8\n\n[step]\ndt = 2e-4\nt_end = 2e-3\n\n"
                   "[initial]\nmax_wavenumber = 2\n")
    tree = str(SCRIPTS.parent)
    assert step_ab.main(["--tree", tree, "--tree", tree, "--rounds", "2", "--phases", str(run)]) == 0
    assert not [m for m in sys.modules if m.split(".")[0] in ("nsmlimit_a", "nsmlimit_b")]
    out = capsys.readouterr().out
    assert re.search(r"^phases run\.ini: 2 rounds, a fresh process per tree and round, "
                     r"the last of 2 units each$", out, re.M)
    assert re.search(r"^  phase +A_ms +B_ms +B/A +B_faster +A_faults +B_faults$", out, re.M)
    rows = re.findall(r"^  (\S+) +(\d+\.\d\d) +(\d+\.\d\d) +\d+\.\d{3} +\d/2 +\d+ +\d+$", out, re.M)
    assert [name for name, _, _ in rows] == list(step_ab.PHASES)
    assert all(float(a) > 0.0 and float(b) > 0.0 for _, a, b in rows)
    # the phases of a unit take part of its time
    ms = {name: float(a) for name, a, _ in rows}
    assert sum(ms[name] for name in step_ab.PHASES[:-1]) < ms["unit"]


def test_step_ab_phases_memory_table(tmp_path, capsys):
    # below the time table: per phase the rise of ru_maxrss in the first
    # unit of each process and in the last, whose phases are disjoint parts
    # of the unit, then the first unit's set-up time
    step_ab = _load("step_ab")
    run = tmp_path / "run.ini"
    run.write_text("[grid]\ndims_active = 3\npoints_per_dim = 8\n\n[step]\ndt = 2e-4\nt_end = 2e-3\n\n"
                   "[initial]\nmax_wavenumber = 2\n")
    tree = str(SCRIPTS.parent)
    assert step_ab.main(["--tree", tree, "--tree", tree, "--rounds", "1", "--phases", str(run)]) == 0
    out = capsys.readouterr().out
    title = re.search(rf"^  median rise of ru_maxrss \({step_ab.RSS_UNIT}\) per phase, "
                      r"in the first unit and in the last$", out, re.M)
    assert title and title.start() > out.index("B_faults")
    assert re.search(r"^  phase +A_first +B_first +A_last +B_last$", out, re.M)
    rows = re.findall(r"^  (\S+) +(\d+) +(\d+) +(\d+) +(\d+)$", out, re.M)
    assert [name for name, *_ in rows] == list(step_ab.PHASES)
    rises = np.array([[int(v) for v in values] for _, *values in rows])
    assert (rises[:-1].sum(axis=0) <= rises[-1]).all(), rows
    cold = re.findall(r"^  first unit's set-up: A (\d+\.\d\d) ms, B (\d+\.\d\d) ms, "
                      r"B/A \d+\.\d{3}; B faster in \d/1 rounds$", out, re.M)
    assert len(cold) == 1 and all(float(v) > 0.0 for v in cold[0])


def test_step_ab_phases_release_the_record_before_the_next_unit(tmp_path, monkeypatch):
    # the record of a unit is gone when the next unit's run starts, so the
    # last unit's figures do not hold the snapshots of the first
    from nsmlimit import harness

    step_ab = _load("step_ab")
    run = tmp_path / "run.ini"
    run.write_text("[grid]\ndims_active = 3\npoints_per_dim = 8\n\n[initial]\nmax_wavenumber = 2\n")
    records, alive = [], []

    class Record:
        pass

    def run_single(cfg):
        alive.append([ref() is not None for ref in records])
        rec = Record()
        records.append(weakref.ref(rec))
        return rec

    monkeypatch.setattr(harness, "run_single", run_single)
    monkeypatch.setattr(harness, "write_record", lambda rec, out: None)
    assert len(step_ab.phase_unit(run)) == step_ab.UNITS == 2
    assert alive == [[], [False]]
    assert [ref() for ref in records] == [None, None]


def test_step_ab_spies_on_the_transforms_of_either_tree():
    # a tree whose rate coefficients hold the rate's transforms and one
    # whose layout ``coef.modes`` holds them: both record the calls the
    # rate makes, in order, on copies of their arguments
    step_ab = _load("step_ab")

    class Transforms(NamedTuple):
        forward: object
        inverse: object

    class Layout(NamedTuple):
        modes: Transforms

    def forward(a):
        return a + 1.0

    def inverse(a):
        return a - 1.0

    for coef, owner in ((Transforms(forward, inverse), lambda c: c),
                        (Layout(Transforms(forward, inverse)), lambda c: c.modes)):
        rate = lambda x, c, owner=owner: owner(c).forward(owner(c).inverse(x))
        pkg = types.SimpleNamespace(model=types.SimpleNamespace(_full_rate=rate))
        call = step_ab.Call(None, {"op": types.SimpleNamespace(coef=coef), "x": np.zeros(2)}, None, 0.1)
        calls = step_ab.rate_transforms(pkg, call)
        assert [(t, a.tolist()) for t, a, _ in calls] == [(inverse, [1.0, 1.0]), (forward, [0.0, 0.0])]
    assert step_ab.rate_transforms(None, step_ab.Call(None, {"op": None}, None, 0.1)) is None


def test_step_ab_compares_states_member_by_member():
    # the final stack of a member set, field by field and member by member,
    # the limit first: equal to the stacks of its members alone; one changed
    # bit differs
    import nsmlimit.model as model
    from nsmlimit.initdata import WellPreparedSpec, make_limit_data, make_well_prepared
    from nsmlimit.spectral import Grid

    step_ab = _load("step_ab")
    grid = Grid(1, 16)
    limit = make_limit_data(grid, seed=3, amplitude=0.1)
    fulls = [model._stacked(make_well_prepared(WellPreparedSpec.from_seed(limit, seed=3, c0=1.0, kappa=k)))
             for k in (0.4, 0.2)]
    pkg = sys.modules["nsmlimit"]
    xl = model._stacked(limit)
    for members in (fulls, fulls[:1]):
        x = model._join([xl] + members)
        fields = step_ab.member_fields(pkg, grid, x)
        assert [len(f) for f in fields] == [2] + [5] * len(members)
        alone = [step_ab.member_fields(pkg, grid, y)[0] for y in [xl] + members]
        assert all(np.array_equal(a, b) for fa, fb in zip(fields, alone) for a, b in zip(fa, fb))
        assert step_ab.same_states({"A": (pkg, x), "B": (pkg, x.copy())}, grid)
        changed = x.copy()
        changed[-1, 3] = np.nextafter(changed[-1, 3], np.inf)  # the last member's B
        assert not step_ab.same_states({"A": (pkg, changed), "B": (pkg, x)}, grid)
        # the field that differs, relative to its largest magnitude
        diffs = step_ab.field_differences({"A": (pkg, changed), "B": (pkg, x)}, grid)
        assert [name for name, _ in diffs] == [f"member {len(members)} B"]
        scale = np.abs(x[-3:]).max()
        assert diffs[0][1] == abs(changed[-1, 3] - x[-1, 3]).max() / scale
    # sets of other members are not compared field by field
    assert step_ab.field_differences({"A": (pkg, model._join([xl] + fulls)), "B": (pkg, x)}, grid) is None


def test_step_ab_replays_either_step_signature():
    # a step_full that takes the grid, Params and StepControl beside the
    # stack and the operator, one that takes the stack and the operator
    # alone, and one that also takes ``record``: each caught call is
    # replayed with only x and t replaced, and record where it is taken
    step_ab = _load("step_ab")
    seen = []

    def old(grid, x, p, sc, op=None, forcing=None, t=0.0):
        seen.append((grid, x, p, sc, op, forcing, t))
        return x + 1

    def new(x, op, t=0.0, forcing=None):
        seen.append((x, op, t, forcing))
        return x + 1

    def fused(x, op, t=0.0, forcing=None, record=True):
        seen.append((x, op, t, forcing, record))
        return x + 1

    for stepper, args, kwargs, want in (
            (old, ("grid", 10, "p", "sc"), {"op": "op", "t": 0.0},
             lambda x, t: ("grid", x, "p", "sc", "op", None, t)),
            (new, (10, "op"), {"t": 0.0}, lambda x, t: (x, "op", t, None)),
            (fused, (10, "op"), {"t": 0.0, "record": False}, lambda x, t: (x, "op", t, None, False))):
        arguments = step_ab.bind_call(stepper, args, kwargs)
        for x, t in ((11, 0.5), (12, 1.0)):  # the caught arguments are left as they were
            assert step_ab.replay(stepper, arguments, x, t) == x + 1
            assert seen.pop() == want(x, t)
        assert arguments["x"] == 10 and arguments["t"] == 0.0
    # S paired steps as run_single makes them between records: a stepper
    # that takes ``record`` records the last step alone
    for stepper, flags in ((new, [None] * 3), (fused, [False, False, True])):
        arguments = step_ab.bind_call(stepper, (10, "op"), {"t": 0.0})
        _, _, final = step_ab.paired_steps(step_ab.Call(stepper, arguments, "grid", 0.5), 3)
        assert final == 13
        assert [call[4] if len(call) == 5 else None for call in seen] == flags
        assert [call[2] for call in seen] == [0.0, 0.5, 1.0]
        seen.clear()


def test_step_ab_catches_the_stack_of_either_march():
    # a march that hands the step a grid stack, and one that hands it the
    # stack in a one-slot holder: either caught call replays on the stack
    step_ab = _load("step_ab")
    stack = np.arange(4.0)

    def step_full(x, op, t=0.0, forcing=None, record=True):
        return x

    for handed in (stack, [stack]):
        def run_single(cfg, kappa=None, _handed=handed):
            harness.step_full(_handed, "op", t=0.0, forcing=None, record=False)

        harness = types.SimpleNamespace(step_full=step_full, run_single=run_single, parse_config=lambda path:
                                        types.SimpleNamespace(grid="grid", step=types.SimpleNamespace(dt=0.5)))
        call = step_ab.first_step(types.SimpleNamespace(harness=harness), Path("run.ini"), False)
        assert call.arguments["x"] is stack and call.stepper is step_full


def test_step_ab_column_differences():
    # only the columns whose bits differ, relative to the larger magnitude;
    # -0.0 against 0.0 differs in its bits, by 0
    step_ab = _load("step_ab")
    a = np.array([[1.0, 2.0, 0.0, 5.0], [3.0, 4.0, 0.0, 0.0]])
    b = np.array([[1.0, 2.0 * (1 + 1e-12), -0.0, 5.0], [3.0, 4.0, 0.0, 1.0]])
    assert step_ab.column_differences(a, a.copy(), "wxyz") == []
    diffs = step_ab.column_differences(a, b, "wxyz")
    assert [name for name, _ in diffs] == ["x", "y", "z"]
    assert diffs[0][1] == pytest.approx(1e-12, rel=1e-3)
    assert diffs[1][1] == 0.0
    assert diffs[2][1] == 1.0


def test_step_ab_audit_smoke(tmp_path, capsys):
    # the record-and-audit input alone, this tree against itself on a short
    # 1-D run with a snapshot every step
    step_ab = _load("step_ab")
    audit = tmp_path / "audit.ini"
    audit.write_text("[grid]\npoints_per_dim = 16\n\n[step]\ndt = 2e-4\nt_end = 2e-3\n\n"
                     "[diagnostics]\nsnapshot_stride = 1\n")
    tree = str(SCRIPTS.parent)
    try:
        assert step_ab.main(["--tree", tree, "--tree", tree, "--rounds", "2", "--audit", str(audit)]) == 0
        out = capsys.readouterr().out
        pkg = sys.modules["nsmlimit_a"]
        cfg = pkg.harness.parse_config(audit)
        snaps = pkg.harness.run_single(cfg).snapshots
        chunked = step_ab.audit_pass(pkg, snaps, cfg.params, cfg.l)
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in ("nsmlimit_a", "nsmlimit_b")]:
            del sys.modules[name]
    assert out.startswith("audit audit.ini: 2 rounds of one pass over 11 snapshots per tree\n")
    for tag in "AB":
        assert len(re.findall(rf"^  {tag} +\d+\.\d{{3}} +\d+\.\d{{3}} +\d+\.\d{{3}} +\d+$", out, re.M)) == 1
    assert re.search(r"B faster in \d/2 rounds; rows and residuals bit-identical$", out, re.M)
    assert "paired steps" not in out
    assert chunked[2].shape == (11, 14)


def test_cmp_outputs_smoke(tmp_path, capsys):
    # this tree against itself on a short C8-style sweep: every output but
    # the timing files, the audits and the printed table included, is
    # byte-identical
    cmp_outputs = _load("cmp_outputs")
    config = tmp_path / "sweep.ini"
    config.write_text("[grid]\npoints_per_dim = 16\n\n[step]\ndt = 2e-4\nt_end = 2e-3\n\n"
                      "[sweep]\nkappa_list = 0.4, 0.2, 0.1\n\n[diagnostics]\nsnapshot_stride = 5\n")
    tree = str(SCRIPTS.parent)
    assert cmp_outputs.main(["--tree", tree, "--tree", tree, "--sweep", str(config)]) == 0
    # per member a CSV, JSON, npz and audit, the summary and the sweep's table
    assert capsys.readouterr().out == "sweep sweep.ini: 14 outputs identical\n"


def test_cmp_outputs_saves_stderr(tmp_path):
    # a one-step run records 2 snapshots, too few for the audit: its config
    # error on stderr is saved after the separator line, with the output
    # directory written as OUT, so a changed error message is a difference
    cmp_outputs = _load("cmp_outputs")
    config = tmp_path / "run.ini"
    config.write_text("[step]\ndt = 2e-4\nt_end = 2e-4\n")
    out = tmp_path / "out"
    cmp_outputs.run_tree(SCRIPTS.parent, out, ["run", "--config", str(config)])
    assert (out / "command.txt").read_text().endswith("OUT/run_kappa0.1.json\n--- stderr ---\n")
    assert (out / "run_kappa0.1.audit.txt").read_text() == (
        "exit 2\n--- stderr ---\nconfig error: need at least 3 snapshots for the energy audit; "
        "OUT/run_kappa0.1_snapshots.npz holds 2 snapshots\n")


def test_cmp_outputs_names_what_differs(tmp_path):
    cmp_outputs = _load("cmp_outputs")
    a, b = tmp_path / "A", tmp_path / "B"
    for d, gamma, wall in ((a, "0.5", "1.0"), (b, "0.5000000001", "2.0")):
        d.mkdir()
        (d / "run.csv").write_text(f"t,gamma,norm_N\n0,1,2\n0.1,{gamma},3\n")
        (d / "run.time.txt").write_text(f"wall_seconds = {wall}\n")
        (d / "run.json").write_text("{}\n")
    (a / "short.csv").write_text("t,gamma\n0,1\n")
    (b / "short.csv").write_text("t,gamma\n0,1\n0.1,2\n")
    (b / "extra.json").write_text("{}\n")
    n, lines = cmp_outputs.compare_dirs(a, b)
    assert n == 4
    assert lines[0] == "only in B: extra.json"
    assert lines[1].startswith("run.csv differs: gamma 2e-10") and "norm_N" not in lines[1]
    assert lines[2:] == ["short.csv differs in its header or row count"]

