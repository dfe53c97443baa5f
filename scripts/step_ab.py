"""Interleaved in-process A/B of one paired step, or of the record-and-audit
path, in two source trees.

    python scripts/step_ab.py --tree A_DIR --tree B_DIR [--rounds R] [--steps S]
                              [--sweep CONFIG ...] [--run CONFIG ...]
                              [--audit CONFIG ...] [--phases CONFIG ...]

Imports each tree's ``src/nsmlimit`` under its own package name
(``nsmlimit_a``, ``nsmlimit_b``) into one process, so both sides share the
interpreter, the numpy build and the machine state.  Each input is a config
file: ``--sweep`` steps the batch of its ``[sweep] kappa_list`` (as
``nsmlimit sweep`` does) and ``--run`` its single ``[params] kappa`` (as
``nsmlimit run``); by default the inputs are ``--sweep
configs/acceptance.ini --run perfbench/paired_3d.ini``.

A paired step is one step of ``run_single``: one ``step_full`` call on the
stack that holds the limit and every member.  Each tree's first such call
is caught, with its arguments bound by name, and the run stopped there; a
step replays that call with only its stack ``x`` and its time ``t``
replaced, and its ``record`` flag where its ``step_full`` takes one.  So
the two trees may pass the step different arguments: a tree whose
``step_full`` takes the grid, Params and StepControl beside the stack and
the operator runs against one whose ``step_full`` takes the stack and the
operator alone, and a tree whose steps all end on the grid against one
whose unrecorded steps stay on the half-spectrum.  Per round and input,
each tree runs S paired steps from the initial stack, as ``run_single``
runs them between two records: every step but the last unrecorded, the
last recorded, so the final state is a grid stack.  The two trees run in
alternating order, after one untimed warm-up round.  Reported per input
and tree: the median and quartiles of the paired-step time over all
rounds, the median minor page faults per step, for ``--run`` inputs the
median tracemalloc peak per step, the rounds in which B's median step was
faster than A's, and whether both trees' final states are bit for bit
equal, field by field and member by member (the limit first);
if not, each field whose bits differ, with its largest difference
relative to the field's largest magnitude in either tree.

For ``--run`` inputs on two or three active axes, the tables end with an
A/B of the box transforms alone: each tree's rate, evaluated once on the
box coefficients of the caught stack, records the forward and inverse
transforms it makes (``model._full_rate`` through its layout), and a pass
replays them on copies of their arguments.  Per round each tree makes one
pass, in alternating order, after one untimed warm-up pass.  Reported per
tree: the rows of each transform, the median and quartiles of the pass
time, and the rounds in which B's pass was faster.  That ratio spreads
less than whole 3-D steps do: four 30-round runs on the same two trees
read 1.004, 1.064, 1.066 and 1.106, while their step ratios read 0.967 to
1.035 and their median steps 66-89 ms from one process to the next.

Both trees share one process and its heap, so each side's temporaries are
placed by the other's allocation history.  On the call-overhead-bound 1-D
inputs that does not show, but a 3-D ratio from here is not reproducible:
three runs on the same two trees with ``perfbench/paired_3d.ini`` read
B/A 1.106, 0.965 and 1/1.05, and the median minor faults per step ranged
from 364 to 4,238 for the same code.  3-D comparisons use
``scripts/bench.py`` pairs, one process per tree and run.  The tracemalloc
peak of a step does not depend on that history: it is the most memory
numpy and Python held during the step above what they held at its start
(its temporaries and its result), taken in one untimed, traced pass of S
paired steps per tree after the timed rounds.

``--run`` inputs also report, per tree, three tracemalloc figures that do
not depend on the heap either: the traced memory a run of the config holds
at its first ``step_full`` call (its set-up, through the same catch), and
the transients of ``write_record`` and of one ``make_energy_ledger`` call on
the record of a whole run of it, each the peak above the traced memory at
the call's start, taken after one untraced warm-up call.  They are the
heap-independent twins of ``peak_rss_mb``.

``--audit`` times what a run does with its snapshots: each tree runs the
config's single ``[params] kappa`` once through its own ``run_single``
(untimed), and a pass is the ledger rows of those snapshots (one
``make_energy_ledger`` call on their sequences) plus ``energy_identity_audit``
on them.  Per round each tree makes one pass, in alternating order, after
one untimed warm-up pass.  Reported per tree: the median and quartiles of
the pass time and its median minor page faults, the rounds in which B's
pass was faster, and whether both trees' rows and audit residuals are bit
for bit equal; if not, each ledger column (and the audit residual) whose
bits differ, with its largest relative difference.

``--phases`` times a whole unit of a config's single run, ``run_single``
and ``write_record`` into a temporary directory, phase by phase, with no
two trees in one process: per round each tree runs in a fresh process of
its own, with its ``src`` first on PYTHONPATH, the trees in alternating
order.  The process runs ``UNITS`` (2) units and reports the last, so
the first warms it up.  Its phases are the set-up (from the call of
``run_single`` to its first ``step_full`` call), the
``step_full`` calls, the ``make_energy_ledger`` calls and
``write_record``, each timed through the name ``harness`` calls it by, and
the whole unit.  Reported per phase and tree: the median wall time and the
median minor page faults over the rounds (of every thread of the process),
and the rounds in which B's phase was faster than A's.  A second table
gives per phase and tree the median rise of the process' ``ru_maxrss``
during the phase, in the unit getrusage reports it in (KiB on Linux), in
the first unit and in the last: a phase whose rise is not 0 raised the
process' peak RSS.  Below it stands the first (cold) unit's
set-up time per tree, against the last unit's in the first table.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class _Caught(Exception):
    """Stops ``run_single`` once its first paired step has been called."""


def import_tree(tree: Path, name: str):
    """The package ``src/nsmlimit`` of ``tree``, imported as ``name``."""
    pkg = tree / "src" / "nsmlimit"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("model", "harness", "integrator", "diagnostics"):
        importlib.import_module(f"{name}.{sub}")
    return module


def bind_call(stepper, args: tuple, kwargs: dict) -> dict:
    """The arguments of a call of ``stepper``, by parameter name."""
    return dict(inspect.signature(stepper).bind(*args, **kwargs).arguments)


def replay(stepper, arguments: dict, x, t: float, **changes):
    """A call bound by ``bind_call`` again, with its stack, its time and
    any further ``changes`` replaced."""
    return stepper(**(arguments | {"x": x, "t": t} | changes))


class Call(NamedTuple):
    """A caught step: its tree's ``step_full``, its arguments by name, and
    the grid and dt of the config it came from."""

    stepper: object
    arguments: dict
    grid: object
    dt: float


def first_step(pkg, config: Path, batch: bool, probe=None) -> Call:
    """The first ``step_full`` call of ``harness.run_single`` on ``config``
    in package ``pkg``; ``probe()``, if given, is called in it, while the
    run is still on the stack."""
    harness = pkg.harness
    cfg = harness.parse_config(config)
    step_full, caught = harness.step_full, {}

    def catch(*args, **kwargs):
        caught.update(bind_call(step_full, args, kwargs))
        if probe is not None:
            probe()
        raise _Caught

    harness.step_full = catch
    try:
        harness.run_single(cfg, kappa=tuple(cfg.kappa_list) if batch else None)
    except _Caught:
        pass
    finally:
        harness.step_full = step_full
    if not caught:
        raise SystemExit(f"{config}: the run made no step")
    return Call(step_full, caught, cfg.grid, cfg.step.dt)


def paired_steps(call: Call, steps: int, peaks: list | None = None):
    """S paired steps from the caught call, all but the last unrecorded
    where the tree's ``step_full`` takes ``record``: the per-step seconds,
    the minor faults per step, and the final stack.  Given a ``peaks``
    list, the steps run under tracemalloc, which slows them, and each
    appends its peak traced bytes above the traced bytes at its start."""
    x = call.arguments["x"]
    fused = "record" in inspect.signature(call.stepper).parameters
    seconds, faults = [], []
    if peaks is not None:
        tracemalloc.start()
    try:
        for i in range(steps):
            changes = {"record": i == steps - 1} if fused else {}
            if peaks is not None:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            x = replay(call.stepper, call.arguments, x, i * call.dt, **changes)
            t1 = time.perf_counter()
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            seconds.append(t1 - t0)
            if peaks is not None:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        if peaks is not None:
            tracemalloc.stop()
    return seconds, faults, x


def traced_peak(fn) -> int:
    """The most bytes tracemalloc saw held while ``fn()`` ran, above those
    held at its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def held_at_first_step(pkg, config: Path) -> int:
    """The traced bytes a single run of ``config`` holds at its first
    ``step_full`` call: its config, initial data, stack, operator and
    anything else it keeps from its set-up."""
    held = []
    tracemalloc.start()
    try:
        first_step(pkg, config, False, probe=lambda: held.append(tracemalloc.get_traced_memory()[0]))
    finally:
        tracemalloc.stop()
    return held[0]


def record_transients(pkg, config: Path) -> tuple[int, int]:
    """The traced transients of ``write_record`` and of ``make_energy_ledger``
    on the record of a single run of ``config``, each after one untraced
    warm-up call."""
    cfg = pkg.harness.parse_config(config)
    rec = pkg.harness.run_single(cfg)
    snaps = rec.snapshots
    mass0 = pkg.spectral.grid_integral(cfg.grid, snaps[0][1].n.values)
    with tempfile.TemporaryDirectory() as out:
        calls = (lambda: pkg.harness.write_record(rec, out),
                 lambda: pkg.diagnostics.make_energy_ledger(*zip(*snaps), cfg.params, cfg.l, mass0))
        for call in calls:
            call()
        return tuple(traced_peak(call) for call in calls)


def member_fields(pkg, grid, x: np.ndarray) -> list:
    """The field arrays of each member of a member set's stack x, the limit
    first."""
    model = pkg.model
    states = [model._state_view(grid, x, m) for m in range(model._layout(len(x)).members)]
    return [[f.values for f in vars(state).values()] for state in states]


FIELD_NAMES = ("n", "u", "jt", "E", "B")  # a member's fields; the limit has the first two


def field_differences(sides: dict, grid) -> list | None:
    """(member and field, largest difference) of each field of both trees'
    final states whose bits differ, the difference relative to the field's
    largest magnitude in either tree (0 where both are 0); None when the two
    sets do not hold the same members and fields."""
    (pkg_a, a), (pkg_b, b) = sides["A"], sides["B"]
    fields_a, fields_b = member_fields(pkg_a, grid, a), member_fields(pkg_b, grid, b)
    if [[f.shape for f in fa] for fa in fields_a] != [[f.shape for f in fb] for fb in fields_b]:
        return None
    out = []
    for member, (fa, fb) in enumerate(zip(fields_a, fields_b)):
        for name, x, y in zip(FIELD_NAMES, fa, fb):
            if x.tobytes() != y.tobytes():
                scale = max(np.abs(x).max(), np.abs(y).max())
                out.append((f"member {member} {name}", float(np.abs(x - y).max() / scale) if scale else 0.0))
    return out


def same_states(sides: dict, grid) -> bool:
    """Whether both trees' final states agree bit for bit, field by field."""
    return field_differences(sides, grid) == []


def rate_transforms(pkg, call: Call) -> list | None:
    """The box transforms of one rate evaluation of the caught step, as
    (transform, argument, keyword arguments) triples to replay: the
    forward and inverse calls ``model._full_rate`` makes through its
    layout on the box coefficients of the step's stack.  None for a tree
    whose operator or rate coefficients hold no such layout."""
    coef = getattr(call.arguments.get("op"), "coef", None)
    modes = getattr(coef, "modes", None)
    if modes is None or not hasattr(modes, "forward"):
        return None
    calls = []

    def recording(transform):
        def wrapper(a, **kwargs):
            calls.append((transform, a.copy(), {k: np.empty_like(v) for k, v in kwargs.items()}))
            return transform(a, **kwargs)
        return wrapper

    spy = coef._replace(modes=modes._replace(forward=recording(modes.forward),
                                             inverse=recording(modes.inverse)))
    pkg.model._full_rate(modes.forward(call.arguments["x"]), spy)
    return calls


def transform_pass(calls: list) -> float:
    """Seconds to replay the recorded transforms of one rate evaluation once."""
    t0 = time.perf_counter()
    for transform, a, kwargs in calls:
        transform(a, **kwargs)
    return time.perf_counter() - t0


def compare_transforms(sides: list, rounds: int) -> None:
    """Print the A/B of the box transforms of one rate evaluation: per tree
    the median and quartiles of a pass over them, the two trees in
    alternating order per round after one untimed warm-up pass."""
    recorded = [(tag, rate_transforms(pkg, call)) for tag, pkg, call in sides]
    if any(calls is None for _, calls in recorded):
        print("  transforms: a tree's rate holds no box layout; not compared")
        return
    grid, k2 = sides[0][2].grid, sides[0][2].arguments["op"].coef.modes.k2
    rows = [(("forward", a.size // math.prod(grid.shape)) if a.dtype.kind == "f"
             else ("inverse", a.size // k2.size)) for _, a, _ in recorded[0][1]]
    for _, calls in recorded:
        transform_pass(calls)
    samples, wins = {tag: [] for tag, _ in recorded}, 0
    for r in range(rounds):
        seconds = {}
        for tag, calls in recorded if r % 2 == 0 else recorded[::-1]:
            seconds[tag] = transform_pass(calls)
            samples[tag].append(seconds[tag])
        wins += seconds["B"] < seconds["A"]
    print("  transforms of one rate evaluation, rows: "
          + ", ".join(f"{kind} {n}" for kind, n in rows))
    print(f"  {'tree':4} {'median_ms':>10} {'q1_ms':>9} {'q3_ms':>9}")
    median_ms = {}
    for tag, _ in recorded:
        q1, median_ms[tag], q3 = np.percentile(samples[tag], [25, 50, 75]) * 1e3
        print(f"  {tag:4} {median_ms[tag]:10.3f} {q1:9.3f} {q3:9.3f}")
    print(f"  transforms B/A median {median_ms['B'] / median_ms['A']:.3f}; "
          f"B faster in {wins}/{rounds} rounds")


def compare(trees, name: str, config: Path, batch: bool, rounds: int, steps: int) -> None:
    """Run the A/B of one input and print its table."""
    sides = [(tag, pkg, first_step(pkg, config, batch)) for tag, pkg in trees]
    for _, _, call in sides:  # warm-up, untimed
        paired_steps(call, steps)
    samples = {tag: {"s": [], "faults": []} for tag, _, _ in sides}
    wins, identical = 0, True
    for r in range(rounds):
        medians, finals = {}, {}
        for tag, pkg, call in sides if r % 2 == 0 else sides[::-1]:
            seconds, faults, x = paired_steps(call, steps)
            finals[tag] = (pkg, x)
            samples[tag]["s"] += seconds
            samples[tag]["faults"] += faults
            medians[tag] = np.median(seconds)
        wins += medians["B"] < medians["A"]
        differences = field_differences(finals, sides[0][2].grid)
        identical &= differences == []
    peak, memory = {}, {}
    if not batch:  # traced passes per tree, untimed
        for tag, pkg, call in sides:
            peaks = []
            paired_steps(call, steps, peaks)
            peak[tag] = f" {np.median(peaks) / 2**20:14.3f}"
            memory[tag] = (held_at_first_step(pkg, config), *record_transients(pkg, config))
    print(f"{name}: {rounds} rounds of {steps} paired steps per tree")
    print(f"  {'tree':4} {'median_ms':>10} {'q1_ms':>9} {'q3_ms':>9} {'faults/step':>12}"
          + (f" {'peak_MiB/step':>14}" if peak else ""))
    median_ms = {}
    for tag, _, _ in sides:
        q1, median_ms[tag], q3 = np.percentile(samples[tag]["s"], [25, 50, 75]) * 1e3
        print(f"  {tag:4} {median_ms[tag]:10.3f} {q1:9.3f} {q3:9.3f} {np.median(samples[tag]['faults']):12.0f}"
              + peak.get(tag, ""))
    print(f"  B/A median {median_ms['B'] / median_ms['A']:.3f}; B faster in {wins}/{rounds} rounds; "
          f"final states {'bit-identical' if identical else 'DIFFER'}")
    if differences is None:
        print("  the final states hold different members or fields")
    for name, rel in differences or ():
        print(f"  {name} differs: max relative difference {rel:.3g}")
    if memory:
        print("  traced MiB: held at the first step; transients of write_record and make_energy_ledger "
              "on the run's record")
        print(f"  {'tree':4} {'held_MiB':>10} {'write_MiB':>10} {'ledger_MiB':>11}")
        for tag, (held, write, ledger) in memory.items():
            print(f"  {tag:4} {held / 2**20:10.2f} {write / 2**20:10.2f} {ledger / 2**20:11.2f}")
    if not batch and sides[0][2].grid.dims_active > 1:
        compare_transforms(sides, rounds)


def audit_pass(pkg, snaps: list, p, l: float):
    """One pass of the record-and-audit path on a run's snapshots: the
    seconds, the minor faults, the ledger rows (one ``make_energy_ledger``
    call) as one array and the audit residuals."""
    diagnostics = pkg.diagnostics
    mass0 = pkg.spectral.grid_integral(snaps[0][1].grid, snaps[0][1].n.values)
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    rows = diagnostics.make_energy_ledger(*zip(*snaps), p, l, mass0)
    report = diagnostics.energy_identity_audit(snaps, p)
    t1 = time.perf_counter()
    f1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return t1 - t0, f1 - f0, np.array([r.as_tuple() for r in rows]), np.array(report.residuals)


def column_differences(a: np.ndarray, b: np.ndarray, columns) -> list:
    """(name, largest relative difference) of each column of two (rows,
    columns) arrays whose bits differ, the difference relative to the larger
    of the two magnitudes (0 where both are 0)."""
    out = []
    for j, name in enumerate(columns):
        x, y = a[:, j], b[:, j]
        if x.tobytes() != y.tobytes():
            scale = np.maximum(np.abs(x), np.abs(y))
            out.append((name, float((np.abs(x - y) / np.where(scale > 0, scale, 1.0)).max())))
    return out


def compare_audit(trees, config: Path, rounds: int) -> None:
    """Run the A/B of the record-and-audit path on one config and print its table."""
    sides = []
    for tag, pkg in trees:
        cfg = pkg.harness.parse_config(config)
        rec = pkg.harness.run_single(cfg)
        if len(rec.snapshots) < 3:
            raise SystemExit(f"{config}: the run recorded {len(rec.snapshots)} snapshots, the audit needs 3")
        sides.append((tag, pkg, rec.snapshots, cfg.params, cfg.l))
    for _, pkg, *args in sides:  # warm-up, untimed
        audit_pass(pkg, *args)
    samples = {tag: {"s": [], "faults": []} for tag, *_ in sides}
    wins, identical = 0, True
    for r in range(rounds):
        seconds, outputs = {}, {}
        for tag, pkg, *args in sides if r % 2 == 0 else sides[::-1]:
            seconds[tag], faults, *outputs[tag] = audit_pass(pkg, *args)
            samples[tag]["s"].append(seconds[tag])
            samples[tag]["faults"].append(faults)
        wins += seconds["B"] < seconds["A"]
        identical &= all(a.shape == b.shape and a.tobytes() == b.tobytes()
                         for a, b in zip(outputs["A"], outputs["B"]))
    print(f"audit {config.name}: {rounds} rounds of one pass over {len(sides[0][2])} snapshots per tree")
    print(f"  {'tree':4} {'median_ms':>10} {'q1_ms':>9} {'q3_ms':>9} {'faults/pass':>12}")
    median_ms = {}
    for tag, *_ in sides:
        q1, median_ms[tag], q3 = np.percentile(samples[tag]["s"], [25, 50, 75]) * 1e3
        print(f"  {tag:4} {median_ms[tag]:10.3f} {q1:9.3f} {q3:9.3f} {np.median(samples[tag]['faults']):12.0f}")
    print(f"  B/A median {median_ms['B'] / median_ms['A']:.3f}; B faster in {wins}/{rounds} rounds; "
          f"rows and residuals {'bit-identical' if identical else 'DIFFER'}")
    (rows_a, res_a), (rows_b, res_b) = outputs["A"], outputs["B"]
    if rows_a.shape != rows_b.shape or res_a.shape != res_b.shape:
        print(f"  row counts differ: A {len(rows_a)}, B {len(rows_b)}")
    elif not identical:
        columns = sides[0][1].diagnostics.LEDGER_COLUMNS
        for name, rel in (column_differences(rows_a, rows_b, columns)
                          + column_differences(res_a[:, None], res_b[:, None], ["audit residual"])):
            print(f"  {name} differs: max relative difference {rel:.3g}")


PHASES = ("set-up", "step_full", "make_energy_ledger", "write_record", "unit")
UNITS = 2  # units per --phases process, the last reported: the first warms up
RSS_UNIT = "B" if sys.platform == "darwin" else "KiB"  # of ru_maxrss, as getrusage reports it


def phase_unit(config: Path) -> list:
    """Per unit of the ``UNITS`` units of ``config``'s single run in the
    ``nsmlimit`` on sys.path, per phase: [seconds, minor faults, rise of
    ru_maxrss]."""
    from nsmlimit import harness

    cfg = harness.parse_config(config)

    def clock():
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return time.perf_counter(), usage.ru_minflt, usage.ru_maxrss

    def add(name, start):
        for k, (v0, v1) in enumerate(zip(start, clock())):
            phases[name][k] += v1 - v0

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            if name == "step_full" and set_up:
                add("set-up", set_up.pop())
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add(name, start)
        return wrapper

    originals = {name: getattr(harness, name) for name in ("step_full", "make_energy_ledger")}
    for name, fn in originals.items():
        setattr(harness, name, timed(name, fn))
    units = []
    try:
        with tempfile.TemporaryDirectory() as out:
            for _ in range(UNITS):
                phases = {name: [0.0, 0, 0] for name in PHASES}
                unit = clock()
                set_up = [unit]
                rec = harness.run_single(cfg)
                start = clock()
                harness.write_record(rec, out)
                add("write_record", start)
                add("unit", unit)
                units.append(phases)
    finally:
        for name, fn in originals.items():
            setattr(harness, name, fn)
    return units


def run_phases(tree: Path, config: Path) -> list:
    """``phase_unit`` in a fresh process with ``tree``'s ``src`` first on
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, "--phase-child", str(config)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: the unit of {config} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def compare_phases(trees, config: Path, rounds: int) -> None:
    """Run the phase A/B of one config and print its tables: the time and
    faults of each phase of the last unit, then the rise of ru_maxrss in
    each phase of the first unit and of the last, and the first unit's
    set-up time."""
    samples = {tag: [] for tag, _ in trees}
    for r in range(rounds):
        for tag, tree in trees if r % 2 == 0 else trees[::-1]:
            samples[tag].append(run_phases(tree, config))
    print(f"phases {config.name}: {rounds} rounds, a fresh process per tree and round, "
          f"the last of {UNITS} units each")
    print(f"  {'phase':20} {'A_ms':>9} {'B_ms':>9} {'B/A':>6} {'B_faster':>9} {'A_faults':>9} {'B_faults':>9}")
    for phase in PHASES:
        ms = {tag: [units[-1][phase][0] * 1e3 for units in runs] for tag, runs in samples.items()}
        faults = {tag: np.median([units[-1][phase][1] for units in runs]) for tag, runs in samples.items()}
        a, b = np.median(ms["A"]), np.median(ms["B"])
        wins = sum(y < x for x, y in zip(ms["A"], ms["B"]))
        print(f"  {phase:20} {a:9.2f} {b:9.2f} {b / a:6.3f} {f'{wins}/{rounds}':>9} "
              f"{faults['A']:9.0f} {faults['B']:9.0f}")
    print(f"  median rise of ru_maxrss ({RSS_UNIT}) per phase, in the first unit and in the last")
    print(f"  {'phase':20} {'A_first':>9} {'B_first':>9} {'A_last':>9} {'B_last':>9}")
    for phase in PHASES:
        rises = [np.median([units[u][phase][2] for units in samples[tag]]) for u in (0, -1) for tag in "AB"]
        print(f"  {phase:20} " + " ".join(f"{v:9.0f}" for v in rises))
    cold = {tag: [units[0]["set-up"][0] * 1e3 for units in runs] for tag, runs in samples.items()}
    a, b = np.median(cold["A"]), np.median(cold["B"])
    wins = sum(y < x for x, y in zip(cold["A"], cold["B"]))
    print(f"  first unit's set-up: A {a:.2f} ms, B {b:.2f} ms, B/A {b / a:.3f}; B faster in {wins}/{rounds} rounds")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", type=Path, default=[],
                    help="source tree A, then source tree B")
    ap.add_argument("--rounds", type=int, default=30, help="timed rounds per input")
    ap.add_argument("--steps", type=int, default=10, help="paired steps per tree and round")
    ap.add_argument("--sweep", action="append", type=Path, default=[],
                    help="config whose [sweep] kappa_list is stepped as one batch")
    ap.add_argument("--run", action="append", type=Path, default=[],
                    help="config stepped at its single [params] kappa")
    ap.add_argument("--audit", action="append", type=Path, default=[],
                    help="config run once at its single [params] kappa, whose snapshots "
                         "get ledger rows and the energy-identity audit")
    ap.add_argument("--phases", action="append", type=Path, default=[],
                    help="config whose single run and record are timed phase by phase, "
                         "in a fresh process per tree and round")
    ap.add_argument("--phase-child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.phase_child is not None:
        print(json.dumps(phase_unit(args.phase_child)))
        return 0
    if len(args.tree) != 2:
        ap.error("give --tree twice: A, then B")
    if args.rounds < 1 or args.steps < 1:
        ap.error("--rounds and --steps must be at least 1")
    inputs = [(path, True) for path in args.sweep] + [(path, False) for path in args.run]
    if args.phases:
        tree_dirs = [(tag, tree.resolve()) for tag, tree in zip("AB", args.tree)]
        for path in args.phases:
            compare_phases(tree_dirs, path.resolve(), args.rounds)
    if not inputs and not args.audit and not args.phases:
        inputs = [(ROOT / "configs" / "acceptance.ini", True), (ROOT / "perfbench" / "paired_3d.ini", False)]
    if not inputs and not args.audit:
        return 0
    trees = [(tag, import_tree(tree.resolve(), f"nsmlimit_{tag.lower()}"))
             for tag, tree in zip("AB", args.tree)]
    for path, batch in inputs:
        compare(trees, f"{'sweep' if batch else 'run'} {path.name}", path, batch, args.rounds, args.steps)
    for path in args.audit:
        compare_audit(trees, path, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
