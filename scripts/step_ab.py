"""Interleaved in-process A/B of one paired step, or of the record-and-audit
path, in two source trees.

    python scripts/step_ab.py --tree A_DIR --tree B_DIR [--rounds R] [--steps S]
                              [--sweep CONFIG ...] [--run CONFIG ...]
                              [--audit CONFIG ...]

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
rounds, the median minor page faults per step, the rounds in which B's
median step was faster than A's, and whether both trees' final states are
bit for bit equal, field by field and member by member (the limit first);
if not, each field whose bits differ, with its largest difference
relative to the field's largest magnitude in either tree.

Both trees share one process and its heap, so each side's temporaries are
placed by the other's allocation history.  On the call-overhead-bound 1-D
inputs that does not show, but a 3-D ratio from here is not reproducible:
three runs on the same two trees with ``perfbench/paired_3d.ini`` read
B/A 1.106, 0.965 and 1/1.05, and the median minor faults per step ranged
from 364 to 4,238 for the same code.  3-D comparisons use
``scripts/bench.py`` pairs, one process per tree and run.

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
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import resource
import sys
import time
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


def first_step(pkg, config: Path, batch: bool) -> Call:
    """The first ``step_full`` call of ``harness.run_single`` on ``config``
    in package ``pkg``."""
    harness = pkg.harness
    cfg = harness.parse_config(config)
    step_full, caught = harness.step_full, {}

    def catch(*args, **kwargs):
        caught.update(bind_call(step_full, args, kwargs))
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


def paired_steps(call: Call, steps: int):
    """S paired steps from the caught call, all but the last unrecorded
    where the tree's ``step_full`` takes ``record``: the per-step seconds,
    the minor faults per step, and the final stack."""
    x = call.arguments["x"]
    fused = "record" in inspect.signature(call.stepper).parameters
    seconds, faults = [], []
    for i in range(steps):
        changes = {"record": i == steps - 1} if fused else {}
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        x = replay(call.stepper, call.arguments, x, i * call.dt, **changes)
        t1 = time.perf_counter()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        seconds.append(t1 - t0)
    return seconds, faults, x


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
    print(f"{name}: {rounds} rounds of {steps} paired steps per tree")
    print(f"  {'tree':4} {'median_ms':>10} {'q1_ms':>9} {'q3_ms':>9} {'faults/step':>12}")
    median_ms = {}
    for tag, _, _ in sides:
        q1, median_ms[tag], q3 = np.percentile(samples[tag]["s"], [25, 50, 75]) * 1e3
        print(f"  {tag:4} {median_ms[tag]:10.3f} {q1:9.3f} {q3:9.3f} {np.median(samples[tag]['faults']):12.0f}")
    print(f"  B/A median {median_ms['B'] / median_ms['A']:.3f}; B faster in {wins}/{rounds} rounds; "
          f"final states {'bit-identical' if identical else 'DIFFER'}")
    if differences is None:
        print("  the final states hold different members or fields")
    for name, rel in differences or ():
        print(f"  {name} differs: max relative difference {rel:.3g}")


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", type=Path, required=True,
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
    args = ap.parse_args(argv)
    if len(args.tree) != 2:
        ap.error("give --tree twice: A, then B")
    if args.rounds < 1 or args.steps < 1:
        ap.error("--rounds and --steps must be at least 1")
    inputs = [(path, True) for path in args.sweep] + [(path, False) for path in args.run]
    if not inputs and not args.audit:
        inputs = [(ROOT / "configs" / "acceptance.ini", True), (ROOT / "perfbench" / "paired_3d.ini", False)]
    trees = [(tag, import_tree(tree.resolve(), f"nsmlimit_{tag.lower()}"))
             for tag, tree in zip("AB", args.tree)]
    for path, batch in inputs:
        compare(trees, f"{'sweep' if batch else 'run'} {path.name}", path, batch, args.rounds, args.steps)
    for path in args.audit:
        compare_audit(trees, path, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
