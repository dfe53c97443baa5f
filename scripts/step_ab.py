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
configs/acceptance.ini --run perfbench/paired_3d.ini``.  Each tree takes its
initial stacks and operators from its own ``harness.run_single``: its first
paired step is caught and the run stopped there.

A paired step is what one step of ``run_single`` calls: one ``step_full``
on the stack that holds the limit and every member (a tree whose harness
has no ``step_limit``), or one ``step_full`` on the members' stack and one
``step_limit`` on the limit's (a tree whose harness has one).  Per round
and input, each tree runs S paired steps from the initial stacks, the two
trees in alternating order, after one untimed warm-up round.  Reported per
input and tree: the median and quartiles of the paired-step time over all
rounds, the median minor page faults per ``step_full`` and per paired
step, the rounds in which B's median step was faster than A's, and whether
both trees' final states are bit for bit equal, field by field and member
by member (the limit first), whatever the layout of their stacks.

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
import resource
import sys
import time
from pathlib import Path

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


def first_step_args(pkg, config: Path, batch: bool) -> dict:
    """The arguments of the steppers' calls in the first paired step of
    ``harness.run_single`` on ``config`` in package ``pkg``: ``full``, and
    ``limit`` where the harness steps the limit with a ``step_limit`` of its
    own."""
    harness = pkg.harness
    cfg = harness.parse_config(config)
    names = ("step_full", "step_limit") if hasattr(harness, "step_limit") else ("step_full",)
    caught, saved = {}, {name: getattr(harness, name) for name in names}

    def catch(key, stepper, last):
        def wrapper(grid, x, p, sc, op=None, forcing=None, t=0.0):
            caught[key] = (grid, x, p, sc, op)
            if last:
                raise _Caught
            return stepper(grid, x, p, sc, op=op, forcing=forcing, t=t)
        return wrapper

    for key, name in zip(("full", "limit"), names):
        setattr(harness, name, catch(key, saved[name], name == names[-1]))
    try:
        harness.run_single(cfg, kappa=tuple(cfg.kappa_list) if batch else None)
    except _Caught:
        pass
    finally:
        for name, stepper in saved.items():
            setattr(harness, name, stepper)
    if len(caught) < len(names):
        raise SystemExit(f"{config}: the run made no step")
    return caught


def paired_steps(pkg, args: dict, steps: int):
    """S paired steps from the caught arguments: the per-step seconds, the
    minor faults per ``step_full`` and per paired step, and the final stacks."""
    step_full = pkg.integrator.step_full
    grid, x, p, sc, op = args["full"]
    step_limit = pkg.integrator.step_limit if "limit" in args else None
    if step_limit is not None:
        _, xl, pl, _, opl = args["limit"]
    seconds, full_faults, pair_faults = [], [], []
    for i in range(steps):
        t = i * sc.dt
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        x = step_full(grid, x, p, sc, op=op, t=t)
        f1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if step_limit is not None:
            xl = step_limit(grid, xl, pl, sc, op=opl, t=t)
        t1 = time.perf_counter()
        f2 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        seconds.append(t1 - t0)
        full_faults.append(f1 - f0)
        pair_faults.append(f2 - f0)
    return seconds, full_faults, pair_faults, (x,) if step_limit is None else (x, xl)


def member_fields(pkg, grid, stacks) -> list:
    """The field arrays of each member of a paired step's final stacks, the
    limit first: ``stacks`` is the one stack of the whole member set, or
    the members' stack (one state, or (K, 13, *shape)) and the limit's."""
    model = pkg.model
    if len(stacks) == 1:
        states = [model._state_view(grid, stacks[0], m)
                  for m in range(model._layout(len(stacks[0])).members)]
    else:
        x, xl = stacks
        states = [model._state_view(grid, s) for s in [xl] + ([x] if x.ndim == xl.ndim else list(x))]
    return [[f.values for f in vars(state).values()] for state in states]


def same_states(sides: dict, grid) -> bool:
    """Whether both trees' final states agree bit for bit, field by field."""
    (pkg_a, a), (pkg_b, b) = sides["A"], sides["B"]
    fields_a, fields_b = member_fields(pkg_a, grid, a), member_fields(pkg_b, grid, b)
    return len(fields_a) == len(fields_b) and all(
        len(fa) == len(fb) and all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(fa, fb))
        for fa, fb in zip(fields_a, fields_b))


def compare(trees, name: str, config: Path, batch: bool, rounds: int, steps: int) -> None:
    """Run the A/B of one input and print its table."""
    sides = [(tag, pkg, first_step_args(pkg, config, batch)) for tag, pkg in trees]
    for _, pkg, args in sides:  # warm-up, untimed
        paired_steps(pkg, args, steps)
    samples = {tag: {"s": [], "full": [], "pair": []} for tag, _, _ in sides}
    wins, identical = 0, True
    for r in range(rounds):
        medians, finals = {}, {}
        for tag, pkg, args in sides if r % 2 == 0 else sides[::-1]:
            seconds, full_faults, pair_faults, stacks = paired_steps(pkg, args, steps)
            finals[tag] = (pkg, stacks)
            samples[tag]["s"] += seconds
            samples[tag]["full"] += full_faults
            samples[tag]["pair"] += pair_faults
            medians[tag] = np.median(seconds)
        wins += medians["B"] < medians["A"]
        identical &= same_states(finals, sides[0][2]["full"][0])
    print(f"{name}: {rounds} rounds of {steps} paired steps per tree")
    print(f"  {'tree':4} {'median_ms':>10} {'q1_ms':>9} {'q3_ms':>9} {'faults/full':>12} {'faults/pair':>12}")
    median_ms = {}
    for tag, _, _ in sides:
        q1, median_ms[tag], q3 = np.percentile(samples[tag]["s"], [25, 50, 75]) * 1e3
        full_f, pair_f = (np.median(samples[tag][k]) for k in ("full", "pair"))
        print(f"  {tag:4} {median_ms[tag]:10.3f} {q1:9.3f} {q3:9.3f} {full_f:12.0f} {pair_f:12.0f}")
    print(f"  B/A median {median_ms['B'] / median_ms['A']:.3f}; B faster in {wins}/{rounds} rounds; "
          f"final states {'bit-identical' if identical else 'DIFFER'}")


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
