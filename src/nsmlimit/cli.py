"""Command-line entry point.

Subcommands: run, sweep, audit, moser, reform-check.
Exit codes: 0 success, 2 config error, 3 numerical blow-up,
4 acceptance-fit failure.

``sweep`` exits 3 when any member blows up or hits vacuum; it still prints
the per-kappa table, and with fewer than 3 completed members it fits no
rate and writes no sweep_summary.json.  ``audit`` takes the Params from
the config text the snapshots file stores; it leaves out a last snapshot
closer to the one before than the others are to each other, the last step
of a run whose step count its snapshot stride does not divide.  It exits 2
on a snapshots file it cannot read, with fewer than 3 snapshots, with
unevenly spaced snapshot times otherwise, when ``--config`` gives other
Params, or when the file stores no config and ``--config`` is not given.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

from .diagnostics import energy_identity_audit
from .errors import ConfigError, SnapshotSpacingError
from .harness import (
    R2_MIN,
    REFORM_TOL,
    SLOPE_RANGE,
    default_config_text,
    load_snapshot_config,
    load_snapshots,
    parse_config,
    parse_config_text,
    run_single,
    run_sweep,
    write_record,
)
from .model import Params, random_two_fluid_state, reformulation_check
from .spectral import Grid, moser_ensemble

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_ACCEPT = 4


_SECTION = re.compile(r"\[([^\]]*)\]")
_SEED_VALUE = re.compile(r"(seed\s*[=:][ \t]*)[^\s#;]*", re.IGNORECASE)


def _with_seed(text: str, seed: int) -> str:
    """``text`` with ``seed = <seed>`` in its [initial] section: the value of
    the seed line replaced, else the line added under the section header,
    else the section appended.  Every other line stays as it is."""
    lines = text.splitlines(keepends=True)
    section, header = None, None
    for i, line in enumerate(lines):
        if m := _SECTION.match(line):
            section = m.group(1).strip()
            header = i if section == "initial" else header
        elif section == "initial" and _SEED_VALUE.match(line):
            lines[i] = _SEED_VALUE.sub(rf"\g<1>{seed}", line, count=1)
            return "".join(lines)
    if header is None:
        sep = "" if not text or text.endswith("\n") else "\n"
        return f"{text}{sep}\n[initial]\nseed = {seed}\n"
    if not lines[header].endswith("\n"):
        lines[header] += "\n"
    lines.insert(header + 1, f"seed = {seed}\n")
    return "".join(lines)


def _load_config(args):
    if args.config is None:
        cfg = parse_config_text(default_config_text())
    else:
        cfg = parse_config(args.config)
    if getattr(args, "seed", None) is not None:
        # re-parsed, so the recorded config text and its hash name the seed
        cfg = parse_config_text(_with_seed(cfg.config_text, args.seed))
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    rec = run_single(cfg, kappa=args.kappa)
    paths = write_record(rec, cfg.out_dir)
    print(f"status={rec.status} kappa={rec.kappa:g} steps={rec.n_steps}")
    print(f"sup sqrt(Gamma) = {rec.sup_sqrt_gamma():.6e}")
    print(f"wrote {paths['csv']} {paths['json']}")
    if rec.status != "completed":
        print(rec.message, file=sys.stderr)
        return EXIT_BLOWUP
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.jobs != 1:
        raise ConfigError(f"--jobs must be 1 (a sweep runs as one batch), got {args.jobs}")
    cfg = _load_config(args)
    result = run_sweep(cfg)
    s = result.summary
    print(f"{'kappa':>8}  {'sup sqrt(Gamma)':>16}  {'sup Gamma/k^2':>14}  "
          f"{'envelope C':>11}  {'growth c':>9}  status")
    for row in result.rows:
        print(f"{row.kappa:>8g}  {row.sup_sqrt_gamma:>16.6e}  {row.sup_gamma_over_kappa2:>14.4f}  "
              f"{row.envelope:>11.4f}  {row.growth_rate:>9.4f}  {row.status}")
    if s is None:
        print("fewer than 3 sweep members completed; no rate fit", file=sys.stderr)
    else:
        print(f"fitted slope = {s['slope']:.4f}  r2 = {s['r2']:.6f}")
        print(f"wrote {result.paths['summary']}")
    if result.failed:
        return EXIT_BLOWUP
    lo, hi = SLOPE_RANGE
    if not (lo <= s["slope"] <= hi) or s["r2"] < R2_MIN:
        print(
            f"acceptance fit failed: slope outside [{lo}, {hi}] or r2 < {R2_MIN}",
            file=sys.stderr,
        )
        return EXIT_ACCEPT
    return EXIT_OK


def _audit_params(args, kappa: float) -> Params:
    """The Params of the run that wrote ``args.record``, from the config
    text it stores; ``--config`` must agree with it, and is required for a
    file that stores none."""
    text = load_snapshot_config(args.record)
    given = None if args.config is None else replace(_load_config(args).params, kappa=kappa)
    if text is None:
        if given is None:
            raise ConfigError(f"snapshots file {args.record} stores no run config; pass --config")
        return given
    p = replace(parse_config_text(text).params, kappa=kappa)
    if given is not None and given != p:
        raise ConfigError(f"the [params] of {args.config} differ from those stored in {args.record}")
    return p


def _cmd_audit(args) -> int:
    kappa, snaps = load_snapshots(args.record)
    p = _audit_params(args, kappa)
    # a run whose step count its snapshot stride does not divide records its
    # last step too, closer to the snapshot before: that one is left out
    times = [t for t, _, _ in snaps]
    short_end = len(times) > 3 and times[-1] - times[-2] < (1.0 - 1e-9) * (times[1] - times[0])
    audited = snaps[:-1] if short_end else snaps
    try:
        report = energy_identity_audit(audited, p, drop_term=args.drop_term)
    except (ValueError, SnapshotSpacingError) as exc:
        # fewer than 3 snapshots, a drop term outside 1..6, or uneven times
        raise ConfigError(str(exc)) from None
    left_out = f" (the last, at t={times[-1]:g}, left out: a shorter spacing)" if short_end else ""
    print(f"snapshots: {len(audited)}{left_out}  interior points: {len(report.residuals)}")
    print(f"max residual  = {report.max_residual:.6e}")
    print(f"mean residual = {report.mean_residual:.6e}")
    for key in ("ddt", "dissipation", "T1", "T2", "T3", "T4", "T5", "T6"):
        print(f"  {key:12s} {report.terms[key]: .6e}")
    return EXIT_OK


def _cmd_moser(args) -> int:
    cfg = _load_config(args)
    grid = cfg.grid
    fine = Grid(grid.dims_active, grid.points_per_dim * 2, grid.period)
    seed = cfg.initial.seed
    s = int(cfg.l)
    c1, c2 = moser_ensemble(grid, s=s, n_pairs=args.pairs, seed=seed)
    f1, f2 = moser_ensemble(fine, s=s, n_pairs=args.pairs, seed=seed)
    g1 = abs(f1 / c1 - 1.0)
    g2 = abs(f2 / c2 - 1.0)
    print(f"pairs = {args.pairs}, s = {s}")
    print(f"product constant:    {c1:.6f} -> {f1:.6f}  (change {100*g1:.3f}%)")
    print(f"commutator constant: {c2:.6f} -> {f2:.6f}  (change {100*g2:.3f}%)")
    if max(g1, g2) >= 0.05:
        print("constants grew by >= 5% under resolution doubling", file=sys.stderr)
        return EXIT_ACCEPT
    return EXIT_OK


def _cmd_reform_check(args) -> int:
    if args.states < 1:
        raise ConfigError(f"--states must be at least 1, got {args.states}")
    cfg = _load_config(args)
    p: Params = cfg.params
    worst = 0.0
    for i in range(args.states):
        state = random_two_fluid_state(
            cfg.grid, p, seed=cfg.initial.seed + i,
            max_wavenumber=cfg.initial.max_wavenumber,
        )
        report = reformulation_check(state, p)
        worst = max(worst, report.max_residual)
        print(
            f"state {i}: recast max = {max(report.recast.values()):.3e}  "
            f"scaling max = {max(report.scaling.values()):.3e}"
        )
    print(f"worst residual = {worst:.3e} (tolerance {REFORM_TOL:g})")
    if worst > REFORM_TOL:
        print("reformulation residual above tolerance", file=sys.stderr)
        return EXIT_ACCEPT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsmlimit",
        description="Two-fluid Navier-Stokes-Maxwell solver and singular-limit harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, seed=True):
        sp.add_argument("--config", type=Path, default=None, help="INI config file")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        if seed:
            sp.add_argument("--seed", type=int, default=None, help="override seed")

    sp = sub.add_parser("run", help="single paired full/limit run")
    add_common(sp)
    sp.add_argument("--kappa", type=float, default=None, help="override kappa")
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("sweep", help="kappa sweep with rate fit")
    add_common(sp)
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; must be 1, the sweep runs as one batch")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("audit", help="energy-identity audit on stored snapshots")
    add_common(sp)
    sp.add_argument("--record", type=Path, required=True, help="*_snapshots.npz file")
    sp.add_argument("--drop-term", type=int, default=None, dest="drop_term",
                    help="fault injection: delete right-hand term 1..6")
    sp.set_defaults(func=_cmd_audit)

    sp = sub.add_parser("moser", help="product/commutator inequality ensemble")
    add_common(sp)
    sp.add_argument("--pairs", type=int, default=100)
    sp.set_defaults(func=_cmd_moser)

    sp = sub.add_parser("reform-check", help="substitution/scaling algebra residuals")
    add_common(sp)
    sp.add_argument("--states", type=int, default=10)
    sp.set_defaults(func=_cmd_reform_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
