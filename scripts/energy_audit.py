#!/usr/bin/env python3
"""Audit the zero-order kinetic-energy balance on short trajectories.

Evolves the paired systems at two step sizes, evaluates every term of the
energy identity on the stored snapshots, and reports (a) the second-order
shrink of the defect under dt-halving and (b) the blow-up of the defect
when a right-hand term is deliberately deleted.
"""

import argparse
import sys

from nsmlimit.diagnostics import energy_identity_audit
from nsmlimit.harness import InitialSpec, RunConfig, run_single
from nsmlimit.integrator import StepControl
from nsmlimit.model import Params
from nsmlimit.spectral import Grid


def trajectory(grid, kappa, dt, n_steps, seed):
    """Paired run with a snapshot every step; returns (snapshots, params)."""
    cfg = RunConfig(grid=grid, params=Params(kappa=kappa), step=StepControl(dt=dt, t_end=n_steps * dt),
                    initial=InitialSpec(seed=seed, base_amplitude=0.1, c0=1.0),
                    kappa_list=(kappa,), snapshot_stride=1)
    rec = run_single(cfg)
    if rec.status != "completed":
        raise RuntimeError(rec.message)
    return rec.snapshots, cfg.params


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa", type=float, default=0.05)
    ap.add_argument("--dt", type=float, default=4e-3)
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    grid = Grid(1, 64)
    residuals = []
    for dt in (args.dt, args.dt / 2):
        snaps, p = trajectory(grid, args.kappa, dt, args.steps, args.seed)
        rep = energy_identity_audit(snaps, p)
        residuals.append(rep.max_residual)
        print(f"dt = {dt:g}: max residual = {rep.max_residual:.4e} "
              f"(mean {rep.mean_residual:.4e})")
    print(f"shrink under halving: x{residuals[0] / residuals[1]:.2f}")

    snaps, p = trajectory(grid, args.kappa, args.dt, args.steps, args.seed)
    base = energy_identity_audit(snaps, p)
    print("\nfault injection (single right-hand term deleted):")
    for term in range(1, 7):
        rep = energy_identity_audit(snaps, p, drop_term=term)
        print(f"  drop T{term}: residual {rep.max_residual:.4e} "
              f"(x{rep.max_residual / base.max_residual:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
