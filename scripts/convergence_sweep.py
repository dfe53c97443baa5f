#!/usr/bin/env python3
"""Run the kappa-convergence study and print the fitted rate.

Reproduces the headline experiment: paired full/limit evolution on a
64-point slab torus with well-prepared data, kappa in {0.4, 0.2, 0.1,
0.05}, then a log-log fit of sup_t sqrt(Gamma) against kappa.
"""

import argparse
import sys
from pathlib import Path

from nsmlimit.harness import parse_config, run_sweep

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO_ROOT / "configs" / "acceptance.ini"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=Path, default=DEFAULT_CONFIG)
    ap.add_argument("--out", type=Path, default=Path("out/convergence"))
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    cfg = parse_config(args.config)
    result = run_sweep(cfg, jobs=args.jobs, out_dir=args.out)
    s = result.summary

    print(f"{'kappa':>8}  {'sup sqrt(Gamma)':>16}  {'sup Gamma/k^2':>14}  "
          f"{'envelope C':>11}  {'growth c':>9}  status")
    for row in result.rows:
        print(
            f"{row.kappa:>8g}  {row.sup_sqrt_gamma:>16.6e}  {row.sup_gamma_over_kappa2:>14.4f}  "
            f"{row.envelope:>11.4f}  {row.growth_rate:>9.4f}  {row.status}"
        )
    print(f"\nfitted slope = {s['slope']:.4f}   r2 = {s['r2']:.6f}")
    print(f"records in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
