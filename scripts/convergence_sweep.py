#!/usr/bin/env python3
"""Run the kappa-convergence study and print the fitted rate.

Reproduces the headline experiment: paired full/limit evolution on a
64-point slab torus with well-prepared data, kappa in {0.4, 0.2, 0.1,
0.05}, then a log-log fit of sup_t sqrt(Gamma) against kappa.  This is
``nsmlimit sweep`` with the acceptance config and ``out/convergence`` as
defaults; ``--config`` and ``--out`` override them, and the exit code is
the CLI's.
"""

import sys
from pathlib import Path

from nsmlimit import cli

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "acceptance.ini"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    return cli.main(["sweep", "--config", str(DEFAULT_CONFIG), "--out", "out/convergence", *args])


if __name__ == "__main__":
    sys.exit(main())
