"""Byte-compare the outputs of ``nsmlimit`` runs in two source trees.

    python scripts/cmp_outputs.py --tree A_DIR --tree B_DIR [--sweep CONFIG ...]
                                  [--run [CONFIG] ...] [--seed S]

Each input runs once per tree, in a subprocess with that tree's ``src``
first on PYTHONPATH, into a temporary directory of its own: ``--sweep``
is ``nsmlimit sweep --config CONFIG``, ``--run`` is ``nsmlimit run
--config CONFIG`` (``--run`` with no CONFIG runs without ``--config``, on
the default config).  ``--seed S`` is passed to every one of them.  The
same process then runs ``nsmlimit audit --record`` on every snapshots
file the command wrote.  Each command's exit code, stdout and, after the
line ``--- stderr ---``, stderr are saved next to the outputs, as
``command.txt`` and ``<tag>.audit.txt``, with the output directory's path
written as ``OUT``.  A warning is written as ``Category: message``, without
the file and line that raised it, which differ between trees.

Every output file except ``*.time.txt`` is compared byte for byte.  Per
input the script prints whether all of them are identical, or else each
file that is in only one tree or differs; for a differing CSV it names
each ledger column whose bits differ, with its largest relative
difference.  It exits 1 on any difference and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from step_ab import column_differences  # noqa: E402

# Runs in the subprocess: argv is the output directory, then the command's
# arguments without --out.
_DRIVER = """\
import contextlib, io, sys, warnings
from pathlib import Path
from nsmlimit.cli import main

out = Path(sys.argv[1])
warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\\n"

def cli(name, argv):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"exit {code}\\n{buf.getvalue()}--- stderr ---\\n{err.getvalue()}"
    (out / name).write_text(text.replace(str(out), "OUT"))

cli("command.txt", sys.argv[2:] + ["--out", str(out)])
for npz in sorted(out.glob("*_snapshots.npz")):
    cli(npz.name.replace("_snapshots.npz", ".audit.txt"), ["audit", "--record", str(npz)])
"""


def run_tree(tree: Path, out: Path, argv: list) -> None:
    """The command ``argv`` and its audits with ``tree``'s package, into ``out``."""
    out.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", _DRIVER, str(out), *argv], cwd=out, env=env, check=True)


def _csv_table(path: Path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


def compare_dirs(a: Path, b: Path) -> tuple[int, list]:
    """The number of outputs compared in two output directories
    (``*.time.txt`` skipped), and a line for each that is in only one of
    them or differs."""
    names = [{p.name for p in d.iterdir() if not p.name.endswith(".time.txt")} for d in (a, b)]
    lines = ([f"only in A: {name}" for name in sorted(names[0] - names[1])]
             + [f"only in B: {name}" for name in sorted(names[1] - names[0])])
    for name in sorted(names[0] & names[1]):
        if (a / name).read_bytes() == (b / name).read_bytes():
            continue
        line = f"{name} differs"
        if name.endswith(".csv"):
            (head_a, xa), (head_b, xb) = _csv_table(a / name), _csv_table(b / name)
            if head_a != head_b or xa.shape != xb.shape:
                line += " in its header or row count"
            else:
                line += ": " + ", ".join(f"{col} {rel:.3g}" for col, rel in column_differences(xa, xb, head_a))
        lines.append(line)
    return len(names[0] | names[1]), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tree", action="append", type=Path, required=True,
                        help="source tree (twice: A, then B)")
    parser.add_argument("--sweep", action="append", type=Path, default=[], metavar="CONFIG")
    parser.add_argument("--run", action="append", type=Path, nargs="?", const=None, default=[],
                        metavar="CONFIG", help="without CONFIG: the default config")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if len(args.tree) != 2:
        parser.error("give exactly two --tree")
    if not args.sweep and not args.run:
        parser.error("give at least one --sweep or --run")
    trees = [tree.resolve() for tree in args.tree]
    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    inputs = [("sweep", c) for c in args.sweep] + [("run", c) for c in args.run]
    differ = False
    for command, config in inputs:
        cmd = [command, *([] if config is None else ["--config", str(config.resolve())]), *seed]
        label = " ".join([command, "(default config)" if config is None else config.name, *seed])
        with tempfile.TemporaryDirectory(prefix="cmp_outputs_") as tmp:
            outs = [Path(tmp) / tag for tag in "AB"]
            for tree, out in zip(trees, outs):
                run_tree(tree, out, cmd)
            n, lines = compare_dirs(*outs)
        if lines:
            differ = True
            print(f"{label}: {len(lines)} of {n} outputs differ")
            for line in lines:
                print(f"  {line}")
        else:
            print(f"{label}: {n} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
