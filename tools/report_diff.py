#!/usr/bin/env python3
"""Compare the command-line reports of two source trees.

    python3 tools/report_diff.py PARENT_TREE CHANGE_TREE [--config PATH ...] [--max-rel X]

Runs each of the six subcommands on both shipped configs (`configs/` of
each tree), then on each config given by --config (the same file for both
trees, named by its stem), with each tree's `src` on the path, every run
into its own output directory, and prints the exit codes side by side.
For every report, CSV and log that both runs wrote, it prints how many
numbers moved and the largest |change| / max(1, |parent value|); the output
directory is blanked out of every file first, so output paths never
count as a change.  A file whose text differs in anything but numbers
is flagged.  It first prints each tree's `src/basishedge/*.py` line
count, as `wc -l` gives it.  It exits 1 when the trees differ in an exit
code, in stderr, in a number or in text, or when a file is written by
one tree only, and 0 when every report matches.  With --max-rel X a
moved number counts as a difference only when its |change| / max(1,
|parent value|) exceeds X (default 0: every move counts); a move to or
from a NaN or an infinity always exceeds it.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("price", "hedge-surface", "simulate", "pde", "compare", "check")
CONFIGS = ("hulley_mcwalter", "merton_validation")
# a number, an identifier (so hex digests and key names stay whole), or one character
NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity|nan|-?inf"
TOKEN = re.compile(rf"{NUMBER}|[A-Za-z_][A-Za-z0-9_]*|\s+|.", re.S)
RUN = "import sys; from basishedge.cli import main; sys.exit(main(sys.argv[1:]))"


def run(tree: Path, command: str, cfg: Path, out: Path):
    """Exit code, stderr and {file name: text} of one command on the config
    file cfg in one tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", RUN, command, "--config", str(cfg), "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    files = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            files[path.name] = path.read_text(encoding="utf-8").replace(str(out), "<out>")
    return proc.returncode, proc.stderr.replace(str(out), "<out>").strip(), files


def src_lines(tree: Path) -> int:
    """Newlines in the package's modules: the total of `wc -l src/basishedge/*.py`."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "basishedge").glob("*.py"))


def compare(old: str, new: str):
    """(moved numbers, all numbers, largest relative move, text differs)."""
    a, b = TOKEN.findall(old), TOKEN.findall(new)
    if len(a) != len(b):
        return 0, 0, 0.0, True
    moved = total = 0
    worst = 0.0
    text_differs = False
    for ta, tb in zip(a, b):
        if re.fullmatch(NUMBER, ta) and re.fullmatch(NUMBER, tb):
            total += 1
            va, vb = (float(v.replace("Infinity", "inf")) for v in (ta, tb))
            if ta != tb and not (va == vb or (va != va and vb != vb)):
                moved += 1
                rel = abs(vb - va) / max(1.0, abs(va))
                # a move to or from a NaN or an infinity is unbounded
                worst = max(worst, rel if rel == rel else float("inf"))
        elif ta != tb:
            text_differs = True
    return moved, total, worst, text_differs


def diff(a, b, max_rel=0.0):
    """(lines, differs) for the runs a and b of one command, each as run() gives it;
    a moved number differs only when its relative move exceeds max_rel."""
    (code_a, err_a, files_a), (code_b, err_b, files_b) = a, b
    lines = [f"exit {code_a} -> {code_b}"]
    differs = code_a != code_b or err_a != err_b
    if err_a != err_b:
        lines.append(f"  stderr: {err_a!r} -> {err_b!r}")
    for name in sorted(set(files_a) | set(files_b)):
        if name not in files_a or name not in files_b:
            lines.append(f"  {name}: written by one tree only")
            differs = True
            continue
        moved, total, worst, text = compare(files_a[name], files_b[name])
        differs = differs or worst > max_rel or text
        flag = "  TEXT DIFFERS" if text else ""
        lines.append(f"  {name}: {moved} of {total} numbers moved, "
                     f"max |d|/max(1,|v|) {worst:.2e}{flag}")
    return lines, differs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare the command-line reports of two source trees.")
    p.add_argument("trees", nargs=2, type=Path, metavar="TREE", help="parent tree, then change tree")
    p.add_argument("--config", action="append", default=[], type=Path,
                   help="a further config file, run in both trees (repeatable)")
    p.add_argument("--max-rel", type=float, default=0.0, metavar="X",
                   help="count a moved number only when |d|/max(1,|v|) exceeds X (default 0)")
    args = p.parse_args(argv)
    if not args.max_rel >= 0:
        p.error("--max-rel must be a number of at least 0")
    trees = [t.resolve() for t in args.trees]
    # (run name, the config file in each tree)
    configs = [(c, [t / "configs" / f"{c}.json" for t in trees]) for c in CONFIGS]
    configs += [(c.stem, [c.resolve()] * 2) for c in args.config]
    print("src lines: {} -> {}".format(*map(src_lines, trees)))
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, files) in enumerate(configs):
            for command in COMMANDS:
                lines, changed = diff(*(
                    run(tree, command, cfg, Path(tmp) / f"{k}-{i}-{name}-{command}")
                    for k, (tree, cfg) in enumerate(zip(trees, files))
                ), max_rel=args.max_rel)
                differs = differs or changed
                print(f"{name} {command}: " + "\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
