"""Byte comparison of the shipped-config outputs of two revisions.

    python3 tools/shipped_outputs.py --base REV --head REV

Exports the committed files of both revisions (``bench_pairs.export``)
and runs the 20 shipped commands on each: capacity-sweep, outage-sweep,
opra-cutoff, validate and outage-sweep --validate, on each of the four
shipped configs, at the seed the configs carry.  Prints one line per
command: "identical", or what differs, with each moved column and the
largest absolute change of its numbers.  Exits 1 if any command's
stdout, stderr or exit code differs between the revisions.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export, git

COMMANDS = (("capacity-sweep",), ("outage-sweep",), ("opra-cutoff",),
            ("validate",), ("outage-sweep", "--validate"))
CONFIGS = ("fig1_serial2", "fig1_selective3", "fig2_malaga", "fig3_dgg")
ENTRY = "import sys; from relaycap.cli import main; sys.exit(main(sys.argv[1:]))"


def run(tree: Path, argv: list[str]) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of the CLI of ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=tree,
                          env=env, capture_output=True)
    return proc.stdout, proc.stderr, proc.returncode


def cells(text: str) -> list[list[str]]:
    """Lines split into cells: CSV rows, or whitespace fields of a report."""
    if "," in text.partition("\n")[0]:
        return list(csv.reader(io.StringIO(text)))
    return [line.split() for line in text.splitlines()]


def is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def moved_columns(base: bytes, head: bytes) -> str:
    """The columns whose cells differ, each with its largest numeric move.

    A column is named by the latest line of words above it (the CSV
    header, or a report's table header), else by its position.  A cell
    that changed in its text, not just its number, is marked "text".
    """
    a, b = (cells(out.decode(errors="replace")) for out in (base, head))
    if len(a) != len(b):
        return f"line count {len(a)} -> {len(b)}"
    moved: dict[str, float | None] = {}
    header: list[str] = []
    for i, (row_a, row_b) in enumerate(zip(a, b)):
        if row_a and not any(map(is_number, row_a)) and row_a == row_b:
            header = row_a
            continue
        if len(row_a) != len(row_b):
            moved[f"line {i + 1}"] = None
            continue
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            name = header[j] if j < len(header) else f"field {j + 1}"
            if not (is_number(x) and is_number(y)) or (
                    name in moved and moved[name] is None):
                moved[name] = None
            else:
                moved[name] = max(moved.get(name, 0.0),
                                  abs(float(y) - float(x)))
    return ", ".join(f"{name} text" if diff is None else f"{name} by {diff:.3g}"
                     for name, diff in moved.items())


def compare(base: tuple[bytes, bytes, int],
            head: tuple[bytes, bytes, int]) -> str:
    if base == head:
        return "identical"
    parts = []
    if base[0] != head[0]:
        parts.append(f"stdout moved: {moved_columns(base[0], head[0])}")
    if base[1] != head[1]:
        parts.append(f"stderr moved: {moved_columns(base[1], head[1])}")
    if base[2] != head[2]:
        parts.append(f"exit code {base[2]} -> {head[2]}")
    return "; ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    args = parser.parse_args(argv)

    revs = {"base": git("rev-parse", args.base),
            "head": git("rev-parse", args.head)}
    differing = 0
    with tempfile.TemporaryDirectory(prefix="shipped-outputs-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            export(rev, trees[side])
        for config in CONFIGS:
            for command in COMMANDS:
                argv = [*command, "--config", config]
                verdict = compare(run(trees["base"], argv),
                                  run(trees["head"], argv))
                differing += verdict != "identical"
                print(f"{' '.join(argv)}: {verdict}", flush=True)
    total = len(CONFIGS) * len(COMMANDS)
    print(f"{total - differing} of {total} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
