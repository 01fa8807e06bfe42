"""Byte comparison of the shipped-config outputs of two revisions.

    python3 tools/shipped_outputs.py --base REV --head REV

Exports the committed files of both revisions (``bench_pairs.export``)
and runs the 20 shipped commands on each: capacity-sweep, outage-sweep,
opra-cutoff, validate and outage-sweep --validate, on each of the four
shipped configs, at the seed the configs carry.  Prints one line per
command: "identical", or what differs, with each moved column and the
largest absolute and the largest relative change of its numbers, then
the peak resident memory and the minor page faults of the base and of
the head run, read with ``os.wait4`` on each child.
Under capacity-sweep and validate it then lists each capacity cell that
moved (the ``capacity_bits_per_hz`` column, or a report's ``analytic``
column) and whether the move lies within the base's plus the head's
``quad_error`` of that cell, the bound a speedup must keep.  Under
capacity-sweep and opra-cutoff it lists each cutoff cell that moved
(the ``cutoff`` column, or the ``gamma0`` column) with its relative
change, flagged when that exceeds 1e-9, the resolution of the printed
9 significant digits.  Exits 1 if any command's stdout, stderr or exit
code differs between the revisions.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
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
# the column that carries each policy's capacity, by command
CAPACITY_COLUMNS = {"capacity-sweep": "capacity_bits_per_hz",
                    "validate": "analytic"}
# the column that carries the cutoff and the columns that name its row,
# by command, and the relative move above which a cutoff cell is flagged
CUTOFF_COLUMNS = {"capacity-sweep": ("cutoff", ("snr_db", "policy")),
                  "opra-cutoff": ("gamma0", ("snr_db",))}
CUTOFF_FLAG = 1e-9


def run(tree: Path, argv: list[str]) -> tuple[tuple[bytes, bytes, int],
                                              str]:
    """stdout, stderr and exit code of the CLI of ``tree``, and the
    child's peak resident set size and minor page faults."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv],
                                cwd=tree, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        # Linux reports ru_maxrss in KiB
        return ((out.read(), err.read(), proc.returncode),
                f"{usage.ru_maxrss / 1024:.1f} MiB, "
                f"{usage.ru_minflt} minor faults")


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


def relative_move(x: float, y: float) -> float:
    """|y - x| relative to |x|; inf when a zero cell moved."""
    if x == 0.0:
        return math.inf if y != 0.0 else 0.0
    return abs(y - x) / abs(x)


def moved_columns(base: bytes, head: bytes) -> str:
    """The columns whose cells differ, each with its largest absolute and
    its largest relative numeric move.

    A column is named by the latest line of words above it (the CSV
    header, or a report's table header), else by its position.  A cell
    that changed in its text, not just its number, is marked "text".
    """
    a, b = (cells(out.decode(errors="replace")) for out in (base, head))
    if len(a) != len(b):
        return f"line count {len(a)} -> {len(b)}"
    moved: dict[str, tuple[float, float] | None] = {}
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
                absolute, relative = moved.get(name, (0.0, 0.0))
                moved[name] = (
                    max(absolute, abs(float(y) - float(x))),
                    max(relative, relative_move(float(x), float(y))))
    return ", ".join(
        f"{name} text" if diff is None
        else f"{name} by {diff[0]:.3g} (relative {diff[1]:.3g})"
        for name, diff in moved.items())


def capacity_cells(command: str, text: str) -> dict[str, tuple[str, str | None]]:
    """Each capacity cell of a command's stdout and its quad_error.

    Keyed by SNR point and policy.  A validate report row flagged
    divergent prints no quad_error, so its error is None.
    """
    if command == "capacity-sweep":
        return {f"snr_db={r['snr_db']} policy={r['policy']}":
                (r["capacity_bits_per_hz"], r["quad_error"])
                for r in csv.DictReader(io.StringIO(text))}
    found: dict[str, tuple[str, str | None]] = {}
    snr = None
    for line in text.splitlines():
        row = line.split()
        if line.startswith("[snr ") and line.endswith(" dB] capacity"):
            snr = line[len("[snr "):-len(" dB] capacity")]
        elif not row:
            snr = None  # a blank line ends the section
        elif snr is not None and row[0] != "policy":
            err = row[2] if is_number(row[2]) else None
            found[f"snr_db={snr} policy={row[0]}"] = (row[1], err)
    return found


def capacity_moves(command: str, base: bytes,
                   head: bytes) -> list[tuple[str, bool]]:
    """One line per moved capacity cell, and whether the move lies within
    the base plus the head quad_error."""
    a, b = (capacity_cells(command, out.decode(errors="replace"))
            for out in (base, head))
    lines = []
    for key, (value_a, err_a) in a.items():
        if key not in b or b[key][0] == value_a:
            continue
        value_b, err_b = b[key]
        move = abs(float(value_b) - float(value_a))
        within = False
        if err_a is None or err_b is None:
            verdict = "no quad_error to judge it by"
        else:
            within = move <= float(err_a) + float(err_b)
            verdict = (f"{'within' if within else 'BEYOND'} quad_error "
                       f"{err_a} + {err_b}")
        lines.append((f"  {key}: {CAPACITY_COLUMNS[command]} moved by "
                      f"{move:.3g}, {verdict}", within))
    return lines


def cutoff_moves(command: str, base: bytes,
                 head: bytes) -> list[tuple[str, bool]]:
    """One line per moved cutoff cell with its relative change, and
    whether that change exceeds ``CUTOFF_FLAG``."""
    column, names = CUTOFF_COLUMNS[command]
    a, b = ({" ".join(f"{k}={row[k]}" for k in names): row[column]
             for row in csv.DictReader(io.StringIO(out.decode(
                 errors="replace")))} for out in (base, head))
    lines = []
    for key, value_a in a.items():
        value_b = b.get(key)
        if value_b is None or value_b == value_a or not (
                is_number(value_a) and is_number(value_b)):
            continue
        move = relative_move(float(value_a), float(value_b))
        flagged = move > CUTOFF_FLAG
        lines.append((f"  {key}: {column} {value_a} -> {value_b}, relative "
                      f"{move:.3g}{' FLAGGED' if flagged else ''}", flagged))
    return lines


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
    differing = moved = beyond = cut_moved = cut_flagged = 0
    with tempfile.TemporaryDirectory(prefix="shipped-outputs-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            export(rev, trees[side])
        for config in CONFIGS:
            for command in COMMANDS:
                argv = [*command, "--config", config]
                base, base_usage = run(trees["base"], argv)
                head, head_usage = run(trees["head"], argv)
                verdict = compare(base, head)
                differing += verdict != "identical"
                print(f"{' '.join(argv)}: {verdict}; peak RSS base "
                      f"{base_usage}, head {head_usage}", flush=True)
                if command[0] in CAPACITY_COLUMNS:
                    for line, within in capacity_moves(command[0], base[0],
                                                       head[0]):
                        moved += 1
                        beyond += not within
                        print(line, flush=True)
                if command[0] in CUTOFF_COLUMNS and base[2] == head[2] == 0:
                    for line, flagged in cutoff_moves(command[0], base[0],
                                                      head[0]):
                        cut_moved += 1
                        cut_flagged += flagged
                        print(line, flush=True)
    total = len(CONFIGS) * len(COMMANDS)
    print(f"{total - differing} of {total} commands identical; "
          f"{moved} capacity cell(s) moved, {beyond} of them not within "
          f"the base plus head quad_error; {cut_moved} cutoff cell(s) "
          f"moved, {cut_flagged} of them by more than {CUTOFF_FLAG:g} "
          f"relative")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
