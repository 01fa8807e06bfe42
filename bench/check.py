"""Compare a workload's CLI output with the reference recorded for it.

An operation is one output row, or one comparison for ``validate``.
It fails if the command exited with an unexpected code, the row is
missing or malformed, or its value lies outside tolerance of the
reference:

* capacity rows: |new - ref| <= new quad_error + ref quad_error, plus
  the print rounding of both values (9 significant digits);
* outage rows print no error, so they get OUTAGE_MASS_TOL (the
  probability mass the AllActive grid may lose, ``mass_tol``) when the
  topology is a grid convolution, plus OUTAGE_REL_TOL relative (100x
  the contour ``rel_tol`` of 1e-10, and above the print rounding);
* validate comparisons fail if the report lists them as offenders, if
  their z-score lies beyond 3, or if their analytic value (which does
  not depend on the seed) leaves the tolerance above.

At 3 sigma a correct program still raises about 0.37 false alarms per
validate report (the report says so), so some seeds fail a comparison
by chance.  Such a failure counts in ``failed`` but is marked as
``chance`` when the analytic value matches and |z| stays within the
family-wise limit: the z that any of the report's comparisons exceeds
by chance with probability FAMILY_ALPHA (Sidak).  Every other failure
means the output is wrong.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field
from statistics import NormalDist

OUTAGE_MASS_TOL = 1e-4   # AllActive default mass_tol, kept by fig2_malaga
OUTAGE_REL_TOL = 1e-8
Z_LIMIT = 3.0
FAMILY_ALPHA = 1e-3


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    chance: int = 0     # failures a correct program makes by chance
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, *, chance: bool = False) -> None:
        self.failed += 1
        self.chance += chance
        if len(self.problems) < 20:
            self.problems.append(message)


def chance_limit(comparisons: int) -> float:
    """|z| that any of ``comparisons`` z-tests exceeds with FAMILY_ALPHA."""
    p = 1.0 - (1.0 - FAMILY_ALPHA) ** (1.0 / max(comparisons, 1))
    return NormalDist().inv_cdf(1.0 - 0.5 * p)


def _rounding(v: float) -> float:
    """Half a unit in the 9th significant digit of a printed value."""
    if v == 0.0 or not math.isfinite(v):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 8)


def _close(new: float, ref: float, allowed: float) -> bool:
    return abs(new - ref) <= allowed + _rounding(new) + _rounding(ref)


def outage_tol(ref: float, grid: bool) -> float:
    return (OUTAGE_MASS_TOL if grid else 0.0) + OUTAGE_REL_TOL * abs(ref)


def _rows(text: str, key_cols: tuple[str, ...]) -> dict[tuple, dict]:
    rows = {}
    for row in csv.DictReader(io.StringIO(text)):
        rows[tuple(row[k] for k in key_cols)] = row
    return rows


def _check_table(text: str, code: int, ref_text: str,
                 key: tuple[str, ...], compare) -> Outcome:
    """Match CSV rows by ``key``; ``compare(new, ref)`` names a mismatch."""
    ref = _rows(ref_text, key)
    out = Outcome(attempted=len(ref))
    if code != 0:
        out.failed = len(ref)
        out.problems.append(f"exit code {code}")
        return out
    try:
        new = _rows(text, key)
    except (csv.Error, KeyError) as exc:
        out.failed = len(ref)
        out.problems.append(f"unparsable output: {exc}")
        return out
    for k in sorted(set(new) - set(ref)):
        out.attempted += 1
        out.fail(f"row {k} not in the reference")
    for k, r in ref.items():
        n = new.get(k)
        if n is None:
            out.fail(f"row {k} missing")
            continue
        try:
            problem = compare(n, r)
        except (TypeError, ValueError):
            problem = f"malformed: {n}"
        if problem:
            out.fail(f"row {k}: {problem}")
    return out


def check_capacity(text: str, code: int, ref_text: str) -> Outcome:
    def compare(n, r):
        value, err = float(n["capacity_bits_per_hz"]), float(n["quad_error"])
        rv, rerr = float(r["capacity_bits_per_hz"]), float(r["quad_error"])
        if math.isfinite(value) and _close(value, rv, err + rerr):
            return None
        return f"capacity {value!r} vs reference {rv!r}, allowed {err + rerr:.3g}"

    return _check_table(text, code, ref_text, ("snr_db", "policy"), compare)


def check_outage(text: str, code: int, ref_text: str, *, grid: bool) -> Outcome:
    def compare(n, r):
        value, rv = float(n["outage_probability"]), float(r["outage_probability"])
        if 0.0 <= value <= 1.0 and _close(value, rv, outage_tol(rv, grid)):
            return None
        return f"outage {value!r} vs reference {rv!r}"

    return _check_table(text, code, ref_text, ("snr_db", "tau"), compare)


_SECTION = re.compile(r"^\[snr (\S+) dB\] (outage|capacity)$")
_OFFENDER = re.compile(
    r"^  (outage) snr_db=(\S+) tau=(\S+) |^  (capacity) snr_db=(\S+) policy=(\S+) ")
_COMPARISONS = re.compile(r"^comparisons: (\d+);")


@dataclass
class Report:
    """The comparisons of a validate report, keyed like its offender lines."""

    rows: dict[tuple, dict] = field(default_factory=dict)
    comparisons: int | None = None
    offenders: set[tuple] = field(default_factory=set)
    verdict: str | None = None


def parse_report(text: str) -> Report:
    rep = Report()
    section = None
    in_result = False
    for line in text.splitlines():
        m = _SECTION.match(line)
        if m:
            section = (m.group(2), m.group(1))
            continue
        if line.startswith("selective combining comparison"):
            section = None
            continue
        m = _COMPARISONS.match(line)
        if m:
            rep.comparisons = int(m.group(1))
            section = None
            continue
        if line.startswith("result: "):
            rep.verdict = line.split()[1]
            in_result = True
            continue
        if in_result:
            m = _OFFENDER.match(line + " ")
            if m:
                g = [x for x in m.groups() if x is not None]
                rep.offenders.add(tuple(g))
            continue
        if section is None or not line.startswith("  ") or \
                line.lstrip().startswith(("tau ", "policy ")):
            continue
        kind, snr = section
        cells = line.split()
        if kind == "outage" and len(cells) == 5:
            rep.rows[("outage", snr, cells[0])] = {
                "analytic": float(cells[1]), "z": float(cells[4])}
        elif kind == "capacity":
            label = cells[0]
            if "z-test skipped" in line:
                continue  # not a comparison
            if "divergent;" in line:
                rep.rows[("capacity", snr, label)] = {
                    "analytic": float(cells[1]), "quad_error": 0.0,
                    "z": 0.0 if line.endswith("ok") else math.inf}
            elif len(cells) == 6:
                rep.rows[("capacity", snr, label)] = {
                    "analytic": float(cells[1]),
                    "quad_error": float(cells[2]), "z": float(cells[5])}
    return rep


def check_validate(text: str, code: int, ref_text: str) -> Outcome:
    ref = parse_report(ref_text)
    expected = ref.comparisons or len(ref.rows)
    out = Outcome(attempted=expected)
    if code not in (0, 3):
        out.failed = expected
        out.problems.append(f"exit code {code}")
        return out
    new = parse_report(text)
    if new.comparisons is None or new.verdict is None:
        out.failed = expected
        out.problems.append("report has no comparison count or verdict")
        return out
    out.attempted = max(new.comparisons, len(new.rows))
    if len(new.rows) != new.comparisons:
        out.failed += abs(new.comparisons - len(new.rows))
        out.problems.append(f"report counts {new.comparisons} comparisons "
                            f"but lists {len(new.rows)}")
    if (code == 3) != bool(new.offenders) or \
            (new.verdict == "FAIL") != bool(new.offenders):
        out.problems.append(f"exit code {code} and verdict {new.verdict} "
                            f"disagree with {len(new.offenders)} offender(s)")
        out.failed += 1
    for k in sorted(new.offenders - set(new.rows)):
        out.fail(f"offender {k} matches no comparison row")
    for k in sorted(set(ref.rows) - set(new.rows)):
        out.attempted += 1
        out.fail(f"comparison {k} missing")
    limit = chance_limit(out.attempted)
    for k, row in new.rows.items():
        r = ref.rows.get(k)
        if r is None:
            out.fail(f"comparison {k} not in the reference")
        elif not _close(row["analytic"], r["analytic"],
                        row["quad_error"] + r["quad_error"]
                        if k[0] == "capacity" else
                        outage_tol(r["analytic"], False)):
            out.fail(f"comparison {k}: analytic {row['analytic']!r} vs "
                     f"reference {r['analytic']!r}")
        elif k in new.offenders or not abs(row["z"]) <= Z_LIMIT:
            out.fail(f"comparison {k}: beyond {Z_LIMIT:g} sigma (z={row['z']})",
                     chance=abs(row["z"]) <= limit)
    return out


def check(workload, text: str, code: int, ref_text: str) -> Outcome:
    """Check one run's output of ``workload`` against its reference."""
    if workload.kind == "capacity":
        return check_capacity(text, code, ref_text)
    if workload.kind == "outage":
        return check_outage(text, code, ref_text, grid=workload.grid)
    if workload.kind == "validate":
        return check_validate(text, code, ref_text)
    raise ValueError(f"unknown workload kind {workload.kind!r}")
