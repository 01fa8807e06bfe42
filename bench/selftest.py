"""Self-test of the benchmark's output check and its outside-in tracer.

    python3 bench/selftest.py

The check cases use the recorded references only.  The tracer cases
run three short CLI commands in this process, untraced and traced.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reference(name: str) -> str:
    return (BENCH / "reference" / f"{name}.txt").read_text(encoding="utf-8")


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class CheckTest(unittest.TestCase):
    def test_unmodified_outputs_score_zero(self):
        for name, workload in WORKLOADS.items():
            text = reference(name)
            code = 0
            got = check.check(workload, text, code, text)
            self.assertGreater(got.attempted, 0, name)
            self.assertEqual(got.failed, 0, f"{name}: {got.problems}")

    def test_capacity_moved_past_quad_error_fails(self):
        text = reference("selective3-capacity")
        rows = list(csv.reader(io.StringIO(text)))
        value, err = float(rows[1][2]), float(rows[1][3])
        rows[1][2] = "%.9g" % (value + 4.0 * err + 1e-6 * abs(value))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        got = check.check(WORKLOADS["selective3-capacity"], buf.getvalue(), 0, text)
        self.assertEqual((got.attempted, got.failed), (35, 1), got.problems)

    def test_outage_moved_past_mass_tolerance_fails(self):
        text = reference("malaga-outage")
        lines = text.splitlines()
        snr, tau, p = lines[-1].split(",")
        lines[-1] = ",".join([snr, tau, "%.9g" % (float(p) - 3e-4)])
        got = check.check(WORKLOADS["malaga-outage"], "\n".join(lines) + "\n",
                          0, text)
        self.assertEqual((got.attempted, got.failed), (147, 1), got.problems)

    def test_flipped_validate_verdict_fails(self):
        text = reference("dgg-validate")
        lines = text.splitlines()
        row = next(i for i, line in enumerate(lines)
                   if line.startswith("[snr ") and line.endswith("outage")) + 2
        snr = lines[row - 2].split()[1]
        tau = lines[row].split()[0]
        lines[row] = lines[row].rsplit(" ", 1)[0] + " +3.50"
        verdict = next(i for i, line in enumerate(lines)
                       if line.startswith("result: "))
        z_only = "\n".join(lines) + "\n"
        lines[verdict:] = ["result: FAIL (1 point(s) beyond 3 sigma)",
                           f"  outage snr_db={snr} tau={tau} z=+3.50"]
        flipped = "\n".join(lines) + "\n"
        workload = WORKLOADS["dgg-validate"]
        for label, modified, code in (("z-score", z_only, 0),
                                      ("verdict", flipped, 3)):
            got = check.check(workload, modified, code, text)
            self.assertEqual((got.attempted, got.failed, got.chance),
                             (137, 1, 1), f"{label}: {got.problems}")

    def test_alarm_beyond_chance_or_wrong_analytic_is_not_chance(self):
        text = reference("dgg-validate")
        lines = text.splitlines()
        row = next(i for i, line in enumerate(lines)
                   if line.startswith("[snr ") and line.endswith("outage")) + 2
        cells = lines[row].split()
        far = "  ".join(cells[:4] + ["+%.2f" % (check.chance_limit(137) + 0.5)])
        moved = "  ".join([cells[0], "%.9g" % (1.01 * float(cells[1]))]
                          + cells[2:])
        workload = WORKLOADS["dgg-validate"]
        for label, new_row in (("far z", far), ("analytic", moved)):
            lines[row] = "  " + new_row
            got = check.check(workload, "\n".join(lines) + "\n", 0, text)
            self.assertEqual((got.failed, got.chance), (1, 0),
                             f"{label}: {got.problems}")

    def test_failed_command_fails_every_operation(self):
        text = reference("selective3-capacity")
        got = check.check(WORKLOADS["selective3-capacity"], "", 2, text)
        self.assertEqual((got.attempted, got.failed), (35, 35))


class RationaleTest(unittest.TestCase):
    def test_every_metric_and_workload_has_its_reasoning(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        why = json.loads((BENCH / "rationale.json").read_text())
        self.assertEqual({m["name"] for m in spec["per_layer"]},
                         set(why["per_layer"]))
        names = {w["name"] for w in spec["workloads"]}
        self.assertEqual(names, set(why["workloads"]))
        self.assertEqual(names, set(WORKLOADS))


class TracerTest(unittest.TestCase):
    COMMANDS = (
        ["outage-sweep", "--config", "fig1_selective3"],          # foxh
        ["capacity-sweep", "--config", "fig3_dgg"],               # capacity
        ["validate", "--config", "fig3_dgg", "--samples", "20000"],  # mc
    )

    def test_traced_output_is_byte_identical(self):
        from relaycap import cli

        for argv in self.COMMANDS:
            plain = run_cli(cli, argv)
            tracer = spans.Tracer()
            tracer.install()
            try:
                start = time.perf_counter()
                traced = run_cli(cli, argv)
                wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
            self.assertEqual(plain, traced, argv)
            m = tracer.metrics(wall)
            covered = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
            self.assertAlmostEqual(covered + m["trace.uncovered_s"], wall,
                                   delta=1e-9 * wall + 1e-12)
            self.assertGreater(m["cli.self_s"], 0.0)
            self.assertEqual(m["quadrature.budget_hits"], 0)

    def test_uninstall_restores_every_name(self):
        from relaycap import capacity, cli, fading, quadrature

        before = (cli.end_to_end, cli.simulate, capacity.integrate,
                  fading.integrate_semi_infinite, fading.GammaGamma.cdf)
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(cli.simulate, before[1])
        self.assertIs(capacity.integrate, quadrature.integrate)
        tracer.uninstall()
        after = (cli.end_to_end, cli.simulate, capacity.integrate,
                 fading.integrate_semi_infinite, fading.GammaGamma.cdf)
        self.assertEqual(before, after)

    def test_budget_hit_is_counted(self):
        from relaycap import capacity

        tracer = spans.Tracer()
        tracer.install()
        try:
            # a kink no 15-point panel resolves, with room for 8 panels only
            capacity.integrate(lambda x: abs(x - 0.3) ** 0.5, 0.0, 1.0,
                               rel_tol=1e-14, max_panels=8)
            capacity.integrate(lambda x: x, 0.0, 1.0)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.counts["quadrature.calls"], 2)
        self.assertEqual(tracer.counts["quadrature.budget_hits"], 1)


if __name__ == "__main__":
    unittest.main()
