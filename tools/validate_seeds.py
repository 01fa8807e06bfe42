"""Fail share of ``validate`` over seeds, per shipped config.

    python3 tools/validate_seeds.py

Runs ``validate`` on each of the four shipped configs at seeds 1-20,
one fresh process at a time, on this checkout's ``src``.  Prints one
line per config: how many seeds failed (exit code 3) and which.  Each
run's comparisons share one set of draws, so a seed fails or passes as
a whole; the share over seeds is the validator's own false-alarm rate
on a correct program.  Exits 1 if any run exits other than 0 or 3.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("fig1_serial2", "fig1_selective3", "fig2_malaga", "fig3_dgg")
SEEDS = range(1, 21)
ENTRY = "import sys; from relaycap.cli import main; sys.exit(main(sys.argv[1:]))"


def validate(config: str, seed: int) -> int:
    """Exit code of ``validate`` on ``config`` at ``seed``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", ENTRY, "validate", "--config", config,
         "--seed", str(seed)],
        cwd=ROOT, env=env, capture_output=True).returncode


def main() -> int:
    broken = False
    for config in CONFIGS:
        codes = {seed: validate(config, seed) for seed in SEEDS}
        failed = [s for s, code in codes.items() if code == 3]
        errors = [s for s, code in codes.items() if code not in (0, 3)]
        line = f"{config}: {len(failed)}/{len(codes)} seeds fail"
        if failed:
            line += f" (seeds {', '.join(map(str, failed))})"
        if errors:
            broken = True
            line += f"; seeds {', '.join(map(str, errors))} did not run"
        print(line, flush=True)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
