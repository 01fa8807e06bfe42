"""Record the reference outputs that ``check.py`` compares runs against.

    python3 bench/record.py [WORKLOAD ...]

Runs each workload once (seeded ones with the configs' own seed) and
writes its CLI output to ``bench/reference/<workload>.txt``.  Record
only from a commit whose outputs are known good.
"""

from __future__ import annotations

import sys
import time

from run import BENCH, BUILD, Runner
from workloads import DEFAULT_SEED, WORKLOADS


def main(names: list[str]) -> int:
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        record = Runner(name, DEFAULT_SEED, time.monotonic() + 600.0)("run")
        if record["exit_code"] != 0:
            print(f"{name}: exit code {record['exit_code']}\n"
                  f"{record['stderr']}", file=sys.stderr)
            return 1
        path = BENCH / "reference" / f"{name}.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text(record["stdout"], encoding="utf-8")
        print(f"{name}: {record['wall_s']:.2f} s -> {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
