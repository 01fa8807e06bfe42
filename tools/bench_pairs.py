"""Interleaved parent/change benchmark pairs, summarised into one file.

    python3 tools/bench_pairs.py --label NAME [--base REV] [--head REV]

Exports the committed files of two revisions (``git archive``) into a
temporary directory and runs each side's own ``bench/run.py``, with its
own default seed and run length, on every workload of BENCHMARK.json:
``PAIRS`` pairs per workload, alternating which side goes first so that
machine drift falls on both sides alike.  Writes ``BENCH_<label>.json``
at the repository root with every run, each side's median and
quartiles per end-to-end metric, and how many pairs the change won
(ties count for neither side).  A gain holds when every head run is
correct, the head fails no more operations than the base, the change
wins at least nine pairs in ten and the medians differ by more than the
base's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the committed tree of ``rev`` to ``dest``."""
    dest.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if proc.returncode != 0:
        raise RuntimeError(f"git archive {rev} exited {proc.returncode}")


def bench_once(tree: Path, workload: str) -> dict:
    """One ``bench/run.py`` invocation; its closing JSON line, parsed."""
    began = time.time()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {tree.name} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    return {
        "started": began,
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: v["value"] for k, v in record["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(runs: list[dict], specs: list[dict]) -> dict:
    """Per-side correctness and failures, and per-metric spread and wins."""
    correct = {side: all(r["correct"] for r in runs if r["side"] == side)
               for side in SIDES}
    failed = {side: sum(r["failed"] for r in runs if r["side"] == side)
              for side in SIDES}
    clean = correct["head"] and failed["head"] <= failed["base"]
    metrics = {}
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        by_pair = {side: [None] * PAIRS for side in SIDES}
        for r in runs:
            by_pair[r["side"]][r["pair"]] = r["metrics"][name]
        sides = {side: spread(by_pair[side]) for side in SIDES}
        wins = ties = 0
        for b, h in zip(by_pair["base"], by_pair["head"]):
            if h == b:
                ties += 1
            elif (h < b) == lower:
                wins += 1
        gap = sides["head"]["median"] - sides["base"]["median"]
        iqr = sides["base"]["q3"] - sides["base"]["q1"]
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **sides,
            "head_wins": wins,
            "ties": ties,
            "pairs": PAIRS,
            "median_change": gap,
            "median_change_ratio": gap / sides["base"]["median"]
            if sides["base"]["median"] else None,
            "base_iqr": iqr,
            "gain_holds": clean and wins * 10 >= 9 * PAIRS
            and abs(gap) > iqr and (gap < 0) == lower,
        }
    return {"correct": correct, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--head", default="HEAD")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    revs = {"base": git("rev-parse", args.base),
            "head": git("rev-parse", args.head)}

    report: dict = {
        "label": args.label,
        "commits": revs,
        "pairs": PAIRS,
        "method": "each pair runs bench/run.py once per side on the "
                  "committed tree of each revision; even pairs run the "
                  "base first, odd pairs the head first",
        "workloads": {},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for pair in range(PAIRS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = bench_once(trees[side], workload)
                    runs.append({"pair": pair, "side": side,
                                 "first": side == order[0], **run})
                    print(f"{workload} pair {pair} {side}: " + ", ".join(
                        f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                        flush=True)
            report["workloads"][workload] = {
                **summarise(runs, bench["end_to_end"]),
                "runs": runs,
            }
            # rewrite after every workload, so a cut run keeps its pairs
            out.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
