"""relaycap benchmark: one CLI workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Every measurement is a fresh ``bench/child.py`` process
started from this one, one at a time, with BLAS threads capped at the
CPU count:

* set-up (``setup_s``): import ``relaycap.cli``, load the workload's
  config and build its topology, which runs the normalization check
  once per shape.  Sampled in every process; the median is reported.
* the workload (``wall_s``, ``peak_rss_mb``): after set-up, the CLI
  command runs in the same process with output captured.  Repeated in
  fresh processes while another repetition fits into ``--seconds``;
  the medians are reported.
* with ``--trace 1``, one more process runs the command under the
  outside-in tracer (``spans.py``) and the per-layer metrics are
  reported instead of the end-to-end ones.

Every output is checked against ``bench/reference/`` (see
``check.py``).  A result file stamped with the environment goes to
``.bench_build/results/``.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0    # a run must end well within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    cap = cpu_count()
    for var in BLAS_VARS:
        try:
            threads = min(int(env[var]), cap)
        except (KeyError, ValueError):
            threads = cap
        env[var] = str(max(threads, 1))
    return env


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return got.stdout.strip() if got.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def __call__(self, mode: str) -> dict:
        """Run one child process to completion and return its record."""
        self.count += 1
        out = BUILD / "tmp" / f"{os.getpid()}-{self.count}.json"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("out of time before starting a measurement")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), mode,
                 self.workload, str(self.seed), str(out)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise TimeoutError(f"{mode} process overran the time limit") from exc
        if proc.returncode != 0 or not out.is_file():
            raise RuntimeError(f"{mode} process exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        try:
            return json.loads(out.read_text(encoding="utf-8"))
        finally:
            out.unlink()


def measure(run: Runner, seconds: float, trace: bool) -> tuple[list, list, dict | None]:
    """Workload repetitions, extra set-up samples and the traced record."""
    run("setup")  # warm-up: bytecode and file cache; not measured
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        reps.append(run("run"))
        took = time.monotonic() - began
        now = time.monotonic()
        reserve = took * (2 if trace else 1) + 15.0
        if now - start + took > seconds or now + reserve > run.deadline:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run("setup")["setup_s"])
    traced = run("trace") if trace else None
    return reps, setups, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    workload = WORKLOADS[args.workload]
    reference = BENCH / "reference" / f"{workload.name}.txt"
    spec_path = ROOT / "BENCHMARK.json"
    for needed in (ROOT / "src" / "relaycap" / "cli.py", reference, spec_path):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a relaycap source "
                  f"checkout", file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    (BUILD / "results").mkdir(parents=True, exist_ok=True)

    run = Runner(workload.name, args.seed, began + TIME_LIMIT_S)
    try:
        reps, setups, traced = measure(run, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # correctness: every repetition, and the traced run, against the reference
    ref_text = reference.read_text(encoding="utf-8")
    attempted = failed = chance = 0
    problems: list[str] = []
    for record in reps + ([traced] if traced else []):
        got = check(workload, record["stdout"], record["exit_code"], ref_text)
        attempted += got.attempted
        failed += got.failed
        chance += got.chance
        problems += got.problems
    identical = traced is None or all(
        traced["stdout"] == r["stdout"] for r in reps)
    if not identical:
        problems.append("traced output differs from untraced output")

    walls = [r["wall_s"] for r in reps]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "failed_share": failed / attempted if attempted else 1.0,
    }
    closed = True
    if traced is not None:
        layers = traced["layers"]
        values.update(layers)
        values["setup.import_s"] = traced["import_s"]
        values["setup.norm_check_s"] = traced["norm_check_s"]
        values["trace_overhead_s"] = layers["trace.wall_s"] - values["wall_s"]
        covered = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        gap = covered + layers["trace.uncovered_s"] - layers["trace.wall_s"]
        closed = abs(gap) <= 1e-6 * layers["trace.wall_s"]
        if not closed:
            problems.append(f"layer self times miss the traced wall by {gap:g} s")

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[key]}
    # chance-level validate alarms count as failed but not as wrong output
    correct = failed == chance and identical and closed

    environment = {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": cpu_count(),
        **{var: run.env[var] for var in BLAS_VARS},
        **reps[0]["environment"],
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result = {
        "environment": environment,
        "command": ["relaycap"] + workload.argv(args.seed),
        "samples": {"setup_s": setups, "wall_s": walls,
                    "peak_rss_mb": [r["peak_rss_mb"] for r in reps]},
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "failed_by_chance": chance,
        "problems": problems,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = BUILD / "results" / (
        f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print("environment: " + " ".join(f"{k}={v}" for k, v in environment.items()))
    print(f"{workload.name}: {len(reps)} run(s), {len(setups)} set-up(s)")
    for m in spec["end_to_end"]:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"  failed_share = {values['failed_share']:.6g} ratio "
          f"({failed} of {attempted} operations, {chance} of them "
          f"chance-level 3-sigma alarms)")
    for p in problems[:20]:
        print(f"  problem: {p}")
    if traced is not None:
        for m in spec["per_layer"]:
            print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"result file: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
