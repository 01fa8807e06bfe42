"""One benchmark process: set relaycap up, then optionally run a workload.

    python3 bench/child.py MODE WORKLOAD SEED OUT_JSON

MODE is ``setup`` (import and build the topology only), ``run`` (then
run the workload's CLI command with output captured) or ``trace``
(the same with the outside-in tracer of ``spans.py`` installed).  The
record, with the captured output, goes to OUT_JSON.  ``run.py``
starts one such process per measurement so that every set-up starts
from a fresh interpreter.
"""

import time

T0 = time.perf_counter()

import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def main(argv: list[str]) -> int:
    mode, name, seed, out_path = argv[1], argv[2], int(argv[3]), argv[4]
    if mode not in ("setup", "run", "trace"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    record: dict = {"mode": mode}

    start = time.perf_counter()
    from relaycap import cli
    record["import_s"] = time.perf_counter() - start
    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    cfg = cli.load_config(workload.config)
    cli.topology_from_config(cfg.get("topology", {}))
    record["setup_s"] = time.perf_counter() - T0
    if tracer is not None:
        record["norm_check_s"] = tracer.counts["setup.norm_check_s"]
        tracer.reset()

    if mode != "setup":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(workload.argv(seed))
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails every operation of the run
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - start
        record.update(exit_code=code, wall_s=wall, stdout=out.getvalue(),
                      stderr=err.getvalue())
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = tracer.metrics(wall)
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["environment"] = environment()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
