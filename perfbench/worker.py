"""Run one workload in a closed loop and print what was measured.

Started by ``run.py`` in a child process whose environment puts the
checkout's ``src`` first on ``PYTHONPATH`` and pins the BLAS thread pools
to one thread.  One caller repeats the workload's call, waiting for each,
until the next call would end past ``--seconds`` (at least two calls, so
reruns can be compared byte for byte).  With ``--trace 1`` the calls
alternate between untraced and traced, so the difference of their
mean times is the tracing overhead.  The last line of standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def measure(workload, seconds: float, tracer=None) -> dict:
    """Repeat ``workload.call`` for about ``seconds``; check every call.

    Returns call wall times (untraced and traced), rows attempted and
    failed, and the rows the CLI wrote per call; with a tracer, also the
    per-boundary statistics per traced call, the absent boundaries and the
    spans of the first traced call.  A CLI artifact that differs byte for
    byte from the first call's fails all of its rows.
    """
    walls, traced_walls = [], []
    attempted = failed = cli_rows = 0
    first_bytes = {}
    start = time.perf_counter()
    last = 0.0
    calls = 0
    while calls < 2 or time.perf_counter() - start + last <= seconds:
        traced = tracer is not None and calls % 2 == 1
        workload.prepare()
        if traced:
            tracer.record = not traced_walls    # keep one call's spans
        with tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                workload.call()
            except Exception:  # noqa: BLE001 - counted as failed rows below
                workload.fail(traceback.format_exc(limit=5))
            t1 = time.perf_counter()
        (traced_walls if traced else walls).append(t1 - t0)
        calls += 1

        for part, (n, bad) in workload.check().items():
            path = workload.artifacts.get(part)
            if path is not None:
                blob = path.read_bytes() if path.exists() else b""
                if first_bytes.setdefault(part, blob) != blob:
                    workload.fail(f"{part}: rerun is not byte-identical")
                    bad = n
                if traced or tracer is None:
                    cli_rows += n
            attempted += n
            failed += bad
        last = time.perf_counter() - t0
    result = {"walls": walls, "traced_walls": traced_walls,
              "attempted": attempted, "failed": failed,
              "cli_rows_per_call": cli_rows / len(traced_walls or walls)}
    if tracer is not None:
        n = len(traced_walls)
        result["layers"] = {name: {k: v / n for k, v in stats.items()}
                            for name, stats in tracer.stats.items()}
        result["absent"] = tracer.absent
        t0 = min((s[3] for s in tracer.spans), default=0.0)
        result["spans"] = [[i, p, name, s - t0, e - t0, f]
                           for i, p, name, s, e, f in tracer.spans]
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Versions and settings a result depends on."""
    import numpy
    import scipy
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    kernels = sys.modules.get("twpasim._kernels")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "kernels_backend": getattr(kernels, "BACKEND", None),
        # the README quotes a numba kernel timing (~0.8 ms, ~130x); it can
        # only be reproduced where numba imports
        "readme_numba_timing": ("not reproducible: numba does not import"
                                if numba_version is None else
                                "not measured by this benchmark"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True,
                    help="directory twpasim must be imported from")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import twpasim
    src = Path(args.src).resolve()
    if src not in Path(twpasim.__file__).resolve().parents:
        sys.stderr.write(f"twpasim imported from {twpasim.__file__}, "
                         f"not from {src}\n")
        return 3

    import spans
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix="w-", dir=args.workdir))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        result = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    result["failures"] = workload.failures
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
