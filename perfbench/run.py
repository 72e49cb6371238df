#!/usr/bin/env python3
"""twpasim benchmark.

Usage, from the root of a checkout::

    for w in gain-spectrum saturation-sweep isolation-spectrum design-scan
    do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 \\
            --trace 0
    done

Workloads: ``gain-spectrum``, ``saturation-sweep``,
``isolation-spectrum`` and ``design-scan`` (see ``workloads.py`` and
``BENCHMARK.json`` for why each exists).  twpasim is imported from the
checkout's ``src``; the benchmark exits non-zero without a result if it
is not there.

Each run first times several fresh-interpreter set-ups
(``setup_probe.py``), then runs the workload in one child process
(``worker.py``) with the BLAS thread pools pinned to one thread.  With
``--trace 0`` the result carries the end-to-end metrics:

* ``wall_s``: median wall time of one workload call, after set-up;
* ``setup_s``: median wall time of a fresh interpreter importing twpasim
  and building the device;
* ``peak_rss_mb``: peak resident memory of the workload process;
* ``pass_frac``: rows that match the reference, over rows attempted.
  ``failed_frac = 1 - pass_frac`` is the share of rows that missed the
  reference, came out NaN unexpectedly or were not byte-identical on a
  rerun; it is printed on the summary line and equals
  ``failed / attempted`` of the result line.

With ``--trace 1`` the calls alternate between untraced and traced, and
the result carries the per-layer metrics: for each boundary in
``spans.BOUNDARIES``, ``twpasim.<boundary>.{calls,busy_s,self_s,failed}``
averaged over the traced calls, the rows the CLI wrote per call, the
set-up phases (``setup.import_s``, ``setup.device_s``), the mean traced
and untraced call times and their difference, the tracing overhead
(``trace.*``), and the number of boundaries absent from this version of
twpasim (``trace.absent``).  The
last line of standard output is the result as one JSON object; the full
record (environment, spans of one traced call, failures) is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import BOUNDARIES, STATS  # noqa: E402
from worker import BLAS_THREAD_VARS  # noqa: E402

# the names of workloads.WORKLOADS, which this process does not import
# because it imports twpasim
WORKLOADS = ("gain-spectrum", "saturation-sweep", "isolation-spectrum",
             "design-scan")
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_frac": "ratio"}


def per_layer_units() -> dict:
    units = {f"twpasim.{b}.{stat}": unit
             for b in BOUNDARIES for stat, unit in STATS.items()}
    units.update({
        "twpasim.cli.run.rows": "count",
        "setup.import_s": "s",
        "setup.device_s": "s",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.absent": "count",
    })
    return units


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("TWPASIM_LOG", None)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def time_setup(src: Path, runs: int) -> list[dict]:
    """Run ``setup_probe.py`` in ``runs`` fresh interpreters, one at a time."""
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              env=child_env(src), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        if src not in Path(probe["module"]).resolve().parents:
            raise RuntimeError(f"twpasim imported from {probe['module']}, "
                               f"not from {src}")
        probe["wall_s"] = wall
        samples.append(probe)
    return samples


def run_worker(src: Path, args) -> dict:
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(src), "--workdir", str(workdir)]
    proc = subprocess.run(cmd, env=child_env(src), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def metrics_from(worker: dict, setup: list[dict], trace: bool) -> dict:
    """The result's ``metrics``: end-to-end, or per layer when tracing."""
    med = statistics.median
    if not trace:
        values = {
            "wall_s": med(worker["walls"]),
            "setup_s": med(s["wall_s"] for s in setup),
            "peak_rss_mb": worker["peak_rss_mb"],
            "pass_frac": 1.0 - worker["failed"] / worker["attempted"],
        }
        units = END_TO_END
    else:
        values = {f"twpasim.{b}.{stat}": worker["layers"][b][stat]
                  for b in BOUNDARIES for stat in STATS}
        # means, like the per-call layer figures, so that a layer's busy_s
        # is a share of trace.wall_s
        traced = statistics.fmean(worker["traced_walls"])
        untraced = statistics.fmean(worker["walls"])
        values.update({
            "twpasim.cli.run.rows": worker["cli_rows_per_call"],
            "setup.import_s": med(s["import_s"] for s in setup),
            "setup.device_s": med(s["device_s"] for s in setup),
            "trace.wall_s": traced,
            "trace.untraced_wall_s": untraced,
            "trace.overhead_s": traced - untraced,
            "trace.absent": len(worker["absent"]),
        })
        units = per_layer_units()
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="twpasim benchmark; see the module docstring.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "twpasim" / "__init__.py").is_file():
        sys.stderr.write(f"no twpasim sources under {src}; run from the "
                         f"root of a twpasim checkout\n")
        return 2

    # set-up samples before and after the workload, so that a slow spell
    # of the machine does not cover all of them
    setup = time_setup(src, SETUP_RUNS // 2)
    worker = run_worker(src, args)
    setup += time_setup(src, SETUP_RUNS - SETUP_RUNS // 2)
    metrics = metrics_from(worker, setup, bool(args.trace))
    result = {"correct": worker["failed"] == 0,
              "attempted": worker["attempted"],
              "failed": worker["failed"],
              "metrics": metrics}

    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, setup=setup,
                  **{k: worker[k] for k in worker if k not in result})
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for message in worker["failures"]:
        sys.stderr.write(f"failed: {message}\n")
    failed_frac = worker["failed"] / worker["attempted"]
    shown = ("wall_s", "setup_s", "peak_rss_mb") if not args.trace else \
        ("trace.wall_s", "trace.overhead_s",
         "twpasim._kernels.integrate.busy_s")
    print(f"{args.workload} seed {args.seed}: "
          + " ".join(f"{k}={metrics[k]['value']:.6g} {metrics[k]['unit']}"
                     for k in shown)
          + f" failed_frac={failed_frac:.6g} ratio "
            f"({worker['failed']}/{worker['attempted']} rows); "
            f"record in {out}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
