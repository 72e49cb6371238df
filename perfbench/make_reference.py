"""Regenerate the stored reference values in ``reference/``.

Runs every workload over its whole lattice (every point any seed can
draw) and stores the outputs.  The stored files were made this way from
the commit that introduced the benchmark; regenerate them only when a
change of the expected numbers is intended.  ``noise_records.csv`` is a
copy of the example calibration records (G_out = 1e6, N_out = 10
photons, 1 % noise).  Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads


def lattice_reference(cls, workdir: Path) -> dict:
    size = cls.stride * cls.points
    w = cls(0, workdir, points=size, stride=1)
    w.call()
    if w.failures:
        sys.exit(f"{cls.name}: {w.failures}")
    columns, rows, _ = workloads.read_artifact(w.artifacts[cls.task])
    return {"x": [r[0] for r in rows], "columns": columns, "rows": rows}


def design_reference(workdir: Path) -> dict:
    cls = workloads.DesignScan
    w = cls(0, workdir, pairs=len(cls.PAIR_FLUX) * len(cls.PAIR_SIGNAL_HZ))
    w.call()
    if w.failures:
        sys.exit(f"{cls.name}: {w.failures}")
    sweep = w.results["flux_sweep"]
    ref = {
        "flux_sweep": {k: [getattr(c, k) for c in sweep]
                       for k in ("beta", "gamma")},
        "kerr_free_flux": w.results["kerr_free_flux"],
        "matched_pump": sorted([f, s, p] for (f, s), p in
                               zip(w.pairs, w.results["matched_pump_hz"])),
    }
    for part, cols in cls.CLI_COLUMNS.items():
        columns, rows, _ = workloads.read_artifact(w.artifacts[part])
        ref[part] = {c: [r[columns.index(c)] for r in rows] for c in cols}
    return ref


def main() -> None:
    work_root = workloads.HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        refs = {cls.name: lattice_reference(cls, workdir)
                for cls in (workloads.GainSpectrum, workloads.SaturationSweep,
                            workloads.IsolationSpectrum)}
        refs["design-scan"] = design_reference(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, ref in refs.items():
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, separators=(",", ":")) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
