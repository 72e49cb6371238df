"""The benchmark's workloads: inputs drawn from a seed, the calls into
twpasim's public entry points, and the checks of every output against
the stored references in ``reference/``.

Every workload draws its grid from a fixed reference lattice, so the
reference values stored once cover every seed.  The three integrator
workloads run one CLI task over ``points`` lattice points taken every
``stride`` points from an offset the seed picks; the lattice holds
``stride * points`` points, so each grid spans the band to within one
grid step and keeps its gain peak.  A workload object is built once per
run and its :meth:`Workload.call` is repeated; everything it writes goes
to its work directory.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

import twpasim
import twpasim.cli

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Tolerances.  1e-4 dB is the tolerance the solver-convergence acceptance
# criterion allows against the RK4 oracle; a reordered but correct
# integrator (e.g. batched DP5(4), ~3e-11 dB apart) passes all of them.
GAIN_DB_TOL = 1e-4           # dB, gain / isolation / 1 dB compression point
FRACTION_TOL = 1e-5          # absolute, upconverted photon fraction
MATCHED_PUMP_RTOL = 1e-7     # relative; Brent's xatol is ~1e-9 of the band
ANALYTIC_RTOL = 1e-9         # closed forms, relative to the column's scale

# the paper operating point: flux 0.35, 9.2 GHz pump at -78 dBm and the
# fitted couplings and amplitude calibration
OPERATING_POINT = """\
flux = 0.35
pump_freq_hz = 9.2e9
pump_power_dbm = -78
beta_override = 0.104388
gamma_override = 0.122339
amp_scale = 1.55
"""


class Workload:
    """One benchmark workload.

    ``call`` runs the entry points once; ``check`` compares what that call
    produced with the reference and returns ``{part: (attempted, failed)}``
    counted in rows.  ``artifacts`` maps the parts that are CLI artifacts
    to their paths, for the rerun byte-identity check.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.artifacts: dict[str, Path] = {}
        self.failures: list[str] = []
        self.reference = None           # see load_reference

    def prepare(self) -> None:
        """Remove the previous call's outputs (untimed)."""
        for path in self.artifacts.values():
            path.unlink(missing_ok=True)

    def call(self) -> None:
        raise NotImplementedError

    def check(self) -> dict:
        raise NotImplementedError

    def _cli(self, task: str, config_text: str, part: str, fmt: str) -> None:
        cfg = self.workdir / f"{part}.cfg"
        if not cfg.exists():
            cfg.write_text(f"task = {task}\n{config_text}", encoding="utf-8")
        out = self.artifacts.setdefault(part, self.workdir / f"{part}.{fmt}")
        code = twpasim.cli.main([task, "--config", str(cfg), "--out",
                                 str(out), "--format", fmt])
        if code != 0:
            self.fail(f"{part}: twpasim {task} exited {code}")

    def load_reference(self) -> dict:
        if self.reference is None:
            with open(REFERENCE_DIR / f"{self.name}.json",
                      encoding="utf-8") as fh:
                self.reference = json.load(fh)
        return self.reference

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)


def read_artifact(path: Path):
    """Return ``(columns, rows, metadata)`` of a CLI artifact, or None."""
    if not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
        return doc["columns"], doc["rows"], doc["metadata"]
    lines = list(csv.reader(text.splitlines()))
    return lines[0], [[float(v) for v in row] for row in lines[1:]], {}


def close(value, ref, tol) -> bool:
    """True if within ``tol``; NaN matches only NaN."""
    if ref is None or value is None:
        return ref is None and value is None
    if math.isnan(ref):
        return math.isnan(value)
    return math.isfinite(value) and abs(value - ref) <= tol


def _scale(values) -> float:
    return max((abs(v) for v in values if math.isfinite(v)), default=0.0)


def compression_1db(powers, gains):
    """Input power where the gain first falls 1 dB below the first row's,
    interpolated linearly between grid rows (None if it never does)."""
    target = gains[0] - 1.0
    for j in range(1, len(gains)):
        if gains[j] <= target:
            frac = (target - gains[j - 1]) / (gains[j] - gains[j - 1])
            return float(powers[j - 1] + frac * (powers[j] - powers[j - 1]))
    return None


class LatticeTask(Workload):
    """A CLI task over a uniform grid drawn from the reference lattice.

    ``checks`` maps a checked column to its absolute tolerance, or to None
    for a closed-form column checked to ANALYTIC_RTOL of its scale.
    """

    task = ""
    fmt = "csv"
    x_keys = ("", "", "")        # config keys of grid min, max, points
    lattice = (0.0, 0.0)         # lattice band
    stride = 1
    points = 1
    config = ""
    checks: dict = {}

    def __init__(self, seed, workdir, points=None, stride=None):
        super().__init__(seed, workdir)
        self.points = points or type(self).points
        self.stride = stride or type(self).stride
        lattice = np.linspace(*self.lattice,
                              type(self).stride * type(self).points)
        span = self.stride * (self.points - 1)
        offset = self.rng.randrange(len(lattice) - span)
        self.grid = [float(x) for x in
                     lattice[offset:offset + span + 1:self.stride]]
        lo_key, hi_key, n_key = self.x_keys
        self.config_text = (f"{self.config}{lo_key} = {self.grid[0]!r}\n"
                            f"{hi_key} = {self.grid[-1]!r}\n"
                            f"{n_key} = {self.points}\n")

    def call(self):
        self._cli(self.task, self.config_text, self.task, self.fmt)

    def check(self):
        ref = self.load_reference()
        ref_x = np.asarray(ref["x"])
        ref_cols = {c: ref["columns"].index(c) for c in self.checks}
        tols = {col: ANALYTIC_RTOL * _scale(r[ref_cols[col]]
                                            for r in ref["rows"])
                if tol is None else tol
                for col, tol in self.checks.items()}
        art = read_artifact(self.artifacts[self.task])
        if art is None:
            self.fail(f"{self.task}: no artifact")
            art = [], [], {}
        columns, rows, meta = art
        failed = max(self.points - len(rows), 0)
        for row in rows[:self.points]:
            x = row[0]
            i = int(np.argmin(np.abs(ref_x - x)))
            if abs(ref_x[i] - x) > 1e-9 * abs(x):
                failed += 1
                self.fail(f"{self.task}: {x!r} is not on the lattice")
                continue
            for col, tol in tols.items():
                value = row[columns.index(col)]
                expected = ref["rows"][i][ref_cols[col]]
                if not close(value, expected, tol):
                    failed += 1
                    self.fail(f"{self.task} at {x!r}: {col} = {value!r}, "
                              f"reference {expected!r} (tol {tol:g})")
                    break
        parts = {self.task: (self.points, failed)}
        parts.update(self.extra_checks(rows, meta))
        return parts

    def extra_checks(self, rows, meta):
        return {}


class GainSpectrum(LatticeTask):
    """CLI ``gain`` at the paper operating point, 2-16.5 GHz."""

    name = "gain-spectrum"
    task = "gain"
    x_keys = ("signal_freq_min_hz", "signal_freq_max_hz", "signal_points")
    lattice = (2.0e9, 16.5e9)
    stride = 5
    points = 16
    config = OPERATING_POINT + "signal_power_dbm = -130\n"
    checks = {"gain_db": GAIN_DB_TOL, "dk_total_rad_per_cell": None}


class SaturationSweep(LatticeTask):
    """CLI ``saturation`` at 7.6 GHz from -150 to -85 dBm; JSON, so the
    1 dB compression point in the metadata is checked too."""

    name = "saturation-sweep"
    task = "saturation"
    fmt = "json"
    x_keys = ("signal_power_min_dbm", "signal_power_max_dbm",
              "signal_power_points")
    lattice = (-150.0, -85.0)
    stride = 4
    points = 14
    config = OPERATING_POINT + "signal_freq_hz = 7.6e9\n"
    checks = {"gain_db": GAIN_DB_TOL}

    def extra_checks(self, rows, meta):
        ref = self.reference
        ref_x = np.asarray(ref["x"])
        gains = [ref["rows"][int(np.argmin(np.abs(ref_x - x)))][1]
                 for x in self.grid]
        expected = compression_1db(self.grid, gains)
        got = meta.get("compression_1db_dbm")
        ok = close(got, expected, GAIN_DB_TOL)
        if not ok:
            self.fail(f"compression point {got!r}, reference {expected!r}")
        return {"compression_1db": (1, 0 if ok else 1)}


class IsolationSpectrum(LatticeTask):
    """CLI ``isolation``: backward 12.2 GHz pump at -74 dBm, 4-9 GHz."""

    name = "isolation-spectrum"
    task = "isolation"
    x_keys = ("signal_freq_min_hz", "signal_freq_max_hz", "signal_points")
    lattice = (4.0e9, 9.0e9)
    stride = 4
    points = 16
    config = ("flux = 0.35\niso_pump_freq_hz = 12.2e9\n"
              "iso_pump_power_dbm = -74\nsignal_power_dbm = -130\n")
    checks = {"isolation_db": GAIN_DB_TOL,
              "upconverted_fraction": FRACTION_TOL}


def _device_spec():
    return twpasim.SnailSpec(I0=2.2e-6, r=0.07, Cg=250e-15, CJ=35e-15,
                             N=700, tan_delta=2.9e-3)


class DesignScan(Workload):
    """Analytic design work, no integration: a flux sweep and the
    Kerr-free flux; matched pumps for seeded (flux, signal) pairs; dense
    phase-mismatch and dispersion CLI runs in JSON; a noise-fit CLI run."""

    name = "design-scan"
    SWEEP_FLUX = (0.0, 0.5, 501)
    PAIR_FLUX = tuple(round(0.25 + 0.025 * i, 3) for i in range(9))
    PAIR_SIGNAL_HZ = tuple(3.0e9 + 0.5e9 * i for i in range(11))
    PUMP_POWER_DBM = -78.0
    PUMP_BAND_TOP_HZ = 16.0e9
    DENSE = ("signal_freq_min_hz = 2.0e9\nsignal_freq_max_hz = 16.5e9\n"
             "signal_points = 2001\n")
    NOISE_RECORDS = REFERENCE_DIR / "noise_records.csv"
    # checked columns of the CLI artifacts
    CLI_COLUMNS = {
        "phase-mismatch": ("dk_total_rad_per_cell",),
        "dispersion": ("k_rad_per_cell", "transmission_db"),
        "noise-fit": ("g_out", "n_out_w_per_hz", "n_out_photons",
                      "g_stderr", "n_stderr"),
    }

    def __init__(self, seed, workdir, pairs=8):
        super().__init__(seed, workdir)
        lattice = [(f, s) for f in self.PAIR_FLUX for s in self.PAIR_SIGNAL_HZ]
        self.pairs = self.rng.sample(lattice, pairs)
        self.results = {}

    def prepare(self):
        super().prepare()
        self.results = {}

    def call(self):
        spec = _device_spec()
        grid = np.linspace(*self.SWEEP_FLUX)
        self.results["flux_sweep"] = twpasim.flux_sweep(spec, grid)
        self.results["kerr_free_flux"] = twpasim.kerr_free_flux(spec)
        matched = []
        for flux, f_s in self.pairs:
            coeffs = twpasim.cell_coefficients(
                spec, twpasim.equilibrium_phase(spec, flux))
            medium = twpasim.MediumParams.from_cell(spec, coeffs)
            band = (2 * math.pi * (f_s + 0.5e9),
                    2 * math.pi * self.PUMP_BAND_TOP_HZ)
            try:
                omega, _ = twpasim.find_matched_pump(
                    medium, coeffs.beta, coeffs.gamma, 2 * math.pi * f_s,
                    self.PUMP_POWER_DBM, band)
            except twpasim.errors.TwpaError as exc:
                self.fail(f"matched pump at {flux}, {f_s!r}: {exc}")
                omega = math.nan
            matched.append(omega / (2 * math.pi))
        self.results["matched_pump_hz"] = matched
        self._cli("phase-mismatch", OPERATING_POINT + self.DENSE,
                  "phase-mismatch", "json")
        self._cli("dispersion", "flux = 0.35\n" + self.DENSE, "dispersion",
                  "json")
        self._cli("noise-fit", f"noise_data_path = {self.NOISE_RECORDS}\n"
                               "bandwidth_hz = 1e6\n", "noise-fit", "csv")

    def check(self):
        ref = self.load_reference()
        parts = {}

        sweep = self.results.get("flux_sweep") or []
        parts["flux_sweep"] = self._check_columns(
            "flux_sweep", {key: [getattr(c, key) for c in sweep]
                           for key in ref["flux_sweep"]}, ref["flux_sweep"])

        kff = self.results.get("kerr_free_flux")
        ok = close(kff, ref["kerr_free_flux"],
                   ANALYTIC_RTOL * ref["kerr_free_flux"])
        if not ok:
            self.fail(f"kerr_free_flux {kff!r}, "
                      f"reference {ref['kerr_free_flux']!r}")
        parts["kerr_free_flux"] = (1, 0 if ok else 1)

        table = {(f, s): p for f, s, p in ref["matched_pump"]}
        got = self.results.get("matched_pump_hz") or []
        failed = max(len(self.pairs) - len(got), 0)
        for pair, value in zip(self.pairs, got):
            expected = table[pair]
            if not close(value, expected, MATCHED_PUMP_RTOL * expected):
                failed += 1
                self.fail(f"matched pump at {pair}: {value!r}, "
                          f"reference {expected!r}")
        parts["matched_pump"] = (len(self.pairs), failed)

        for part in self.CLI_COLUMNS:
            path = self.artifacts.get(part)
            art = read_artifact(path) if path else None
            if art is None:
                self.fail(f"{part}: no artifact")
                art = [], [], {}
            columns, rows, _ = art
            values = {col: [row[columns.index(col)] for row in rows]
                      for col in ref[part] if col in columns}
            parts[part] = self._check_columns(part, values, ref[part])
        return parts

    def _check_columns(self, label, values, expected):
        """Rows attempted and failed; a row fails if any column misses its
        reference by more than ANALYTIC_RTOL of the column's scale."""
        n = len(next(iter(expected.values())))
        bad = set()
        for col, ref in expected.items():
            got = values.get(col, [])
            bad.update(range(len(got), n))
            tol = ANALYTIC_RTOL * _scale(ref)
            for i, (v, e) in enumerate(zip(got, ref)):
                if i not in bad and not close(v, e, tol):
                    bad.add(i)
                    self.fail(f"{label}[{i}].{col} = {v!r}, "
                              f"reference {e!r}")
        return n, len(bad)


WORKLOADS = {w.name: w for w in (GainSpectrum, SaturationSweep,
                                 IsolationSpectrum, DesignScan)}
