import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twpasim import __version__, cli, constants
from twpasim.cli import _SCHEMA, TASKS, main, run, validate
from twpasim.errors import ConfigError

GAIN_CFG = """
task = gain
flux = 0.19
pump_freq_hz = 9.5e9
pump_power_dbm = -77
signal_freq_min_hz = 6.0e9
signal_freq_max_hz = 7.5e9
signal_points = 7
"""

# an absurd Kerr coupling: every integration ends in a step underflow
# within about a hundred right-hand-side calls
STIFF_CFG = """flux = 0.35
pump_freq_hz = 9.2e9
pump_power_dbm = -78
beta_override = 0
gamma_override = 1e12
"""
STEP_UNDERFLOW = ("step size underflow or non-finite state "
                  "(stiff or blowing-up run)")


class TestValidate:
    def test_empty_config_reports_missing_task(self):
        with pytest.raises(ConfigError) as exc:
            validate("")
        assert any("missing task" in msg for _, msg in exc.value.diagnostics)

    def test_minimal_cell_params_config(self):
        cfg = validate("task = cell-params\nflux = 0\n")
        assert cfg["task"] == "cell-params"
        assert cfg["ground_capacitance_f"] == 250e-15
        assert cfg["junction_capacitance_f"] == 35e-15
        assert cfg["tan_delta"] == 2.9e-3
        assert cfg["cells"] == 700
        assert cfg["asymmetry_ratio"] == 0.07
        assert cfg["critical_current_a"] == 2.2e-6

    def test_gain_config_echoes_resolved_values(self):
        cfg = validate(GAIN_CFG)
        assert cfg["flux"] == 0.19
        assert cfg["pump_freq_hz"] == 9.5e9
        assert cfg["pump_power_dbm"] == -77
        assert cfg["signal_power_dbm"] == -130.0  # default applied

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError) as exc:
            validate("task = gain\nnonsense_key = 3\n")
        assert (2, "unknown key 'nonsense_key'") in exc.value.diagnostics

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            validate("task = gain\nflux = 0.1\nflux = 0.2\n")
        assert any("duplicate key 'flux'" in msg
                   for _, msg in exc.value.diagnostics)

    def test_task_specific_requirements(self):
        with pytest.raises(ConfigError) as exc:
            validate("task = gain\n")
        msgs = [msg for _, msg in exc.value.diagnostics]
        assert any("pump_freq_hz" in m for m in msgs)

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            validate("task = gain\nflux = banana\n")
        assert any(ln == 2 for ln, _ in exc.value.diagnostics)

    def test_missing_noise_file_rejected(self):
        with pytest.raises(ConfigError):
            validate("task = noise-fit\nnoise_data_path = /nope.csv\n"
                     "bandwidth_hz = 1e6\n")

    @pytest.mark.parametrize("task", ["gain", "isolation"])
    def test_non_increasing_signal_grid_rejected(self, task):
        text = (f"task = {task}\npump_freq_hz = 9.2e9\n"
                f"pump_power_dbm = -78\niso_pump_freq_hz = 12.2e9\n"
                f"iso_pump_power_dbm = -74\nsignal_freq_min_hz = 8e9\n"
                f"signal_freq_max_hz = 7e9\nsignal_points = 8\n")
        with pytest.raises(ConfigError) as exc:
            validate(text)
        assert exc.value.diagnostics == [
            (7, "signal_freq_min_hz must be below signal_freq_max_hz "
                "when signal_points > 1")]
        # a single point needs no ordering
        validate(text.replace("signal_points = 8", "signal_points = 1"))

    def test_decreasing_power_grid_rejected(self):
        text = ("task = saturation\npump_freq_hz = 9.2e9\n"
                "pump_power_dbm = -78\nsignal_freq_hz = 7.6e9\n"
                "signal_power_max_dbm = -100\nsignal_power_min_dbm = -90\n"
                "signal_power_points = 3\n")
        with pytest.raises(ConfigError) as exc:
            validate(text)
        assert exc.value.diagnostics == [
            (6, "signal_power_min_dbm must be below signal_power_max_dbm "
                "when signal_power_points > 1")]
        validate(text.replace("signal_power_points = 3",
                              "signal_power_points = 1"))

    @pytest.mark.parametrize("task, line, message", [
        ("gain", "signal_freq_max_hz = nan",
         "'signal_freq_max_hz' must be finite, got nan"),
        ("gain", "signal_freq_hz = inf",
         "'signal_freq_hz' must be finite, got inf"),
        ("gain", "flux = -inf", "'flux' must be finite, got -inf"),
        ("gain", "signal_freq_min_hz = -8e9",
         "'signal_freq_min_hz' must be positive, got -8000000000.0"),
        ("dispersion", "signal_freq_min_hz = 0",
         "'signal_freq_min_hz' must be positive, got 0.0"),
        ("gain", "bandwidth_hz = -1e6",
         "'bandwidth_hz' must be positive, got -1000000.0"),
        ("gain", "solver_rtol = 1e-3",
         "'solver_rtol' must lie in [1e-12, 1e-06]"),
        ("isolation", "solver_rtol = 1e-13",
         "'solver_rtol' must lie in [1e-12, 1e-06]"),
        ("gain", "amp_scale = -1", "'amp_scale' must be positive, got -1.0"),
        ("isolation", "amp_scale = 0",
         "'amp_scale' must be positive, got 0.0"),
    ], ids=["nan", "inf", "minus-inf", "negative-hz", "zero-hz",
            "negative-bandwidth", "loose-rtol", "tight-rtol",
            "negative-amp-scale", "zero-amp-scale"])
    def test_bad_number_rejected_on_its_line(self, task, line, message):
        text = (f"task = {task}\npump_freq_hz = 9.2e9\n"
                f"pump_power_dbm = -78\niso_pump_freq_hz = 12.2e9\n"
                f"iso_pump_power_dbm = -74\n{line}\n")
        with pytest.raises(ConfigError) as exc:
            validate(text)
        assert exc.value.diagnostics == [(text.count("\n"), message)]

    @pytest.mark.parametrize("precision", ["0", "18", "30", "3000000000"])
    def test_precision_outside_1_to_17_rejected(self, precision):
        """17 significant digits round-trip any double: more digits are
        noise of the binary expansion, and a huge precision would only
        fail after the whole task had run."""
        with pytest.raises(ConfigError) as exc:
            validate(f"task = cell-params\nprecision = {precision}\n")
        assert exc.value.diagnostics == [
            (2, "'precision' must lie in [1, 17]")]
        for ok in ("1", "17"):
            validate(f"task = cell-params\nprecision = {ok}\n")

    @pytest.mark.parametrize("line, message", [
        ("asymmetry_ratio = 1.5", "r must be in (0, 1)"),
        ("tan_delta = -1", "tan_delta must be >= 0"),
        ("critical_current_a = -1", "I0 must be positive"),
        ("junction_capacitance_f = 0", "capacitances must be positive"),
    ])
    @pytest.mark.parametrize("task", sorted(set(TASKS) - {"noise-fit"}))
    def test_device_outside_snailspec_domain_rejected(self, task, line,
                                                      message):
        """Every task that builds a device reports SnailSpec's own
        message as a config error, not as a run-time exit 3."""
        text = (f"task = {task}\npump_freq_hz = 9.2e9\n"
                f"pump_power_dbm = -78\niso_pump_freq_hz = 12.2e9\n"
                f"iso_pump_power_dbm = -74\nsignal_freq_hz = 7e9\n{line}\n")
        with pytest.raises(ConfigError) as exc:
            validate(text)
        assert exc.value.diagnostics == [(0, f"invalid device: {message}")]

    @pytest.mark.parametrize("line, message", [
        ("critical_current_a = nan", "'critical_current_a' must be finite, "
                                     "got nan"),
        ("cells = 0", "'cells' must be >= 1"),
        ("asymmetry_ratio = half", "cannot parse 'asymmetry_ratio' value "
                                   "'half' as float"),
    ])
    def test_device_key_error_reported_once(self, line, message):
        """A device key that fails its own check is not built into a
        SnailSpec as well."""
        with pytest.raises(ConfigError) as exc:
            validate(f"task = cell-params\n{line}\n")
        assert exc.value.diagnostics == [(2, message)]

    @pytest.mark.parametrize("text, diagnostics", [
        ("task = cell-params\nformat = xml\n",
         [(2, "format must be csv or json, got 'xml'")]),
        *[(f"task = cell-params\n{key} = 0\n", [(2, f"'{key}' must be >= 1")])
          for key in ("signal_points", "flux_points", "signal_power_points")],
        ("task = bogus\n",
         [(1, "unknown task 'bogus'; expected one of cell-params, "
              "dispersion, phase-mismatch, gain, isolation, saturation, "
              "noise-fit, flux-sweep")]),
        ("task = gain\n", [(0, "task 'gain' requires key 'pump_freq_hz'"),
                           (0, "task 'gain' requires key 'pump_power_dbm'")]),
        ("task = noise-fit\nnoise_data_path = /nope.csv\nbandwidth_hz = 1e6\n",
         [(2, "noise_data_path does not exist: /nope.csv")]),
        ("task = cell-params\njust words\n",
         [(2, "expected 'key = value', got 'just words'")]),
        ("", [(0, "missing task")]),
    ], ids=["format", "signal-points", "flux-points", "signal-power-points",
            "unknown-task", "gain-pump", "noise-path", "no-equals",
            "no-task"])
    def test_config_gives_exactly_these_diagnostics(self, text, diagnostics):
        with pytest.raises(ConfigError) as exc:
            validate(text)
        assert exc.value.diagnostics == diagnostics

    def test_noise_fit_builds_no_device(self):
        validate(f"task = noise-fit\nnoise_data_path = {NOISE_RECORDS}\n"
                 "bandwidth_hz = 1e6\nasymmetry_ratio = 1.5\n")

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.one_of(
        st.text(),
        st.builds("{} = {}".format, st.sampled_from(sorted(_SCHEMA)),
                  st.one_of(st.text(), st.sampled_from(TASKS),
                            st.floats().map(repr), st.integers().map(str))),
    ), max_size=12).map("\n".join))
    def test_arbitrary_text_raises_only_config_error(self, text):
        """Any other exception would escape ``main`` as a traceback
        instead of exit 2 with line diagnostics."""
        try:
            validate(text)
        except ConfigError:
            pass


class TestRun:
    def read_csv(self, path):
        lines = path.read_text().strip().split("\n")
        cols = lines[0].split(",")
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        return cols, np.array(rows)

    def test_cell_params_row(self, tmp_path):
        cfg = validate("task = cell-params\nflux = 0\n")
        out = run(cfg, out_path=str(tmp_path / "cp.csv"))
        cols, rows = self.read_csv(tmp_path / "cp.csv")
        assert cols[0] == "flux_phi0"
        row = dict(zip(cols, rows[0]))
        assert row["beta_tilde"] == 0.0
        assert row["f0_hz"] == pytest.approx(26.92065e9, rel=1e-4)

    def test_flux_sweep_null_endpoints(self, tmp_path):
        cfg = validate("task = flux-sweep\nflux_min = 0\nflux_max = 0.5\n"
                       "flux_points = 11\n")
        run(cfg, out_path=str(tmp_path / "fs.csv"))
        cols, rows = self.read_csv(tmp_path / "fs.csv")
        beta_col = cols.index("beta_tilde")
        assert abs(rows[0, beta_col]) < 1e-12
        assert abs(rows[-1, beta_col]) < 1e-12
        assert np.max(np.abs(rows[:, beta_col])) > 1e-3

    def test_gain_with_pump_off_equals_loss(self, tmp_path):
        cfg_gain = validate(GAIN_CFG.replace("pump_power_dbm = -77",
                                             "pump_power_dbm = -300"))
        run(cfg_gain, out_path=str(tmp_path / "g.csv"))
        cfg_disp = validate("task = dispersion\nflux = 0.19\n"
                            "signal_freq_min_hz = 6.0e9\n"
                            "signal_freq_max_hz = 7.5e9\n"
                            "signal_points = 7\n")
        run(cfg_disp, out_path=str(tmp_path / "d.csv"))
        gcols, grows = self.read_csv(tmp_path / "g.csv")
        dcols, drows = self.read_csv(tmp_path / "d.csv")
        gain = grows[:, gcols.index("gain_db")]
        loss = drows[:, dcols.index("transmission_db")]
        np.testing.assert_allclose(gain, loss, atol=1e-6)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = validate(GAIN_CFG)
        run(cfg, out_path=str(tmp_path / "a.csv"))
        run(cfg, out_path=str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("task, lines, freqs, n_ok, error", [
        # above 2 * pump the idler frequency is negative
        ("gain", "pump_freq_hz = 9.2e9\npump_power_dbm = -78\n"
                 "signal_freq_min_hz = 17e9\nsignal_freq_max_hz = 20e9\n"
                 "signal_points = 4\nsolver_rtol = 1e-8",
         [17e9, 18e9, 19e9, 20e9], 2, "NegativeIdler: "),
        # 70 GHz is above 0.98 of the 68.4 GHz plasma frequency
        ("dispersion", "signal_freq_min_hz = 60e9\n"
                       "signal_freq_max_hz = 70e9\nsignal_points = 3",
         [60e9, 65e9, 70e9], 2, "AbovePlasmaCutoff: "),
        ("phase-mismatch", "pump_freq_hz = 9.2e9\npump_power_dbm = -78\n"
                           "signal_freq_min_hz = 16e9\n"
                           "signal_freq_max_hz = 20e9\nsignal_points = 3",
         [16e9, 18e9, 20e9], 2, "NegativeIdler: "),
        # signal, idler and 2 * pump are inside the band; the signal plus
        # pump mode, 68 and 69 GHz, is not
        ("phase-mismatch", "pump_freq_hz = 30e9\npump_power_dbm = -78\n"
                           "signal_freq_min_hz = 35e9\n"
                           "signal_freq_max_hz = 39e9\nsignal_points = 5",
         [35e9, 36e9, 37e9, 38e9, 39e9], 3,
         r"AbovePlasmaCutoff: omega/2pi = 6[89]\.000 GHz "),
        # pump and signal both above the guard: both tasks check a point
        # in phasematch's order and name the pump first
        *[(task, "pump_freq_hz = 67.5e9\npump_power_dbm = -78\n"
                 "signal_freq_min_hz = 67.6e9\n"
                 "signal_freq_max_hz = 68.0e9\nsignal_points = 3",
           [67.6e9, 67.8e9, 68.0e9], 0,
           r"AbovePlasmaCutoff: omega/2pi = 67\.500 GHz ")
          for task in ("gain", "phase-mismatch")],
        # the pump above the guard and a negative idler: still the pump
        *[(task, "pump_freq_hz = 67.5e9\npump_power_dbm = -78\n"
                 "signal_freq_min_hz = 139e9\n"
                 "signal_freq_max_hz = 140e9\nsignal_points = 2",
           [139e9, 140e9], 0,
           r"AbovePlasmaCutoff: omega/2pi = 67\.500 GHz ")
          for task in ("gain", "phase-mismatch")],
    ], ids=["gain", "dispersion", "phase-mismatch", "phase-mismatch-aux",
            "gain-pump-guard", "phase-mismatch-pump-guard",
            "gain-pump-guard-negative-idler",
            "phase-mismatch-pump-guard-negative-idler"])
    def test_gap_rows_stay_nan_in_grid_order(self, tmp_path, task, lines,
                                             freqs, n_ok, error):
        """Grid points outside the model's validity window become NaN
        rows in place, and the run still succeeds."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"task = {task}\nflux = 0.35\n{lines}\n"
                            f"out_path = {tmp_path / 'g.csv'}\n")
        assert main([task, "--config", str(cfg_path)]) == 0
        cols, rows = self.read_csv(tmp_path / "g.csv")
        np.testing.assert_array_equal(rows[:, 0], freqs)
        assert np.all(np.isfinite(rows[:n_ok, 1:]))
        assert np.all(np.isnan(rows[n_ok:, 1:]))

        # the JSON metadata says why each NaN row is NaN
        json_path = tmp_path / "g.json"
        assert main([task, "--config", str(cfg_path), "--format", "json",
                     "--out", str(json_path)]) == 0
        gaps = json.loads(json_path.read_text())["metadata"]["gaps"]
        assert [g["freq_hz"] for g in gaps] == pytest.approx(freqs[n_ok:])
        assert all(re.match(error, g["error"]) for g in gaps)

    def test_stiff_gain_points_are_gaps(self, tmp_path):
        """The stepper's failure reaches the gain grid as a gap with its
        message; the analytic dk_total column is still filled."""
        out = tmp_path / "g.json"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"task = gain\n{STIFF_CFG}"
                            "signal_freq_min_hz = 7e9\n"
                            "signal_freq_max_hz = 8e9\nsignal_points = 2\n"
                            f"out_path = {out}\n")
        assert main(["gain", "--config", str(cfg_path), "--format",
                     "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["gaps"] == [
            {"freq_hz": f, "error": f"StepFailure: {STEP_UNDERFLOW}"}
            for f in (7e9, 8e9)]
        rows = np.array(doc["rows"], dtype=float)
        assert np.all(np.isnan(rows[:, 1]))
        assert np.all(np.isfinite(rows[:, 2]))

    def test_csv_round_trip_precision(self, tmp_path):
        text = GAIN_CFG + "precision = 9\n"
        cfg = validate(text)
        run(cfg, out_path=str(tmp_path / "g.csv"))
        cols, rows = self.read_csv(tmp_path / "g.csv")
        # re-emitting the parsed values at the same precision is identity
        for row in rows:
            for v in row:
                assert float(f"{v:.9g}") == v

    def test_json_mirrors_csv_with_metadata(self, tmp_path):
        cfg = validate(GAIN_CFG)
        run(cfg, out_path=str(tmp_path / "g.csv"), out_format="csv")
        run(cfg, out_path=str(tmp_path / "g.json"), out_format="json")
        cols, rows = self.read_csv(tmp_path / "g.csv")
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["columns"] == cols
        assert doc["task"] == "gain"
        assert "config_hash" in doc and len(doc["config_hash"]) == 64
        assert doc["constants"]["phi0"] == 2.067833848e-15
        got = np.array(doc["rows"], dtype=float)
        np.testing.assert_allclose(got, rows, rtol=1e-10)
        assert doc["metadata"]["gaps"] == []
        assert set(doc["metadata"]) == {"gaps", "solver"}

    @pytest.mark.parametrize("fn, text", [
        ("gain_spectrum", GAIN_CFG),
        ("saturation_curve",
         "task = saturation\nflux = 0.35\npump_freq_hz = 9.2e9\n"
         "pump_power_dbm = -78\nsignal_freq_hz = 7.6e9\n"
         "signal_power_points = 4\n"),
        ("isolation_spectrum",
         "task = isolation\nflux = 0.35\niso_pump_freq_hz = 12.2e9\n"
         "iso_pump_power_dbm = -74\nsignal_points = 5\n"),
    ], ids=["gain", "saturation", "isolation"])
    def test_json_counts_the_solver_runs(self, tmp_path, monkeypatch, fn,
                                         text):
        """``metadata.solver`` sums the library's ``solver_stats``: runs,
        rows, accepted and rejected steps and right-hand-side calls, and
        nothing that could differ on a rerun."""
        results, original = [], getattr(cli, fn)

        def recording(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, fn, recording)
        cfg = validate(text)
        docs = []
        for n in range(2):
            run(cfg, out_path=str(tmp_path / f"{n}.json"), out_format="json")
            docs.append((tmp_path / f"{n}.json").read_bytes())
        assert docs[0] == docs[1]
        doc = json.loads(docs[0])
        runs = results[0].solver_stats
        keys = ("rows", "accepted", "rejected", "rhs_calls")
        solver = doc["metadata"]["solver"]
        assert solver == {"runs": len(runs),
                          **{k: sum(r[k] for r in runs) for k in keys}}
        # one batch of every row; one evaluation plus twelve per step
        assert solver["runs"] == 1 and solver["rows"] == len(doc["rows"])
        assert solver["accepted"] > 1
        assert solver["rhs_calls"] == 1 + 12 * (solver["accepted"]
                                                + solver["rejected"])

    def test_tunability_bands_shift_with_pump(self, tmp_path):
        """Three pump frequencies move the gain band monotonically."""
        centers = []
        for i, pump_ghz in enumerate([9.0, 9.2, 9.4]):
            text = (f"task = gain\nflux = 0.35\n"
                    f"pump_freq_hz = {pump_ghz}e9\n"
                    f"pump_power_dbm = -78\n"
                    f"beta_override = 0.104388\n"
                    f"gamma_override = 0.122339\namp_scale = 1.55\n"
                    f"signal_freq_min_hz = 5.0e9\n"
                    f"signal_freq_max_hz = 8.9e9\nsignal_points = 40\n")
            cfg = validate(text)
            run(cfg, out_path=str(tmp_path / f"tun{i}.csv"))
            cols, rows = self.read_csv(tmp_path / f"tun{i}.csv")
            f = rows[:, cols.index("freq_hz")]
            g = rows[:, cols.index("gain_db")]
            top = g >= g.max() - 3.0
            centers.append(np.sum(f[top] * g[top]) / np.sum(g[top]))
        assert centers[0] < centers[1] < centers[2]

    def test_noise_fit_task(self, tmp_path):
        from twpasim.constants import HBAR
        from twpasim.noisecal import source_noise
        lines = ["freq_hz,temp_k,power_w"]
        for f in (5e9, 6e9):
            w = 2 * math.pi * f
            for t in (0.04, 0.3, 0.6, 1.0):
                p = (source_noise(w, t) + 10 * HBAR * w) * 1e6 * 1e6
                lines.append(f"{f},{t},{p:.12e}")
        data_path = tmp_path / "records.csv"
        data_path.write_text("\n".join(lines) + "\n")
        cfg = validate(f"task = noise-fit\nnoise_data_path = {data_path}\n"
                       f"bandwidth_hz = 1e6\n")
        run(cfg, out_path=str(tmp_path / "nf.csv"))
        cols, rows = self.read_csv(tmp_path / "nf.csv")
        assert rows.shape[0] == 2
        np.testing.assert_allclose(rows[:, cols.index("g_out")], 1e6,
                                   rtol=1e-9)
        np.testing.assert_allclose(rows[:, cols.index("n_out_photons")],
                                   10.0, rtol=1e-9)


def _per_value_artifact(cfg, cols, rows, meta, fmt) -> str:
    """The artifact text rendered value by value: the reference for
    ``run``'s one-pass rendering of whole tables."""
    prec = cfg["precision"]

    def fmt_value(value):
        if isinstance(value, float):
            return f"{value:.{prec}g}"
        return str(value)

    def round_value(value):
        if isinstance(value, float) and math.isfinite(value):
            return float(f"{value:.{prec}g}")
        return value

    if fmt == "csv":
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(fmt_value(v) for v in row))
        return "\n".join(lines) + "\n"
    doc = {
        "task": cfg["task"],
        "version": __version__,
        "config_hash": hashlib.sha256("\n".join(
            f"{k}={cfg[k]!r}" for k in sorted(cfg)).encode()).hexdigest(),
        "config": {k: cfg[k] for k in sorted(cfg)},
        "constants": {
            "h": constants.H, "hbar": constants.HBAR,
            "e": constants.E_CHARGE, "k_b": constants.K_B,
            "phi0": constants.PHI0, "r_q": constants.R_Q,
        },
        "columns": cols,
        "rows": [[round_value(v) for v in row] for row in rows],
        "metadata": meta,
    }
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=True) + "\n"


NOISE_RECORDS = Path(__file__).resolve().parents[1] / "configs" / \
    "noise_records_example.csv"

# random tables for the writer: every kind of float, as Python floats and
# as NumPy float64 values
_SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
            -2.2250738585072014e-308, 1.7976931348623157e308, 1e300, -1e-300,
            0.1, 1 / 3, 123456789012345678.0]
_FLOAT = st.one_of(st.floats(), st.sampled_from(_SPECIAL),
                   st.floats(min_value=-1e-290, max_value=1e-290))
_VALUE = st.one_of(_FLOAT, _FLOAT.map(np.float64))


# one config of each task; the gap grids give NaN rows
_TASK_CASES = [
    ("cell-params", "flux = 0.19"),
    ("flux-sweep", "flux_points = 5\nprecision = 17"),
    ("dispersion", "flux = 0.35\nsignal_freq_min_hz = 60e9\n"
                   "signal_freq_max_hz = 70e9\nsignal_points = 3"),
    # gap grids: at 38 and 39 GHz the signal plus pump mode is above
    # the plasma cutoff, and above 18.4 GHz the idler is negative
    ("phase-mismatch", "flux = 0.35\npump_freq_hz = 30e9\n"
                       "pump_power_dbm = -78\n"
                       "signal_freq_min_hz = 35e9\n"
                       "signal_freq_max_hz = 39e9\nsignal_points = 5"),
    ("gain", "flux = 0.35\npump_freq_hz = 9.2e9\npump_power_dbm = -78\n"
             "signal_freq_min_hz = 17e9\nsignal_freq_max_hz = 20e9\n"
             "signal_points = 3\nsolver_rtol = 1e-8\nprecision = 5"),
    ("isolation", "flux = 0.35\niso_pump_freq_hz = 12.2e9\n"
                  "iso_pump_power_dbm = -74\nsignal_points = 2\n"
                  "solver_rtol = 1e-8"),
    ("saturation", "flux = 0.35\npump_freq_hz = 9.2e9\n"
                   "pump_power_dbm = -78\nsignal_freq_hz = 7.6e9\n"
                   "signal_power_points = 2\nsolver_rtol = 1e-8"),
    ("noise-fit", f"noise_data_path = {NOISE_RECORDS}\n"
                  f"bandwidth_hz = 1e6\nprecision = 1"),
]
_TASK_IDS = ["cell-params", "flux-sweep", "dispersion", "phase-mismatch-gaps",
             "gain-gaps", "isolation", "saturation", "noise-fit"]


@st.composite
def _tables(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_VALUE, min_size=ncols, max_size=ncols),
                         max_size=8))
    return [f"c{j}" for j in range(ncols)], rows


class TestWriter:
    """``run`` writes, byte for byte, what rendering each value on its own
    gives (``_per_value_artifact``)."""

    def assert_written_as_per_value(self, cfg, path, fmt):
        cols, rows, meta = cli._TASKS[cfg["task"]][0](cfg)
        run(cfg, out_path=str(path), out_format=fmt)
        assert path.read_text(encoding="utf-8") == \
            _per_value_artifact(cfg, cols, rows, meta, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("task, lines", _TASK_CASES, ids=_TASK_IDS)
    def test_every_task_matches_per_value_rendering(self, tmp_path, task,
                                                    lines, fmt):
        cfg = validate(f"task = {task}\n{lines}\n")
        self.assert_written_as_per_value(cfg, tmp_path / f"a.{fmt}", fmt)
        if task == "phase-mismatch" and fmt == "json":
            doc = json.loads((tmp_path / "a.json").read_text())
            assert len(doc["metadata"]["gaps"]) == 2

    @pytest.mark.parametrize("task, lines", _TASK_CASES, ids=_TASK_IDS)
    def test_every_task_returns_a_float_table(self, task, lines):
        """A task's table is one float64 array, a row per grid point and
        a column per name."""
        cfg = validate(f"task = {task}\n{lines}\n")
        cols, table, _ = cli._TASKS[task][0](cfg)
        rows = {"cell-params": 1, "flux-sweep": 5, "dispersion": 3,
                "phase-mismatch": 5, "gain": 3, "isolation": 2,
                "saturation": 2, "noise-fit": 3}[task]
        assert type(table) is np.ndarray and table.dtype == np.float64
        assert table.shape == (rows, len(cols))

    def test_no_values_give_no_tokens(self):
        assert cli._json_tokens((), 12) == []

    def test_config_string_equal_to_the_rows_slot(self, tmp_path,
                                                  monkeypatch):
        """A config string whose encoding is the rows placeholder's, which
        is encoded before the rows, is left as it is."""
        monkeypatch.chdir(tmp_path)
        cfg = validate(f"task = cell-params\nout_path = {cli._ROWS_SLOT}\n"
                       f"format = json\n")
        cols, rows, meta = cli._TASKS["cell-params"][0](cfg)
        path = Path(run(cfg))
        text = path.read_text(encoding="utf-8")
        assert text == _per_value_artifact(cfg, cols, rows, meta, "json")
        assert json.loads(text)["config"]["out_path"] == cli._ROWS_SLOT

    @settings(max_examples=300, deadline=None, database=None)
    @given(table=_tables(), precision=st.integers(1, 17))
    def test_random_tables_match_per_value_rendering(self, tmp_path_factory,
                                                     table, precision):
        cols, rows = table
        cfg = validate(f"task = cell-params\nprecision = {precision}\n")
        out = tmp_path_factory.getbasetemp() / "writer"
        out.mkdir(exist_ok=True)
        with mock.patch.dict(cli._TASKS, {"cell-params": (
                lambda cfg: (cols, rows, {}), (), None, True)}):
            for fmt in ("csv", "json"):
                self.assert_written_as_per_value(cfg, out / f"t.{fmt}", fmt)

    @pytest.mark.parametrize("precision", [1, 2, 12, 15, 16, 17])
    def test_token_rule_edges_match_per_value_rendering(self, tmp_path,
                                                        precision):
        """The values where a JSON token changes from ``format(v, ".p")``
        to the ``%g`` and ``float.__repr__`` rendering, and the values
        either side of them, as Python floats and NumPy float64, each also
        negated."""
        half = 0.5 * 10.0 ** (precision - 1)
        normal = sys.float_info.min
        nines = "9." + "9" * precision  # one more nine than is kept
        edges = [half, math.nextafter(half, 0), math.nextafter(half, math.inf),
                 10.0 ** (precision - 1), 10.0 ** precision, 1e15, 1e16,
                 # round up across a power of ten: to 10**(p-1), 1 and 1e-4
                 float(f"{nines}e{precision - 2}"), float(f"{nines}e-1"),
                 float(f"{nines}e-5"),
                 normal, math.nextafter(normal, 0), 5e-324,
                 # their 16- and 17-digit roundings are not their repr
                 9.00000000000001, 0.1,
                 0.0, math.nan, math.inf]
        rows = [[v, -v, np.float64(v), np.float64(-v)] for v in edges]
        cfg = validate(f"task = cell-params\nprecision = {precision}\n")
        with mock.patch.dict(cli._TASKS, {"cell-params": (lambda cfg: (
                ["a", "b", "c", "d"], rows, {}), (), None, True)}):
            self.assert_written_as_per_value(cfg, tmp_path / "t.json",
                                             "json")


class TestLogging:
    def test_info_times_each_layer_and_leaves_the_artifact(
            self, tmp_path, monkeypatch, caplog):
        """TWPASIM_LOG=info logs the parse, device set-up, task, format and
        write times; the artifact is the same bytes as at the default
        level."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(GAIN_CFG)
        artifacts, messages = {}, {}
        # warning last: main leaves the package logger at that level
        for level in ("info", "warning"):
            monkeypatch.setenv("TWPASIM_LOG", level)
            caplog.clear()
            out = tmp_path / f"{level}.json"
            assert main(["gain", "--config", str(cfg_path), "--out",
                         str(out), "--format", "json"]) == 0
            artifacts[level] = out.read_bytes()
            messages[level] = [r.getMessage() for r in caplog.records
                               if r.name == "twpasim"
                               and r.levelno == logging.INFO]
        assert artifacts["info"] == artifacts["warning"]
        assert messages["warning"] == []
        for pattern in (r"parsed config in \d+\.\d{3} s",
                        r"set up the device in \d+\.\d{3} s",
                        r"ran task gain in \d+\.\d{3} s",
                        r"formatted 7 rows as json in \d+\.\d{3} s",
                        r"wrote .*info\.json in \d+\.\d{3} s"):
            assert any(re.fullmatch(pattern, m)
                       for m in messages["info"]), pattern

    @pytest.mark.parametrize("value", ["basic_format", "_styles", "loud"])
    def test_a_value_that_names_no_level_logs_at_warning(self, tmp_path,
                                                        monkeypatch, value):
        """``logging.BASIC_FORMAT`` is a format string and ``_STYLES`` a
        dict, not levels: the run goes on at warning."""
        out = tmp_path / "o.csv"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"task = cell-params\nout_path = {out}\n")
        monkeypatch.setenv("TWPASIM_LOG", value)
        assert main(["cell-params", "--config", str(cfg_path)]) == 0
        assert logging.getLogger("twpasim").level == logging.WARNING
        assert out.read_text().count("\n") == 2

    def test_batch_set_up_time_says_what_it_times(self, tmp_path,
                                                  monkeypatch, caplog):
        """The per-batch line times the batch's set-up, which for a
        saturation sweep is its initial state alone: its one coupling
        table is built before the sweep."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("task = saturation\nflux = 0.35\n"
                            "pump_freq_hz = 9.2e9\npump_power_dbm = -78\n"
                            "signal_freq_hz = 7.6e9\n"
                            "signal_power_points = 3\nsolver_rtol = 1e-8\n")
        monkeypatch.setenv("TWPASIM_LOG", "info")
        try:
            assert main(["saturation", "--config", str(cfg_path), "--out",
                         str(tmp_path / "s.csv")]) == 0
        finally:
            logging.getLogger("twpasim").setLevel(logging.WARNING)
        messages = [r.getMessage() for r in caplog.records
                    if r.name.startswith("twpasim")]
        assert any(re.fullmatch(r"saturation: set up a batch of 3 rows in "
                                r"\d+\.\d{3} s", m) for m in messages)
        assert not any("coupling table" in m for m in messages)


class TestColdStart:
    def test_cli_run_loads_no_scipy(self, tmp_path):
        """A fresh interpreter that imports the package and runs a gain
        task never loads scipy: the package needs numpy only.  A CSV
        artifact hashes nothing, so hashlib and OpenSSL stay unloaded."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("task = gain\nflux = 0.35\npump_freq_hz = 9.2e9\n"
                            "pump_power_dbm = -78\nsignal_points = 2\n"
                            f"out_path = {tmp_path / 'o.csv'}\n")
        script = (
            "import sys\n"
            "import twpasim, twpasim.cli\n"
            "assert twpasim.cli.main(['gain', '--config', sys.argv[1]]) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')\n"
            "             or m in ('hashlib', '_hashlib')))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script, str(cfg_path)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "o.csv").read_text().count("\n") == 3

    def test_runs_where_scipy_cannot_be_imported(self, tmp_path,
                                                 device_spec):
        """With every scipy import refused, find_matched_pump and the gain
        task give what they give in this interpreter."""
        from twpasim import (MediumParams, cell_coefficients,
                             equilibrium_phase, find_matched_pump)

        flux, f_s = 0.35, 6.0e9  # one of test_phasematch's pinned pairs
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("task = gain\nflux = 0.35\npump_freq_hz = 9.2e9\n"
                            "pump_power_dbm = -78\nsignal_points = 2\n")
        script = (
            "import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy' or name.startswith('scipy.'):\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "import math, twpasim, twpasim.cli\n"
            "flux, f_s = float(sys.argv[2]), float(sys.argv[3])\n"
            "spec = twpasim.SnailSpec(I0=2.2e-6, r=0.07, Cg=250e-15,\n"
            "                         CJ=35e-15, N=700, tan_delta=2.9e-3)\n"
            "c = twpasim.cell_coefficients(\n"
            "    spec, twpasim.equilibrium_phase(spec, flux))\n"
            "m = twpasim.MediumParams.from_cell(spec, c)\n"
            "w, dk = twpasim.find_matched_pump(\n"
            "    m, c.beta, c.gamma, 2 * math.pi * f_s, -78.0,\n"
            "    (2 * math.pi * (f_s + 0.5e9), 2 * math.pi * 16e9))\n"
            "assert twpasim.cli.main(['gain', '--config', sys.argv[1],\n"
            "                         '--out', sys.argv[4]]) == 0\n"
            "print(w.hex(), dk.hex())\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(cfg_path), str(flux),
             str(f_s), str(tmp_path / "fresh.csv")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

        c = cell_coefficients(device_spec,
                              equilibrium_phase(device_spec, flux))
        m = MediumParams.from_cell(device_spec, c)
        w, dk = find_matched_pump(m, c.beta, c.gamma, 2 * math.pi * f_s,
                                  -78.0, (2 * math.pi * (f_s + 0.5e9),
                                          2 * math.pi * 16e9))
        assert proc.stdout.split() == [w.hex(), dk.hex()]
        assert main(["gain", "--config", str(cfg_path), "--out",
                     str(tmp_path / "here.csv")]) == 0
        assert (tmp_path / "fresh.csv").read_bytes() == \
            (tmp_path / "here.csv").read_bytes()


class TestMainExitCodes:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("task = cell-params\nflux = 0.19\n"
                            f"out_path = {tmp_path / 'o.csv'}\n")
        assert main(["cell-params", "--config", str(cfg_path)]) == 0

    def test_flux_sweep_ignores_the_flux_key(self, tmp_path, capsys):
        """A flux sweep solves only its own grid: a `flux` past the fold
        of an r > 1/3 branch (0.513 Phi0 at r = 0.4) does not fail a grid
        that stays before it."""
        out = tmp_path / "o.csv"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("task = flux-sweep\nasymmetry_ratio = 0.4\n"
                            "flux = 0.6\nflux_min = 0\nflux_max = 0.5\n"
                            f"out_path = {out}\n")
        assert main(["flux-sweep", "--config", str(cfg_path)]) == 0, \
            capsys.readouterr().err
        assert len(out.read_text().strip().split("\n")) == 1 + 51

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("task = gain\nbad_key = 1\n")
        assert main(["gain", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip()
        doc = json.loads(err)  # a single structured diagnostic
        assert doc["error"] == "config"

    def test_negative_amp_scale_exit_two(self, tmp_path, capsys):
        """A negative amp_scale is the config's error, on its line, not
        the pump power's when the gain run converts it."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("task = gain\npump_freq_hz = 9.2e9\n"
                            "pump_power_dbm = -78\namp_scale = -1\n"
                            f"out_path = {tmp_path / 'o.csv'}\n")
        assert main(["gain", "--config", str(cfg_path)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "config", "detail": [
            [4, "'amp_scale' must be positive, got -1.0"]]}

    def test_task_mismatch_exit_two(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("task = cell-params\n")
        assert main(["dispersion", "--config", str(cfg_path)]) == 2

    def test_numeric_error_exit_three(self, tmp_path, capsys):
        # single-temperature noise records: rank-deficient fit
        data = tmp_path / "records.csv"
        data.write_text("freq_hz,temp_k,power_w\n6e9,0.3,1e-11\n"
                        "6e9,0.3,1.1e-11\n")
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"task = noise-fit\nnoise_data_path = {data}\n"
                            f"bandwidth_hz = 1e6\n"
                            f"out_path = {tmp_path / 'o.csv'}\n")
        assert main(["noise-fit", "--config", str(cfg_path)]) == 3
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "SingularFit"

    def test_nan_noise_record_exit_three(self, tmp_path, capsys):
        """Records with NaN temperatures are a typed exit 3 naming the
        first, not a NaN row in the artifact."""
        data = tmp_path / "records.csv"
        data.write_text("freq_hz,temp_k,power_w\n4e9,0.04,1e-11\n"
                        "4e9,nan,2e-11\n4e9,nan,3e-11\n6e9,0.04,1e-11\n"
                        "6e9,1.0,5e-11\n")
        out = tmp_path / "o.csv"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"task = noise-fit\nnoise_data_path = {data}\n"
                            f"bandwidth_hz = 1e6\nout_path = {out}\n")
        assert main(["noise-fit", "--config", str(cfg_path)]) == 3
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "ValueError",
                       "detail": "temperature of record 2 is nan, not finite"}
        assert not out.exists()

    def test_stiff_saturation_exit_three(self, tmp_path, capsys):
        """Saturation has no gaps: the stepper's failure is a typed exit 3
        with its message, and no artifact is written."""
        out = tmp_path / "o.csv"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"task = saturation\n{STIFF_CFG}"
                            "signal_freq_hz = 7.6e9\n"
                            f"signal_power_points = 2\nout_path = {out}\n")
        assert main(["saturation", "--config", str(cfg_path)]) == 3
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "StepFailure", "detail": STEP_UNDERFLOW}
        assert not out.exists()

    @pytest.mark.parametrize("task, lines", [
        ("gain", "signal_power_dbm = -4000\nsignal_points = 2"),
        ("saturation", "signal_freq_hz = 7.6e9\n"
                       "signal_power_min_dbm = -4000"),
        ("gain", "signal_power_dbm = 4000\nsignal_points = 2"),
        ("saturation", "signal_freq_hz = 7.6e9\n"
                       "signal_power_min_dbm = 4000\n"
                       "signal_power_max_dbm = 5000"),
    ])
    def test_underflowing_signal_power_exit_three(self, tmp_path, capsys,
                                                  task, lines):
        """A power whose amplitude underflows to 0 or overflows to inf is
        a typed exit 3 naming it, not a traceback."""
        out = tmp_path / "o.csv"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"task = {task}\nflux = 0.35\n"
                            f"pump_freq_hz = 9.2e9\npump_power_dbm = -78\n"
                            f"{lines}\nout_path = {out}\n")
        assert main([task, "--config", str(cfg_path)]) == 3
        doc = json.loads(capsys.readouterr().err.strip())
        amplitude = "0" if "-4000" in lines else "inf"
        power = "-4000" if "-4000" in lines else "4000"
        assert doc == {"error": "ValueError", "detail": f"power {power} dBm "
                       f"gives the amplitude {amplitude}, which is not "
                       f"finite and positive"}
        assert not out.exists()

    def test_huge_precision_exit_two_before_running(self, tmp_path,
                                                     capsys):
        out = tmp_path / "o.csv"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(GAIN_CFG + f"precision = 3000000000\n"
                                       f"out_path = {out}\n")
        assert main(["gain", "--config", str(cfg_path)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "config", "detail": [
            [GAIN_CFG.count("\n") + 1, "'precision' must lie in [1, 17]"]]}
        assert not out.exists()

    @pytest.mark.parametrize("line", ["asymmetry_ratio = 1.5",
                                      "tan_delta = -1",
                                      "critical_current_a = -1"])
    def test_device_outside_snailspec_domain_exit_two(self, tmp_path,
                                                      capsys, line):
        out = tmp_path / "o.csv"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"task = cell-params\n{line}\nout_path = {out}\n")
        assert main(["cell-params", "--config", str(cfg_path)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "config"
        assert doc["detail"][0][1].startswith("invalid device: ")
        assert not out.exists()

    def test_calls_in_a_row_share_one_parser(self, tmp_path, capsys):
        """The argument parser is built once, at import: a rejected
        argument list, then two tasks in different formats, each parse
        on their own."""
        with pytest.raises(SystemExit) as exc:
            main(["no-such-task", "--config", "c.cfg"])
        assert exc.value.code == 2
        runs = [("cell-params", "json", "flux = 0.19\n"),
                ("dispersion", "csv", "signal_points = 3\n")]
        for task, fmt, lines in runs:
            cfg_path = tmp_path / f"{task}.cfg"
            cfg_path.write_text(f"task = {task}\n{lines}")
            out = tmp_path / f"{task}.{fmt}"
            assert main([task, "--config", str(cfg_path), "--format", fmt,
                         "--out", str(out)]) == 0, capsys.readouterr().err
        json.loads((tmp_path / "cell-params.json").read_text())
        assert len((tmp_path / "dispersion.csv").read_text()
                   .strip().split("\n")) == 1 + 3

    def test_missing_config_exit_two(self):
        assert main(["gain", "--config", "/does/not/exist.cfg"]) == 2


def test_readme_names_every_key_and_task():
    """README's "Config keys" section names every key of the schema, and
    its ``task`` row lists the tasks in the CLI's order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config keys", 1)[1].split("\n### ", 1)[0]
    assert set(_SCHEMA) <= set(re.findall(r"`([a-z_]+)`", section))
    row = next(line for line in section.splitlines()
               if line.startswith("| `task` |"))
    assert re.findall(r"`([a-z-]+)`", row.split("|")[3]) == list(TASKS)
