import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    ], ids=["nan", "inf", "minus-inf", "negative-hz", "zero-hz",
            "negative-bandwidth", "loose-rtol", "tight-rtol"])
    def test_bad_number_rejected_on_its_line(self, task, line, message):
        text = (f"task = {task}\npump_freq_hz = 9.2e9\n"
                f"pump_power_dbm = -78\niso_pump_freq_hz = 12.2e9\n"
                f"iso_pump_power_dbm = -74\n{line}\n")
        with pytest.raises(ConfigError) as exc:
            validate(text)
        assert exc.value.diagnostics == [(text.count("\n"), message)]

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

    def test_gap_rows_stay_nan_in_grid_order(self, tmp_path):
        """Above 2 * pump the idler frequency is negative: those points
        become NaN rows in place, and the run still succeeds."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("task = gain\nflux = 0.35\npump_freq_hz = 9.2e9\n"
                            "pump_power_dbm = -78\n"
                            "signal_freq_min_hz = 17e9\n"
                            "signal_freq_max_hz = 20e9\nsignal_points = 4\n"
                            "solver_rtol = 1e-8\n"
                            f"out_path = {tmp_path / 'g.csv'}\n")
        assert main(["gain", "--config", str(cfg_path)]) == 0
        cols, rows = self.read_csv(tmp_path / "g.csv")
        np.testing.assert_array_equal(rows[:, 0], [17e9, 18e9, 19e9, 20e9])
        vals = rows[:, [cols.index("gain_db"),
                        cols.index("dk_total_rad_per_cell")]]
        assert np.all(np.isfinite(vals[:2]))
        assert np.all(np.isnan(vals[2:]))

        # the JSON metadata says why each NaN row is NaN
        json_path = tmp_path / "g.json"
        assert main(["gain", "--config", str(cfg_path), "--format", "json",
                     "--out", str(json_path)]) == 0
        gaps = json.loads(json_path.read_text())["metadata"]["gaps"]
        assert [g["freq_hz"] for g in gaps] == pytest.approx([19e9, 20e9])
        assert all(g["error"].startswith("NegativeIdler: ") for g in gaps)

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
        assert doc["metadata"] == {"gaps": []}

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


class TestMainExitCodes:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("task = cell-params\nflux = 0.19\n"
                            f"out_path = {tmp_path / 'o.csv'}\n")
        assert main(["cell-params", "--config", str(cfg_path)]) == 0

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("task = gain\nbad_key = 1\n")
        assert main(["gain", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip()
        doc = json.loads(err)  # a single structured diagnostic
        assert doc["error"] == "config"

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

    @pytest.mark.parametrize("task, lines", [
        ("gain", "signal_power_dbm = -4000\nsignal_points = 2"),
        ("saturation", "signal_freq_hz = 7.6e9\n"
                       "signal_power_min_dbm = -4000"),
    ])
    def test_underflowing_signal_power_exit_three(self, tmp_path, capsys,
                                                  task, lines):
        out = tmp_path / "o.csv"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"task = {task}\nflux = 0.35\n"
                            f"pump_freq_hz = 9.2e9\npump_power_dbm = -78\n"
                            f"{lines}\nout_path = {out}\n")
        assert main([task, "--config", str(cfg_path)]) == 3
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "ValueError", "detail": "power -4000 dBm "
                       "gives the non-positive amplitude 0"}
        assert not out.exists()

    def test_missing_config_exit_two(self):
        assert main(["gain", "--config", "/does/not/exist.cfg"]) == 2
