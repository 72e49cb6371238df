import math
import warnings

import numpy as np
import pytest

from twpasim import (NoiseChainModel, NoiseMeasurement, fit_output_line,
                     read_noise_records, source_noise, sql_reference,
                     system_noise)
from twpasim.constants import HBAR, K_B
from twpasim.errors import NonPositiveGain, SingularFit

W6 = 2 * math.pi * 6e9


class TestSourceNoise:
    def test_zero_temperature_is_half_photon(self):
        for f in [1e9, 6e9, 12e9]:
            w = 2 * math.pi * f
            assert source_noise(w, 0.0) == HBAR * w / 2.0

    def test_high_temperature_limit(self):
        # hbar w / kB T = 0.01: classical k_B T within 0.1%
        w = 1e10
        t = HBAR * w / (0.01 * K_B)
        assert source_noise(w, t) == pytest.approx(K_B * t, rel=1e-3)

    def test_frozen_high_precision_value(self):
        # 40-digit evaluation of (hbar w/2) coth(hbar w / 2 kB T)
        assert source_noise(W6, 1.0) == pytest.approx(1.3901758783684824e-23,
                                                      rel=1e-9)

    def test_monotone_in_temperature(self):
        temps = np.linspace(0.0, 2.0, 40)
        vals = [source_noise(W6, t) for t in temps]
        assert np.all(np.diff(vals) > 0)

    def test_monotone_in_frequency(self):
        freqs = np.linspace(1e9, 20e9, 40)
        for t in [0.0, 0.1, 1.0]:
            vals = [source_noise(2 * math.pi * f, t) for f in freqs]
            assert np.all(np.diff(vals) > 0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            source_noise(-1.0, 0.1)
        with pytest.raises(ValueError):
            source_noise(W6, -0.1)

    @pytest.mark.parametrize("omega, temperature",
                             [(W6, math.nan), (math.nan, 0.1)],
                             ids=["temperature", "omega"])
    def test_nan_argument_rejected(self, omega, temperature):
        with pytest.raises(ValueError):
            source_noise(omega, temperature)


def synth_measurement(freqs_hz, temps, g_out, n_out_photons, b_w,
                      noise_frac=0.0, rng=None, weights=False):
    om, tt, pp, ww = [], [], [], []
    for f in freqs_hz:
        w = 2 * math.pi * f
        n_out = n_out_photons * HBAR * w
        x = np.array([source_noise(w, t) for t in temps])
        p_clean = (x + n_out) * g_out * b_w
        p = p_clean.copy()
        if noise_frac:
            p *= 1.0 + noise_frac * rng.standard_normal(p.size)
        om.append(np.full(len(temps), w))
        tt.append(np.asarray(temps, dtype=float))
        pp.append(p)
        ww.append(1.0 / (noise_frac * p_clean) ** 2 if noise_frac else
                  np.ones(p.size))
    return NoiseMeasurement(
        omega=np.concatenate(om), temperature=np.concatenate(tt),
        power=np.concatenate(pp),
        weight=np.concatenate(ww) if weights else None)


class TestNoiseMeasurement:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega", "temperature", "power",
                                      "weight"])
    def test_non_finite_value_rejected(self, name, bad):
        """A record that is not finite is an error naming it, never a NaN
        row of a fit."""
        fields = {"omega": [W6] * 3, "temperature": [0.04, 0.3, 1.0],
                  "power": [1e-11, 2e-11, 3e-11], "weight": [1.0] * 3}
        fields[name][1] = bad
        if name == "weight" and bad < 0:
            message = "weights must be positive"
        else:
            message = f"{name} of record 2 is {bad}, not finite"
        with pytest.raises(ValueError, match=f"^{message}$"):
            NoiseMeasurement(**fields)


class TestFitOutputLine:
    TEMPS = [0.04, 0.1, 0.25, 0.5, 0.75, 1.0]

    def test_noiseless_recovery_is_exact(self):
        b_w = 1e6
        data = synth_measurement([4e9, 6e9], self.TEMPS, 1e6, 10.0, b_w)
        fit = fit_output_line(data, b_w)
        np.testing.assert_allclose(fit.model.g_out, 1e6, rtol=1e-10)
        for i, w in enumerate(fit.model.omega):
            assert fit.model.n_out[i] == pytest.approx(10.0 * HBAR * w,
                                                       rel=1e-10)
        assert np.all(fit.residual_rms < 1e-20)

    def test_scale_equivariance(self):
        b_w = 1e6
        data = synth_measurement([6e9], self.TEMPS, 1e6, 10.0, b_w)
        scaled = NoiseMeasurement(omega=data.omega,
                                  temperature=data.temperature,
                                  power=3.0 * data.power)
        a = fit_output_line(data, b_w)
        b = fit_output_line(scaled, b_w)
        assert b.model.g_out[0] == pytest.approx(3.0 * a.model.g_out[0],
                                                 rel=1e-12)
        assert b.model.n_out[0] == pytest.approx(a.model.n_out[0], rel=1e-12)

    def test_single_temperature_bin_raises(self):
        data = synth_measurement([6e9], [0.3, 0.3, 0.3], 1e6, 10.0, 1e6)
        with pytest.raises(SingularFit):
            fit_output_line(data, 1e6)

    def test_noisy_recovery_sane(self):
        rng = np.random.default_rng(7)
        temps = [0.04, 0.06, 0.08, 0.10, 0.85, 0.90, 0.95, 1.00]
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            data = synth_measurement([5e9], temps, 1e6, 10.0, 1e6,
                                     noise_frac=0.01, rng=rng, weights=True)
            fit = fit_output_line(data, 1e6)
            errs.append(abs(fit.model.g_out[0] - 1e6) / 1e6)
        assert np.median(errs) < 0.03


class TestSystemNoise:
    def grid(self):
        return 2 * math.pi * np.linspace(4e9, 8e9, 9)

    def chain(self):
        w = self.grid()
        return NoiseChainModel(omega=w, g_out=np.full(w.size, 1e6),
                               n_out=10.0 * HBAR * w, b_w=1e6)

    def test_unity_device_gain_passthrough(self):
        chain = self.chain()
        p = chain.n_out * chain.g_out * chain.b_w
        n_w, _ = system_noise(p, np.ones(chain.omega.size), chain)
        np.testing.assert_allclose(n_w, chain.n_out, rtol=1e-12)

    def test_doubling_gain_halves_noise(self):
        chain = self.chain()
        p = 5.0 * HBAR * chain.omega * chain.g_out * chain.b_w
        n1, _ = system_noise(p, np.ones(chain.omega.size), chain)
        n2, _ = system_noise(p, 2.0 * np.ones(chain.omega.size), chain)
        np.testing.assert_allclose(n2, n1 / 2.0, rtol=1e-14)

    def test_round_trip_inverts_generative_model(self):
        chain = self.chain()
        g_dev = np.full(chain.omega.size, 100.0)
        n_true = 2.7 * HBAR * chain.omega
        p = n_true * g_dev * chain.g_out * chain.b_w
        n_w, n_ph = system_noise(p, g_dev, chain)
        np.testing.assert_allclose(n_w, n_true, rtol=1e-12)
        np.testing.assert_allclose(n_ph, 2.7, rtol=1e-12)

    def test_gain_must_be_positive(self):
        chain = self.chain()
        p = chain.n_out * chain.g_out * chain.b_w
        with pytest.raises(NonPositiveGain):
            system_noise(p, np.zeros(chain.omega.size), chain)


class TestSql:
    def test_frequency_ratio(self):
        w = np.array([W6, 2 * W6])
        n = sql_reference(w)
        assert n[1] / n[0] == pytest.approx(2.0, rel=1e-15)

    def test_photon_units_are_unity(self):
        w = 2 * math.pi * np.linspace(4e9, 8e9, 5)
        np.testing.assert_allclose(sql_reference(w) / (HBAR * w), 1.0,
                                   rtol=1e-15)

    def test_six_ghz_value(self):
        assert sql_reference([W6])[0] == pytest.approx(
            1.054571817e-34 * 2 * math.pi * 6e9, rel=1e-9)


class TestRecordIO:
    def test_round_trip_without_weight(self, tmp_path):
        path = tmp_path / "noise.csv"
        path.write_text("freq_hz,temp_k,power_w\n"
                        "6.0e9,0.04,1.5e-11\n"
                        "6.0e9,1.0,9.5e-11\n")
        data = read_noise_records(path)
        assert data.omega[0] == pytest.approx(2 * math.pi * 6e9)
        assert data.weight is None
        assert data.power[1] == 9.5e-11

    def test_round_trip_with_weight(self, tmp_path):
        path = tmp_path / "noise.csv"
        path.write_text("freq_hz,temp_k,power_w,weight\n"
                        "5.0e9,0.04,1.0e-11,2.0\n"
                        "5.0e9,0.5,5.0e-11,1.0\n")
        data = read_noise_records(path)
        np.testing.assert_allclose(data.weight, [2.0, 1.0])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "noise.csv"
        path.write_text("frequency,temp,power\n1,2,3\n")
        with pytest.raises(ValueError):
            read_noise_records(path)

    @pytest.mark.parametrize("body", ["", "\n# no data yet\n"],
                             ids=["empty", "comment"])
    def test_header_only_rejected_without_warning(self, tmp_path, body):
        path = tmp_path / "noise.csv"
        path.write_text("freq_hz,temp_k,power_w\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no records after the "
                                                 "header") as exc:
                read_noise_records(path)
        assert str(path) in str(exc.value)
