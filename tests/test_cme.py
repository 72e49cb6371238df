import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import spearmanr

from twpasim import (MediumParams, ModeSet3WM, ModeSet4WM, ToneConfig,
                     amplitude_from_dbm, gain_spectrum,
                     integrate_3wm, integrate_4wm, isolation_spectrum,
                     linear_transmission_db, saturation_curve)
from twpasim import cme
from twpasim.errors import (AbovePlasmaCutoff, DomainError, NegativeIdler,
                            StepFailure, describe)
from twpasim.phasematch import _grid, _point, breakdown_grid, kerr_etas

W_AP = 2 * math.pi * 9.2e9
W_S = 2 * math.pi * 7.6e9


def lossless(m):
    return replace(m, tan_delta=0.0)


class TestModeSets:
    def test_frequency_bookkeeping_4wm(self):
        ms = ModeSet4WM.initial(W_S, W_AP, 1e-6, 1.0)
        w = ms.frequencies
        assert w[2] == 2 * W_AP - W_S
        assert w[3] == 2 * W_AP
        assert w[4] == W_S + W_AP
        assert w[5] == w[2] + W_AP

    def test_frequency_bookkeeping_3wm(self):
        ms = ModeSet3WM.initial(W_S, W_AP, 1e-6, 1.0)
        w = ms.frequencies
        assert w[2] == 2 * W_AP
        assert w[3] == W_S + W_AP
        assert w[4] == W_S + 2 * W_AP

    def test_negative_idler_rejected(self):
        with pytest.raises(NegativeIdler):
            ModeSet4WM.initial(2.5 * W_AP, W_AP, 1e-6, 1.0)

    def test_grid_columns_are_the_mode_set_frequencies(self, medium_035):
        """There is one six-mode order: each column of ``_grid``'s
        frequencies is the state's ``frequencies``, bit for bit."""
        omegas = 2 * math.pi * np.linspace(5e9, 8e9, 4)
        ok, _, _, _, w = _grid(medium_035, omegas, W_AP)
        assert ok.all()
        for j, omega_s in enumerate(omegas.tolist()):
            ms = ModeSet4WM.initial(omega_s, W_AP, 1e-6, 1.0)
            assert w[:, j].tobytes() == ms.frequencies.tobytes()

    # a malformed state is a DomainError, which callers catching
    # ValueError still catch
    @pytest.mark.parametrize("cls,n", [(ModeSet4WM, 6), (ModeSet3WM, 5)],
                             ids=["4wm", "3wm"])
    def test_wrong_mode_count_is_a_domain_error(self, cls, n):
        with pytest.raises(DomainError, match=f"expected {n} mode"):
            cls(W_S, W_AP, np.zeros(n - 1))

    @pytest.mark.parametrize("cls,n", [(ModeSet4WM, 6), (ModeSet3WM, 5)],
                             ids=["4wm", "3wm"])
    def test_non_finite_amplitude_is_a_domain_error(self, cls, n):
        amplitudes = np.zeros(n, dtype=complex)
        amplitudes[1] = complex(math.inf, 0.0)
        with pytest.raises(DomainError, match="must be finite"):
            cls(W_S, W_AP, amplitudes)

    @pytest.mark.parametrize("cls", [ModeSet4WM, ModeSet3WM],
                             ids=["4wm", "3wm"])
    @pytest.mark.parametrize("omegas", [(0.0, W_AP), (W_S, -W_AP)],
                             ids=["signal", "pump"])
    def test_nonpositive_frequency_is_a_domain_error(self, cls, omegas):
        with pytest.raises(ValueError, match="must be positive") as info:
            cls.initial(*omegas, 1e-6, 1.0)
        assert isinstance(info.value, DomainError)

    def test_plasma_guard_on_upconverted_modes(self, medium_035):
        # i+ap exceeds 0.98 omegaJ for a far-detuned signal
        ws = 2 * math.pi * 1e9
        wap = 2 * math.pi * 30e9
        ms = ModeSet4WM.initial(ws, wap, 1e-6, 1.0)
        with pytest.raises(AbovePlasmaCutoff):
            integrate_4wm(medium_035, ms, 0.0, 0.0)


class TestFourWaveMixing:
    def test_free_propagation_preserves_magnitudes(self, medium_035):
        m = lossless(medium_035)
        ms = ModeSet4WM.initial(W_S, W_AP, 1e-6, 1.5, a_i=1e-7)
        traj = integrate_4wm(m, ms, beta=0.0, gamma=0.0, rtol=1e-11)
        mags = traj.magnitudes()
        np.testing.assert_allclose(mags[-1, :3], mags[0, :3], rtol=1e-11)

    def test_pump_off_leaves_signal_unchanged(self, medium_035):
        m = lossless(medium_035)
        ms = ModeSet4WM.initial(W_S, W_AP, 1e-6, 0.0)
        traj = integrate_4wm(m, ms, beta=0.08, gamma=0.05, rtol=1e-11)
        assert abs(traj.amplitudes[-1, 0]) == pytest.approx(1e-6, rel=1e-11)

    def test_manley_rowe_lossless(self, linear_dispersion_medium):
        """With beta = 0 and no loss the pair couplings move photons as
        dn_s = dn_i = -dn_ap/2 in the k*wt*|A|^2 bookkeeping."""
        m = linear_dispersion_medium
        a_p = amplitude_from_dbm(replace(m, amp_scale=2.8), W_AP, -78.0)
        a_s = amplitude_from_dbm(m, 2 * math.pi * 9.05e9, -120.0)
        ms = ModeSet4WM.initial(2 * math.pi * 9.05e9, W_AP, a_s, a_p)
        traj = integrate_4wm(m, ms, beta=0.0, gamma=0.05, rtol=1e-11)
        n = traj.photon_flux()
        dns = n[-1, 0] - n[0, 0]
        dni = n[-1, 2] - n[0, 2]
        dnp = n[-1, 1] - n[0, 1]
        assert dns > 10 * n[0, 0]  # substantial amplification happened
        assert abs(dns - dni) / dns < 1e-6
        assert abs(dnp + 2 * dns) / (2 * dns) < 1e-6

    @settings(max_examples=25, deadline=None, database=None)
    @given(f_s=st.floats(8.0e9, 9.15e9), p_dbm=st.floats(-82.0, -76.0),
           gamma=st.floats(0.02, 0.1))
    def test_manley_rowe_random_draws(self, linear_dispersion_medium, f_s,
                                      p_dbm, gamma):
        """The pair relations of test_manley_rowe_lossless, to criterion
        3's 1e-6, for any signal, pump power and coupling that amplify.
        The pump relation takes dn_ap as a difference of two fluxes
        10^4-10^5 times n_s(0), so it is only resolved once the signal
        has at least doubled."""
        m = linear_dispersion_medium
        ws = 2 * math.pi * f_s
        a_p = amplitude_from_dbm(replace(m, amp_scale=2.8), W_AP, p_dbm)
        a_s = amplitude_from_dbm(m, ws, -120.0)
        ms = ModeSet4WM.initial(ws, W_AP, a_s, a_p)
        traj = integrate_4wm(m, ms, beta=0.0, gamma=gamma, rtol=1e-11,
                             n_samples=2)
        n = traj.photon_flux()
        dns = n[-1, 0] - n[0, 0]
        dni = n[-1, 2] - n[0, 2]
        dnp = n[-1, 1] - n[0, 1]
        assume(dns >= n[0, 0])
        assert abs(dns - dni) / abs(dns) <= 1e-6
        assert abs(dnp + 2 * dns) / abs(2 * dns) <= 1e-6

    def test_energy_audit_lossless(self, linear_dispersion_medium):
        m = linear_dispersion_medium
        a_p = amplitude_from_dbm(replace(m, amp_scale=2.8), W_AP, -78.0)
        ms = ModeSet4WM.initial(2 * math.pi * 9.05e9, W_AP, 1e-5, a_p)
        traj = integrate_4wm(m, ms, beta=0.0, gamma=0.05, rtol=1e-11)
        n = traj.photon_flux()
        power = n @ ms.frequencies
        assert abs(power[-1] - power[0]) / power[0] < 1e-6

    def test_trajectory_sampled_where_asked(self, medium_035):
        ms = ModeSet4WM.initial(W_S, W_AP, 1e-6, 0.5)
        traj = integrate_4wm(medium_035, ms, 0.02, 0.01, n_samples=2)
        np.testing.assert_array_equal(traj.x, [0.0, medium_035.N])
        assert traj.amplitudes.shape == (2, 6)
        traj = integrate_4wm(medium_035, ms, 0.02, 0.01, n_samples=10)
        assert traj.x.size == 10
        with pytest.raises(ValueError, match="n_samples"):
            integrate_4wm(medium_035, ms, 0.02, 0.01, n_samples=1)


# the fitted couplings; the fitted amp_scale is the medium_fit line's
FIT = dict(beta=0.104388, gamma=0.122339)


class TestGainSpectrum:
    def test_pump_off_equals_linear_loss(self, medium_fit):
        grid = 2 * math.pi * np.linspace(4e9, 8e9, 5)
        spec = gain_spectrum(medium_fit, ToneConfig(W_AP, -300.0), grid,
                             beta=FIT["beta"], gamma=FIT["gamma"])
        for w, g in zip(grid, spec.gain_db):
            assert g == pytest.approx(linear_transmission_db(medium_fit, w),
                                      abs=1e-6)

    def test_symmetric_under_signal_idler_exchange(self, medium_fit):
        # beta = 0 isolates the pair coupling, whose s and i equations are
        # exact mirrors; the upconversion channels are deliberately
        # asymmetric (idler coefficient kept in its reduced literal form)
        # and break this symmetry at strong drive
        m = lossless(medium_fit)
        pump = ToneConfig(W_AP, -78.0)
        ws = 2 * math.pi * 7.0e9
        wi = 2 * W_AP - ws
        spec = gain_spectrum(m, pump, np.sort([ws, wi]), beta=0.0,
                             gamma=FIT["gamma"], rtol=1e-11)
        assert abs(spec.gain_db[0]) > 0.5  # non-trivial amplification
        assert spec.gain_db[0] == pytest.approx(spec.gain_db[1], abs=0.1)

    def test_tolerance_halving_changes_little(self, medium_fit):
        pump = ToneConfig(W_AP, -78.0)
        g1 = gain_spectrum(medium_fit, pump, [W_S], rtol=2e-10,
                           **FIT).gain_db[0]
        g2 = gain_spectrum(medium_fit, pump, [W_S], rtol=1e-10,
                           **FIT).gain_db[0]
        assert abs(g1 - g2) < 0.01

    def test_lossless_reference_convention(self, medium_fit):
        """Gain referenced to a lossless line exceeds the pumped/unpumped
        ratio by exactly the linear loss."""
        pump_on = gain_spectrum(medium_fit, ToneConfig(W_AP, -78.0), [W_S],
                                **FIT).gain_db[0]
        pump_off = gain_spectrum(medium_fit, ToneConfig(W_AP, -300.0), [W_S],
                                 **FIT).gain_db[0]
        loss = linear_transmission_db(medium_fit, W_S)
        assert pump_on - (pump_on - pump_off) == pytest.approx(loss, abs=1e-6)

    def test_gaps_recorded_not_raised(self, medium_035):
        # second point's idler ladder violates the plasma guard
        grid = np.sort([W_S, 2 * math.pi * 0.05e9])
        spec = gain_spectrum(medium_035, ToneConfig(2 * math.pi * 33e9,
                                                    -78.0), grid)
        assert len(spec.gaps) == len(grid)

    def test_metadata_records_the_line_amp_scale(self, medium_035,
                                                 medium_fit):
        spec = gain_spectrum(medium_fit, ToneConfig(W_AP, -300.0), [W_S])
        assert spec.metadata["amp_scale"] == 1.55
        spec = isolation_spectrum(medium_035, ToneConfig(W_AP, -300.0),
                                  [W_S])
        assert spec.metadata["amp_scale"] == 1.0

    @pytest.mark.parametrize("omega", [[2.0, 1.0], [1.0, 1.0]],
                             ids=["decreasing", "repeated"])
    def test_non_increasing_omega_rejected(self, omega):
        with pytest.raises(ValueError, match="^frequency grid must be "
                                             "strictly increasing$"):
            cme.GainSpectrum(omega=omega, gain_db=[0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_gain_rejected(self, bad):
        with pytest.raises(ValueError, match="^gain must be finite"):
            cme.GainSpectrum(omega=[1.0, 2.0, 3.0], gain_db=[0.0, bad, 1.0])

    def test_nan_gap_rows_accepted(self):
        spec = cme.GainSpectrum(omega=[1.0, 2.0, 3.0],
                                gain_db=[0.5, math.nan, 1.0])
        assert spec.omega.dtype == spec.gain_db.dtype == np.float64
        np.testing.assert_array_equal(spec.gain_db, [0.5, math.nan, 1.0])

    @pytest.mark.parametrize("fields, message", [
        ({"omega": [1.0, 2.0, 3.0], "gain_db": [0.0]},
         r"gain_db has shape \(1,\), the frequency grid \(3,\)"),
        ({"omega": [[1.0, 2.0], [3.0, 4.0]], "gain_db": [0.0, 0.0]},
         "frequency grid must be one-dimensional"),
        ({"omega": [1.0, 2.0, 3.0], "gain_db": [0.0, 0.0, 0.0],
          "upconverted_fraction": [0.1, 0.2]},
         r"upconverted_fraction has shape \(2,\), the frequency grid "
         r"\(3,\)"),
    ], ids=["short-gain", "2d-omega", "short-fraction"])
    def test_values_take_the_shape_of_a_1d_grid(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cme.GainSpectrum(**fields)


class TestEndpointSampling:
    """Every spectrum point integrates straight to x = N: it asks the
    stepper for the two ends of the line only, and the endpoint it gets
    is the one a densely sampled run reaches."""

    GRID = 2 * math.pi * np.array([6.0e9, 7.6e9])
    W_IP = 2 * math.pi * 12.2e9

    @pytest.mark.parametrize("task", ["gain", "saturation", "isolation"])
    def test_spectra_ask_for_two_samples(self, medium_fit, monkeypatch,
                                         task):
        integrate = cme._kernels.integrate
        sample_counts = []

        def recording(rhs, y0, x_eval, *args):
            sample_counts.append(len(x_eval))
            return integrate(rhs, y0, x_eval, *args)

        monkeypatch.setattr(cme._kernels, "integrate", recording)
        pump = ToneConfig(W_AP, -78.0)
        if task == "gain":
            gain_spectrum(medium_fit, pump, self.GRID, **FIT)
        elif task == "saturation":
            saturation_curve(medium_fit, pump, W_S, [-130.0, -120.0], **FIT)
        else:
            isolation_spectrum(medium_fit, ToneConfig(self.W_IP, -74.0),
                               self.GRID, beta=FIT["beta"])
        assert sample_counts == [2, 2]

    @pytest.mark.parametrize("task", ["gain", "saturation", "isolation"])
    @pytest.mark.parametrize("grid", [GRID[::-1], GRID[:1].repeat(3)],
                             ids=["decreasing", "repeated"])
    def test_grid_checked_before_integrating(self, medium_fit, monkeypatch,
                                             task, grid):
        """A grid that is not strictly increasing is rejected before the
        stepper runs even once."""
        calls = []
        monkeypatch.setattr(cme._kernels, "integrate",
                            lambda *args: calls.append(args))
        pump = ToneConfig(W_AP, -78.0)
        with pytest.raises(ValueError, match="grid must be strictly"):
            if task == "gain":
                gain_spectrum(medium_fit, pump, grid, **FIT)
            elif task == "saturation":
                saturation_curve(medium_fit, pump, W_S, grid / 1e9, **FIT)
            else:
                isolation_spectrum(medium_fit, ToneConfig(self.W_IP, -74.0),
                                   grid, beta=FIT["beta"])
        assert calls == []

    def test_4wm_endpoint_matches_dense_run(self, medium_fit):
        a_p = amplitude_from_dbm(medium_fit, W_AP, -78.0)
        a_s = amplitude_from_dbm(medium_fit, W_S, -130.0)
        ms = ModeSet4WM.initial(W_S, W_AP, a_s, a_p)
        gains = [cme._gain_db_from(integrate_4wm(
            medium_fit, ms, FIT["beta"], FIT["gamma"], n_samples=n))
            for n in (2, 257)]
        assert abs(gains[1]) > 10.0  # the point amplifies
        assert gains[0] == pytest.approx(gains[1], abs=1e-8)

    def test_3wm_endpoint_matches_dense_run(self, medium_fit):
        w_s = 2 * math.pi * 6.0e9
        a_p = amplitude_from_dbm(medium_fit, self.W_IP, -74.0)
        a_s = amplitude_from_dbm(medium_fit, w_s, -130.0)
        ms = ModeSet3WM.initial(w_s, self.W_IP, a_s, a_p)
        gains = [cme._gain_db_from(integrate_3wm(
            medium_fit, ms, FIT["beta"], n_samples=n)) for n in (2, 257)]
        assert gains[0] == pytest.approx(gains[1], abs=1e-8)


class TestPerPointFailures:
    """Spectra record domain errors (``TwpaError``) as gaps; anything
    else is a bug or a bad argument and propagates."""

    W_IP = 2 * math.pi * 12.2e9

    @staticmethod
    def _broken(*args, **kwargs):
        raise TypeError("bug in the integrator call")

    def test_gain_programming_error_propagates(self, medium_fit,
                                               monkeypatch):
        monkeypatch.setattr(cme._kernels, "integrate", self._broken)
        with pytest.raises(TypeError, match="bug in the integrator"):
            gain_spectrum(medium_fit, ToneConfig(W_AP, -78.0), [W_S], **FIT)

    def test_isolation_programming_error_propagates(self, medium_035,
                                                    monkeypatch):
        monkeypatch.setattr(cme._kernels, "integrate", self._broken)
        with pytest.raises(TypeError, match="bug in the integrator"):
            isolation_spectrum(medium_035,
                               ToneConfig(self.W_IP, -74.0),
                               [W_S], beta=FIT["beta"])

    @pytest.mark.parametrize("task", ["gain", "isolation"])
    @pytest.mark.parametrize("f_lo", [0.0, -1e9])
    def test_non_positive_signal_frequency_raises(self, medium_035,
                                                  medium_fit, task, f_lo):
        """A signal grid reaching 0 Hz or below is rejected by the
        amplitude conversion, naming the frequency, before any point is
        integrated."""
        grid = 2 * math.pi * np.array([f_lo, 7.6e9])
        with pytest.raises(ValueError, match="^omega .* rad/s is not "
                                             "finite and positive$"):
            if task == "gain":
                gain_spectrum(medium_fit, ToneConfig(W_AP, -78.0), grid,
                              **FIT)
            else:
                isolation_spectrum(medium_035,
                                   ToneConfig(self.W_IP, -74.0),
                                   grid, beta=FIT["beta"])

    def test_zero_amp_scale_raises(self, device_spec, cell_035):
        """``amp_scale = 0`` is named as such, not as a pump power whose
        amplitude is 0: the line is rejected before any spectrum runs."""
        with pytest.raises(ValueError, match="^amp_scale 0 is not finite "
                                             "and positive$"):
            MediumParams.from_cell(device_spec, cell_035, amp_scale=0.0)

    def test_out_of_range_rtol_raises(self, medium_035, medium_fit):
        with pytest.raises(ValueError, match="rtol"):
            gain_spectrum(medium_fit, ToneConfig(W_AP, -78.0), [W_S],
                          rtol=1e-3, **FIT)
        with pytest.raises(ValueError, match="rtol"):
            isolation_spectrum(medium_035,
                               ToneConfig(self.W_IP, -74.0),
                               [W_S], beta=FIT["beta"], rtol=1e-3)


class TestGuardOrder:
    """The integrating tasks name a point's error as ``dk_total`` and the
    phase-mismatch grid do: pump guard, negative idler, then the other
    modes' guards."""

    GHZ = 2 * math.pi * 1e9

    @pytest.mark.parametrize("f_ap, f_s, error", [
        # pump above the 67.1 GHz guard and a negative idler: the pump
        (67.5, 140.0, AbovePlasmaCutoff),
        # a pump inside the band and a negative idler: the idler
        (9.2, 20.0, NegativeIdler),
        # pump and idler inside, signal above the guard: the signal
        (40.0, 68.0, AbovePlasmaCutoff),
    ])
    def test_gain_saturation_and_grid_agree(self, medium_fit, f_ap, f_s,
                                            error):
        pump = ToneConfig(f_ap * self.GHZ, -78.0)
        w_s = f_s * self.GHZ
        _, grid_errors = breakdown_grid(medium_fit, FIT["beta"],
                                        FIT["gamma"], w_s, pump.freq, -78.0)
        [(_, expected)] = grid_errors
        assert isinstance(expected, error)
        spec = gain_spectrum(medium_fit, pump, [w_s], **FIT)
        assert [g[2] for g in spec.gaps] == [describe(expected)]
        with pytest.raises(error) as raised:
            saturation_curve(medium_fit, pump, w_s, [-130.0], **FIT)
        assert describe(raised.value) == describe(expected)

    @pytest.mark.parametrize("f_ap, f_s, error", [
        (67.5, 140.0, AbovePlasmaCutoff), (9.2, 20.0, NegativeIdler),
        (40.0, 68.0, AbovePlasmaCutoff)])
    def test_saturation_checks_the_point_before_the_powers(
            self, medium_fit, f_ap, f_s, error):
        """``saturation_curve`` checks the pump amplitude, then the point,
        then the powers: a point outside the model with an underflowing
        power raises the point's error, and an underflowing pump power
        raises its ``ValueError`` before the point's."""
        pump = ToneConfig(f_ap * self.GHZ, -78.0)
        w_s = f_s * self.GHZ
        with pytest.raises(error) as raised:
            saturation_curve(medium_fit, pump, w_s, [-130.0], **FIT)
        expected = describe(raised.value)
        with pytest.raises(error) as raised:
            saturation_curve(medium_fit, pump, w_s, [-4000.0], **FIT)
        assert describe(raised.value) == expected
        with pytest.raises(ValueError, match="^power -4000 dBm"):
            saturation_curve(medium_fit, replace(pump, power_dbm=-4000.0),
                             w_s, [4000.0], **FIT)


class TestSaturation:
    def test_small_signal_flat_and_knee_monotone(self, medium_fit):
        pump = ToneConfig(W_AP, -78.0)
        powers = np.arange(-150.0, -84.0, 2.5)
        res = saturation_curve(medium_fit, pump, W_S, powers, **FIT)
        # asymptotic small-signal limit
        assert abs(res.gain_db[1] - res.gain_db[0]) < 0.05
        assert res.compression_1db_dbm is not None
        # knee sits well above the -150 dBm reference floor
        assert res.compression_1db_dbm >= -130.0
        # monotone non-increasing beyond the knee
        knee = res.compression_1db_dbm
        tail = res.gain_db[res.power_dbm >= knee]
        assert np.all(np.diff(tail) <= 1e-6)

    def test_increasing_grid_required(self, medium_035):
        with pytest.raises(ValueError, match="power grid must be strictly"):
            saturation_curve(medium_035, ToneConfig(W_AP, -78.0), W_S,
                             [-100.0, -120.0])
        with pytest.raises(ValueError, match="power grid must not be empty"):
            saturation_curve(medium_035, ToneConfig(W_AP, -78.0), W_S, [])


class TestThreeWaveMixing:
    W_IP = 2 * math.pi * 12.0e9
    W_PROBE = 2 * math.pi * 5.0e9

    def test_beta_zero_is_loss_only(self, medium_035):
        a = amplitude_from_dbm(medium_035, self.W_IP, -76.0)
        ms = ModeSet3WM.initial(self.W_PROBE, self.W_IP, 1e-6, a)
        traj = integrate_3wm(medium_035, ms, beta=0.0, rtol=1e-11)
        expected = 1e-6 * 10 ** (
            linear_transmission_db(medium_035, self.W_PROBE) / 20)
        assert abs(traj.amplitudes[-1, 0]) == pytest.approx(expected,
                                                            rel=1e-9)

    def test_pump_off_is_loss_only(self, medium_035):
        ms = ModeSet3WM.initial(self.W_PROBE, self.W_IP, 1e-6, 0.0)
        traj = integrate_3wm(medium_035, ms, beta=0.0291, rtol=1e-11)
        expected = 1e-6 * 10 ** (
            linear_transmission_db(medium_035, self.W_PROBE) / 20)
        assert abs(traj.amplitudes[-1, 0]) == pytest.approx(expected,
                                                            rel=1e-9)

    def test_signal_family_conservation(self, linear_dispersion_medium):
        m = linear_dispersion_medium
        a = amplitude_from_dbm(replace(m, amp_scale=1.5), self.W_IP, -75.0)
        ms = ModeSet3WM.initial(self.W_PROBE, self.W_IP, 1e-5, a)
        traj = integrate_3wm(m, ms, beta=0.05, rtol=1e-11)
        n = traj.photon_flux()
        family = n[:, 0] + n[:, 3] + n[:, 4]
        assert abs(family[-1] - family[0]) / family[0] < 1e-6
        # the run actually converts photons
        assert n[-1, 3] + n[-1, 4] > 0.1 * family[0]

    @settings(max_examples=25, deadline=None, database=None)
    @given(f_s=st.floats(2.0e9, 10.0e9), p_dbm=st.floats(-82.0, -73.0),
           beta=st.floats(0.01, 0.1))
    def test_signal_family_conservation_random_draws(
            self, linear_dispersion_medium, f_s, p_dbm, beta):
        """n_s + n_{s+ip} + n_{s+2ip} is conserved to 1e-6 for any signal,
        pump power and coupling."""
        m = linear_dispersion_medium
        ws = 2 * math.pi * f_s
        a_p = amplitude_from_dbm(replace(m, amp_scale=1.5), self.W_IP, p_dbm)
        a_s = amplitude_from_dbm(m, ws, -120.0)
        ms = ModeSet3WM.initial(ws, self.W_IP, a_s, a_p)
        traj = integrate_3wm(m, ms, beta=beta, rtol=1e-11, n_samples=2)
        n = traj.photon_flux()
        family = n[:, 0] + n[:, 3] + n[:, 4]
        assert abs(family[-1] - family[0]) / family[0] <= 1e-6

    def test_fraction_bookkeeping_lossless(self, linear_dispersion_medium):
        spec = isolation_spectrum(replace(linear_dispersion_medium,
                                          amp_scale=1.5),
                                  ToneConfig(self.W_IP, -75.0),
                                  [self.W_PROBE], beta=0.05)
        transmitted = 10 ** (spec.gain_db[0] / 10)
        assert transmitted + spec.upconverted_fraction[0] == \
            pytest.approx(1.0, abs=1e-3)

    def test_isolation_tracks_upconversion(self, linear_dispersion_medium):
        """Across a pump power sweep, deeper isolation must coincide with a
        larger upconverted photon fraction."""
        m = replace(linear_dispersion_medium, amp_scale=1.5)
        depths, fracs = [], []
        for p in np.linspace(-82, -73, 10):
            spec = isolation_spectrum(m, ToneConfig(self.W_IP, p),
                                      [self.W_PROBE], beta=0.05)
            depths.append(-spec.gain_db[0])
            fracs.append(spec.upconverted_fraction[0])
        rho = spearmanr(depths, fracs).statistic
        assert rho > 0.9

    def test_isolation_independent_of_signal_power(self, medium_035,
                                                   cell_035):
        """The pump pair (ip, 2ip) does not feel the signal chain and the
        chain is linear given the pump, so transmission and upconverted
        fraction do not depend on the signal power."""
        pump = ToneConfig(2 * math.pi * 12.2e9, -74.0)
        grid = 2 * math.pi * np.linspace(4e9, 9e9, 11)
        ref, *others = [isolation_spectrum(medium_035, pump, grid, p,
                                           beta=cell_035.beta)
                        for p in (-130.0, -150.0, -95.0)]
        # the grid converts photons, so the fraction is not trivially 0
        assert np.max(ref.upconverted_fraction) > 0.05
        for spec in others:
            np.testing.assert_allclose(spec.gain_db, ref.gain_db,
                                       rtol=0, atol=1e-9)
            np.testing.assert_allclose(spec.upconverted_fraction,
                                       ref.upconverted_fraction,
                                       rtol=0, atol=1e-10)

    def test_hard_plasma_guard(self, medium_035):
        # s+2ip at 7 + 2*31 = 69 GHz exceeds 0.95 * omegaJ = 65 GHz
        ms = ModeSet3WM.initial(2 * math.pi * 7e9, 2 * math.pi * 31e9,
                                1e-6, 0.1)
        with pytest.raises(AbovePlasmaCutoff):
            integrate_3wm(medium_035, ms, beta=0.03)

    @pytest.mark.parametrize("f_s, f_ip, mode", [
        # 2ip at 66 GHz, past 0.95 * omegaJ = 65 GHz
        (7e9, 33e9, "2ip"),
        # s+ip at 66 GHz, with 2ip at 60 GHz
        (36e9, 30e9, "s+ip"),
        # s+2ip at 69 GHz: test_hard_plasma_guard's point
        (7e9, 31e9, "s+2ip"),
    ], ids=["2ip", "s+ip", "s+2ip"])
    def test_single_point_raises_the_spectrum_gap(self, medium_035, f_s,
                                                  f_ip, mode):
        """A five-mode point outside the band: ``integrate_3wm`` raises
        exactly the error ``isolation_spectrum`` records as its gap, and
        both name the first mode past the guard."""
        w_s, w_ip = 2 * math.pi * f_s, 2 * math.pi * f_ip
        spec = isolation_spectrum(medium_035,
                                  ToneConfig(w_ip, -74.0), [w_s],
                                  beta=FIT["beta"])
        ms = ModeSet3WM.initial(w_s, w_ip, 1e-6, 0.1)
        with pytest.raises(AbovePlasmaCutoff) as raised:
            integrate_3wm(medium_035, ms, beta=FIT["beta"])
        assert spec.gaps == [(0, w_s, describe(raised.value))]
        f_mode = ms.frequencies[cme._MODES_3WM.index(mode)] / (2 * math.pi)
        assert str(raised.value).startswith(
            f"omega/2pi = {f_mode / 1e9:.3f} GHz is at or above")


W_IP = 2 * math.pi * 12.2e9
STEP_UNDERFLOW = ("StepFailure: step size underflow or non-finite state "
                  "(stiff or blowing-up run)")


def _terms(table):
    """A table's monomials, in its order, as ``(mode, "factors")`` named
    as the table names them."""
    n = len(table.names)

    def name(j):
        return table.names[j % n] + "*" * (j >= n)

    return [(table.names[mode], " ".join(map(name, factors)))
            for mode, _, factors in table.monomials]


def _per_mode(table):
    """Each mode's monomial factors, named as in :func:`_terms`, in the
    order of the mode's slots."""
    terms = _terms(table)
    return {name: [f for mode, f in terms if mode == name]
            for name in table.names}


def _coefficients(table):
    """A table's coefficients by ``(mode, "factors")``."""
    return {term: c for term, (_, c, _) in zip(_terms(table),
                                               table.monomials)}


class TestTables:
    """A table is only its monomials.  Each mode lists its own in a fixed
    order: loss and rotation, the pump's and the harmonic's cross-Kerr,
    then its mixing terms.  That order lays out the evaluator's slots and
    so fixes the bits of each mode's slot sum; the order of monomials
    across modes does not enter it."""

    PER_MODE_4WM = {
        "s": ["s", "ap ap* s", "2ap 2ap* s", "ap ap i*", "s+ap ap*"],
        "ap": ["ap", "ap ap* ap", "2ap 2ap* ap", "ap* 2ap", "s i ap*"],
        "i": ["i", "ap ap* i", "2ap 2ap* i", "ap ap s*", "i+ap ap*"],
        "2ap": ["2ap", "ap ap* 2ap", "2ap 2ap* 2ap", "ap ap"],
        "s+ap": ["s+ap", "ap ap* s+ap", "2ap 2ap* s+ap", "s ap"],
        "i+ap": ["i+ap", "ap ap* i+ap", "2ap 2ap* i+ap", "i ap"],
    }

    def table_4wm(self, m, beta, pump_depletion=True):
        k, wt = _point(m, W_S, W_AP, 6)
        return cme._table_4wm(k, wt, m.tan_delta, beta, FIT["gamma"],
                              pump_depletion)

    def test_4wm_terms(self, medium_035):
        table = self.table_4wm(medium_035, FIT["beta"])
        assert _per_mode(table) == self.PER_MODE_4WM
        assert len(table.monomials) == 6 + 12 + 9

    @staticmethod
    def dropped(full, part):
        """The terms of ``full`` that ``part`` lacks, mode by mode, after
        checking that ``part`` keeps the others in ``full``'s order."""
        gone = [(m, f) for m, fs in _per_mode(full).items() for f in fs
                if f not in _per_mode(part)[m]]
        assert _per_mode(part) == {
            m: [f for f in fs if (m, f) not in gone]
            for m, fs in _per_mode(full).items()}
        return gone

    def test_4wm_without_beta_or_depletion(self, medium_035):
        """The terms that vanish on every point are dropped: ``beta = 0``
        removes the six second-order terms, no pump depletion one more;
        every mode keeps the others in order."""
        full = self.table_4wm(medium_035, FIT["beta"])
        no_beta = self.table_4wm(medium_035, 0.0)
        assert len(no_beta.monomials) == 21
        assert self.dropped(full, no_beta) == [
            ("s", "s+ap ap*"), ("ap", "ap* 2ap"), ("i", "i+ap ap*"),
            ("2ap", "ap ap"), ("s+ap", "s ap"), ("i+ap", "i ap")]
        stiff = self.table_4wm(medium_035, FIT["beta"], False)
        assert len(stiff.monomials) == 26
        assert self.dropped(full, stiff) == [("ap", "s i ap*")]

    def table_3wm(self, m, omega_ip=W_IP):
        ok, _, k, wt, _ = cme._grid_3wm(m, W_S, omega_ip)
        assert ok.all()
        return cme._table_3wm(k[:, 0].tolist(), wt[:, 0].tolist(),
                              m.tan_delta, FIT["beta"])

    def test_3wm_terms(self, medium_035):
        table = self.table_3wm(medium_035)
        assert len(table.monomials) == 5 + 6
        assert _per_mode(table) == {
            "s": ["s", "s+ip ip*"], "ip": ["ip", "ip* 2ip"],
            "2ip": ["2ip", "ip ip"], "s+ip": ["s+ip", "s ip", "s+2ip ip*"],
            "s+2ip": ["s+2ip", "s+ip ip"]}
        # second-order couplings only: no three-factor (Kerr) term
        assert max(len(f) for _, _, f in table.monomials) == 2

    def test_kerr_terms_are_the_analytic_kerr_rates(self, medium_035):
        """The six-mode table's pump cross-Kerr coefficients are
        ``phasematch``'s Kerr phase rates per unit ``|A_ap|^2``."""
        amp = 0.37
        etas = kerr_etas(medium_035, FIT["gamma"], W_S, W_AP, amp)
        c = _coefficients(self.table_4wm(medium_035, FIT["beta"]))
        for m, eta in zip(("s", "i", "ap"), etas):
            coef = c[m, f"ap ap* {m}"]
            assert coef.real == 0.0
            assert coef.imag * amp**2 == pytest.approx(eta, rel=1e-15)

    def test_shared_processes_match_across_systems(self, medium_035):
        """With the five-mode pump at the six-mode pump's frequency, the
        two systems' signal upconversion and second harmonic are the same
        monomials, bit for bit."""
        c3 = _coefficients(self.table_3wm(medium_035, W_AP))
        c4 = _coefficients(self.table_4wm(medium_035, FIT["beta"]))
        shared = {("s", "s+ip ip*"): ("s", "s+ap ap*"),
                  ("s+ip", "s ip"): ("s+ap", "s ap"),
                  ("ip", "ip* 2ip"): ("ap", "ap* 2ap"),
                  ("2ip", "ip ip"): ("2ap", "ap ap")}
        for t3, t4 in shared.items():
            assert c3[t3] == c4[t4], (t3, c3[t3], c4[t4])
            assert c3[t3] != 0.0

    def test_rotation_terms_carry_loss_and_rates(self, medium_035):
        """The one-factor term of mode m is ``-k_m'' - i theta_m``."""
        table = self.table_4wm(medium_035, FIT["beta"])
        k, _ = _point(medium_035, W_S, W_AP, 6)
        loss = [-kj * medium_035.tan_delta / 2.0 for kj in k]
        assert [c for _, c, f in table.monomials if len(f) == 1] == [
            c - 1j * r for c, r in zip(loss, table.theta)]

    @pytest.mark.parametrize("system", ["4wm", "3wm"])
    @pytest.mark.parametrize("shape", [(), (4,)], ids=["point", "batch"])
    def test_evaluator_sums_the_monomials(self, medium_035, system, shape):
        """``rhs(x, u)`` is the table's monomials summed per mode in
        Python, term by term in table order, to 1e-15 of each mode's scale
        (the sum of its terms' magnitudes): a slot a mode leaves unused
        adds nothing but an exact zero."""
        m = medium_035
        if shape:
            omegas = 2 * math.pi * np.linspace(5e9, 8e9, shape[0])
            if system == "4wm":
                _, _, k, wt, _ = _grid(m, omegas, W_AP)
                table = cme._table_4wm(k, wt, m.tan_delta, FIT["beta"],
                                       FIT["gamma"], True)
            else:
                _, _, k, wt, _ = cme._grid_3wm(m, omegas, W_IP)
                table = cme._table_3wm(k, wt, m.tan_delta, FIT["beta"])
        else:
            table = (self.table_4wm(m, FIT["beta"]) if system == "4wm"
                     else self.table_3wm(m))
        n = len(table.names)
        rng = np.random.default_rng(24)
        u = (rng.normal(size=(n,) + shape)
             + 1j * rng.normal(size=(n,) + shape))
        factors = np.concatenate([u, u.conj()])
        got = cme._TableRhs(table, shape)(0.0, u)
        assert got.shape == u.shape
        for col in np.ndindex(shape):
            total, scale = [0j] * n, [0.0] * n
            for mode, c, fs in table.monomials:
                term = complex(np.broadcast_to(c, shape)[col])
                for f in fs:
                    term *= complex(factors[(f,) + col])
                total[mode] += term
                scale[mode] += abs(term)
            for mode in range(n):
                assert (abs(got[(mode,) + col] - total[mode])
                        <= 1e-15 * scale[mode]), (mode, col)

    @pytest.mark.parametrize("system", ["4wm", "3wm"])
    def test_float_table_on_a_batch_is_the_repeated_array_table(
            self, medium_fit, system):
        """One point's float table run on a batch gives the bytes of the
        array table built from that point repeated over the batch, as
        ``saturation_curve`` builds it: the same evaluation and the same
        run."""
        m, size = medium_fit, 5
        if system == "4wm":
            k, wt = _point(m, W_S, W_AP, 6)

            def table(k, wt):
                return cme._table_4wm(k, wt, m.tan_delta, FIT["beta"],
                                      FIT["gamma"], True)
            w_p = W_AP
        else:
            _, _, k, wt, _ = cme._grid_3wm(m, W_S, W_IP)
            k, wt = k[:, 0].tolist(), wt[:, 0].tolist()

            def table(k, wt):
                return cme._table_3wm(k, wt, m.tan_delta, FIT["beta"])
            w_p = W_IP
        n = len(k)
        floats = table(k, wt)
        arrays = table(np.repeat(np.array(k)[:, None], size, axis=1),
                       np.repeat(np.array(wt)[:, None], size, axis=1))
        rng = np.random.default_rng(36)
        u = (rng.normal(size=(n, size)) + 1j * rng.normal(size=(n, size)))
        assert (cme._TableRhs(floats, (size,))(0.0, u).tobytes()
                == cme._TableRhs(arrays, (size,))(0.0, u).tobytes())
        a_p = amplitude_from_dbm(m, w_p, -76.0)
        a_s = amplitude_from_dbm(m, W_S, np.linspace(-130.0, -90.0, size))
        y0 = cme._initial(n, a_s, a_p)
        runs = [cme._propagate(m, t, y0, None, 1e-10, 2)
                for t in (floats, arrays)]
        assert runs[0].solver_stats == runs[1].solver_stats
        assert runs[0].amplitudes.tobytes() == runs[1].amplitudes.tobytes()

    @pytest.mark.parametrize("variant", ["4wm", "4wm-beta0",
                                         "4wm-no-depletion", "3wm"])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["point", "batch"])
    def test_gather_stays_inside_the_stack(self, medium_035, variant, shape):
        """The evaluator gathers with ``mode="clip"``, which would clamp an
        index past the stack to its last row without a word: every index
        of every table variant must address a row of the stack ``[u, conj
        u, 1]``.  Every monomial fills exactly one slot, the next free one
        of its mode in table order: its coefficient in ``coef``, its
        factors padded with the 1 in ``gather``.  Every other slot has a
        coefficient of exactly 0 and gathers only the 1."""
        m = medium_035
        table = {"4wm": lambda: self.table_4wm(m, FIT["beta"]),
                 "4wm-beta0": lambda: self.table_4wm(m, 0.0),
                 "4wm-no-depletion": lambda: self.table_4wm(m, FIT["beta"],
                                                            False),
                 "3wm": lambda: self.table_3wm(m)}[variant]()
        rhs = cme._TableRhs(table, shape)
        stack, coef, gather = rhs.stack, rhs.coef, rhs.gather
        n, count = len(table.names), len(table.monomials)
        one = 2 * n
        assert stack.shape == (one + 1,) + shape
        assert (stack[one] == 1.0).all()
        width, slots, modes = gather.shape
        assert modes == n
        assert width == max(len(f) for _, _, f in table.monomials)
        assert coef.shape == (slots, n) + shape
        unused = {(k, mode) for k in range(slots) for mode in range(n)}
        for mode, c, factors in table.monomials:
            k = min(k for k, m_ in unused if m_ == mode)
            unused.remove((k, mode))
            assert coef[k, mode].tobytes() == np.broadcast_to(
                np.complex128(c), shape).tobytes()
            pad = (one,) * (width - len(factors))
            assert tuple(gather[:, k, mode]) == (*factors, *pad)
        assert len(unused) == slots * n - count
        for k, mode in unused:
            assert coef[k, mode].tobytes() == np.zeros(
                shape, np.complex128).tobytes()
            assert tuple(gather[:, k, mode]) == (one,) * width
        assert 0 <= gather.min()
        assert gather.max() < len(stack)

def _batch_gain(m, system, omegas):
    """Gain and upconverted fraction (NaN for the six-mode system) of every
    signal frequency in ``omegas``, in any order, from one batched run
    built as the spectra build theirs."""
    if system == "4wm":
        ok, _, k, wt, frequencies = _grid(m, omegas, W_AP)
        assert ok.all()
        table = cme._table_4wm(k, wt, m.tan_delta, FIT["beta"], FIT["gamma"],
                               True)
        n_modes = 6
        a_p = amplitude_from_dbm(m, W_AP, -78.0)
    else:
        ok, _, k, wt, frequencies = cme._grid_3wm(m, omegas, W_IP)
        assert ok.all()
        table = cme._table_3wm(k, wt, m.tan_delta, FIT["beta"])
        n_modes = 5
        a_p = amplitude_from_dbm(m, W_IP, -74.0)
    a_s = amplitude_from_dbm(m, omegas, -130.0)
    traj = cme._propagate(m, table, cme._initial(n_modes, a_s, a_p),
                          frequencies, 1e-10, 2)
    n = traj.photon_flux()
    fraction = ((n[-1, 3] + n[-1, 4]) / n[0, 0] if system == "3wm"
                else np.full(omegas.size, np.nan))
    return np.column_stack([cme._gain_db_from(traj), fraction])


# the rtol of the stiff builds' runs
STIFF_RTOL = 1e-8


def _stiff_build(m, omegas, stiff):
    """A ``_spectrum`` build of gain rows at ``omegas`` at the fitted
    gamma (``beta = 0``), whose row ``stiff`` (None for none) carries a
    pump 3e6 times stronger, about as much Kerr as the absurd coupling of
    test_kernels (``gamma = 1e12``), and raises StepFailure in any
    batch."""
    a_p = amplitude_from_dbm(m, W_AP, -78.0)
    ok, _, k, wt, w = _grid(m, omegas, W_AP)
    assert ok.all()

    def build(rows):
        table = cme._table_4wm(k[:, rows], wt[:, rows], m.tan_delta, 0.0,
                               FIT["gamma"], True)
        y0 = cme._initial(6, np.full(len(rows), 1e-6), a_p)
        y0[1, rows == stiff] *= 3e6
        return table, y0, w[:, rows]

    return build


def _run(m, built):
    """The trajectory of a ``_stiff_build`` table, as ``_spectrum`` runs
    it."""
    return cme._propagate(m, *built, STIFF_RTOL, 2)


class TestBatches:
    """A grid of at least ``cme._BATCH_MIN`` in-band rows integrates as one
    batch: every row takes the step sequence of the hardest, so a row's
    result depends on which rows share its batch, within GATE_DB, but not
    on their order."""

    # batched against per-row runs, measured: 2.0e-9 dB worst on
    # gain_example.cfg's 200 points, 1.9e-9 dB on 16 and 40-point gain
    # grids, 1.3e-10 dB on saturation grids, 2.0e-11 dB on
    # isolation_example.cfg (1.9e-8 dB in the 30 dB isolation dips of the
    # fitted couplings)
    GATE_DB = 1e-8

    @pytest.mark.parametrize("system", ["4wm", "3wm"])
    @settings(max_examples=6, deadline=None, database=None)
    @given(data=st.data())
    def test_row_order_does_not_matter(self, medium_fit, system, data):
        """A permuted batch gives the same rows, bit for bit."""
        f_s = data.draw(st.lists(st.floats(3.0e9, 12.0e9), min_size=2,
                                 max_size=9, unique=True))
        perm = np.array(data.draw(st.permutations(range(len(f_s)))))
        omegas = 2 * math.pi * np.array(f_s)
        rows = _batch_gain(medium_fit, system, omegas)
        permuted = _batch_gain(medium_fit, system, omegas[perm])
        assert permuted.tobytes() == rows[perm].tobytes()

    @pytest.mark.parametrize("system", ["4wm", "3wm"])
    @pytest.mark.parametrize("size", [*range(3, 10), 16])
    def test_row_order_does_not_matter_at_any_size(self, medium_fit, system,
                                                   size):
        """The test above, deterministic, at every batch size from 3 to 9
        and at 16: the grid in its order, reversed and rotated gives the
        same rows, bit for bit.  A sum that rounds a column by its place
        in the batch can break at one size only."""
        omegas = 2 * math.pi * np.linspace(3.0e9, 12.0e9, size)
        rows = _batch_gain(medium_fit, system, omegas)
        order = np.arange(size)
        for perm in (order[::-1], np.roll(order, size // 2)):
            permuted = _batch_gain(medium_fit, system, omegas[perm])
            assert permuted.tobytes() == rows[perm].tobytes()

    @settings(max_examples=4, deadline=None, database=None)
    @given(f_lo=st.floats(3.0e9, 6.0e9), f_hi=st.floats(9.0e9, 12.0e9),
           points=st.integers(8, 14), split=st.integers(4, 8))
    def test_batch_size_moves_rows_within_the_gate(self, medium_fit, f_lo,
                                                   f_hi, points, split):
        """The grid as one batch and as two batches, of its first
        ``split`` rows and of the rest."""
        assume(points - split >= cme._BATCH_MIN)
        pump = ToneConfig(W_AP, -78.0)
        grid = 2 * math.pi * np.linspace(f_lo, f_hi, points)
        whole = gain_spectrum(medium_fit, pump, grid, **FIT)
        parts = [gain_spectrum(medium_fit, pump, g, **FIT)
                 for g in (grid[:split], grid[split:])]
        assert [len(s.solver_stats) for s in [whole, *parts]] == [1, 1, 1]
        np.testing.assert_allclose(
            np.concatenate([s.gain_db for s in parts]), whole.gain_db,
            rtol=0, atol=self.GATE_DB)

    @pytest.mark.parametrize("task", ["gain", "saturation", "isolation"])
    def test_batch_agrees_with_rows(self, medium_fit, monkeypatch, task):
        pump = ToneConfig(W_AP, -78.0)
        grid = 2 * math.pi * np.linspace(2e9, 16.5e9, 16)

        def run():
            if task == "gain":
                spec = gain_spectrum(medium_fit, pump, grid, **FIT)
                return spec.gain_db, spec.solver_stats
            if task == "saturation":
                res = saturation_curve(medium_fit, pump, W_S,
                                       np.linspace(-150.0, -85.0, 14), **FIT)
                return res.gain_db, res.solver_stats
            spec = isolation_spectrum(
                medium_fit, ToneConfig(W_IP, -74.0),
                2 * math.pi * np.linspace(4e9, 9e9, 16), beta=FIT["beta"])
            return (np.concatenate([spec.gain_db, spec.upconverted_fraction]),
                    spec.solver_stats)

        batched, batch_stats = run()
        monkeypatch.setattr(cme, "_BATCH_MIN", 10**9)
        rows, row_stats = run()
        size = len(rows) // (2 if task == "isolation" else 1)
        assert [s["rows"] for s in batch_stats] == [size]
        assert [s["rows"] for s in row_stats] == [1] * size
        assert np.isfinite(rows).all()
        np.testing.assert_allclose(batched, rows, rtol=0, atol=self.GATE_DB)

    @pytest.mark.parametrize("task", ["gain", "saturation", "isolation"])
    def test_rows_below_the_crossover_match_single_points(self, medium_fit,
                                                          task):
        """On a 2-point grid each row runs alone, as a batch of one, and
        agrees with the single-point integrator at its point, step for
        step."""
        m = medium_fit
        w_s = 2 * math.pi * np.array([6.0e9, 7.6e9])
        a_p = amplitude_from_dbm(m, W_AP, -78.0)
        if task == "gain":
            spec = gain_spectrum(m, ToneConfig(W_AP, -78.0), w_s, **FIT)
            a_s = amplitude_from_dbm(m, w_s, -130.0)
            singles = [integrate_4wm(
                m, ModeSet4WM.initial(w, W_AP, a, a_p), FIT["beta"],
                FIT["gamma"], n_samples=2) for w, a in zip(w_s, a_s)]
        elif task == "saturation":
            powers = [-130.0, -90.0]
            spec = saturation_curve(m, ToneConfig(W_AP, -78.0), W_S, powers,
                                    **FIT)
            singles = [integrate_4wm(
                m, ModeSet4WM.initial(W_S, W_AP, amplitude_from_dbm(
                    m, W_S, p), a_p),
                FIT["beta"], FIT["gamma"], n_samples=2) for p in powers]
        else:
            spec = isolation_spectrum(
                m, ToneConfig(W_IP, -74.0), w_s, beta=FIT["beta"])
            a_ip = amplitude_from_dbm(m, W_IP, -74.0)
            a_s = amplitude_from_dbm(m, w_s, -130.0)
            singles = [integrate_3wm(
                m, ModeSet3WM.initial(w, W_IP, a, a_ip), FIT["beta"],
                n_samples=2) for w, a in zip(w_s, a_s)]
        assert [s["rows"] for s in spec.solver_stats] == [1, 1]
        np.testing.assert_allclose(
            spec.gain_db, [cme._gain_db_from(t) for t in singles],
            rtol=0, atol=1e-12)
        for stats, single in zip(spec.solver_stats, singles):
            for key in ("accepted", "rejected"):
                assert stats[key] == single.solver_stats[key], key

    def test_solver_stats_count_the_run(self, medium_fit):
        spec = gain_spectrum(medium_fit, ToneConfig(W_AP, -78.0),
                             2 * math.pi * np.linspace(4e9, 12e9, 9), **FIT)
        [stats] = spec.solver_stats
        assert stats["rows"] == 9
        assert stats["accepted"] > 0 and stats["rejected"] >= 0
        assert stats["rhs_calls"] == 1 + 12 * (stats["accepted"]
                                               + stats["rejected"])
        assert 0.0 < stats["min_step"] < medium_fit.N

    def test_stiff_row_is_a_gap_of_its_own(self, medium_035):
        """A batch with one stiff row (its pump 3e6 times too strong, see
        ``_stiff_build``) raises StepFailure; it splits into rows 0-2, which
        fail again and split, and rows 3-4, below the crossover, so every
        row runs alone, as a batch of one: the stiff row alone is a gap
        and every other row is its own run's value."""
        omegas = 2 * math.pi * np.linspace(6e9, 9e9, 5)
        build = _stiff_build(medium_035, omegas, 2)
        with pytest.raises(StepFailure):
            _run(medium_035, build(np.arange(5)))
        values, failed, runs = cme._spectrum(
            "gain", medium_035, STIFF_RTOL, omegas.size, {}, build,
            lambda traj: (cme._gain_db_from(traj),))
        assert cme._gaps(omegas, failed) == [
            (2, float(omegas[2]), STEP_UNDERFLOW)]
        assert [r["rows"] for r in runs] == [1, 1, 1, 1]
        assert np.isnan(values[2, 0])
        for j in (0, 1, 3, 4):
            assert values[j, 0] == cme._gain_db_from(
                _run(medium_035, build(np.array([j]))))

    def test_failed_batch_splits_in_halves(self, medium_035):
        """On 12 rows with one stiff row only the half, and then the
        quarter, that holds it split further: the other rows finish in
        the batches that did not fail, each row with its batch's value, and
        the stiff row is the only gap."""
        omegas = 2 * math.pi * np.linspace(5e9, 10e9, 12)
        build = _stiff_build(medium_035, omegas, 8)
        values, failed, runs = cme._spectrum(
            "gain", medium_035, STIFF_RTOL, omegas.size, {}, build,
            lambda traj: (cme._gain_db_from(traj),))
        assert cme._gaps(omegas, failed) == [
            (8, float(omegas[8]), STEP_UNDERFLOW)]
        # rows 0-5, then 6 and 7 below the crossover, then 9-11
        batches = [[0, 1, 2, 3, 4, 5], [6], [7], [9, 10, 11]]
        assert [r["rows"] for r in runs] == [len(b) for b in batches]
        for rows in batches:
            assert (values[rows, 0] == cme._gain_db_from(
                _run(medium_035, build(np.array(rows))))).all(), rows

    def test_errors_are_failed_rows(self, medium_035):
        """The rows ``errors`` names come back in the failed map, NaN, and
        the rest integrate as one batch."""
        omegas = 2 * math.pi * np.linspace(6e9, 9e9, 5)
        error = NegativeIdler("named before integrating")
        values, failed, runs = cme._spectrum(
            "gain", medium_035, STIFF_RTOL, omegas.size, {1: error},
            _stiff_build(medium_035, omegas, None),
            lambda traj: (cme._gain_db_from(traj),))
        assert failed == {1: error}
        assert np.isnan(values[1, 0])
        assert np.isfinite(values[[0, 2, 3, 4], 0]).all()
        assert [r["rows"] for r in runs] == [4]

    def test_stiff_batch_rows_are_gaps(self, medium_035):
        """The gain spectrum with the absurd coupling on every row: the
        batch fails and every row is a gap with the stepper's message."""
        grid = 2 * math.pi * np.linspace(7e9, 8e9, 6)
        spec = gain_spectrum(medium_035, ToneConfig(W_AP, -78.0), grid,
                             gamma=1e12, rtol=1e-8)
        assert spec.gaps == [(j, w, STEP_UNDERFLOW)
                             for j, w in enumerate(grid.tolist())]
        assert np.isnan(spec.gain_db).all()
        assert spec.solver_stats == []

    def test_rejected_points_are_gaps_before_the_batch(self, medium_fit):
        """Points outside the model are gaps with the error they raise
        alone, and the rest still integrate as one batch."""
        grid = 2 * math.pi * np.linspace(14e9, 20e9, 7)
        spec = gain_spectrum(medium_fit, ToneConfig(W_AP, -78.0), grid,
                             **FIT)
        _, errors = breakdown_grid(medium_fit, FIT["beta"], FIT["gamma"],
                                   grid, W_AP, -78.0)
        assert [g[0] for g in spec.gaps] == [j for j, _ in errors] != []
        assert [g[2] for g in spec.gaps] == [describe(e) for _, e in errors]
        assert [s["rows"] for s in spec.solver_stats] == [
            grid.size - len(errors)]

    def test_info_log_times_tables_and_integration(self, medium_fit,
                                                   caplog):
        with caplog.at_level(logging.INFO, logger="twpasim.cme"):
            gain_spectrum(medium_fit, ToneConfig(W_AP, -78.0),
                          2 * math.pi * np.linspace(4e9, 12e9, 5), **FIT)
        messages = [r.getMessage() for r in caplog.records]
        assert any(re.fullmatch(r"gain: set up a batch of 5 rows "
                                r"in \d+\.\d{3} s", m) for m in messages)
        assert any(re.fullmatch(r"gain: integrated 5 rows \(runs: 1, "
                                r"steps: \d+\) in \d+\.\d{3} s", m)
                   for m in messages)
