import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from twpasim import (MediumParams, amplitude_from_dbm,
                     linear_transmission_db, loss_wavevector,
                     power_dbm_from_amplitude, wavevector)
from twpasim.errors import AbovePlasmaCutoff, DomainError, describe
from twpasim.medium import band_error, in_band, omega_tilde


class TestWavevector:
    def test_low_frequency_limit(self, medium_zero_flux):
        m = medium_zero_flux
        w = 1e-4 * m.omegaJ
        assert wavevector(m, w) * m.omega0 / w == pytest.approx(1.0, abs=1e-6)

    def test_closed_form_at_omegaJ_over_sqrt2(self, medium_zero_flux):
        m = medium_zero_flux
        w = m.omegaJ / math.sqrt(2.0)
        assert wavevector(m, w) == pytest.approx(math.sqrt(2.0) * w / m.omega0,
                                                 rel=1e-14)

    def test_seven_ghz_fixture(self, medium_zero_flux):
        # direct evaluation with the zero-flux line parameters
        k = wavevector(medium_zero_flux, 2 * math.pi * 7e9)
        assert k == pytest.approx(0.261262941, rel=1e-6)
        assert 0.25 < k < 0.27

    def test_plasma_guard(self, medium_zero_flux):
        m = medium_zero_flux
        with pytest.raises(AbovePlasmaCutoff):
            wavevector(m, 0.98 * m.omegaJ)
        with pytest.raises(AbovePlasmaCutoff):
            wavevector(m, 1.2 * m.omegaJ)
        assert wavevector(m, 0.9799 * m.omegaJ) > 0

    def test_rejects_nonpositive_frequency(self, medium_zero_flux):
        with pytest.raises(ValueError):
            wavevector(medium_zero_flux, 0.0)

    @pytest.mark.parametrize("omega", [0.0, -1e9, math.nan])
    def test_nonpositive_frequency_is_a_domain_error(self, medium_zero_flux,
                                                     omega):
        with pytest.raises(DomainError, match="omega must be positive"):
            wavevector(medium_zero_flux, omega)

    def test_nonpositive_frequency_is_a_grid_gap(self, medium_zero_flux):
        """A grid task masks the points outside the band, as the
        dispersion task does: a negative frequency is a gap with the
        error wavevector raises there, and the other keeps its value."""
        m = medium_zero_flux
        w = 2 * math.pi * 7e9
        grid = np.array([-w, w])
        ok = in_band(m, grid)
        assert ok.tolist() == [False, True]
        assert wavevector(m, grid[ok]).tolist() == [wavevector(m, w)]
        error = band_error(m, grid[0])
        assert isinstance(error, DomainError)
        assert describe(error) == (f"DomainError: omega must be positive, "
                                   f"got {-w}")

    def test_strictly_increasing_and_convex(self, medium_zero_flux):
        m = medium_zero_flux
        w = np.linspace(1e8, 0.97 * m.omegaJ, 400)
        k = np.array([wavevector(m, wi) for wi in w])
        dk = np.diff(k)
        assert np.all(dk > 0)
        assert np.all(np.diff(dk) > 0)


class TestArrays:
    """One formula serves a point and a grid."""

    def test_grid_matches_points(self, medium_zero_flux):
        # bit for bit: Python's x ** 2 would differ from NumPy's in the
        # last bit for about one float in a thousand
        m = medium_zero_flux
        w = 2 * math.pi * np.linspace(0.5e9, 66e9, 10001)
        for fn in (wavevector, omega_tilde, loss_wavevector,
                   linear_transmission_db):
            np.testing.assert_array_equal(fn(m, w),
                                          [fn(m, x) for x in w.tolist()])
        np.testing.assert_allclose(amplitude_from_dbm(m, w, -78.0),
                                   [amplitude_from_dbm(m, x, -78.0)
                                    for x in w], rtol=0, atol=0)

    def test_power_grids_match_points(self, medium_fit):
        """A power grid at one frequency (the saturation sweep's form) and
        a frequency x power grid give each point's float bit for bit."""
        m = medium_fit
        w = 2 * math.pi * np.linspace(2e9, 16.5e9, 41)
        p = np.linspace(-150.0, -20.0, 53)
        np.testing.assert_allclose(
            amplitude_from_dbm(m, w[7].item(), p),
            [amplitude_from_dbm(m, w[7].item(), x) for x in p.tolist()],
            rtol=0, atol=0)
        grid = amplitude_from_dbm(m, w[:, None], p[None, :])
        assert grid.shape == (w.size, p.size)
        np.testing.assert_allclose(
            grid, [[amplitude_from_dbm(m, x, y) for y in p.tolist()]
                   for x in w.tolist()], rtol=0, atol=0)

    def test_band_mask_and_first_error(self, medium_035):
        m = medium_035  # plasma guard at 67.075 GHz
        w = 2 * math.pi * np.array([5e9, 70e9, -1e9, 80e9])
        np.testing.assert_array_equal(in_band(m, w),
                                      [True, False, False, False])
        assert band_error(m, w[0]) is None
        # the first frequency outside the band, in array order
        for order, kind, text in (([0, 1, 2], AbovePlasmaCutoff, "70.000"),
                                  ([0, 2, 1], DomainError, "positive")):
            error = band_error(m, w[order])
            assert type(error) is kind and text in str(error)
            with pytest.raises(kind, match=text):
                wavevector(m, w[order])
        assert str(band_error(m, w[1])) == str(band_error(m, w[1:]))


class TestLoss:
    def test_zero_loss_tangent(self, medium_zero_flux):
        m = MediumParams(omega0=medium_zero_flux.omega0,
                         omegaJ=medium_zero_flux.omegaJ,
                         Z=medium_zero_flux.Z, tan_delta=0.0, N=700)
        assert loss_wavevector(m, 2 * math.pi * 7e9) == 0.0
        assert linear_transmission_db(m, 2 * math.pi * 7e9) == 0.0

    def test_ratio_is_half_loss_tangent(self, medium_zero_flux):
        m = medium_zero_flux
        for f in [3e9, 7e9, 12e9]:
            w = 2 * math.pi * f
            assert loss_wavevector(m, w) / wavevector(m, w) == \
                pytest.approx(m.tan_delta / 2.0, rel=1e-15)

    def test_seven_ghz_transmission_fixture(self, medium_zero_flux):
        # exp(-k tan_delta N / 2) with k = 0.26126 rad/cell over 700 cells
        db = linear_transmission_db(medium_zero_flux, 2 * math.pi * 7e9)
        assert db == pytest.approx(-2.303341, abs=1e-3)

    def test_doubling_cells_doubles_db(self, medium_zero_flux):
        m1 = medium_zero_flux
        m2 = MediumParams(omega0=m1.omega0, omegaJ=m1.omegaJ, Z=m1.Z,
                          tan_delta=m1.tan_delta, N=2 * m1.N)
        w = 2 * math.pi * 5e9
        assert linear_transmission_db(m2, w) == \
            pytest.approx(2 * linear_transmission_db(m1, w), rel=1e-14)

    def test_loss_monotone_in_frequency(self, medium_zero_flux):
        m = medium_zero_flux
        assert linear_transmission_db(m, 2 * math.pi * 8e9) < \
            linear_transmission_db(m, 2 * math.pi * 4e9)

    def test_additive_over_segment_splits(self, medium_zero_flux):
        m = medium_zero_flux
        w = 2 * math.pi * 6e9
        for n1, n2 in [(100, 600), (350, 350), (1, 699)]:
            a = MediumParams(m.omega0, m.omegaJ, m.Z, m.tan_delta, n1)
            b = MediumParams(m.omega0, m.omegaJ, m.Z, m.tan_delta, n2)
            total = MediumParams(m.omega0, m.omegaJ, m.Z, m.tan_delta,
                                 n1 + n2)
            assert linear_transmission_db(a, w) + linear_transmission_db(b, w) \
                == pytest.approx(linear_transmission_db(total, w), abs=1e-12)


class TestAmplitudeConversion:
    def test_round_trip(self, medium_zero_flux):
        m = medium_zero_flux
        w = 2 * math.pi * 9.2e9
        for dbm in [-130.0, -78.0, -50.0]:
            a = amplitude_from_dbm(m, w, dbm)
            assert power_dbm_from_amplitude(m, w, a) == \
                pytest.approx(dbm, abs=1e-10)

    def test_round_trip_at_the_fitted_amp_scale(self, medium_zero_flux):
        """Both directions read the line's calibration, so the inverse
        holds at the paper's ``amp_scale = 1.55`` too."""
        m = dataclasses.replace(medium_zero_flux, amp_scale=1.55)
        w = 2 * math.pi * 9.2e9
        for dbm in [-130.0, -78.0, -50.0]:
            a = amplitude_from_dbm(m, w, dbm)
            assert a == pytest.approx(
                1.55 * amplitude_from_dbm(medium_zero_flux, w, dbm),
                rel=1e-15)
            assert power_dbm_from_amplitude(m, w, a) == \
                pytest.approx(dbm, abs=1e-10)

    def test_amp_scale_is_multiplicative(self, medium_zero_flux):
        m = medium_zero_flux
        w = 2 * math.pi * 9.2e9
        a1 = amplitude_from_dbm(dataclasses.replace(m, amp_scale=1.0), w,
                                -78.0)
        a2 = amplitude_from_dbm(dataclasses.replace(m, amp_scale=2.5), w,
                                -78.0)
        assert a2 == pytest.approx(2.5 * a1, rel=1e-15)

    @pytest.mark.parametrize("scale", [0.0, -1.55, math.inf, math.nan])
    def test_bad_amp_scale_rejected_before_the_power(self, medium_zero_flux,
                                                     scale):
        # the line itself is rejected, before any power is converted
        with pytest.raises(ValueError, match=f"^amp_scale {scale:g} is not "
                                             "finite and positive$"):
            dataclasses.replace(medium_zero_flux, amp_scale=scale)

    def test_six_db_doubles_amplitude(self, medium_zero_flux):
        m = medium_zero_flux
        w = 2 * math.pi * 9.2e9
        a1 = amplitude_from_dbm(m, w, -78.0)
        a2 = amplitude_from_dbm(m, w, -78.0 + 20 * math.log10(2))
        assert a2 == pytest.approx(2 * a1, rel=1e-12)

    @pytest.mark.parametrize("power", [-4000.0, 4000.0, np.float64(4000.0)],
                             ids=["underflow", "overflow", "overflow-numpy"])
    def test_underflowing_power_rejected(self, medium_zero_flux, power):
        # 1e-403 W underflows to 0, which would make every gain 0/0; 1e397 W
        # overflows a Python float with an OverflowError and a NumPy one
        # with a RuntimeWarning (an error under this suite's filter)
        with pytest.raises(ValueError, match=f"power {power:g} dBm"):
            amplitude_from_dbm(medium_zero_flux, 2 * math.pi * 7e9, power)

    def test_array_of_powers_matches_each_power(self, medium_zero_flux):
        """An array of powers gives, bit for bit, the float each power
        gives alone (NumPy's power would round one in twenty apart), and
        a float power still gives a float."""
        m = medium_zero_flux
        w = 2 * math.pi * 7.6e9
        powers = np.linspace(-150.0, -85.0, 27)
        fit = dataclasses.replace(m, amp_scale=1.55)
        amps = amplitude_from_dbm(fit, w, powers)
        assert amps.shape == powers.shape
        assert amps.tolist() == [amplitude_from_dbm(fit, w, p)
                                 for p in powers.tolist()]
        assert type(amplitude_from_dbm(m, w, -130.0)) is float

    def test_array_error_names_the_first_bad_power(self, medium_zero_flux):
        with pytest.raises(ValueError, match="^power -4000 dBm gives the "
                                             "amplitude 0,"):
            amplitude_from_dbm(medium_zero_flux, 2 * math.pi * 7e9,
                               np.array([-130.0, -4000.0, 4000.0]))

    @pytest.mark.parametrize("omega, named", [
        (0.0, "0"), (-2 * math.pi * 7e9, "-4.39823e+10"),
        (math.inf, "inf"), (math.nan, "nan"),
        (np.array([2 * math.pi * 7e9, 0.0, -1.0]), "0"),
    ], ids=["zero", "negative", "inf", "nan", "array-with-zero"])
    def test_non_positive_frequency_rejected(self, medium_zero_flux, omega,
                                             named):
        """The frequency is checked before it divides: no
        ZeroDivisionError, no NumPy warning, and the error names the
        (first) bad frequency, not the power."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^omega {re.escape(named)} "
                                                 "rad/s is not finite and "
                                                 "positive$"):
                amplitude_from_dbm(medium_zero_flux, omega, -130.0)


class TestValidation:
    def test_invalid_medium_rejected(self):
        with pytest.raises(ValueError):
            MediumParams(omega0=2e11, omegaJ=1e11, Z=25.0, tan_delta=0.0,
                         N=700)
        with pytest.raises(ValueError):
            MediumParams(omega0=1e11, omegaJ=2e11, Z=25.0, tan_delta=-0.1,
                         N=700)

    def test_from_cell_carries_amp_scale(self, device_spec, cell_035):
        m = MediumParams.from_cell(device_spec, cell_035, amp_scale=1.55)
        assert m.amp_scale == 1.55
        assert m == dataclasses.replace(
            MediumParams.from_cell(device_spec, cell_035), amp_scale=1.55)
        assert MediumParams.from_cell(device_spec, cell_035).amp_scale == 1.0
