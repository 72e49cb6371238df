import math

import numpy as np
import pytest

from twpasim import (MediumParams, amplitude_from_dbm,
                     linear_transmission_db, loss_wavevector,
                     power_dbm_from_amplitude, wavevector)
from twpasim.errors import AbovePlasmaCutoff


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

    def test_strictly_increasing_and_convex(self, medium_zero_flux):
        m = medium_zero_flux
        w = np.linspace(1e8, 0.97 * m.omegaJ, 400)
        k = np.array([wavevector(m, wi) for wi in w])
        dk = np.diff(k)
        assert np.all(dk > 0)
        assert np.all(np.diff(dk) > 0)


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

    def test_amp_scale_is_multiplicative(self, medium_zero_flux):
        m = medium_zero_flux
        w = 2 * math.pi * 9.2e9
        a1 = amplitude_from_dbm(m, w, -78.0, amp_scale=1.0)
        a2 = amplitude_from_dbm(m, w, -78.0, amp_scale=2.5)
        assert a2 == pytest.approx(2.5 * a1, rel=1e-15)

    def test_six_db_doubles_amplitude(self, medium_zero_flux):
        m = medium_zero_flux
        w = 2 * math.pi * 9.2e9
        a1 = amplitude_from_dbm(m, w, -78.0)
        a2 = amplitude_from_dbm(m, w, -78.0 + 20 * math.log10(2))
        assert a2 == pytest.approx(2 * a1, rel=1e-12)

    def test_underflowing_power_rejected(self, medium_zero_flux):
        # 1e-403 W underflows to 0, which would make every gain 0/0
        with pytest.raises(ValueError, match="power -4000 dBm"):
            amplitude_from_dbm(medium_zero_flux, 2 * math.pi * 7e9, -4000.0)


class TestValidation:
    def test_invalid_medium_rejected(self):
        with pytest.raises(ValueError):
            MediumParams(omega0=2e11, omegaJ=1e11, Z=25.0, tan_delta=0.0,
                         N=700)
        with pytest.raises(ValueError):
            MediumParams(omega0=1e11, omegaJ=2e11, Z=25.0, tan_delta=-0.1,
                         N=700)
