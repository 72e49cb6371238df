import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twpasim import (MediumParams, ToneConfig, amplitude_from_dbm,
                     cell_coefficients, dk_dispersion, dk_total,
                     dynamic_etas, equilibrium_phase, find_matched_pump,
                     kerr_etas, wavevector)
from twpasim.errors import (AbovePlasmaCutoff, NegativeIdler, NotFound,
                            SmallDenominator, TwpaError, describe)
from twpasim.medium import in_band, omega_tilde
from twpasim.phasematch import (EPSILON_DK, _frequencies, _illinois,
                                _point, _point_error,
                                attenuated_pump_amplitude,
                                breakdown_grid, eta_mode_dynamic,
                                eta_pump_dynamic)

W_S = 2 * math.pi * 7e9
W_AP = 2 * math.pi * 9.2e9


class TestDkDispersion:
    def test_degenerate_point_is_zero(self, medium_zero_flux):
        assert dk_dispersion(medium_zero_flux, W_AP, W_AP) == 0.0

    def test_linear_dispersion_cancels(self):
        w0 = 2 * math.pi * 27e9
        flat = MediumParams(omega0=w0, omegaJ=1e6 * w0, Z=25.0,
                            tan_delta=0.0, N=700)
        for ws_ghz in [3.0, 7.0, 8.9]:
            dk = dk_dispersion(flat, 2 * math.pi * ws_ghz * 1e9, W_AP)
            assert abs(dk) < 1e-12

    def test_sign_and_magnitude_at_seven_ghz(self, medium_035):
        dk = dk_dispersion(medium_035, W_S, W_AP)
        assert dk < 0  # convex dispersion near the plasma cutoff
        # direct evaluation: 2 k(9.2) - k(7) - k(11.4)
        expected = (2 * wavevector(medium_035, W_AP)
                    - wavevector(medium_035, W_S)
                    - wavevector(medium_035, 2 * W_AP - W_S))
        assert dk == expected
        assert dk == pytest.approx(-0.001167025, rel=1e-5)  # frozen

    def test_negative_idler(self, medium_zero_flux):
        with pytest.raises(NegativeIdler):
            dk_dispersion(medium_zero_flux, 2.1 * W_AP, W_AP)

    def test_plasma_guard_propagates(self, medium_035):
        # idler at 2*34.5 - 1 = 68 GHz exceeds 0.98 * 68.4 GHz
        with pytest.raises(AbovePlasmaCutoff):
            dk_dispersion(medium_035, 2 * math.pi * 1e9,
                          2 * math.pi * 34.5e9)


class TestKerrEtas:
    def test_zero_pump_gives_zeros(self, medium_035):
        assert kerr_etas(medium_035, 0.05, W_S, W_AP, 0.0) == (0.0, 0.0, 0.0)

    def test_quadratic_scaling_is_exact(self, medium_035):
        e1 = kerr_etas(medium_035, 0.05, W_S, W_AP, 0.7)
        e2 = kerr_etas(medium_035, 0.05, W_S, W_AP, 1.4)
        for a, b in zip(e1, e2):
            assert b == pytest.approx(4.0 * a, rel=1e-9)

    def test_degenerate_hand_evaluation(self, medium_035):
        # at omega_s = omega_ap: eta_s = eta_i = 2 eta_ap exactly, so the
        # Kerr mismatch collapses to -2 eta_ap = -(6 gamma/8 wt) k^3 |A|^2
        m = medium_035
        gamma, amp = 0.04, 1.3
        eta_s, eta_i, eta_ap = kerr_etas(m, gamma, W_AP, W_AP, amp)
        k = wavevector(m, W_AP)
        wt = 1 - (W_AP / m.omegaJ) ** 2
        expected_ap = 3 * gamma / (8 * wt) * k**3 * amp**2
        assert eta_ap == pytest.approx(expected_ap, rel=1e-14)
        assert eta_s == pytest.approx(2 * expected_ap, rel=1e-14)
        assert eta_i == pytest.approx(2 * expected_ap, rel=1e-14)
        dk_kerr = 2 * eta_ap - eta_s - eta_i
        assert dk_kerr == pytest.approx(-2 * expected_ap, rel=1e-14)


    @pytest.mark.parametrize("amp", [-0.5, math.nan])
    def test_rejects_negative_or_nan_amplitude(self, medium_035, amp):
        with pytest.raises(ValueError, match="pump_amp must be >= 0"):
            kerr_etas(medium_035, 0.05, W_S, W_AP, amp)


class TestDynamicEtas:
    @pytest.mark.parametrize("amp", [-0.5, math.nan])
    def test_rejects_negative_or_nan_amplitude(self, medium_035, amp):
        with pytest.raises(ValueError, match="pump_amp must be >= 0"):
            dynamic_etas(medium_035, 0.05, W_S, W_AP, amp)

    def test_zero_beta_gives_zeros(self, medium_035):
        de = dynamic_etas(medium_035, 0.0, W_S, W_AP, 1.0)
        assert (de.eta_ap_dyn, de.eta_s_dyn, de.eta_i_dyn) == (0.0, 0.0, 0.0)

    def test_zero_pump_gives_zeros(self, medium_035):
        de = dynamic_etas(medium_035, 0.05, W_S, W_AP, 0.0)
        assert (de.eta_ap_dyn, de.eta_s_dyn, de.eta_i_dyn) == (0.0, 0.0, 0.0)

    def test_quadratic_scaling_is_exact(self, medium_035):
        d1 = dynamic_etas(medium_035, 0.05, W_S, W_AP, 0.6)
        d2 = dynamic_etas(medium_035, 0.05, W_S, W_AP, 1.2)
        assert d2.eta_ap_dyn == pytest.approx(4 * d1.eta_ap_dyn, rel=1e-9)
        assert d2.eta_s_dyn == pytest.approx(4 * d1.eta_s_dyn, rel=1e-9)
        assert d2.eta_i_dyn == pytest.approx(4 * d1.eta_i_dyn, rel=1e-9)

    def test_pump_eta_sign_follows_mismatch_sign(self):
        # formula-level check with synthetic wavevectors
        args = dict(beta=0.05, k_ap=0.36, k_2ap=0.75, wt_ap=0.98,
                    wt_2ap=0.93, pump_amp_sq=2.0)
        plus = eta_pump_dynamic(dk_2ap=+0.02, **args)
        minus = eta_pump_dynamic(dk_2ap=-0.02, **args)
        assert plus > 0 and minus < 0
        assert plus == pytest.approx(-minus, rel=1e-15)

    def test_mode_eta_sign_follows_mismatch_sign(self):
        args = dict(beta=0.05, k_ap=0.36, k_m=0.27, k_up=0.65, wt_m=0.99,
                    wt_up=0.94, pump_amp_sq=2.0)
        assert eta_mode_dynamic(dk_up=+0.015, **args) > 0
        assert eta_mode_dynamic(dk_up=-0.015, **args) < 0

    def test_small_denominator_raises(self, medium_035):
        with pytest.raises(SmallDenominator):
            dynamic_etas(medium_035, 0.05, W_S, W_AP, 1.0, epsilon_dk=0.1)

    def test_validity_flag(self, medium_035):
        weak = dynamic_etas(medium_035, 0.03, W_S, W_AP, 0.3)
        assert weak.valid
        strong = dynamic_etas(medium_035, 0.3, W_S, W_AP, 3.0)
        assert not strong.valid

    def test_validity_pairs_each_rate_with_its_process(self, medium_035):
        """``valid`` holds while each rate is ten times below the mismatch
        of the process that drives it: the pump's of 2ap, the signal's of
        s+ap, the idler's of i+ap.  Over a sweep of pump amplitudes that
        crosses the limit, the flag is that conjunction at every point."""
        k = [wavevector(medium_035, w)
             for w in (W_S, W_AP, 2 * W_AP - W_S, 2 * W_AP, W_S + W_AP,
                       3 * W_AP - W_S)]
        dk_2ap, dk_su, dk_iu = (2 * k[1] - k[3], k[1] + k[0] - k[4],
                                k[1] + k[2] - k[5])
        flags = []
        for amp in np.geomspace(0.1, 10.0, 200):
            eta = dynamic_etas(medium_035, 0.1, W_S, W_AP, amp)
            expected = (abs(dk_2ap) > 10 * abs(eta.eta_ap_dyn)
                        and abs(dk_su) > 10 * abs(eta.eta_s_dyn)
                        and abs(dk_iu) > 10 * abs(eta.eta_i_dyn))
            assert eta.valid == expected, amp
            flags.append(expected)
        assert flags[0] and not flags[-1]


class TestDkTotal:
    def test_exact_additivity(self, medium_035):
        bd = dk_total(medium_035, 0.08, 0.05,
                      ToneConfig(W_S, -130.0), ToneConfig(W_AP, -78.0))
        assert bd.dk_total == bd.dk_dispersion + bd.dk_kerr + bd.dk_dynamic

    def test_all_zero_in_trivial_limit(self):
        # linear dispersion, no loss, no couplings: every component is zero
        w0 = 2 * math.pi * 27e9
        m = MediumParams(omega0=w0, omegaJ=1e6 * w0, Z=25.0, tan_delta=0.0,
                         N=700)
        bd = dk_total(m, 0.0, 0.0, ToneConfig(W_S, -130.0),
                      ToneConfig(W_AP, -78.0))
        assert abs(bd.dk_dispersion) < 1e-12
        assert bd.dk_kerr == 0.0
        assert bd.dk_dynamic == 0.0
        assert abs(bd.dk_total) < 1e-12

    def test_vanishing_pump_leaves_dispersion(self, medium_035):
        weak = dk_total(medium_035, 0.08, 0.05, ToneConfig(W_S, -130.0),
                        ToneConfig(W_AP, -200.0))
        assert abs(weak.dk_kerr) < 1e-9
        assert abs(weak.dk_dynamic) < 1e-9
        assert weak.dk_total == pytest.approx(
            dk_dispersion(medium_035, W_S, W_AP), abs=1e-9)

    def test_signal_idler_exchange_symmetry(self, medium_035):
        w_i = 2 * W_AP - W_S
        a = dk_total(medium_035, 0.08, 0.05, ToneConfig(W_S, -130.0),
                     ToneConfig(W_AP, -78.0))
        b = dk_total(medium_035, 0.08, 0.05, ToneConfig(w_i, -130.0),
                     ToneConfig(W_AP, -78.0))
        assert a.dk_dispersion == pytest.approx(b.dk_dispersion, abs=1e-15)
        assert a.dk_kerr == pytest.approx(b.dk_kerr, abs=1e-15)
        assert a.dk_dynamic == pytest.approx(b.dk_dynamic, abs=1e-15)

    def test_pump_attenuation_factor(self, medium_035):
        m = medium_035
        pump = ToneConfig(W_AP, -78.0)
        a0 = amplitude_from_dbm(m, W_AP, -78.0)
        expected = a0 * math.exp(-wavevector(m, W_AP) * m.tan_delta
                                 * m.N / 4.0)
        assert attenuated_pump_amplitude(m, pump) == \
            pytest.approx(expected, rel=1e-15)

    def test_quadratic_power_scaling(self, medium_035):
        p1 = dk_total(medium_035, 0.08, 0.05, ToneConfig(W_S, -130.0),
                      ToneConfig(W_AP, -84.0))
        p2 = dk_total(medium_035, 0.08, 0.05, ToneConfig(W_S, -130.0),
                      ToneConfig(W_AP, -84.0 + 20 * math.log10(2)))
        assert p2.dk_kerr == pytest.approx(4 * p1.dk_kerr, rel=1e-9)
        assert p2.dk_dynamic == pytest.approx(4 * p1.dk_dynamic, rel=1e-9)


class TestFindMatchedPump:
    BAND = (2 * math.pi * 8.5e9, 2 * math.pi * 10.5e9)
    # the fitted couplings; the fitted amp_scale is the medium_fit line's
    FIT = dict(beta=0.104388, gamma=0.122339)

    def objective(self, m, w_ap):
        bd = dk_total(m, self.FIT["beta"], self.FIT["gamma"],
                      ToneConfig(W_S, -200.0), ToneConfig(w_ap, -78.0))
        return abs(bd.dk_total)

    def test_minimizer_beats_band_edges(self, medium_fit):
        w, dk = find_matched_pump(medium_fit, self.FIT["beta"],
                                  self.FIT["gamma"], W_S, -78.0, self.BAND)
        assert dk <= self.objective(medium_fit, self.BAND[0] * 1.0001)
        assert dk <= self.objective(medium_fit, self.BAND[1] * 0.9999)

    def test_stable_under_grid_refinement(self, medium_fit):
        w1, _ = find_matched_pump(medium_fit, self.FIT["beta"],
                                  self.FIT["gamma"], W_S, -78.0, self.BAND,
                                  grid_points=61)
        w2, _ = find_matched_pump(medium_fit, self.FIT["beta"],
                                  self.FIT["gamma"], W_S, -78.0, self.BAND,
                                  grid_points=481)
        step = (self.BAND[1] - self.BAND[0]) / 60
        assert abs(w1 - w2) < step

    def test_matched_pump_lands_above_signal(self, medium_fit):
        w, dk = find_matched_pump(medium_fit, self.FIT["beta"],
                                  self.FIT["gamma"], W_S, -78.0, self.BAND)
        f_ghz = w / (2 * math.pi) / 1e9
        assert 9.0 <= f_ghz <= 10.0
        assert dk < 1e-6

    # find_matched_pump with the device couplings at -78 dBm over
    # (f_s + 0.5 GHz, 16 GHz): (flux, f_s, omega_ap, omega_ap_sq,
    # omega_ap_abs), the root of dk_total, and beside it the two earlier
    # searches, Brent's bounded minimization of dk_total**2 and, before it,
    # of |dk_total| when every grid point was a separate dk_total call
    PINNED = [(0.25, 4.0e9, 38602639061.33201, 38602639349.6058,
               38602639206.136284),
              (0.35, 6.0e9, 49094718224.44433, 49094717985.75541,
               49094718425.28586),
              (0.40, 7.5e9, 56327464274.47044, 56327464277.177086,
               56327464679.60012),
              (0.45, 5.0e9, 40927766742.52479, 40927766736.998245,
               40927766814.68323)]
    # each case keeps the name it had before the re-records
    PINNED_IDS = [f"{case[0]}-{case[1]}-{case[-1]}" for case in PINNED]

    @staticmethod
    def _search(spec, flux, f_s):
        c = cell_coefficients(spec, equilibrium_phase(spec, flux))
        m = MediumParams.from_cell(spec, c)
        w, dk = find_matched_pump(m, c.beta, c.gamma, 2 * math.pi * f_s,
                                  -78.0, (2 * math.pi * (f_s + 0.5e9),
                                          2 * math.pi * 16e9))
        return m, c, w, dk

    @pytest.mark.parametrize("flux, f_s, omega_ap, omega_ap_sq, omega_ap_abs",
                             PINNED, ids=PINNED_IDS)
    def test_pinned_matched_pumps(self, device_spec, flux, f_s, omega_ap,
                                  omega_ap_sq, omega_ap_abs):
        _, _, w, dk = self._search(device_spec, flux, f_s)
        assert w == pytest.approx(omega_ap, rel=1e-9)
        # the minimizations stopped within Brent's tolerance of the root,
        # sqrt(eps) |x| + xatol / 3, about 1.5e-8 |x|; they are within
        # 7.5e-9 |x| of it
        for earlier in (omega_ap_sq, omega_ap_abs):
            assert abs(w - earlier) < 1e-8 * earlier
        assert dk < 1e-15

    @pytest.mark.parametrize("flux, f_s, omega_ap, omega_ap_sq, omega_ap_abs",
                             PINNED, ids=PINNED_IDS)
    def test_dk_total_changes_sign_at_the_match(self, device_spec, flux, f_s,
                                                omega_ap, omega_ap_sq,
                                                omega_ap_abs):
        m, c, w, _ = self._search(device_spec, flux, f_s)
        dk = [dk_total(m, c.beta, c.gamma, ToneConfig(2 * math.pi * f_s,
                                                      -200.0),
                       ToneConfig(w * (1.0 + side), -78.0)).dk_total
              for side in (-3e-8, 3e-8)]
        assert dk[0] * dk[1] < 0.0

    @staticmethod
    def _count_dk_point(monkeypatch):
        import twpasim.phasematch as pm

        calls = []
        dk_point = pm._dk_point

        def counting(*args):
            calls.append(args)
            return dk_point(*args)

        monkeypatch.setattr(pm, "_dk_point", counting)
        return calls

    @pytest.mark.parametrize("flux, f_s, omega_ap, omega_ap_sq, omega_ap_abs",
                             PINNED, ids=PINNED_IDS)
    def test_search_takes_at_most_ten_objective_calls(
            self, device_spec, monkeypatch, flux, f_s, omega_ap,
            omega_ap_sq, omega_ap_abs):
        # 5-6 here; Brent's minimization of dk_total**2 took 8, of
        # |dk_total| 13-21
        calls = self._count_dk_point(monkeypatch)
        self._search(device_spec, flux, f_s)
        assert 0 < len(calls) <= 10

    @pytest.mark.parametrize("grid_points", [1, 0])
    def test_grid_of_fewer_than_two_points_rejected(self, medium_035,
                                                    grid_points):
        # one point is the band edge, which cannot bracket a zero
        with pytest.raises(ValueError, match="grid_points must be >= 2"):
            find_matched_pump(medium_035, 0.0, 0.0, W_S, -78.0, self.BAND,
                              grid_points=grid_points)

    @pytest.mark.parametrize("band", [(W_AP, math.inf), (W_AP, W_AP),
                                      (0.0, W_AP)])
    def test_band_must_be_finite_and_increasing(self, medium_035, band):
        with pytest.raises(ValueError, match="search band"):
            find_matched_pump(medium_035, 0.0, 0.0, W_S, -78.0, band)

    # beta = gamma = 0: dk_total = dk_dispersion, below -4e-3 rad/cell and
    # without a sign change over the band
    NO_ZERO_BAND = (2 * math.pi * 11e9, 2 * math.pi * 12e9)

    def test_not_found_when_threshold_tight(self, medium_zero_flux):
        with pytest.raises(NotFound):
            find_matched_pump(medium_zero_flux, 0.0, 0.0, W_S, -78.0,
                              self.NO_ZERO_BAND, threshold=1e-9)

    def test_no_sign_change_returns_the_best_grid_point(
            self, medium_zero_flux, monkeypatch):
        calls = self._count_dk_point(monkeypatch)
        grid = np.linspace(*self.NO_ZERO_BAND, 241)
        values, _ = breakdown_grid(medium_zero_flux, 0.0, 0.0, W_S, grid,
                                   -78.0)
        ibest = int(np.argmin(np.abs(values[:, 3])))
        w, dk = find_matched_pump(medium_zero_flux, 0.0, 0.0, W_S, -78.0,
                                  self.NO_ZERO_BAND, threshold=1e-2)
        assert (w, dk) == (float(grid[ibest]), abs(float(values[ibest, 3])))
        assert calls == []
        # the same band under the default threshold of 1e-3 rad/cell
        with pytest.raises(NotFound, match="exceeds threshold"):
            find_matched_pump(medium_zero_flux, 0.0, 0.0, W_S, -78.0,
                              self.NO_ZERO_BAND)

    def test_exact_zero_on_the_grid_is_the_answer(self, medium_fit,
                                                  monkeypatch):
        import twpasim.phasematch as pm

        def grid_with_a_zero(m, beta, gamma, omega_s, omega_ap, *args):
            values, errors = breakdown_grid(m, beta, gamma, omega_s,
                                            omega_ap, *args)
            values[17, 3] = 0.0
            return values, errors

        monkeypatch.setattr(pm, "breakdown_grid", grid_with_a_zero)
        calls = self._count_dk_point(monkeypatch)
        w, dk = find_matched_pump(medium_fit, self.FIT["beta"],
                                  self.FIT["gamma"], W_S, -78.0, self.BAND)
        assert (w, dk) == (float(np.linspace(*self.BAND, 241)[17]), 0.0)
        assert calls == []

    def _grid_best(self, medium, grid_points):
        grid = np.linspace(*self.BAND, grid_points)
        values, _ = breakdown_grid(medium, self.FIT["beta"],
                                   self.FIT["gamma"], W_S, grid, -78.0)
        ibest = int(np.argmin(np.abs(values[:, 3])))
        return float(grid[ibest]), abs(float(values[ibest, 3]))

    def test_grid_point_kept_when_refinement_ends_worse(self, medium_fit,
                                                        monkeypatch):
        """A root solve that ends above the best grid point's |dk_total|
        is discarded: the grid point and its |dk_total| come back."""
        best = self._grid_best(medium_fit, 61)
        solves = []

        def worse(f, a, fa, b, fb, xtol):
            solves.append((a, b))
            return a, 2.0 * best[1] + 1e-3

        monkeypatch.setattr("twpasim.phasematch._illinois", worse)
        w, dk = find_matched_pump(medium_fit, self.FIT["beta"],
                                  self.FIT["gamma"], W_S, -78.0, self.BAND,
                                  grid_points=61)
        assert len(solves) == 1
        assert (w, dk) == best

    def test_domain_error_in_the_bracket_returns_the_grid_point(
            self, medium_fit, monkeypatch):
        import twpasim.phasematch as pm

        def small(*args):
            raise SmallDenominator("inside the bracket")

        monkeypatch.setattr(pm, "_dk_point", small)
        assert find_matched_pump(
            medium_fit, self.FIT["beta"], self.FIT["gamma"], W_S, -78.0,
            self.BAND) == self._grid_best(medium_fit, 241)

    def test_programming_error_propagates(self, medium_fit, monkeypatch):
        """Only domain errors end the root solve; a TypeError in dk_total
        is a bug and must not fall back to the grid point."""
        import twpasim.phasematch as pm

        def broken(*args, **kwargs):
            raise TypeError("bug in the objective")

        monkeypatch.setattr(pm, "_dk_point", broken)
        with pytest.raises(TypeError, match="bug in the objective"):
            find_matched_pump(medium_fit, self.FIT["beta"],
                              self.FIT["gamma"], W_S, -78.0, self.BAND)


class TestIllinois:
    """The bracketed root solve against its oracle, scipy's ``brentq`` on
    the same bracket: the same zero to within the tolerance, every call
    inside the bracket, and never more calls than the cap."""

    @staticmethod
    def _compare(f, a, b, xtol, maxfun=60):
        from scipy.optimize import brentq

        calls = []

        def spy(x):
            calls.append(x)
            return f(x)

        x, fx = _illinois(spy, a, f(a), b, f(b), xtol, maxfun)
        assert all(a <= c <= b for c in calls)
        assert len(calls) <= maxfun
        assert fx == f(x)
        # brentq stops within 1e-3 xtol + 4 eps |root| of the zero
        root = brentq(f, a, b, xtol=1e-3 * xtol)
        if len(calls) < maxfun:  # it stopped on the tolerance
            assert abs(x - root) <= 1.001 * xtol + 1e-15 * abs(root)
        return x, calls

    @pytest.mark.parametrize("flux, f_s, omega_ap, omega_ap_sq, omega_ap_abs",
                             TestFindMatchedPump.PINNED,
                             ids=TestFindMatchedPump.PINNED_IDS)
    def test_pinned_matched_pump_roots(self, device_spec, monkeypatch,
                                       flux, f_s, omega_ap, omega_ap_sq,
                                       omega_ap_abs):
        solves = []

        def recording(f, a, fa, b, fb, xtol):
            # the ends are neighbouring grid points, their values from
            # the grid pass
            assert (fa, fb) == (f(a), f(b)) and fa * fb < 0.0
            assert b - a == pytest.approx(xtol * 1e9 / 240, rel=1e-9)
            x, calls = self._compare(f, a, b, xtol)
            solves.append((x, len(calls)))
            return x, f(x)

        monkeypatch.setattr("twpasim.phasematch._illinois", recording)
        _, _, w, _ = TestFindMatchedPump._search(device_spec, flux, f_s)
        [(x, n)] = solves
        assert w == x and n <= 10

    @settings(max_examples=80, deadline=None)
    @given(a=st.floats(-100.0, 100.0), width=st.floats(1e-3, 100.0),
           centre=st.floats(0.001, 0.999), cubic=st.floats(0.0, 1e3),
           wiggle=st.floats(0.0, 0.9), freq=st.floats(0.1, 50.0),
           convex=st.floats(0.0, 20.0), sign=st.sampled_from([1.0, -1.0]),
           log_xtol=st.floats(-9.0, -1.0))
    def test_smooth_objectives(self, a, width, centre, cubic, wiggle, freq,
                               convex, sign, log_xtol):
        # strictly monotonic in u = (x - x0) / width, so the zero x0 is
        # the only one in the bracket; `convex` bends it, where plain
        # regula falsi would keep one end for ever
        b = a + width
        x0 = a + centre * width

        def f(x):
            u = (x - x0) / width
            return sign * (u + cubic * u**3 + wiggle * math.sin(freq * u)
                           / freq + math.expm1(convex * u) / max(convex, 1))

        _, calls = self._compare(f, a, b, width * 10.0 ** log_xtol)
        assert len(calls) < 60

    @settings(max_examples=60, deadline=None)
    @given(centre=st.floats(0.001, 0.999), low=st.floats(-10.0, -1e-3),
           high=st.floats(1e-3, 10.0), log_xtol=st.floats(-9.0, -1.0),
           maxfun=st.integers(1, 60))
    def test_stepped_objectives_and_call_budgets(self, centre, low, high,
                                                 log_xtol, maxfun):
        # a jump from `low` to `high` at `centre`: the zero crossing
        # without a zero, which brentq also returns
        def f(x):
            return low if x < centre else high

        self._compare(f, 0.0, 1.0, 10.0 ** log_xtol, maxfun)

    @pytest.mark.parametrize("call", [1, 2, 3, 4])
    def test_error_inside_the_bracket_propagates(self, call):
        # find_matched_pump turns a TwpaError into its grid point
        def g(x):
            return math.expm1(5.0 * (x - 0.3))

        calls = []

        def f(x):
            calls.append(x)
            if len(calls) == call:
                raise SmallDenominator("inside the bracket")
            return g(x)

        with pytest.raises(SmallDenominator, match="inside the bracket"):
            _illinois(f, 0.0, g(0.0), 1.0, g(1.0), 1e-12)
        assert len(calls) == call and 0.0 < calls[-1] < 1.0

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_zero_at_a_bracket_edge(self, slope):
        # a zero on an end: the secant lands on it and stops
        edge = 2.0 if slope > 0 else 3.0
        x, calls = self._compare(lambda x: slope * (x - edge), 2.0, 3.0,
                                 1e-9)
        assert x == edge and calls == [edge]


# (signal, pump) frequencies in GHz for medium_035, whose plasma guard is
# at 67.1 GHz: every mode inside the band; the pump above the guard; a
# zero or negative idler; a mode guard (2ap, s+ap or i+ap above 67 GHz,
# or the signal or the idler); a NaN frequency
_POINT_GHZ = st.one_of(
    st.tuples(st.floats(1.0, 10.0), st.floats(10.0, 20.0)),
    st.tuples(st.floats(1.0, 60.0), st.floats(67.2, 200.0)),
    st.floats(1.0, 30.0).flatmap(
        lambda ap: st.tuples(st.floats(2 * ap, 2 * ap + 20.0), st.just(ap))),
    st.tuples(st.floats(1.0, 140.0), st.floats(20.0, 67.0)),
    st.tuples(st.just(math.nan), st.floats(1.0, 20.0)),
    st.tuples(st.floats(1.0, 20.0), st.just(math.nan)))


class TestPoint:
    """The one-point modes against the checked array path."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(ghz=_POINT_GHZ, n_modes=st.sampled_from([3, 6]))
    def test_matches_array_path(self, medium_035, ghz, n_modes):
        m = medium_035
        omega_s, omega_ap = (2 * math.pi * 1e9 * f for f in ghz)
        w = np.array(_frequencies(omega_s, omega_ap)[:n_modes])
        if in_band(m, w).all():
            k, wt = _point(m, omega_s, omega_ap, n_modes)
            # bit for bit, and Python floats
            assert [x.hex() for x in k] == [
                x.hex() for x in wavevector(m, w).tolist()]
            assert [x.hex() for x in wt] == [
                x.hex() for x in omega_tilde(m, w).tolist()]
        else:
            expected = _point_error(m, w)
            with pytest.raises(type(expected)) as info:
                _point(m, omega_s, omega_ap, n_modes)
            assert describe(info.value) == describe(expected)


def _one_point_rows(m, beta, gamma, omega_s, omega_ap, p_dbm, epsilon_dk):
    """dk_total at every point of a broadcast grid: (values, gaps)."""
    values, gaps = [], []
    for j, (ws, wp) in enumerate(np.broadcast(omega_s, omega_ap)):
        try:
            bd = dk_total(m, beta, gamma, ToneConfig(ws, -200.0),
                          ToneConfig(wp, p_dbm), epsilon_dk)
            values.append([bd.dk_dispersion, bd.dk_kerr, bd.dk_dynamic,
                           bd.dk_total])
        except TwpaError as exc:
            values.append([math.nan] * 4)
            gaps.append((j, describe(exc)))
    return np.array(values), gaps


class TestBreakdownGrid:
    """The one-pass grid against the one-point dk_total, point by point."""

    GHZ = 2 * math.pi * 1e9
    # (swept axis, the other tone's frequency, swept band), all in GHz;
    # the plasma guard is at 67.1 GHz.  A 30 GHz pump puts the s+ap and
    # i+ap guards and the negative idler on the signal grid; a 45 GHz pump
    # the signal guard (above 67 GHz) with 2ap-guard rows below it; the
    # paper pump, with epsilon_dk up to 3e-2, SmallDenominator rows; a
    # pump sweep at a 6 GHz signal the pump guard, the idler guard and
    # the negative idler
    SCENARIOS = [("signal", 30.0, (10.0, 70.0)),
                 ("signal", 45.0, (60.0, 75.0)),
                 ("signal", 9.2, (2.0, 16.5)),
                 ("pump", 6.0, (2.0, 70.0))]

    def grid(self, axis, fixed, band, n, shift=0.0):
        swept = self.GHZ * np.linspace(band[0] + shift, band[1] + shift, n)
        fixed = self.GHZ * (fixed + shift / 4)
        return (swept, fixed) if axis == "signal" else (fixed, swept)

    @settings(max_examples=80, deadline=None, database=None)
    @given(scenario=st.sampled_from(SCENARIOS),
           shift=st.floats(-1.0, 1.0), n=st.integers(1, 60),
           beta=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
           gamma=st.floats(0.0, 0.3), p_dbm=st.floats(-95.0, -70.0),
           amp_scale=st.floats(0.5, 2.0),
           epsilon_dk=st.one_of(st.just(EPSILON_DK),
                                st.floats(1e-4, 3e-2)))
    def test_matches_one_point_path(self, medium_035, scenario, shift, n,
                                    beta, gamma, p_dbm, amp_scale,
                                    epsilon_dk):
        omega_s, omega_ap = self.grid(*scenario, n, shift)
        m = dataclasses.replace(medium_035, amp_scale=amp_scale)
        args = (m, beta, gamma, omega_s, omega_ap, p_dbm, epsilon_dk)
        values, errors = breakdown_grid(*args)
        expected, gaps = _one_point_rows(*args)
        assert [(j, describe(exc)) for j, exc in errors] == gaps
        assert np.array_equal(np.isnan(values), np.isnan(expected))
        finite = ~np.isnan(expected)
        scale = np.max(np.abs(np.where(finite, expected, 0.0)), axis=0)
        assert np.all(np.abs(values - expected)[finite]
                      <= np.broadcast_to(1e-12 * scale, finite.shape)[finite])

    @pytest.mark.parametrize("axis, fixed, swept, message", [
        ("signal", 30.0, 38.0, "AbovePlasmaCutoff: omega/2pi = 68.000 GHz"),
        ("signal", 30.0, 20.0, "AbovePlasmaCutoff: omega/2pi = 70.000 GHz"),
        ("signal", 30.0, 61.0, "NegativeIdler: "),
        ("signal", 45.0, 68.0, "AbovePlasmaCutoff: omega/2pi = 68.000 GHz"),
        ("signal", 45.0, 62.0, "AbovePlasmaCutoff: omega/2pi = 90.000 GHz"),
        ("pump", 6.0, 68.0, "AbovePlasmaCutoff: omega/2pi = 68.000 GHz"),
        ("pump", 6.0, 40.0, "AbovePlasmaCutoff: omega/2pi = 74.000 GHz"),
        ("pump", 6.0, 2.5, "NegativeIdler: "),
        ("signal", 9.2, 2.0, "SmallDenominator: |dk_s+ap| = 0.00265 "),
        ("signal", 9.2, 16.5, "SmallDenominator: |dk_i+ap| = 0.0025 "),
    ])
    def test_gap_names_the_first_failing_check(self, medium_035, axis,
                                                fixed, swept, message):
        """A failing row says what the one-point path raises: the pump
        guard, then a negative idler, then the signal, idler, 2ap, s+ap
        and i+ap guards, then SmallDenominator."""
        omega_s, omega_ap = self.grid(axis, fixed, (swept, 50.0), 2)
        values, errors = breakdown_grid(medium_035, 0.1, 0.1, omega_s,
                                        omega_ap, -78.0, epsilon_dk=3e-3)
        assert errors[0][0] == 0 and np.all(np.isnan(values[0]))
        assert describe(errors[0][1]).startswith(message)
        with pytest.raises(TwpaError) as info:
            dk_total(medium_035, 0.1, 0.1,
                     ToneConfig(np.ravel(omega_s)[0], -200.0),
                     ToneConfig(np.ravel(omega_ap)[0], -78.0),
                     epsilon_dk=3e-3)
        assert describe(info.value) == describe(errors[0][1])

    def test_unrepresentable_pump_amplitude_raises(self, medium_035):
        with pytest.raises(ValueError, match="power -4000 dBm"):
            breakdown_grid(medium_035, 0.1, 0.1, W_S, np.array([W_AP, W_S]),
                           -4000.0)
