import dataclasses
import math
import pickle
from copy import deepcopy

import numpy as np
import pytest

from twpasim import (CellCoefficients, FluxPoint, SnailSpec, ToneConfig,
                     cell_coefficients, dk_total, dynamic_etas,
                     equilibrium_phase, flux_sweep, kerr_free_flux)
from twpasim.errors import NonConvergence, NonPositiveInductance, NotFound


def residual(r, phi_ext_rad, phi):
    return r * math.sin(phi) + math.sin((phi - phi_ext_rad) / 3.0)


def fold_flux(r):
    """Flux [Phi0] where the branch through (0, 0) folds, for r > 1/3:
    d phi_ext / d phi* = 0 at cos^2(phi*) = (1 - r^2) / (8 r^2)."""
    phi = math.acos(-math.sqrt((1 - r * r) / (8 * r * r)))
    return (phi + 3 * math.asin(r * math.sin(phi))) / (2 * math.pi)


def branch_slope(r, phi):
    """d phi_ext / d phi* on the branch phi_ext = phi* + 3 asin(r sin phi*)."""
    return 1 + 3 * r * math.cos(phi) / math.sqrt(1 - (r * math.sin(phi))**2)


def bisect_equilibrium(r, phi_ext_rad, lo=0.0, hi=math.pi, iters=200):
    """Independent oracle: plain bisection of the loop-current residual."""
    flo = residual(r, phi_ext_rad, lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = residual(r, phi_ext_rad, mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEquilibriumPhase:
    def test_zero_flux_is_exact_zero(self, device_spec):
        fp = equilibrium_phase(device_spec, 0.0)
        assert fp.phi_star == 0.0

    def test_half_flux_is_pi(self, device_spec):
        fp = equilibrium_phase(device_spec, 0.5)
        assert abs(fp.phi_star - math.pi) < 1e-12

    def test_intermediate_flux_against_bisection_oracle(self, device_spec):
        fp = equilibrium_phase(device_spec, 0.19)
        oracle = bisect_equilibrium(0.07, 2 * math.pi * 0.19)
        assert abs(fp.phi_star - oracle) < 1e-10
        # frozen regression value from the oracle
        assert fp.phi_star == pytest.approx(1.015278130736210, abs=1e-12)

    @pytest.mark.parametrize("r", [0.01, 0.05, 0.1, 0.2, 0.3, 1 / 3])
    def test_residual_below_1e12_over_flux_grid(self, r):
        spec = SnailSpec(I0=2e-6, r=r, Cg=250e-15, CJ=35e-15, N=100)
        for flux in np.linspace(-0.5, 0.5, 41):
            fp = equilibrium_phase(spec, flux)
            assert abs(residual(r, fp.phi_ext_rad, fp.phi_star)) < 1e-12

    def test_one_third_has_an_inflection_not_a_fold(self):
        # at r = 1/3 the branch's slope 1 - 3r vanishes at phi* = pi
        # without changing sign: half flux is still pi, and the branch
        # goes on to 2 pi at one flux quantum
        spec = SnailSpec(I0=2e-6, r=1 / 3, Cg=250e-15, CJ=35e-15, N=10)
        assert abs(equilibrium_phase(spec, 0.5).phi_star - math.pi) < 1e-12
        assert equilibrium_phase(spec, 1.0).phi_star == \
            pytest.approx(2 * math.pi, abs=1e-12)

    @pytest.mark.parametrize("r", [0.34, 0.4])
    def test_fold_bounds_the_branch(self, r):
        # the fold is at 0.50045 Phi0 for r = 0.34 and 0.51332 for r = 0.4
        fold = fold_flux(r)
        spec = SnailSpec(I0=2e-6, r=r, Cg=250e-15, CJ=35e-15, N=10)
        grid = np.concatenate([np.linspace(-1.0, 1.0, 201),
                               fold * np.array([0.999, 0.99999, 1.00001,
                                                1.001, 1.04])])
        for flux in grid.tolist():
            if abs(flux) > fold:
                with pytest.raises(NonConvergence):
                    equilibrium_phase(spec, flux)
                continue
            fp = equilibrium_phase(spec, flux)
            assert abs(residual(r, fp.phi_ext_rad, fp.phi_star)) < 1e-15
            assert branch_slope(r, fp.phi_star) > 0

    def test_branch_is_odd_in_flux(self, device_spec):
        for flux in [0.1, 0.23, 0.42]:
            up = equilibrium_phase(device_spec, flux).phi_star
            dn = equilibrium_phase(device_spec, -flux).phi_star
            assert up == pytest.approx(-dn, abs=1e-12)

    def test_rejects_non_finite_flux(self, device_spec):
        with pytest.raises(ValueError):
            equilibrium_phase(device_spec, math.inf)


class TestCellCoefficients:
    def test_beta_t_vanishes_at_zero_flux(self, device_spec):
        c = cell_coefficients(device_spec, equilibrium_phase(device_spec, 0.0))
        assert c.beta_t == 0.0

    def test_beta_t_vanishes_at_half_flux(self, device_spec):
        c = cell_coefficients(device_spec, equilibrium_phase(device_spec, 0.5))
        assert abs(c.beta_t) < 1e-12

    def test_zero_flux_line_parameters(self, device_spec):
        # independent arithmetic: alpha = r + 1 at zero flux, then
        # L = Phi0 / (2 pi I0 alpha), omega0 = 1/sqrt(L Cg), ...
        c = cell_coefficients(device_spec, equilibrium_phase(device_spec, 0.0))
        phi0 = 2.067833848e-15
        L = phi0 / (2 * math.pi * 2.2e-6 * 1.07)
        assert c.alpha == pytest.approx(1.07, rel=1e-15)
        assert c.L == pytest.approx(L, rel=1e-12)
        assert c.L == pytest.approx(139.8071e-12, rel=1e-5)
        assert c.omega0 / (2 * math.pi) == pytest.approx(26.92065e9, rel=1e-5)
        assert c.omegaJ / (2 * math.pi) == pytest.approx(71.94845e9, rel=1e-5)

    def test_derived_quantities_are_consistent(self, device_spec):
        c = cell_coefficients(device_spec, equilibrium_phase(device_spec, 0.27))
        assert c.omega0 == pytest.approx(1 / math.sqrt(c.L * device_spec.Cg),
                                         rel=1e-15)
        assert c.omegaJ == pytest.approx(1 / math.sqrt(c.L * device_spec.CJ),
                                         rel=1e-15)
        assert c.Z == pytest.approx(math.sqrt(c.L / device_spec.Cg), rel=1e-15)
        assert c.omegaJ > c.omega0  # CJ < Cg

    def test_parity_under_flux_reversal(self, device_spec):
        for flux in [0.08, 0.19, 0.33, 0.47]:
            cp = cell_coefficients(device_spec,
                                   equilibrium_phase(device_spec, flux))
            cm = cell_coefficients(device_spec,
                                   equilibrium_phase(device_spec, -flux))
            assert cp.alpha == pytest.approx(cm.alpha, abs=1e-13)
            assert cp.gamma_t == pytest.approx(cm.gamma_t, abs=1e-13)
            assert cp.L == pytest.approx(cm.L, rel=1e-12)
            assert cp.beta_t == pytest.approx(-cm.beta_t, abs=1e-13)

    def test_deterministic(self, device_spec):
        fp = equilibrium_phase(device_spec, 0.19)
        a = cell_coefficients(device_spec, fp)
        b = cell_coefficients(device_spec, fp)
        assert a == b

    def test_consistent_derivatives_flag(self, device_spec):
        fp = equilibrium_phase(device_spec, 0.19)
        printed = cell_coefficients(device_spec, fp)
        consistent = cell_coefficients(device_spec, fp,
                                       consistent_derivatives=True)
        arg = (fp.phi_star - fp.phi_ext_rad) / 3.0
        expected = 0.07 * math.cos(fp.phi_star) + math.cos(arg) / 3.0
        assert consistent.alpha == pytest.approx(expected, rel=1e-15)
        assert consistent.alpha < printed.alpha
        # quadratic and cubic coefficients are unchanged by the flag
        assert consistent.beta_t == printed.beta_t
        assert consistent.gamma_t == printed.gamma_t

    def test_non_positive_alpha_raises(self):
        # r > 1/3 makes the consistent linear coefficient negative at the
        # half-flux equilibrium phi* = pi
        spec = SnailSpec(I0=2e-6, r=0.4, Cg=250e-15, CJ=35e-15, N=10)
        fp = FluxPoint(phi_ext=0.5, phi_ext_rad=math.pi, phi_star=math.pi)
        with pytest.raises(NonPositiveInductance):
            cell_coefficients(spec, fp, consistent_derivatives=True)


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(I0=-1e-6), dict(r=0.0), dict(r=1.0), dict(Cg=0.0),
        dict(CJ=-1e-15), dict(N=0), dict(tan_delta=-0.1),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        base = dict(I0=2.2e-6, r=0.07, Cg=250e-15, CJ=35e-15, N=700,
                    tan_delta=0.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SnailSpec(**base)


class TestKerrFreeFlux:
    R_WITH_ZERO = [0.04, 0.07, 0.2, 0.3, 0.34, 0.4]

    def gamma_t_scan(self, spec, points=10001):
        """Dense-scan oracle over gamma_t using the bisection root (64
        halvings of [0, pi] pin it to 2e-19 rad)."""
        fluxes = np.linspace(1e-4, 0.5, points)
        vals = np.empty(points)
        for i, f in enumerate(fluxes):
            phi = bisect_equilibrium(spec.r, 2 * math.pi * f, iters=64)
            arg = (phi - 2 * math.pi * f) / 3.0
            vals[i] = spec.r * math.cos(phi) + math.cos(arg) / 27.0
        return fluxes, vals

    def test_gamma_t_positive_at_zero_flux(self, device_spec):
        c = cell_coefficients(device_spec, equilibrium_phase(device_spec, 0.0))
        assert c.gamma_t == pytest.approx((0.07 + 1 / 27) / 6, rel=1e-14)
        assert c.gamma_t > 0

    def test_root_inside_dense_scan_bracket(self, device_spec):
        kf = kerr_free_flux(device_spec)
        # a Python float, as annotated, not a NumPy scalar
        assert type(kf) is float
        fluxes, vals = self.gamma_t_scan(device_spec, points=10001)
        idx = np.where(np.diff(np.sign(vals)) != 0)[0]
        assert idx.size >= 1
        lo, hi = fluxes[idx[0]], fluxes[idx[0] + 1]
        assert lo <= kf <= hi
        # regression value from the oracle
        assert kf == pytest.approx(0.366957089168, abs=1e-6)
        c = cell_coefficients(device_spec, equilibrium_phase(device_spec, kf))
        assert abs(c.gamma_t) < 1e-12

    @pytest.mark.parametrize("r", R_WITH_ZERO)
    def test_closed_form_inside_scan_bracket(self, r):
        spec = SnailSpec(I0=2e-6, r=r, Cg=250e-15, CJ=35e-15, N=10)
        kf = kerr_free_flux(spec)
        assert type(kf) is float
        fluxes, vals = self.gamma_t_scan(spec)
        idx = np.flatnonzero(np.diff(np.sign(vals)) != 0)
        assert idx.size >= 1
        assert fluxes[idx[0]] <= kf <= fluxes[idx[0] + 1]

    @pytest.mark.parametrize("r", R_WITH_ZERO)
    def test_gamma_t_vanishes_on_the_continued_branch(self, r):
        # kerr_free_flux and equilibrium_phase both rest on the branch
        # relation; the bisection oracle roots the loop current instead
        spec = SnailSpec(I0=2e-6, r=r, Cg=250e-15, CJ=35e-15, N=10)
        kf = kerr_free_flux(spec)
        phi_ext = 2 * math.pi * kf
        phi = bisect_equilibrium(r, phi_ext)
        arg = (phi - phi_ext) / 3.0
        assert abs((r * math.cos(phi) + math.cos(arg) / 27.0) / 6.0) < 1e-12
        c = cell_coefficients(spec, equilibrium_phase(spec, kf))
        assert abs(c.gamma_t) < 1e-12

    def test_small_r_has_no_kerr_free_point(self):
        # for r < 1/27 gamma_t stays positive over the whole half period
        spec = SnailSpec(I0=2e-6, r=0.02, Cg=250e-15, CJ=35e-15, N=10)
        with pytest.raises(NotFound):
            kerr_free_flux(spec)

    def test_zero_past_half_flux_is_not_found(self):
        # for r = 0.6 gamma_t vanishes at 0.565 Phi0, past half flux
        spec = SnailSpec(I0=2e-6, r=0.6, Cg=250e-15, CJ=35e-15, N=10)
        with pytest.raises(NotFound, match="0.5647 Phi0"):
            kerr_free_flux(spec)

    def test_touching_zero_at_r_one_27th_returns_half_flux(self):
        # at r = 1/27, gamma_t = (1/27 - r)/6 = 0 at half flux (phi* = pi)
        # and positive on either side: it touches zero without a sign
        # change, and the function returns that point
        spec = SnailSpec(I0=2e-6, r=1 / 27, Cg=250e-15, CJ=35e-15, N=10)
        kf = kerr_free_flux(spec)
        assert kf == 0.5
        c = cell_coefficients(spec, equilibrium_phase(spec, kf))
        assert abs(c.gamma_t) < 1e-12

    def test_large_r_consistent_with_scan(self):
        # at r = 0.99 gamma_t vanishes at 0.933 Phi0, past half flux
        spec = SnailSpec(I0=2e-6, r=0.99, Cg=250e-15, CJ=35e-15, N=10)
        with pytest.raises(NotFound, match="0.9332 Phi0"):
            kerr_free_flux(spec)


class TestFluxSweep:
    def test_single_zero_entry(self, device_spec):
        out = flux_sweep(device_spec, [0.0])
        assert len(out) == 1
        assert out[0].beta_t == 0.0

    def test_endpoint_nulls(self, device_spec):
        out = flux_sweep(device_spec, [0.0, 0.19, 0.35, 0.5])
        assert len(out) == 4
        assert abs(out[0].beta_t) < 1e-12
        assert abs(out[-1].beta_t) < 1e-12
        assert abs(out[1].beta_t) > 1e-3
        assert abs(out[2].beta_t) > 1e-3

    # fluxes of linspace(-0.5, 0.5, 100001) where NumPy's omega0 * omega0,
    # which is what it computes for omega0**2 on an array, is not Python's
    # float power (with this platform's C library) and moves beta
    SQUARE_FLUXES = [-0.49734, -0.46099, 0.0373, 0.11329, 0.20299, 0.31974]

    def test_matches_pointwise_calls(self, device_spec):
        # bit for bit, flux 0 included: one solve and one set of formulas
        # serve both
        grid = np.append(np.linspace(-0.5, 0.5, 501), self.SQUARE_FLUXES)
        swept = flux_sweep(device_spec, grid)
        for f, c in zip(grid.tolist(), swept):
            single = cell_coefficients(device_spec,
                                       equilibrium_phase(device_spec, f))
            assert c == single
            assert c.flux.phi_star.hex() == single.flux.phi_star.hex()
            assert c.beta.hex() == single.beta.hex()

    def test_error_carries_grid_index(self):
        # r > 1/3 folds the equilibrium branch just past half flux
        spec = SnailSpec(I0=2e-6, r=0.4, Cg=250e-15, CJ=35e-15, N=10)
        with pytest.raises(NonConvergence, match="index 2 "):
            flux_sweep(spec, [0.0, 0.3, 0.6, -0.8])

    def test_empty_grid_rejected(self, device_spec):
        with pytest.raises(ValueError):
            flux_sweep(device_spec, [])


class TestValueClasses:
    """The frozen value classes hold their fields in slots: no instance
    dict, still frozen, hashable, replace-able and picklable."""

    @pytest.fixture
    def instances(self, device_spec, medium_035, cell_035):
        signal = ToneConfig(2 * math.pi * 7e9, -200.0)
        pump = ToneConfig(2 * math.pi * 9.2e9, -78.0)
        return [device_spec, cell_035.flux, cell_035, medium_035, pump,
                dk_total(medium_035, 0.1, 0.1, signal, pump),
                dynamic_etas(medium_035, 0.1, signal.freq, pump.freq, 0.5)]

    def test_all_seven_are_slotted(self, instances):
        assert sorted(type(v).__name__ for v in instances) == sorted([
            "SnailSpec", "FluxPoint", "CellCoefficients", "MediumParams",
            "ToneConfig", "PhaseMismatchBreakdown", "DynamicEtas"])
        for value in instances:
            assert not hasattr(value, "__dict__")
            assert type(value).__slots__

    def test_frozen_hashable_and_replaceable(self, instances):
        for value in instances:
            name = dataclasses.fields(value)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))
            assert hash(value) == hash(dataclasses.replace(value))
            assert dataclasses.replace(value) == value

    def test_pickle_and_deepcopy_round_trip(self, instances):
        for value in instances:
            for copy in (pickle.loads(pickle.dumps(value)),
                         deepcopy(value)):
                assert type(copy) is type(value)
                assert copy == value
