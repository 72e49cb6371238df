"""Stepper checks: the adaptive Dormand-Prince integrator must agree with
an external integrator on both coupled-mode systems and report its
failure modes."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from twpasim import ModeSet3WM, ModeSet4WM, amplitude_from_dbm
from twpasim import _kernels
from twpasim.cme import _rhs_3wm, _rhs_4wm
from twpasim.errors import StepFailure


def _standard_setup(medium):
    a_p = amplitude_from_dbm(medium, 2 * math.pi * 9.2e9, -78.0, 1.55)
    a_s = amplitude_from_dbm(medium, 2 * math.pi * 7.6e9, -130.0, 1.55)
    modes = ModeSet4WM.initial(2 * math.pi * 7.6e9, 2 * math.pi * 9.2e9,
                               a_s, a_p)
    rhs = _rhs_4wm(medium, modes, beta=0.104388, gamma=0.122339,
                   pump_depletion=True)
    return modes.amplitudes, rhs


def _upconversion_setup(medium):
    """Backward 12.2 GHz pump at -74 dBm upconverting a 6 GHz signal."""
    a_p = amplitude_from_dbm(medium, 2 * math.pi * 12.2e9, -74.0, 1.55)
    a_s = amplitude_from_dbm(medium, 2 * math.pi * 6e9, -130.0, 1.55)
    modes = ModeSet3WM.initial(2 * math.pi * 6e9, 2 * math.pi * 12.2e9,
                               a_s, a_p)
    return modes.amplitudes, _rhs_3wm(medium, modes, beta=0.104388)


@pytest.mark.parametrize("setup", [_standard_setup, _upconversion_setup],
                         ids=["4wm", "3wm"])
def test_agrees_with_scipy_reference(medium_035, setup):
    """The same right-hand side integrated by scipy's DOP853."""
    y0, rhs_kernel = setup(medium_035)

    def rhs(x, y):
        out = np.empty(y.shape[0], dtype=np.complex128)
        rhs_kernel(x, y, out)
        return out

    ref = solve_ivp(rhs, (0.0, 700.0), y0, method="DOP853", rtol=1e-11,
                    atol=1e-11 * abs(y0).max() * 1e-6)
    x_eval = np.array([0.0, 700.0])
    mine, status = _kernels.integrate(rhs_kernel, y0, x_eval,
                                      1e-11, 1e-11 * abs(y0).max() * 1e-6,
                                      2_000_000)
    assert status == _kernels.STATUS_OK
    np.testing.assert_allclose(mine[-1], ref.y[:, -1], rtol=1e-7)


def test_step_budget_exhaustion_is_reported(medium_035):
    y0, rhs = _standard_setup(medium_035)
    x_eval = np.linspace(0.0, 700.0, 65)
    _, status = _kernels.integrate(rhs, y0, x_eval, 1e-10, 1e-20, 10)
    assert status == _kernels.STATUS_MAX_STEPS


def test_step_failure_surfaces_as_typed_error(medium_035):
    from twpasim.cme import ModeSet4WM, integrate_4wm

    a = amplitude_from_dbm(medium_035, 2 * math.pi * 9.2e9, -78.0)
    modes = ModeSet4WM.initial(2 * math.pi * 7.6e9, 2 * math.pi * 9.2e9,
                               1e-6, a)
    # absurd coupling makes the run blow up to non-finite values
    with pytest.raises(StepFailure):
        integrate_4wm(medium_035, modes, beta=0.0, gamma=1e12, rtol=1e-8)


def test_trajectory_endpoints_and_sampling(medium_035):
    y0, rhs = _standard_setup(medium_035)
    x_eval = np.linspace(0.0, 700.0, 129)
    y, status = _kernels.integrate(rhs, y0, x_eval, 1e-10, 1e-20,
                                   2_000_000)
    assert status == _kernels.STATUS_OK
    assert y.shape == (129, 6)
    np.testing.assert_array_equal(y[0], y0)
    assert np.all(np.isfinite(y.view(float)))
