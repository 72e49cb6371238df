import dataclasses

import numpy as np
import pytest

from twpasim import (MediumParams, SnailSpec, cell_coefficients,
                     equilibrium_phase)


@pytest.fixture(scope="session")
def device_spec():
    """Device parameters used throughout: 2.2 uA large junctions, r=0.07,
    250 fF / 35 fF capacitances, 700 cells, loss tangent 2.9e-3."""
    return SnailSpec(I0=2.2e-6, r=0.07, Cg=250e-15, CJ=35e-15, N=700,
                     tan_delta=2.9e-3)


@pytest.fixture(scope="session")
def medium_zero_flux(device_spec):
    c = cell_coefficients(device_spec, equilibrium_phase(device_spec, 0.0))
    return MediumParams.from_cell(device_spec, c)


@pytest.fixture(scope="session")
def cell_035(device_spec):
    return cell_coefficients(device_spec, equilibrium_phase(device_spec, 0.35))


@pytest.fixture(scope="session")
def medium_035(device_spec, cell_035):
    return MediumParams.from_cell(device_spec, cell_035)


@pytest.fixture(scope="session")
def medium_fit(medium_035):
    """The flux-0.35 line with the paper's fitted amplitude calibration."""
    return dataclasses.replace(medium_035, amp_scale=1.55)


@pytest.fixture(scope="session")
def linear_dispersion_medium():
    """Synthetic dispersionless line: omegaJ >> any mode frequency, so
    k = omega/omega0 exactly within double precision and the reduced
    coupled-mode couplings conserve photon number exactly."""
    w0 = 2 * np.pi * 27e9
    return MediumParams(omega0=w0, omegaJ=1e4 * w0, Z=25.0, tan_delta=0.0,
                        N=700)
