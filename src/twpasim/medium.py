"""Linear propagation in the loaded transmission line.

Positions are in cells and wavevectors in radians per cell, so the device
length enters only through the cell count.  The dispersion relation

    k(omega) = omega / (omega0 * sqrt(1 - omega^2 / omegaJ^2))

diverges at the plasma frequency; a hard guard at ``PLASMA_GUARD * omegaJ``
turns the silent blowup into a typed error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AbovePlasmaCutoff
from .unitcell import CellCoefficients, SnailSpec

PLASMA_GUARD = 0.98


@dataclass(frozen=True)
class MediumParams:
    """Linear line parameters: ``omega0``/``omegaJ`` [rad/s], ``Z`` [Ohm],
    loss tangent and cell count."""

    omega0: float
    omegaJ: float
    Z: float
    tan_delta: float
    N: int

    def __post_init__(self):
        if not (0 < self.omega0 < self.omegaJ):
            raise ValueError("need 0 < omega0 < omegaJ")
        if self.tan_delta < 0:
            raise ValueError("tan_delta must be >= 0")
        if self.N < 1:
            raise ValueError("N must be >= 1")

    @classmethod
    def from_cell(cls, spec: SnailSpec, coeffs: CellCoefficients) -> "MediumParams":
        return cls(omega0=coeffs.omega0, omegaJ=coeffs.omegaJ, Z=coeffs.Z,
                   tan_delta=spec.tan_delta, N=spec.N)


def _check_omega(m: MediumParams, omega: float, guard: float) -> None:
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if omega >= guard * m.omegaJ:
        raise AbovePlasmaCutoff(
            f"omega/2pi = {omega / (2 * math.pi) / 1e9:.3f} GHz is at or above "
            f"{guard:.2f} * omegaJ/2pi = "
            f"{guard * m.omegaJ / (2 * math.pi) / 1e9:.3f} GHz")


def wavevector(m: MediumParams, omega: float, guard: float = PLASMA_GUARD) -> float:
    """Wavevector [rad/cell] at angular frequency ``omega`` [rad/s]."""
    _check_omega(m, omega, guard)
    return omega / (m.omega0 * math.sqrt(1.0 - (omega / m.omegaJ) ** 2))


def omega_tilde(m: MediumParams, omega: float) -> float:
    """Plasma suppression factor ``1 - omega^2/omegaJ^2`` (dimensionless)."""
    return 1.0 - (omega / m.omegaJ) ** 2


def loss_wavevector(m: MediumParams, omega: float,
                    guard: float = PLASMA_GUARD) -> float:
    """Imaginary wavevector ``k'' = k * tan_delta / 2`` [1/cell]."""
    return wavevector(m, omega, guard) * m.tan_delta / 2.0


def linear_transmission_db(m: MediumParams, omega: float,
                           guard: float = PLASMA_GUARD) -> float:
    """Amplitude transmission over the full line, in dB (<= 0).

    The amplitude decays as exp(-k'' x), so the line transmits
    ``20 log10(exp(-k'' N))`` dB.
    """
    kpp = loss_wavevector(m, omega, guard)
    return -20.0 * kpp * m.N / math.log(10.0)


def amplitude_from_dbm(m: MediumParams, omega: float, power_dbm: float,
                       amp_scale: float = 1.0) -> float:
    """Dimensionless traveling-wave amplitude for a given port power.

    A tone of power ``P`` on a line of impedance ``Z`` has node-flux wave
    amplitude ``sqrt(2 Z P) / omega`` [Wb]; dividing by the reduced flux
    quantum ``PHI0 / 2 pi`` converts it to the phase units used by the
    coupled-mode equations.  ``amp_scale`` is a single dimensionless
    calibration factor applied to every converted amplitude.

    Raises ``ValueError`` when the amplitude is not positive, e.g. for a
    power so low that it underflows to zero: gains are ratios to it.
    """
    from .constants import PHI0
    p_watt = 1e-3 * 10.0 ** (power_dbm / 10.0)
    amp = amp_scale * (2.0 * math.pi / PHI0) * math.sqrt(2.0 * m.Z * p_watt) / omega
    if not amp > 0:
        raise ValueError(f"power {power_dbm:g} dBm gives the non-positive "
                         f"amplitude {amp:g}")
    return amp


def power_dbm_from_amplitude(m: MediumParams, omega: float, amplitude: float,
                             amp_scale: float = 1.0) -> float:
    """Inverse of :func:`amplitude_from_dbm` (amplitude in phase units)."""
    from .constants import PHI0
    flux_amp = (amplitude / amp_scale) * PHI0 / (2.0 * math.pi)
    p_watt = (omega * flux_amp) ** 2 / (2.0 * m.Z)
    return 10.0 * math.log10(p_watt / 1e-3)
