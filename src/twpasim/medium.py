"""Linear propagation in the loaded transmission line.

Positions are in cells and wavevectors in radians per cell, so the device
length enters only through the cell count.  The dispersion relation

    k(omega) = omega / (omega0 * sqrt(1 - omega^2 / omegaJ^2))

diverges at the plasma frequency; a hard guard at ``PLASMA_GUARD * omegaJ``
turns the silent blowup into a typed error.  The frequency arguments may
be floats or NumPy arrays: one formula serves a point and a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PHI0
from .errors import AbovePlasmaCutoff, DomainError
from .unitcell import CellCoefficients, SnailSpec

PLASMA_GUARD = 0.98


@dataclass(frozen=True, slots=True)
class MediumParams:
    """Linear line parameters: ``omega0``/``omegaJ`` [rad/s], ``Z`` [Ohm],
    loss tangent, cell count and ``amp_scale``, the finite, positive
    calibration that every :func:`amplitude_from_dbm` on the line applies."""

    omega0: float
    omegaJ: float
    Z: float
    tan_delta: float
    N: int
    amp_scale: float = 1.0

    def __post_init__(self):
        if not (0 < self.omega0 < self.omegaJ):
            raise ValueError("need 0 < omega0 < omegaJ")
        if self.tan_delta < 0:
            raise ValueError("tan_delta must be >= 0")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0.0 < self.amp_scale < math.inf:
            raise ValueError(f"amp_scale {self.amp_scale:g} is not finite "
                             "and positive")

    @classmethod
    def from_cell(cls, spec: SnailSpec, coeffs: CellCoefficients,
                  amp_scale: float = 1.0) -> "MediumParams":
        return cls(omega0=coeffs.omega0, omegaJ=coeffs.omegaJ, Z=coeffs.Z,
                   tan_delta=spec.tan_delta, N=spec.N, amp_scale=amp_scale)


def in_band(m: MediumParams, omega, guard: float = PLASMA_GUARD):
    """Where the dispersion relation holds, ``0 < omega < guard * omegaJ``:
    a bool for a float, a boolean mask for an array."""
    return (omega > 0) & (omega < guard * m.omegaJ)


def band_error(m: MediumParams, omega, guard: float = PLASMA_GUARD):
    """The error :func:`wavevector` raises at ``omega`` (for an array, at
    its first frequency outside the band), or None inside the band."""
    inside = np.ravel(in_band(m, omega, guard))
    if inside.all():
        return None
    omega = np.ravel(omega)[inside.argmin()].item()
    if not omega > 0:
        return DomainError(f"omega must be positive, got {omega}")
    return AbovePlasmaCutoff(
        f"omega/2pi = {omega / (2 * math.pi) / 1e9:.3f} GHz is at or above "
        f"{guard:.2f} * omegaJ/2pi = "
        f"{guard * m.omegaJ / (2 * math.pi) / 1e9:.3f} GHz")


def wavevector(m: MediumParams, omega: float) -> float:
    """Wavevector [rad/cell] at angular frequency ``omega`` [rad/s]."""
    error = band_error(m, omega)
    if error is not None:
        raise error
    k = _wavevector(m, omega)
    # a float for a float: NumPy scalars would slow every scalar caller's
    # arithmetic several times over
    return k if np.ndim(k) else float(k)


def _wavevector(m: MediumParams, omega):
    """:func:`wavevector` without its band check, for frequencies already
    known to be inside the band: the same bits for a float as for the
    same frequency in an array."""
    sqrt = np.sqrt if isinstance(omega, np.ndarray) else math.sqrt
    return omega / (m.omega0 * sqrt(omega_tilde(m, omega)))


def omega_tilde(m: MediumParams, omega: float) -> float:
    """Plasma suppression factor ``1 - omega^2/omegaJ^2`` (dimensionless)."""
    x = omega / m.omegaJ
    # x * x is what NumPy's x ** 2 computes on an array; Python's float
    # power differs from it in the last bit for about one float in a
    # thousand
    return 1.0 - x * x


def loss_wavevector(m: MediumParams, omega: float) -> float:
    """Imaginary wavevector ``k'' = k * tan_delta / 2`` [1/cell]."""
    return wavevector(m, omega) * m.tan_delta / 2.0


def linear_transmission_db(m: MediumParams, omega: float) -> float:
    """Amplitude transmission over the full line, in dB (<= 0).

    The amplitude decays as exp(-k'' x), so the line transmits
    ``20 log10(exp(-k'' N))`` dB.
    """
    kpp = loss_wavevector(m, omega)
    return -20.0 * kpp * m.N / math.log(10.0)


def _watts(power_dbm: float) -> float:
    try:
        # a Python float overflows with an error, never a NumPy warning
        return 1e-3 * 10.0 ** (power_dbm / 10.0)
    except OverflowError:
        return math.inf


def amplitude_from_dbm(m: MediumParams, omega: float,
                       power_dbm: float) -> float:
    """Dimensionless traveling-wave amplitude for a given port power.

    A tone of power ``P`` on a line of impedance ``Z`` has node-flux wave
    amplitude ``sqrt(2 Z P) / omega`` [Wb]; dividing by the reduced flux
    quantum ``PHI0 / 2 pi`` converts it to the phase units used by the
    coupled-mode equations, and the line's ``m.amp_scale`` multiplies every
    converted amplitude.  Frequencies and powers may be arrays, broadcast
    together; each amplitude is the float that its own frequency and power
    give.

    Raises ``ValueError`` naming the frequency when it is not finite and
    positive, and naming the power when the amplitude underflows to zero
    or overflows to infinity (for arrays, at the first that does): gains
    are ratios to it.  That is a plain ``ValueError``, never a grid gap: a
    spectrum raises it before any point is integrated, and the CLI exits
    with status 3.
    """
    one = isinstance(omega, (float, int))
    if one:
        bad = [] if 0.0 < omega < math.inf else [omega]
    else:
        w = np.ravel(omega)
        out = ~((w > 0.0) & (w < math.inf))
        bad = [w[out.argmax()].item()] if out.any() else []
    if bad:
        raise ValueError(f"omega {bad[0]:g} rad/s is not finite and "
                         "positive")
    if one and isinstance(power_dbm, (float, int)):
        # one number each: the arithmetic and the check below, on floats
        power = float(power_dbm)
        amp = (m.amp_scale * (2.0 * math.pi / PHI0)
               * math.sqrt(2.0 * m.Z * _watts(power)) / omega)
        if not 0.0 < amp < math.inf:
            raise ValueError(f"power {power:g} dBm gives the amplitude "
                             f"{amp:g}, which is not finite and positive")
        return amp
    power = np.asarray(power_dbm, dtype=float)
    # Python's float power, element by element: NumPy's differs from it in
    # the last bit for about one power in twenty
    p_watt = np.reshape([_watts(p) for p in power.ravel().tolist()],
                        power.shape)
    amp = (m.amp_scale * (2.0 * math.pi / PHI0)
           * np.sqrt(2.0 * m.Z * p_watt) / omega)
    amps = np.ravel(amp)
    bad = ~((amps > 0) & (amps < math.inf))
    if bad.any():
        j = bad.argmax()
        raise ValueError(
            f"power {np.ravel(np.broadcast_to(power, np.shape(amp)))[j]:g} "
            f"dBm gives the amplitude {amps[j]:g}, which is not finite and "
            "positive")
    return amp


def power_dbm_from_amplitude(m: MediumParams, omega: float,
                             amplitude: float) -> float:
    """Inverse of :func:`amplitude_from_dbm` (amplitude in phase units)."""
    flux_amp = (amplitude / m.amp_scale) * PHI0 / (2.0 * math.pi)
    p_watt = (omega * flux_amp) ** 2 / (2.0 * m.Z)
    return 10.0 * math.log10(p_watt / 1e-3)
