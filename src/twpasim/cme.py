"""Coupled-mode propagation along the nonlinear line.

Two reduced systems of slowly-varying amplitudes are integrated over the
cell index x:

* a six-mode four-wave-mixing system for amplification: signal, pump,
  idler, pump second harmonic, upconverted signal and upconverted idler,
  with the third-order (``gamma``) pair couplings, the second-order
  (``beta``) harmonic/upconversion couplings, pump depletion and
  per-cell dielectric loss;
* a five-mode three-wave-mixing system for frequency upconversion
  (isolation): signal, pump, pump second harmonic, upconverted signal
  and doubly-upconverted signal, with the second-order couplings only.

The derivation of every coupling coefficient from the wave equation of
the line is spelled out in ``docs/cme_reduction.md``.  Each system has
one owner here: ``_rhs_4wm`` / ``_rhs_3wm`` compute its coefficients as
named values and return the right-hand side ``rhs(x, y) -> dy/dx`` that
:func:`twpasim._kernels.integrate` steps (raising ``StepFailure``); the
six-mode ladder, band checks and mismatches come from ``phasematch``.

Photon bookkeeping uses the flux ``n_m = k_m * (1 - omega_m^2/omegaJ^2)
* |A_m|^2``; with this normalization the lossless couplings conserve the
pairwise photon relations exactly in the dispersionless limit (and to
O(dk) otherwise), which the test suite verifies rather than assumes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DomainError, sweep
from .medium import (MediumParams, amplitude_from_dbm, omega_tilde,
                     wavevector)
from .phasematch import (ToneConfig, _aux_mismatch, _frequencies, _mismatch,
                         _point, idler_frequency)

PLASMA_GUARD_3WM = 0.95  # harder guard: upconversion modes approach omegaJ
RTOL_RANGE = (1e-12, 1e-6)  # accepted integrator tolerances

_MAX_STEPS = 2_000_000


def _increasing(grid, name: str) -> np.ndarray:
    """``grid`` as floats; ``ValueError`` naming it unless increasing."""
    values = np.asarray(grid, dtype=float)
    if np.any(np.diff(values) <= 0):
        raise ValueError(f"{name} grid must be strictly increasing")
    return values


@dataclass
class ModeSet4WM:
    """State of the six four-wave-mixing modes at one position.

    ``amplitudes`` is complex, ordered [s, ap, i, 2ap, s+ap, i+ap];
    the mode frequencies follow from (omega_s, omega_ap) bookkeeping.
    """

    omega_s: float
    omega_ap: float
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (6,):
            raise DomainError("expected 6 mode amplitudes")
        if not np.all(np.isfinite(self.amplitudes)):
            raise DomainError("amplitudes must be finite")
        if not (self.omega_s > 0 and self.omega_ap > 0):
            raise DomainError("frequencies must be positive")
        idler_frequency(self.omega_s, self.omega_ap)

    @property
    def frequencies(self) -> np.ndarray:
        wap, ws, *rest = _frequencies(self.omega_s, self.omega_ap)
        return np.array([ws, wap, *rest])

    @classmethod
    def initial(cls, omega_s: float, omega_ap: float, a_s: complex,
                a_ap: complex, a_i: complex = 0.0, a_2ap: complex = 0.0,
                a_su: complex = 0.0, a_iu: complex = 0.0) -> "ModeSet4WM":
        return cls(omega_s, omega_ap,
                   np.array([a_s, a_ap, a_i, a_2ap, a_su, a_iu],
                            dtype=np.complex128))


@dataclass
class ModeSet3WM:
    """State of the five three-wave-mixing modes, ordered
    [s, ip, 2ip, s+ip, s+2ip]."""

    omega_s: float
    omega_ip: float
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (5,):
            raise DomainError("expected 5 mode amplitudes")
        if not np.all(np.isfinite(self.amplitudes)):
            raise DomainError("amplitudes must be finite")
        if not (self.omega_s > 0 and self.omega_ip > 0):
            raise DomainError("frequencies must be positive")

    @property
    def frequencies(self) -> np.ndarray:
        ws, wip = self.omega_s, self.omega_ip
        return np.array([ws, wip, 2.0 * wip, ws + wip, ws + 2.0 * wip])

    @classmethod
    def initial(cls, omega_s: float, omega_ip: float, a_s: complex,
                a_ip: complex) -> "ModeSet3WM":
        return cls(omega_s, omega_ip,
                   np.array([a_s, a_ip, 0.0, 0.0, 0.0], dtype=np.complex128))


@dataclass
class Trajectory:
    """Sampled solution of a coupled-mode run."""

    x: np.ndarray
    amplitudes: np.ndarray          # (n_samples, n_modes) complex
    frequencies: np.ndarray
    medium: MediumParams

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.amplitudes)

    def phases(self) -> np.ndarray:
        return np.unwrap(np.angle(self.amplitudes), axis=0)

    def photon_flux(self) -> np.ndarray:
        """k * (1 - w^2/wJ^2) * |A|^2 per mode and sample."""
        k = wavevector(self.medium, self.frequencies, guard=1.0)
        wt = omega_tilde(self.medium, self.frequencies)
        return k * wt * np.abs(self.amplitudes) ** 2


@dataclass
class GainSpectrum:
    """Gain (or isolation) versus signal frequency.

    ``gain_db`` is 20 log10 |A_s(N)/A_s(0)| so that 0 dB is a lossless
    line.  Failed grid points carry NaN gain and are recorded in ``gaps``
    as ``(index, omega, "Type: message")``.  For isolation runs
    ``upconverted_fraction`` holds the photon fraction moved out of the
    signal frequency.
    """

    omega: np.ndarray
    gain_db: np.ndarray
    metadata: dict = field(default_factory=dict)
    upconverted_fraction: np.ndarray | None = None
    gaps: list = field(default_factory=list)

    def __post_init__(self):
        self.omega = _increasing(self.omega, "frequency")
        self.gain_db = np.asarray(self.gain_db, dtype=float)
        if np.isinf(self.gain_db).any():
            raise ValueError("gain must be finite (or NaN at gap points)")


def _rhs_4wm(m: MediumParams, modes: ModeSet4WM, beta: float, gamma: float,
             pump_depletion: bool):
    """Six-mode right-hand side ``rhs(x, y) -> dy/dx`` with its
    coefficients bound (``docs/cme_reduction.md``); y is
    [s, ap, i, 2ap, s+ap, i+ap].

    A mode past ``PLASMA_GUARD * omegaJ`` raises, in ``_point``'s order.
    """
    # Python floats from _point's pump-first lists: on six modes NumPy's
    # per-call overhead, not the arithmetic, would set every evaluation's cost
    k, wt = _point(m, modes.omega_s, modes.omega_ap, 6)
    kap, ks, ki, k2, ksu, kiu = k
    tap, ts, ti, t2, tsu, tiu = wt
    kpp_ap, kpp_s, kpp_i, kpp_2ap, kpp_su, kpp_iu = (
        kj * m.tan_delta / 2.0 for kj in k)
    beta, gamma = float(beta), float(gamma)

    cs_k = 6.0 * gamma * ks / (8.0 * ts)
    cs_pair = 3.0 * gamma / (8.0 * ts * ks) * (2.0 * kap - ki) * kap**2 * ki
    cs_up = beta * (kap - ksu) * kap * ksu / (2.0 * ks * ts)
    cap_shg = beta * (kap - k2) * k2 / (2.0 * tap)
    cap_kerr = 3.0 * gamma * kap / (8.0 * tap)
    cap_dep = (6.0 * gamma / (8.0 * tap) * ks * ki * (ks + ki - kap)
               if pump_depletion else 0.0)
    ci_k = 6.0 * gamma * ki / (8.0 * ti)
    ci_pair = 3.0 * gamma / (8.0 * ti * ki) * (2.0 * kap - ks) * kap**2 * ks
    ci_up = beta * (kap - kiu) * kiu * kap / ti
    c2_src = beta * kap**3 / (2.0 * k2 * t2)
    c2_kerr = 3.0 * gamma * k2 / (8.0 * t2)
    csu_src = beta * (ks + kap) * kap * ks / (2.0 * ksu * tsu)
    csu_kerr = 6.0 * gamma * ksu / (8.0 * tsu)
    ciu_src = beta * (kap + ki) * kap * ki / (2.0 * kiu * tiu)
    ciu_kerr = 6.0 * gamma * kiu / (8.0 * tiu)
    kap_sq = kap**2
    k2_sq = k2**2
    # 1j * d, formed once: cmath.exp(1j * d * x) evaluates it first anyway.
    # The s+ap and i+ap phases run opposite to their auxiliary mismatches.
    d_2ap, d_su, d_iu = _aux_mismatch(k)
    jd1, jd2, jd3, jd4 = 1j * _mismatch(k), -1j * d_su, 1j * d_2ap, -1j * d_iu
    # likewise 1j * c for each imaginary coupling: 1j * c * u is (1j * c) * u
    jcs_k, jcs_pair = 1j * cs_k, 1j * cs_pair
    jcap_kerr, jcap_dep = 1j * cap_kerr, 1j * cap_dep
    jci_k, jci_pair = 1j * ci_k, 1j * ci_pair
    jc2_kerr, jcsu_kerr, jciu_kerr = 1j * c2_kerr, 1j * csu_kerr, 1j * ciu_kerr

    def rhs(x, y):
        a_s, a_p, a_i, a_2, a_su, a_iu = y.tolist()
        a_pc = a_p.conjugate()
        pump2 = kap_sq * (a_p.real * a_p.real + a_p.imag * a_p.imag)
        sh2 = k2_sq * (a_2.real * a_2.real + a_2.imag * a_2.imag)
        cross = pump2 + sh2

        e1 = cmath.exp(jd1 * x)
        e2 = cmath.exp(jd2 * x)
        e3 = cmath.exp(jd3 * x)
        e4 = cmath.exp(jd4 * x)

        return [
            (jcs_k * cross * a_s
             + jcs_pair * a_p * a_p * a_i.conjugate() * e1
             + cs_up * a_su * a_pc * e2
             - kpp_s * a_s),
            (cap_shg * a_pc * a_2 * e3.conjugate()
             + jcap_kerr * (pump2 + 2.0 * sh2) * a_p
             + jcap_dep * a_s * a_i * a_pc * e1.conjugate()
             - kpp_ap * a_p),
            (jci_k * cross * a_i
             + jci_pair * a_p * a_p * a_s.conjugate() * e1
             + ci_up * a_iu * a_pc * e4
             - kpp_i * a_i),
            (c2_src * a_p * a_p * e3
             + jc2_kerr * (2.0 * pump2 + sh2) * a_2
             - kpp_2ap * a_2),
            (csu_src * a_s * a_p * e2.conjugate()
             + jcsu_kerr * cross * a_su
             - kpp_su * a_su),
            (ciu_src * a_i * a_p * e4.conjugate()
             + jciu_kerr * cross * a_iu
             - kpp_iu * a_iu),
        ]

    return rhs


def _rhs_3wm(m: MediumParams, modes: ModeSet3WM, beta: float):
    """Five-mode upconversion right-hand side ``rhs(x, y) -> dy/dx`` with
    its coefficients bound; y is [s, ip, 2ip, s+ip, s+2ip].

    Every mode must sit below ``PLASMA_GUARD_3WM * omegaJ``.
    """
    k = wavevector(m, modes.frequencies, guard=PLASMA_GUARD_3WM)
    wt = omega_tilde(m, modes.frequencies)
    kpp_s, kpp_ip, kpp_2ip, kpp_su, kpp_su2 = (
        k * m.tan_delta / 2.0).tolist()
    ks, kip, k2, ksu, ksu2 = k.tolist()
    ts, tip, t2, tsu, tsu2 = wt.tolist()
    beta = float(beta)

    cs_up = beta * (kip - ksu) * kip * ksu / (2.0 * ks * ts)
    cip_shg = beta * (kip - k2) * k2 / (2.0 * tip)
    c2_src = beta * kip**3 / (2.0 * k2 * t2)
    csu_src = beta * (ks + kip) * kip * ks / (2.0 * ksu * tsu)
    csu_up = beta * (kip - ksu2) * kip * ksu2 / (2.0 * ksu * tsu)
    csu2_src = beta * (ksu + kip) * kip * ksu / (2.0 * ksu2 * tsu2)
    jda = 1j * (2.0 * kip - k2)
    jdb = 1j * (ksu - kip - ks)
    jdc = 1j * (ksu2 - kip - ksu)

    def rhs(x, y):
        a_s, a_ip, a_2, a_su, a_su2 = y.tolist()
        a_ipc = a_ip.conjugate()
        f1 = cmath.exp(jda * x)
        f2 = cmath.exp(jdb * x)
        f3 = cmath.exp(jdc * x)

        return [
            cs_up * a_su * a_ipc * f2 - kpp_s * a_s,
            cip_shg * a_ipc * a_2 * f1.conjugate() - kpp_ip * a_ip,
            c2_src * a_ip * a_ip * f1 - kpp_2ip * a_2,
            (csu_src * a_s * a_ip * f2.conjugate()
             + csu_up * a_su2 * a_ipc * f3
             - kpp_su * a_su),
            csu2_src * a_su * a_ip * f3.conjugate() - kpp_su2 * a_su2,
        ]

    return rhs


def _validate_rtol(rtol: float) -> None:
    lo, hi = RTOL_RANGE
    if not (lo <= rtol <= hi):
        raise ValueError(f"rtol must lie in [{lo:g}, {hi:g}]")


def _propagate(m: MediumParams, modes, rhs, rtol: float,
               n_samples: int) -> Trajectory:
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    x_eval = np.linspace(0.0, float(m.N), n_samples)
    y0 = modes.amplitudes
    atol = rtol * max(float(np.max(np.abs(y0))), 1e-30) * 1e-6
    # a blowing-up run raises StepFailure; its overflow is not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        traj = _kernels.integrate(rhs, y0, x_eval, rtol, atol, _MAX_STEPS)
    return Trajectory(x=x_eval, amplitudes=traj,
                      frequencies=modes.frequencies, medium=m)


def integrate_4wm(m: MediumParams, modes: ModeSet4WM, beta: float,
                  gamma: float, rtol: float = 1e-10, n_samples: int = 257,
                  pump_depletion: bool = True) -> Trajectory:
    """Integrate the six-mode system over the line, x = 0 to N, sampled
    at ``n_samples`` evenly spaced points (at least 2).

    ``pump_depletion`` keeps the four-wave backaction of signal and idler
    on the pump; disabling it reproduces the stiff-pump variant.  A mode
    past the plasma guard or a failed run raises a ``TwpaError``.
    """
    _validate_rtol(rtol)
    rhs = _rhs_4wm(m, modes, beta, gamma, pump_depletion)
    return _propagate(m, modes, rhs, rtol, n_samples)


def integrate_3wm(m: MediumParams, modes: ModeSet3WM, beta: float,
                  rtol: float = 1e-10, n_samples: int = 257) -> Trajectory:
    """Integrate the five-mode upconversion system (second-order
    couplings only) over the line, x = 0 to N.  All five modes must sit
    below 0.95 * omegaJ."""
    _validate_rtol(rtol)
    rhs = _rhs_3wm(m, modes, beta)
    return _propagate(m, modes, rhs, rtol, n_samples)


def _gain_db_from(traj: Trajectory) -> float:
    a0 = abs(traj.amplitudes[0, 0])
    a1 = abs(traj.amplitudes[-1, 0])
    return 20.0 * math.log10(a1 / a0)


def gain_spectrum(m: MediumParams, pump: ToneConfig, signal_omegas,
                  signal_power_dbm: float = -130.0, beta: float = 0.0,
                  gamma: float = 0.0, amp_scale: float = 1.0,
                  rtol: float = 1e-10) -> GainSpectrum:
    """Small-signal gain, with pump depletion, over a signal frequency
    grid [rad/s]; each point integrates straight to x = N.  A point that
    fails with a ``TwpaError`` (plasma guard, negative idler, stiff run)
    is a NaN gap, by :func:`errors.sweep`; a point outside the model gets
    the error :func:`phasematch.dk_total` raises, checked in its order
    (pump guard first).  A grid that is not strictly
    increasing raises ``ValueError`` before any point is integrated."""
    omegas = _increasing(signal_omegas, "frequency")
    a_p = amplitude_from_dbm(m, pump.freq, pump.power_dbm, amp_scale)

    def point(ws):
        a_s = amplitude_from_dbm(m, ws, signal_power_dbm, amp_scale)
        _point(m, ws, pump.freq, 6)  # the point's error, pump guard first
        modes = ModeSet4WM.initial(ws, pump.freq, a_s, a_p)
        traj = integrate_4wm(m, modes, beta, gamma, rtol=rtol, n_samples=2)
        return _gain_db_from(traj)

    gain, gaps = sweep(point, omegas)
    meta = {"pump": pump, "amp_scale": amp_scale, "beta": beta,
            "gamma": gamma, "signal_power_dbm": signal_power_dbm}
    return GainSpectrum(omega=omegas, gain_db=gain[:, 0], metadata=meta,
                        gaps=gaps)


@dataclass
class SaturationResult:
    power_dbm: np.ndarray
    gain_db: np.ndarray
    small_signal_gain_db: float
    compression_1db_dbm: float | None


def saturation_curve(m: MediumParams, pump: ToneConfig, omega_s: float,
                     power_grid_dbm, beta: float = 0.0, gamma: float = 0.0,
                     amp_scale: float = 1.0, rtol: float = 1e-10
                     ) -> SaturationResult:
    """Gain versus signal power with full pump depletion; each power
    integrates straight to x = N.  Reports the 1 dB compression input
    power (linear interpolation on the grid) if the curve crosses it.  An
    empty or not strictly increasing power grid raises ``ValueError``; a
    (signal, pump) point outside the model raises the ``TwpaError`` that
    :func:`phasematch.dk_total` raises, before any power is integrated.
    """
    powers = _increasing(power_grid_dbm, "power")
    if not powers.size:
        raise ValueError("power grid must not be empty")
    a_p = amplitude_from_dbm(m, pump.freq, pump.power_dbm, amp_scale)
    _point(m, omega_s, pump.freq, 6)  # the point's error, pump guard first
    gain = np.empty(powers.shape)
    for idx, p_dbm in enumerate(powers):
        a_s = amplitude_from_dbm(m, omega_s, p_dbm, amp_scale)
        modes = ModeSet4WM.initial(omega_s, pump.freq, a_s, a_p)
        traj = integrate_4wm(m, modes, beta, gamma, rtol=rtol, n_samples=2)
        gain[idx] = _gain_db_from(traj)

    g0 = gain[0]
    comp = None
    below = np.where(gain <= g0 - 1.0)[0]
    if below.size:  # never at index 0, where the gain is g0 itself
        j = below[0]
        g1, g2 = gain[j - 1], gain[j]
        frac = (g0 - 1.0 - g1) / (g2 - g1)
        comp = float(powers[j - 1] + frac * (powers[j] - powers[j - 1]))
    return SaturationResult(power_dbm=powers, gain_db=gain,
                            small_signal_gain_db=float(g0),
                            compression_1db_dbm=comp)


def isolation_spectrum(m: MediumParams, ip_pump: ToneConfig, signal_omegas,
                       signal_power_dbm: float = -130.0, beta: float = 0.0,
                       amp_scale: float = 1.0, rtol: float = 1e-10
                       ) -> GainSpectrum:
    """Upconversion (isolation) spectrum for the co-moving backward pair.

    Returns transmission in dB (negative = isolation) and the photon
    fraction upconverted to ``omega_s + omega_ip`` and
    ``omega_s + 2 omega_ip``, referenced to the signal input.  Each point
    integrates straight to x = N.  Grid points that fail with a
    ``TwpaError`` (e.g. a mode ladder above the 0.95 * omegaJ guard)
    become gaps, by :func:`errors.sweep`.  A grid that is not strictly
    increasing raises ``ValueError`` before any point is integrated."""
    omegas = _increasing(signal_omegas, "frequency")
    a_p = amplitude_from_dbm(m, ip_pump.freq, ip_pump.power_dbm, amp_scale)

    def point(ws):
        a_s = amplitude_from_dbm(m, ws, signal_power_dbm, amp_scale)
        modes = ModeSet3WM.initial(ws, ip_pump.freq, a_s, a_p)
        traj = integrate_3wm(m, modes, beta, rtol=rtol, n_samples=2)
        n = traj.photon_flux()
        return _gain_db_from(traj), (n[-1, 3] + n[-1, 4]) / n[0, 0]

    values, gaps = sweep(point, omegas, width=2)
    meta = {"pump": ip_pump, "amp_scale": amp_scale, "beta": beta,
            "signal_power_dbm": signal_power_dbm}
    return GainSpectrum(omega=omegas, gain_db=values[:, 0], metadata=meta,
                        upconverted_fraction=values[:, 1], gaps=gaps)

