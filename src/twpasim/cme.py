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
:func:`twpasim._kernels.integrate` steps.

Photon bookkeeping uses the flux ``n_m = k_m * (1 - omega_m^2/omegaJ^2)
* |A_m|^2``; with this normalization the lossless couplings conserve the
pairwise photon relations exactly in the dispersionless limit (and to
O(dk) otherwise), which the test suite verifies rather than assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import StepFailure, TwpaError
from .medium import (MediumParams, amplitude_from_dbm, omega_tilde,
                     wavevector)
from .phasematch import ToneConfig, idler_frequency

PLASMA_GUARD_3WM = 0.95  # harder guard: upconversion modes approach omegaJ
RTOL_RANGE = (1e-12, 1e-6)  # accepted integrator tolerances

_MAX_STEPS = 2_000_000
_MIN_SAMPLES = 65


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
            raise ValueError("expected 6 mode amplitudes")
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("amplitudes must be finite")
        idler_frequency(self.omega_s, self.omega_ap)

    @property
    def frequencies(self) -> np.ndarray:
        ws, wap = self.omega_s, self.omega_ap
        wi = 2.0 * wap - ws
        return np.array([ws, wap, wi, 2.0 * wap, ws + wap, wi + wap])

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
            raise ValueError("expected 5 mode amplitudes")
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("amplitudes must be finite")
        if self.omega_s <= 0 or self.omega_ip <= 0:
            raise ValueError("frequencies must be positive")

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
        k = np.array([wavevector(self.medium, w, guard=1.0)
                      for w in self.frequencies])
        wt = np.array([omega_tilde(self.medium, w) for w in self.frequencies])
        return k * wt * np.abs(self.amplitudes) ** 2


@dataclass
class GainSpectrum:
    """Gain (or isolation) versus signal frequency.

    ``gain_db`` is 20 log10 |A_s(N)/A_s(0)| so that 0 dB is a lossless
    line.  Failed grid points are recorded in ``gaps`` with their error
    text and carry NaN gain.  For isolation runs ``upconverted_fraction``
    holds the photon fraction moved out of the signal frequency.
    """

    omega: np.ndarray
    gain_db: np.ndarray
    metadata: dict = field(default_factory=dict)
    upconverted_fraction: np.ndarray | None = None
    gaps: list = field(default_factory=list)

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.gain_db = np.asarray(self.gain_db, dtype=float)
        if np.any(np.diff(self.omega) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        ok = np.isnan(self.gain_db) | np.isfinite(self.gain_db)
        if not np.all(ok):
            raise ValueError("gain must be finite (or NaN at gap points)")


def _rhs_4wm(m: MediumParams, modes: ModeSet4WM, beta: float, gamma: float,
             pump_depletion: bool):
    """Six-mode right-hand side ``rhs(x, y) -> dy/dx`` with its
    coefficients bound (``docs/cme_reduction.md``); y is
    [s, ap, i, 2ap, s+ap, i+ap].

    Every mode must sit below ``PLASMA_GUARD * omegaJ``.
    """
    k = np.array([wavevector(m, w) for w in modes.frequencies])
    wt = np.array([omega_tilde(m, w) for w in modes.frequencies])
    kpp_s, kpp_ap, kpp_i, kpp_2ap, kpp_su, kpp_iu = k * m.tan_delta / 2.0
    ks, kap, ki, k2, ksu, kiu = k
    ts, tap, ti, t2, tsu, tiu = wt

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
    d1 = 2.0 * kap - ki - ks
    d2 = ksu - kap - ks
    d3 = 2.0 * kap - k2
    d4 = kiu - kap - ki

    def rhs(x, y):
        a_s, a_p, a_i, a_2, a_su, a_iu = y
        pump2 = kap_sq * (a_p.real * a_p.real + a_p.imag * a_p.imag)
        sh2 = k2_sq * (a_2.real * a_2.real + a_2.imag * a_2.imag)
        cross = pump2 + sh2

        e1 = np.exp(1j * d1 * x)
        e2 = np.exp(1j * d2 * x)
        e3 = np.exp(1j * d3 * x)
        e4 = np.exp(1j * d4 * x)

        return np.array([
            (1j * cs_k * cross * a_s
             + 1j * cs_pair * a_p * a_p * np.conj(a_i) * e1
             + cs_up * a_su * np.conj(a_p) * e2
             - kpp_s * a_s),
            (cap_shg * np.conj(a_p) * a_2 * np.conj(e3)
             + 1j * cap_kerr * (pump2 + 2.0 * sh2) * a_p
             + 1j * cap_dep * a_s * a_i * np.conj(a_p) * np.conj(e1)
             - kpp_ap * a_p),
            (1j * ci_k * cross * a_i
             + 1j * ci_pair * a_p * a_p * np.conj(a_s) * e1
             + ci_up * a_iu * np.conj(a_p) * e4
             - kpp_i * a_i),
            (c2_src * a_p * a_p * e3
             + 1j * c2_kerr * (2.0 * pump2 + sh2) * a_2
             - kpp_2ap * a_2),
            (csu_src * a_s * a_p * np.conj(e2)
             + 1j * csu_kerr * cross * a_su
             - kpp_su * a_su),
            (ciu_src * a_i * a_p * np.conj(e4)
             + 1j * ciu_kerr * cross * a_iu
             - kpp_iu * a_iu),
        ])

    return rhs


def _rhs_3wm(m: MediumParams, modes: ModeSet3WM, beta: float):
    """Five-mode upconversion right-hand side ``rhs(x, y) -> dy/dx`` with
    its coefficients bound; y is [s, ip, 2ip, s+ip, s+2ip].

    Every mode must sit below ``PLASMA_GUARD_3WM * omegaJ``.
    """
    k = np.array([wavevector(m, w, guard=PLASMA_GUARD_3WM)
                  for w in modes.frequencies])
    wt = np.array([omega_tilde(m, w) for w in modes.frequencies])
    kpp_s, kpp_ip, kpp_2ip, kpp_su, kpp_su2 = k * m.tan_delta / 2.0
    ks, kip, k2, ksu, ksu2 = k
    ts, tip, t2, tsu, tsu2 = wt

    cs_up = beta * (kip - ksu) * kip * ksu / (2.0 * ks * ts)
    cip_shg = beta * (kip - k2) * k2 / (2.0 * tip)
    c2_src = beta * kip**3 / (2.0 * k2 * t2)
    csu_src = beta * (ks + kip) * kip * ks / (2.0 * ksu * tsu)
    csu_up = beta * (kip - ksu2) * kip * ksu2 / (2.0 * ksu * tsu)
    csu2_src = beta * (ksu + kip) * kip * ksu / (2.0 * ksu2 * tsu2)
    da = 2.0 * kip - k2
    db = ksu - kip - ks
    dc = ksu2 - kip - ksu

    def rhs(x, y):
        a_s, a_ip, a_2, a_su, a_su2 = y
        f1 = np.exp(1j * da * x)
        f2 = np.exp(1j * db * x)
        f3 = np.exp(1j * dc * x)

        return np.array([
            cs_up * a_su * np.conj(a_ip) * f2 - kpp_s * a_s,
            cip_shg * np.conj(a_ip) * a_2 * np.conj(f1) - kpp_ip * a_ip,
            c2_src * a_ip * a_ip * f1 - kpp_2ip * a_2,
            (csu_src * a_s * a_ip * np.conj(f2)
             + csu_up * a_su2 * np.conj(a_ip) * f3
             - kpp_su * a_su),
            csu2_src * a_su * a_ip * np.conj(f3) - kpp_su2 * a_su2,
        ])

    return rhs


def _validate_rtol(rtol: float) -> None:
    lo, hi = RTOL_RANGE
    if not (lo <= rtol <= hi):
        raise ValueError(f"rtol must lie in [{lo:g}, {hi:g}]")


def _propagate(m: MediumParams, modes, rhs, x_span: float | None,
               rtol: float, n_samples: int) -> Trajectory:
    if x_span is None:
        x_span = float(m.N)
    x_eval = np.linspace(0.0, x_span, max(int(n_samples), _MIN_SAMPLES))
    y0 = modes.amplitudes
    atol = rtol * max(float(np.max(np.abs(y0))), 1e-30) * 1e-6
    # blowing-up runs are detected and reported via the status code; the
    # overflow on the way there is not an anomaly worth warning about
    with np.errstate(over="ignore", invalid="ignore"):
        traj, status = _kernels.integrate(rhs, y0, x_eval, rtol, atol,
                                          _MAX_STEPS)
    if status == _kernels.STATUS_MAX_STEPS:
        raise StepFailure(f"step budget of {_MAX_STEPS} exhausted")
    if status == _kernels.STATUS_STEP_UNDERFLOW:
        raise StepFailure("step size underflow or non-finite state "
                          "(stiff or blowing-up run)")
    return Trajectory(x=x_eval, amplitudes=traj,
                      frequencies=modes.frequencies, medium=m)


def integrate_4wm(m: MediumParams, modes: ModeSet4WM, beta: float,
                  gamma: float, x_span: float | None = None,
                  rtol: float = 1e-10, n_samples: int = 257,
                  pump_depletion: bool = True) -> Trajectory:
    """Integrate the six-mode system from x=0 to ``x_span`` (default N).

    ``pump_depletion`` keeps the four-wave backaction of signal and idler
    on the pump; disabling it reproduces the stiff-pump variant.
    """
    _validate_rtol(rtol)
    rhs = _rhs_4wm(m, modes, beta, gamma, pump_depletion)
    return _propagate(m, modes, rhs, x_span, rtol, n_samples)


def integrate_3wm(m: MediumParams, modes: ModeSet3WM, beta: float,
                  x_span: float | None = None, rtol: float = 1e-10,
                  n_samples: int = 257) -> Trajectory:
    """Integrate the five-mode upconversion system (second-order
    couplings only).  All five modes must sit below 0.95 * omegaJ."""
    _validate_rtol(rtol)
    rhs = _rhs_3wm(m, modes, beta)
    return _propagate(m, modes, rhs, x_span, rtol, n_samples)


def _gain_db_from(traj: Trajectory) -> float:
    a0 = abs(traj.amplitudes[0, 0])
    a1 = abs(traj.amplitudes[-1, 0])
    return 20.0 * math.log10(a1 / a0)


def gain_spectrum(m: MediumParams, pump: ToneConfig, signal_omegas,
                  signal_power_dbm: float = -130.0, beta: float = 0.0,
                  gamma: float = 0.0, amp_scale: float = 1.0,
                  rtol: float = 1e-10, n_samples: int = _MIN_SAMPLES,
                  pump_depletion: bool = True) -> GainSpectrum:
    """Small-signal gain over a signal frequency grid [rad/s].

    Per-point domain failures (``TwpaError``: plasma guard, negative
    idler, stiff runs) are recorded as gaps with NaN gain rather than
    aborting the sweep; any other exception propagates.
    """
    omegas = np.asarray(signal_omegas, dtype=float)
    a_p = amplitude_from_dbm(m, pump.freq, pump.power_dbm, amp_scale)
    gain = np.full(omegas.shape, np.nan)
    gaps = []
    for idx, ws in enumerate(omegas):
        a_s = amplitude_from_dbm(m, ws, signal_power_dbm, amp_scale)
        try:
            modes = ModeSet4WM.initial(ws, pump.freq, a_s, a_p)
            traj = integrate_4wm(m, modes, beta, gamma, rtol=rtol,
                                 n_samples=n_samples,
                                 pump_depletion=pump_depletion)
            gain[idx] = _gain_db_from(traj)
        except TwpaError as exc:
            gaps.append((idx, float(ws), f"{type(exc).__name__}: {exc}"))
    meta = {"pump": pump, "amp_scale": amp_scale, "beta": beta,
            "gamma": gamma, "signal_power_dbm": signal_power_dbm}
    return GainSpectrum(omega=omegas, gain_db=gain, metadata=meta, gaps=gaps)


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
    """Gain versus signal power with full pump depletion.

    Reports the 1 dB compression input power (linear interpolation on the
    grid) if the curve crosses it.
    """
    powers = np.asarray(power_grid_dbm, dtype=float)
    if np.any(np.diff(powers) <= 0):
        raise ValueError("power grid must be strictly increasing")
    a_p = amplitude_from_dbm(m, pump.freq, pump.power_dbm, amp_scale)
    gain = np.empty(powers.shape)
    for idx, p_dbm in enumerate(powers):
        a_s = amplitude_from_dbm(m, omega_s, p_dbm, amp_scale)
        modes = ModeSet4WM.initial(omega_s, pump.freq, a_s, a_p)
        traj = integrate_4wm(m, modes, beta, gamma, rtol=rtol,
                             pump_depletion=True)
        gain[idx] = _gain_db_from(traj)

    g0 = gain[0]
    comp = None
    below = np.where(gain <= g0 - 1.0)[0]
    if below.size:
        j = below[0]
        if j == 0:
            comp = float(powers[0])
        else:
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
    ``omega_s + 2 omega_ip``, referenced to the signal input.  Grid
    points that fail with a ``TwpaError`` (e.g. a mode ladder above the
    0.95 * omegaJ guard) become gaps.
    """
    omegas = np.asarray(signal_omegas, dtype=float)
    a_p = amplitude_from_dbm(m, ip_pump.freq, ip_pump.power_dbm, amp_scale)
    gain = np.full(omegas.shape, np.nan)
    upfrac = np.full(omegas.shape, np.nan)
    gaps = []
    for idx, ws in enumerate(omegas):
        a_s = amplitude_from_dbm(m, ws, signal_power_dbm, amp_scale)
        try:
            modes = ModeSet3WM.initial(ws, ip_pump.freq, a_s, a_p)
            traj = integrate_3wm(m, modes, beta, rtol=rtol)
            gain[idx] = _gain_db_from(traj)
            n = traj.photon_flux()
            upfrac[idx] = (n[-1, 3] + n[-1, 4]) / n[0, 0]
        except TwpaError as exc:
            gaps.append((idx, float(ws), f"{type(exc).__name__}: {exc}"))
    meta = {"pump": ip_pump, "amp_scale": amp_scale, "beta": beta,
            "signal_power_dbm": signal_power_dbm}
    return GainSpectrum(omega=omegas, gain_db=gain, metadata=meta,
                        upconverted_fraction=upfrac, gaps=gaps)


def fit_couplings(m: MediumParams, pump: ToneConfig, signal_omegas,
                  target_gain_db, beta_grid, gamma_grid, amp_scale_grid,
                  signal_power_dbm: float = -130.0, rtol: float = 1e-8):
    """Grid-search fit of (beta, gamma, amp_scale) to a target spectrum.

    Minimizes the L2 distance between the simulated and target gain
    (NaN targets and gap points are ignored).  Returns
    ``(beta, gamma, amp_scale, l2)``.
    """
    target = np.asarray(target_gain_db, dtype=float)
    best = (None, None, None, math.inf)
    for b in beta_grid:
        for g in gamma_grid:
            for a in amp_scale_grid:
                spec = gain_spectrum(m, pump, signal_omegas,
                                     signal_power_dbm, beta=b, gamma=g,
                                     amp_scale=a, rtol=rtol)
                mask = np.isfinite(spec.gain_db) & np.isfinite(target)
                if not np.any(mask):
                    continue
                l2 = float(np.sqrt(np.mean(
                    (spec.gain_db[mask] - target[mask]) ** 2)))
                if l2 < best[3]:
                    best = (float(b), float(g), float(a), l2)
    if best[0] is None:
        raise StepFailure("no grid combination produced a valid spectrum")
    return best
