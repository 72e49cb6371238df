"""Phase-mismatch decomposition for four-wave-mixing amplification.

The residual wavevector imbalance of the process
``2 omega_p = omega_s + omega_i`` splits into three parts,

    dk_total = dk_dispersion + dk_kerr + dk_dynamic,

where the dispersion term comes from the curvature of k(omega), the Kerr
term from pump-induced self- and cross-phase modulation, and the dynamic
term from the phase backaction of non-phase-matched second-harmonic and
upconversion processes.  The dynamic expressions are perturbative: they
assume each auxiliary process stays far from phase matching
(|dk_aux| much larger than the induced phase rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeIdler, NotFound, SmallDenominator, TwpaError
from .medium import (MediumParams, amplitude_from_dbm, loss_wavevector,
                     omega_tilde, wavevector)

EPSILON_DK = 1e-4  # rad/cell; below this the perturbative formulas are invalid


@dataclass(frozen=True)
class ToneConfig:
    """One traveling tone: angular frequency [rad/s], port power [dBm],
    and propagation direction ('forward' or 'backward')."""

    freq: float
    power_dbm: float
    direction: str = "forward"

    def __post_init__(self):
        if not (self.freq > 0 and math.isfinite(self.freq)):
            raise ValueError("freq must be positive and finite")
        if not math.isfinite(self.power_dbm):
            raise ValueError("power_dbm must be finite")
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")


@dataclass(frozen=True)
class PhaseMismatchBreakdown:
    dk_dispersion: float
    dk_kerr: float
    dk_dynamic: float
    dk_total: float


@dataclass(frozen=True)
class DynamicEtas:
    """Kerr-like phase rates from the dynamic processes [rad/cell].

    ``valid`` is False when any auxiliary mismatch is within a factor of
    ten of the phase rate it generates, i.e. when the perturbative
    assumption starts to fail.
    """

    eta_ap_dyn: float
    eta_s_dyn: float
    eta_i_dyn: float
    valid: bool


def idler_frequency(omega_s: float, omega_ap: float) -> float:
    omega_i = 2.0 * omega_ap - omega_s
    if omega_i <= 0:
        raise NegativeIdler(
            f"2*omega_ap - omega_s = {omega_i:.4g} rad/s is not positive")
    return omega_i


def dk_dispersion(m: MediumParams, omega_s: float, omega_ap: float) -> float:
    """Linear mismatch ``2 k_ap - k_s - k_i`` [rad/cell]."""
    omega_i = idler_frequency(omega_s, omega_ap)
    return (2.0 * wavevector(m, omega_ap) - wavevector(m, omega_s)
            - wavevector(m, omega_i))


def kerr_etas(m: MediumParams, gamma: float, omega_s: float, omega_ap: float,
              pump_amp: float):
    """Self- and cross-Kerr phase rates (eta_s, eta_i, eta_ap) [rad/cell].

    eta_{s,i} = (6 gamma / 8 wt_{s,i}) k_ap^2 k_{s,i} |A_ap|^2 and
    eta_ap    = (3 gamma / 8 wt_ap)   k_ap^3         |A_ap|^2, with
    wt_m = 1 - omega_m^2/omegaJ^2.  The Kerr mismatch is
    ``2 eta_ap - eta_s - eta_i``.
    """
    if pump_amp < 0:
        raise ValueError("pump_amp must be >= 0")
    omega_i = idler_frequency(omega_s, omega_ap)
    k_s = wavevector(m, omega_s)
    k_i = wavevector(m, omega_i)
    k_ap = wavevector(m, omega_ap)
    a2 = pump_amp * pump_amp
    eta_s = 6.0 * gamma / (8.0 * omega_tilde(m, omega_s)) * k_ap**2 * k_s * a2
    eta_i = 6.0 * gamma / (8.0 * omega_tilde(m, omega_i)) * k_ap**2 * k_i * a2
    eta_ap = 3.0 * gamma / (8.0 * omega_tilde(m, omega_ap)) * k_ap**3 * a2
    return eta_s, eta_i, eta_ap


def eta_pump_dynamic(beta: float, k_ap: float, k_2ap: float, wt_ap: float,
                     wt_2ap: float, dk_2ap: float, pump_amp_sq: float) -> float:
    """Pump phase rate from its non-matched second harmonic [rad/cell]."""
    return (beta**2 * k_2ap * k_ap**3 * pump_amp_sq
            / (8.0 * dk_2ap * wt_ap * wt_2ap))


def eta_mode_dynamic(beta: float, k_ap: float, k_m: float, k_up: float,
                     wt_m: float, wt_up: float, dk_up: float,
                     pump_amp_sq: float) -> float:
    """Signal/idler phase rate from its non-matched upconversion [rad/cell]."""
    return (beta**2 * k_ap**2 * pump_amp_sq * k_up * k_m
            / (4.0 * wt_m * wt_up * dk_up))


def dynamic_etas(m: MediumParams, beta: float, omega_s: float, omega_ap: float,
                 pump_amp: float, epsilon_dk: float = EPSILON_DK) -> DynamicEtas:
    """Dynamic (second-harmonic/upconversion-induced) phase rates.

    Auxiliary modes at ``2 omega_ap``, ``omega_s + omega_ap`` and
    ``omega_i + omega_ap`` must sit below the plasma guard and be
    detuned: SmallDenominator is raised if any auxiliary mismatch
    magnitude is at or below ``epsilon_dk``.
    """
    if pump_amp < 0:
        raise ValueError("pump_amp must be >= 0")
    omega_i = idler_frequency(omega_s, omega_ap)
    w = {"s": omega_s, "ap": omega_ap, "i": omega_i,
         "2ap": 2.0 * omega_ap, "su": omega_s + omega_ap,
         "iu": omega_i + omega_ap}
    k = {name: wavevector(m, om) for name, om in w.items()}
    wt = {name: omega_tilde(m, om) for name, om in w.items()}

    dk_2ap = 2.0 * k["ap"] - k["2ap"]
    dk_su = k["ap"] + k["s"] - k["su"]
    dk_iu = k["ap"] + k["i"] - k["iu"]
    if beta == 0.0 or pump_amp == 0.0:
        # every rate is identically zero; the denominators never enter
        return DynamicEtas(0.0, 0.0, 0.0, valid=True)
    for name, dk in (("2ap", dk_2ap), ("s+ap", dk_su), ("i+ap", dk_iu)):
        if abs(dk) <= epsilon_dk:
            raise SmallDenominator(
                f"|dk_{name}| = {abs(dk):.3g} rad/cell <= {epsilon_dk:.3g}; "
                "the perturbative dynamic-phase formula does not apply")

    a2 = pump_amp * pump_amp
    eta_ap = eta_pump_dynamic(beta, k["ap"], k["2ap"], wt["ap"], wt["2ap"],
                              dk_2ap, a2)
    eta_s = eta_mode_dynamic(beta, k["ap"], k["s"], k["su"], wt["s"], wt["su"],
                             dk_su, a2)
    eta_i = eta_mode_dynamic(beta, k["ap"], k["i"], k["iu"], wt["i"], wt["iu"],
                             dk_iu, a2)
    valid = (abs(dk_2ap) > 10.0 * abs(eta_ap)
             and abs(dk_su) > 10.0 * abs(eta_s)
             and abs(dk_iu) > 10.0 * abs(eta_i))
    return DynamicEtas(eta_ap_dyn=eta_ap, eta_s_dyn=eta_s, eta_i_dyn=eta_i,
                       valid=valid)


def attenuated_pump_amplitude(m: MediumParams, pump: ToneConfig,
                              amp_scale: float = 1.0) -> float:
    """Pump amplitude with the line-averaged dielectric attenuation.

    The analytic mismatch formulas use a position-independent pump
    amplitude ``A0 * exp(-k_ap tan_delta N / 4)``; the coupled-mode
    integrator applies the exact per-cell loss instead.
    """
    a0 = amplitude_from_dbm(m, pump.freq, pump.power_dbm, amp_scale)
    k_ap = wavevector(m, pump.freq)
    return a0 * math.exp(-k_ap * m.tan_delta * m.N / 4.0)


def dk_total(m: MediumParams, beta: float, gamma: float, signal: ToneConfig,
             pump: ToneConfig, amp_scale: float = 1.0,
             epsilon_dk: float = EPSILON_DK) -> PhaseMismatchBreakdown:
    """Three-component mismatch for a (signal, pump) pair.

    The pump amplitude entering the Kerr and dynamic terms carries the
    line-averaged attenuation factor (see
    :func:`attenuated_pump_amplitude`).
    """
    amp = attenuated_pump_amplitude(m, pump, amp_scale)
    d_disp = dk_dispersion(m, signal.freq, pump.freq)
    eta_s, eta_i, eta_ap = kerr_etas(m, gamma, signal.freq, pump.freq, amp)
    d_kerr = 2.0 * eta_ap - eta_s - eta_i
    de = dynamic_etas(m, beta, signal.freq, pump.freq, amp, epsilon_dk)
    d_dyn = 2.0 * de.eta_ap_dyn - de.eta_s_dyn - de.eta_i_dyn
    return PhaseMismatchBreakdown(dk_dispersion=d_disp, dk_kerr=d_kerr,
                                  dk_dynamic=d_dyn,
                                  dk_total=d_disp + d_kerr + d_dyn)


def find_matched_pump(m: MediumParams, beta: float, gamma: float,
                      omega_s: float, pump_power_dbm: float,
                      search_band, amp_scale: float = 1.0,
                      threshold: float = 1e-3, grid_points: int = 241):
    """Pump frequency in ``search_band`` [rad/s] minimizing |dk_total|.

    Returns ``(omega_ap, dk_at_min)``.  Grid search plus a bounded local
    refinement; grid points whose mismatch formulas are invalid
    (plasma guard, small denominators, negative idler) are skipped.

    Raises
    ------
    NotFound
        If no valid point exists or the best |dk_total| exceeds
        ``threshold`` [rad/cell].
    """
    # imported here, its only use: loading scipy.optimize costs every
    # `import twpasim` and every CLI run ~0.7 s that they never need
    from scipy.optimize import minimize_scalar

    lo, hi = float(search_band[0]), float(search_band[1])
    if not (0 < lo < hi):
        raise ValueError("search band must satisfy 0 < lo < hi")
    signal = ToneConfig(freq=omega_s, power_dbm=-200.0)

    def objective(omega_ap: float) -> float:
        pump = ToneConfig(freq=omega_ap, power_dbm=pump_power_dbm)
        try:
            return abs(dk_total(m, beta, gamma, signal, pump, amp_scale).dk_total)
        except TwpaError:
            return math.inf

    grid = np.linspace(lo, hi, grid_points)
    vals = np.array([objective(w) for w in grid])
    if not np.any(np.isfinite(vals)):
        raise NotFound("no valid pump frequency in the search band")
    ibest = int(np.argmin(vals))
    a = grid[max(ibest - 1, 0)]
    b = grid[min(ibest + 1, grid_points - 1)]
    res = minimize_scalar(objective, bounds=(a, b), method="bounded",
                          options={"xatol": (hi - lo) * 1e-9})
    omega_best, best = (res.x, res.fun) if res.fun <= vals[ibest] \
        else (grid[ibest], vals[ibest])
    if best > threshold:
        raise NotFound(
            f"best |dk_total| = {best:.3g} rad/cell exceeds threshold "
            f"{threshold:.3g}")
    return float(omega_best), float(best)
