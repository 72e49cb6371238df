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

Each term is written once, on floats and arrays alike.  The one-point
functions (:func:`dk_total`, :func:`dk_dispersion`, :func:`kerr_etas`,
:func:`dynamic_etas`) evaluate it on floats and raise a point's error;
:func:`breakdown_grid` evaluates it over a whole grid of signal or pump
frequencies in one array pass and returns each failing point's error
instead, so a grid row is a gap exactly where :func:`dk_total` raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeIdler, NotFound, SmallDenominator, TwpaError
from .medium import (PLASMA_GUARD, MediumParams, _wavevector,
                     amplitude_from_dbm, band_error, in_band, omega_tilde,
                     wavevector)

EPSILON_DK = 1e-4  # rad/cell; below this the perturbative formulas are invalid
_AUX_NAMES = ("2ap", "s+ap", "i+ap")  # the auxiliary modes, in check order


@dataclass(frozen=True, slots=True)
class ToneConfig:
    """One traveling tone: angular frequency [rad/s] and port power [dBm]."""

    freq: float
    power_dbm: float

    def __post_init__(self):
        if not (self.freq > 0 and math.isfinite(self.freq)):
            raise ValueError("freq must be positive and finite")
        if not math.isfinite(self.power_dbm):
            raise ValueError("power_dbm must be finite")


@dataclass(frozen=True, slots=True)
class PhaseMismatchBreakdown:
    dk_dispersion: float
    dk_kerr: float
    dk_dynamic: float
    dk_total: float


@dataclass(frozen=True, slots=True)
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


def _frequencies(omega_s, omega_ap):
    """The modes [s, ap, i, 2ap, s+ap, i+ap] of a (signal, pump) point,
    the one six-mode order; floats or arrays."""
    omega_i = 2.0 * omega_ap - omega_s
    return (omega_s, omega_ap, omega_i, 2.0 * omega_ap, omega_s + omega_ap,
            omega_i + omega_ap)


def idler_frequency(omega_s: float, omega_ap: float) -> float:
    omega_i = _frequencies(omega_s, omega_ap)[2]
    if omega_i <= 0:
        raise NegativeIdler(
            f"2*omega_ap - omega_s = {omega_i:.4g} rad/s is not positive")
    return omega_i


def _point_error(m: MediumParams, w) -> TwpaError:
    """Why one point's array of mode frequencies is outside the model: the
    pump's plasma guard, then a negative idler, then the other modes'
    guards in order."""
    error = band_error(m, w[1])
    if error is None:
        try:
            idler_frequency(w[0], w[1])
        except NegativeIdler as exc:
            return exc
        error = band_error(m, np.delete(w, 1))
    return error


def _point(m: MediumParams, omega_s: float, omega_ap: float, n_modes: int):
    """Wavevectors and plasma factors of one point's first ``n_modes``
    modes, as lists of floats; raises the point's error."""
    w = _frequencies(float(omega_s), float(omega_ap))[:n_modes]
    if not all([in_band(m, x) for x in w]):
        raise _point_error(m, np.array(w))
    return [_wavevector(m, x) for x in w], [omega_tilde(m, x) for x in w]


def _ladder(m: MediumParams, frequencies, guard: float, error):
    """The modes ``frequencies`` (floats or arrays, broadcast together) of
    a point or a grid as ``(ok, errors, k, wt, w)``: ``ok`` marks the
    points whose every mode is below ``guard * omegaJ``, ``errors`` maps
    each other point's index to ``error(its column of frequencies)``, and
    ``k``, ``wt`` and ``w`` hold the ``ok`` points' wavevectors, plasma
    factors and frequencies, one row per mode."""
    w = np.array(np.broadcast_arrays(*frequencies))
    w = w.reshape(len(w), -1)
    ok = in_band(m, w, guard).all(axis=0)
    errors = {j: error(w[:, j]) for j in np.flatnonzero(~ok).tolist()}
    w = w[:, ok]
    return ok, errors, _wavevector(m, w), omega_tilde(m, w), w


def _grid(m: MediumParams, omega_s, omega_ap):
    """The six modes of a grid of points as :func:`_ladder`'s ``(ok,
    errors, k, wt, w)``, each failing point with :func:`dk_total`'s error."""
    return _ladder(m, _frequencies(np.asarray(omega_s, float),
                                   np.asarray(omega_ap, float)),
                   PLASMA_GUARD, lambda w: _point_error(m, w))


# The arithmetic below takes the wavevectors ``k`` and plasma factors
# ``wt`` of the modes [s, ap, i, 2ap, s+ap, i+ap], floats (one point) or
# arrays (a grid), and gives the phase rates of s, ap and i in that order.


def _mismatch(x):
    """The four-wave-mixing combination ``2 x_ap - x_s - x_i`` of values
    given in the order signal, pump, idler."""
    return 2.0 * x[1] - x[0] - x[2]


def _kerr_rates(gamma: float, k, wt) -> list:
    """Cross-Kerr rate per unit ``k_p^2 |A_p|^2`` of a pump p on each
    mode m, ``6 gamma k_m / (8 wt_m)``; a pump's rate on itself is half
    of its own entry."""
    return [6.0 * gamma * km / (8.0 * wm) for km, wm in zip(k, wt)]


def _kerr(gamma: float, k, wt, a2):
    """Kerr phase rates (eta_s, eta_ap, eta_i); see :func:`kerr_etas`."""
    rate_s, rate_ap, rate_i = _kerr_rates(gamma, k[:3], wt[:3])
    k_sq = k[1]**2
    return rate_s * k_sq * a2, 0.5 * rate_ap * k_sq * a2, rate_i * k_sq * a2


def _aux_mismatch(k):
    """Mismatches of the auxiliary processes, in _AUX_NAMES order:
    ``2 k_ap - k_2ap`` and ``k_ap + k_m - k_{m+ap}`` for m = s, i."""
    return 2.0 * k[1] - k[3], k[1] + k[0] - k[4], k[1] + k[2] - k[5]


def _small(dk, epsilon_dk: float) -> list:
    """Whether each auxiliary mismatch is at or below ``epsilon_dk``."""
    return [abs(d) <= epsilon_dk for d in dk]


def _small_denominator(r: int, dk: float, epsilon_dk: float):
    return SmallDenominator(
        f"|dk_{_AUX_NAMES[r]}| = {abs(dk):.3g} rad/cell <= {epsilon_dk:.3g}; "
        "the perturbative dynamic-phase formula does not apply")


def _dynamic(beta: float, k, wt, dk, a2):
    """Dynamic phase rates (eta_s, eta_ap, eta_i), for auxiliary
    mismatches ``dk`` above the small-denominator threshold."""
    return (
        eta_mode_dynamic(beta, k[1], k[0], k[4], wt[0], wt[4], dk[1], a2),
        eta_pump_dynamic(beta, k[1], k[3], wt[1], wt[3], dk[0], a2),
        eta_mode_dynamic(beta, k[1], k[2], k[5], wt[2], wt[5], dk[2], a2))


def _components(gamma: float, k, wt, amp, eta_dyn):
    """Dispersion, Kerr, dynamic and total mismatch [rad/cell]."""
    d_disp = _mismatch(k)
    d_kerr = _mismatch(_kerr(gamma, k, wt, amp * amp))
    d_dyn = _mismatch(eta_dyn)
    return d_disp, d_kerr, d_dyn, d_disp + d_kerr + d_dyn


def dk_dispersion(m: MediumParams, omega_s: float, omega_ap: float) -> float:
    """Linear mismatch ``2 k_ap - k_s - k_i`` [rad/cell]."""
    k, _ = _point(m, omega_s, omega_ap, 3)
    return _mismatch(k)


def kerr_etas(m: MediumParams, gamma: float, omega_s: float, omega_ap: float,
              pump_amp: float):
    """Self- and cross-Kerr phase rates (eta_s, eta_i, eta_ap) [rad/cell].

    eta_{s,i} = (6 gamma / 8 wt_{s,i}) k_ap^2 k_{s,i} |A_ap|^2 and
    eta_ap    = (3 gamma / 8 wt_ap)   k_ap^3         |A_ap|^2, with
    wt_m = 1 - omega_m^2/omegaJ^2.  The Kerr mismatch is
    ``2 eta_ap - eta_s - eta_i``.  A negative or NaN ``pump_amp`` raises
    ``ValueError``.
    """
    if not pump_amp >= 0:
        raise ValueError(f"pump_amp must be >= 0, got {pump_amp}")
    k, wt = _point(m, omega_s, omega_ap, 3)
    eta_s, eta_ap, eta_i = _kerr(gamma, k, wt, pump_amp * pump_amp)
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


def _dynamic_etas(beta: float, k, wt, pump_amp: float, epsilon_dk: float):
    """``((eta_s, eta_ap, eta_i), valid)`` of :func:`dynamic_etas`."""
    if beta == 0.0 or pump_amp == 0.0:
        # every rate is identically zero; the denominators never enter
        return (0.0, 0.0, 0.0), True
    dk = _aux_mismatch(k)
    small = _small(dk, epsilon_dk)
    if any(small):
        r = small.index(True)
        raise _small_denominator(r, dk[r], epsilon_dk)
    eta = _dynamic(beta, k, wt, dk, pump_amp * pump_amp)
    # each rate against its own process's mismatch: ap 2ap, s s+ap, i i+ap
    return eta, all(abs(d) > 10.0 * abs(eta[j])
                    for d, j in zip(dk, (1, 0, 2)))


def dynamic_etas(m: MediumParams, beta: float, omega_s: float, omega_ap: float,
                 pump_amp: float, epsilon_dk: float = EPSILON_DK) -> DynamicEtas:
    """Dynamic (second-harmonic/upconversion-induced) phase rates.

    Auxiliary modes at ``2 omega_ap``, ``omega_s + omega_ap`` and
    ``omega_i + omega_ap`` must sit below the plasma guard and be
    detuned: SmallDenominator is raised if any auxiliary mismatch
    magnitude is at or below ``epsilon_dk``.  A negative or NaN
    ``pump_amp`` raises ``ValueError``.
    """
    if not pump_amp >= 0:
        raise ValueError(f"pump_amp must be >= 0, got {pump_amp}")
    k, wt = _point(m, omega_s, omega_ap, 6)
    eta, valid = _dynamic_etas(beta, k, wt, pump_amp, epsilon_dk)
    return DynamicEtas(eta[1], eta[0], eta[2], valid=valid)


def _attenuate(m: MediumParams, a0, k_ap):
    return a0 * np.exp(-k_ap * m.tan_delta * m.N / 4.0)


def attenuated_pump_amplitude(m: MediumParams, pump: ToneConfig) -> float:
    """Pump amplitude with the line-averaged dielectric attenuation.

    The analytic mismatch formulas use a position-independent pump
    amplitude ``A0 * exp(-k_ap tan_delta N / 4)``; the coupled-mode
    integrator applies the exact per-cell loss instead.
    """
    a0 = amplitude_from_dbm(m, pump.freq, pump.power_dbm)
    return float(_attenuate(m, a0, wavevector(m, pump.freq)))


def _dk_point(m, beta, gamma, omega_s, omega_ap, power_dbm, eps):
    """:func:`dk_total`'s four components and errors at one point, on
    floats: the matched-pump root solve calls it with no tone objects."""
    a0 = amplitude_from_dbm(m, omega_ap, power_dbm)
    k, wt = _point(m, omega_s, omega_ap, 6)
    amp = float(_attenuate(m, a0, k[1]))
    eta, _ = _dynamic_etas(beta, k, wt, amp, eps)
    return _components(gamma, k, wt, amp, eta)


def dk_total(m: MediumParams, beta: float, gamma: float, signal: ToneConfig,
             pump: ToneConfig,
             epsilon_dk: float = EPSILON_DK) -> PhaseMismatchBreakdown:
    """Three-component mismatch for a (signal, pump) pair.

    The pump amplitude entering the Kerr and dynamic terms carries the
    line-averaged attenuation factor (see
    :func:`attenuated_pump_amplitude`).  Raises, checking in this order:
    ``ValueError`` for a pump amplitude that is not finite and positive;
    AbovePlasmaCutoff for the pump; NegativeIdler; AbovePlasmaCutoff for
    the signal, the idler and the auxiliary modes ``2 omega_ap``,
    ``omega_s + omega_ap`` and ``omega_i + omega_ap`` (also when ``beta``
    is zero); and, when ``beta`` and the pump are non-zero,
    SmallDenominator.  :func:`breakdown_grid` is the same arithmetic over
    a grid.
    """
    return PhaseMismatchBreakdown(*_dk_point(
        m, beta, gamma, signal.freq, pump.freq, pump.power_dbm, epsilon_dk))


def breakdown_grid(m: MediumParams, beta: float, gamma: float, omega_s,
                   omega_ap, pump_power_dbm: float,
                   epsilon_dk: float = EPSILON_DK):
    """:func:`dk_total` over a grid of signal and pump frequencies [rad/s],
    broadcast together, in one array pass.

    Returns ``(values, errors)``.  ``values`` is an ``(n, 4)`` array whose
    columns are the dispersion, Kerr, dynamic and total mismatch
    [rad/cell].  A point where :func:`dk_total` raises a TwpaError keeps
    a NaN row, and ``errors`` lists each such point as ``(index, error)``,
    in grid order.  A pump amplitude that is not finite and positive
    raises ``ValueError``, as it does from :func:`dk_total`.
    """
    a0 = amplitude_from_dbm(m, omega_ap, pump_power_dbm)
    ok, errors, k, wt, _ = _grid(m, omega_s, omega_ap)
    rows = np.flatnonzero(ok)
    amp = _attenuate(m, np.broadcast_to(a0, ok.shape)[ok], k[1])
    dk = np.array(_aux_mismatch(k))
    small = np.array(_small(dk, epsilon_dk))
    # as in _dynamic_etas: without beta or pump every rate is zero
    live = (beta != 0.0) & (amp != 0.0)
    bad = live & small.any(axis=0)
    for j in np.flatnonzero(bad).tolist():
        r = int(small[:, j].argmax())
        errors[int(rows[j])] = _small_denominator(r, dk[r, j], epsilon_dk)
    use = live & ~bad
    # every in-band point at once, a harmless denominator where unused
    eta_dyn = np.where(use, _dynamic(beta, k, wt, np.where(use, dk, 1.0),
                                     amp * amp), 0.0)
    values = np.full((ok.size, 4), np.nan)
    values[rows[~bad]] = np.column_stack(
        _components(gamma, k, wt, amp, eta_dyn))[~bad]
    return values, sorted(errors.items())


def _illinois(f, a: float, fa: float, b: float, fb: float, xtol: float,
              maxfun: int = 60):
    """Zero of ``f`` between ``a < b``, where ``fa = f(a)`` and ``fb = f(b)``
    have opposite signs, by regula falsi with the Illinois modification
    (M. Dowell and P. Jarratt, BIT 11, 168, 1971): each call is at the
    secant zero of the two ends, inside the bracket, and replaces the end
    of its sign; an end kept twice in a row has its value halved.  Stops
    at an exact zero, a bracket at most ``xtol`` wide or ``maxfun`` calls,
    and returns ``(x, f(x))`` at the end of smaller ``|f|``.
    """
    ga, gb, side = fa, fb, 0  # the secant's end values; the end last moved
    while b - a > xtol and maxfun > 0:
        maxfun -= 1
        x = a + (b - a) * (ga / (ga - gb))
        fx = f(x)
        if fx == 0.0:
            return x, fx
        if (fx < 0.0) == (fa < 0.0):
            a, fa, ga, gb = x, fx, fx, (0.5 * gb if side < 0 else gb)
            side = -1
        else:
            b, fb, gb, ga = x, fx, fx, (0.5 * ga if side > 0 else ga)
            side = 1
    return (a, fa) if abs(fa) <= abs(fb) else (b, fb)


def find_matched_pump(m: MediumParams, beta: float, gamma: float,
                      omega_s: float, pump_power_dbm: float,
                      search_band, threshold: float = 1e-3,
                      grid_points: int = 241):
    """Pump frequency in ``search_band`` [rad/s] where dk_total is zero.

    Returns ``(omega_ap, |dk_total|)``.  :func:`breakdown_grid` evaluates
    ``grid_points`` pumps spanning the band in one pass, skipping those
    whose mismatch formulas are invalid (plasma guard, small denominators,
    negative idler).  Where dk_total changes sign between the grid point
    of least |dk_total| and a neighbour (the one of smaller |dk_total| if
    both do), :func:`_illinois` solves for its zero there, from the two
    grid values, to ``1e-9`` of the band width.  That grid point itself is
    the answer when its dk_total is exactly zero, when neither neighbour
    brackets a sign change, when dk_total raises a TwpaError inside the
    bracket, or when the solve ends above the point's |dk_total|.

    Raises
    ------
    ValueError
        If the band is not ``0 < lo < hi`` with ``hi`` finite, or
        ``grid_points`` is below 2 (one point cannot bracket a zero).
    NotFound
        If no valid point exists or the best |dk_total| exceeds
        ``threshold`` [rad/cell].
    """
    lo, hi = float(search_band[0]), float(search_band[1])
    if not (0 < lo < hi < math.inf):
        raise ValueError("search band must satisfy 0 < lo < hi < inf")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    signal = ToneConfig(freq=omega_s, power_dbm=-200.0)

    def dk(omega_ap: float) -> float:
        return _dk_point(m, beta, gamma, signal.freq, omega_ap,
                         pump_power_dbm, EPSILON_DK)[3]

    grid = np.linspace(lo, hi, grid_points)
    values, errors = breakdown_grid(m, beta, gamma, omega_s, grid,
                                    pump_power_dbm)
    dk_grid = values[:, 3]
    vals = np.abs(dk_grid)
    vals[[j for j, _ in errors]] = math.inf
    if not np.any(np.isfinite(vals)):
        raise NotFound("no valid pump frequency in the search band")
    ibest = int(np.argmin(vals))
    omega_best, best = grid[ibest], vals[ibest]
    # a failing point's NaN never changes sign
    sides = [j for j in (ibest - 1, ibest + 1) if 0 <= j < grid_points
             and dk_grid[j] * dk_grid[ibest] < 0.0]
    if sides:
        a, b = sorted((ibest, min(sides, key=vals.__getitem__)))
        try:
            omega, dk_root = _illinois(dk, float(grid[a]), float(dk_grid[a]),
                                       float(grid[b]), float(dk_grid[b]),
                                       (hi - lo) * 1e-9)
        except TwpaError:  # the best grid point stands
            omega, dk_root = omega_best, best
        if abs(dk_root) <= best:
            omega_best, best = omega, abs(dk_root)
    if best > threshold:
        raise NotFound(
            f"best |dk_total| = {best:.3g} rad/cell exceeds threshold "
            f"{threshold:.3g}")
    return float(omega_best), float(best)
