"""Acceptance suite: one test per ship criterion, each printing a
single PASS/FAIL line with its measured figures and runtime.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import cmath
import dataclasses
import math
import time

import numpy as np
import pytest

from twpasim import _kernels, cme
from twpasim import (MediumParams, ModeSet3WM, ModeSet4WM, SnailSpec,
                     ToneConfig, amplitude_from_dbm, cell_coefficients,
                     dk_total, dynamic_etas, equilibrium_phase,
                     gain_spectrum, integrate_3wm, integrate_4wm,
                     isolation_spectrum, kerr_etas, kerr_free_flux,
                     linear_transmission_db, saturation_curve, wavevector)
from twpasim.constants import HBAR
from twpasim.errors import AbovePlasmaCutoff
from twpasim.medium import omega_tilde
from twpasim.noisecal import (NoiseChainModel, NoiseMeasurement,
                              fit_output_line, source_noise, system_noise)
from twpasim.phasematch import _point

# fitted couplings and amplitude calibration for the gain-shape operating
# point (flux 0.35, pump 9.2 GHz at -78 dBm); obtained by a grid search
# against the target shape (docs/model.md) and frozen here
BETA_FIT = 0.104388
GAMMA_FIT = 0.122339
AMP_SCALE_FIT = 1.55

W_AP = 2 * math.pi * 9.2e9


def report(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{status}] {name}: {detail} "
          f"({time.perf_counter() - t0:.2f} s)")
    assert ok, f"criterion {num} ({name}): {detail}"


def device(tan_delta=2.9e-3):
    return SnailSpec(I0=2.2e-6, r=0.07, Cg=250e-15, CJ=35e-15, N=700,
                     tan_delta=tan_delta)


def medium_at(spec, flux):
    c = cell_coefficients(spec, equilibrium_phase(spec, flux))
    return c, MediumParams.from_cell(spec, c)


def fitted(m, **changes):
    """The line ``m`` with the fitted amplitude calibration."""
    return dataclasses.replace(m, amp_scale=AMP_SCALE_FIT, **changes)


def test_criterion_01_unit_cell_nulls():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.05, 0.07, 0.1):
        spec = SnailSpec(I0=2.2e-6, r=r, Cg=250e-15, CJ=35e-15, N=700)
        for flux in (0.0, 0.5):
            c = cell_coefficients(spec, equilibrium_phase(spec, flux))
            worst = max(worst, abs(c.beta_t))
    report(1, "unit-cell nulls", worst <= 1e-12,
           f"max |beta_t| at 0 and half flux = {worst:.2e} (tol 1e-12)", t0)


def test_criterion_02_dispersion_limits():
    t0 = time.perf_counter()
    spec = device()
    _, m = medium_at(spec, 0.0)
    w = 1e-4 * m.omegaJ
    ratio_err = abs(wavevector(m, w) * m.omega0 / w - 1.0)
    guarded = False
    try:
        wavevector(m, 0.98 * m.omegaJ)
    except AbovePlasmaCutoff:
        guarded = True
    ok = ratio_err <= 1e-6 and guarded
    report(2, "dispersion limits", ok,
           f"|k*omega0/omega - 1| = {ratio_err:.2e} at 1e-4*omegaJ "
           f"(tol 1e-6); guard at 0.98*omegaJ "
           f"{'raised' if guarded else 'MISSING'}", t0)


def test_criterion_03_manley_rowe(linear_dispersion_medium):
    t0 = time.perf_counter()
    m = linear_dispersion_medium
    ws = 2 * math.pi * 9.05e9
    a_p = amplitude_from_dbm(dataclasses.replace(m, amp_scale=3.0), W_AP,
                             -78.0)
    a_s = amplitude_from_dbm(m, ws, -120.0)
    modes = ModeSet4WM.initial(ws, W_AP, a_s, a_p)
    traj = integrate_4wm(m, modes, beta=0.0, gamma=0.05, rtol=1e-11)
    gain = 20 * math.log10(abs(traj.amplitudes[-1, 0]
                               / traj.amplitudes[0, 0]))
    n = traj.photon_flux()
    dns = n[-1, 0] - n[0, 0]
    dni = n[-1, 2] - n[0, 2]
    dnp = n[-1, 1] - n[0, 1]
    rel_si = abs(dns - dni) / abs(dns)
    rel_p = abs(dnp + 2 * dns) / abs(2 * dns)
    ok = rel_si < 1e-6 and rel_p < 1e-6 and 15.0 <= gain <= 25.0
    report(3, "Manley-Rowe 4WM", ok,
           f"gain {gain:.1f} dB over 700 cells; |dn_s-dn_i|/dn_s = "
           f"{rel_si:.2e}, |dn_ap+2dn_s|/2dn_s = {rel_p:.2e} (tol 1e-6)", t0)


def _contiguous_band(freqs, gain, i_peak):
    pos = gain > 0.0
    lo = i_peak
    while lo > 0 and pos[lo - 1]:
        lo -= 1
    hi = i_peak
    while hi < gain.size - 1 and pos[hi + 1]:
        hi += 1
    return lo, hi


def test_criterion_04_gain_shape(medium_035):
    t0 = time.perf_counter()
    m = fitted(medium_035)
    pump = ToneConfig(W_AP, -78.0)
    grid = 2 * math.pi * np.linspace(2.0e9, 16.5e9, 200)
    spec = gain_spectrum(m, pump, grid, beta=BETA_FIT, gamma=GAMMA_FIT,
                         rtol=1e-9)
    g = spec.gain_db
    assert not spec.gaps
    f_ghz = grid / (2 * math.pi) / 1e9

    peak = float(np.max(g))
    i_peak = int(np.argmax(g))
    lo, hi = _contiguous_band(f_ghz, g, i_peak)

    # double-lobed: two interior local maxima separated by a dip
    locmax = [i for i in range(lo + 1, hi)
              if g[i] >= g[i - 1] and g[i] >= g[i + 1]]
    ok_shape, dip, f_dip = False, 0.0, math.nan
    if len(locmax) >= 2:
        tops = sorted(locmax, key=lambda i: -g[i])[:2]
        ia, ib = min(tops), max(tops)
        i_min = ia + int(np.argmin(g[ia:ib + 1]))
        dip = float(min(g[ia], g[ib]) - g[i_min])
        f_dip = f_ghz[i_min]
        ok_shape = dip >= 0.15 and ia < i_min < ib

    # mismatch decomposition on the same grid
    dk = np.array([dk_total(m, BETA_FIT, GAMMA_FIT,
                            ToneConfig(w, -130.0), pump).dk_total
                   for w in grid])
    crossings = []
    for i in range(len(grid) - 1):
        if np.sign(dk[i]) != np.sign(dk[i + 1]):
            frac = -dk[i] / (dk[i + 1] - dk[i])
            crossings.append(f_ghz[i] + frac * (f_ghz[i + 1] - f_ghz[i]))
    in_low = any(f_ghz[lo] <= c <= f_dip for c in crossings)
    in_high = any(f_dip <= c <= f_ghz[hi] for c in crossings)

    ok = (15.0 <= peak <= 25.0) and ok_shape and in_low and in_high
    report(4, "gain shape", ok,
           f"peak {peak:.1f} dB (window [15, 25]); dip {dip:.2f} dB at "
           f"{f_dip:.2f} GHz (>=0.15); band [{f_ghz[lo]:.2f}, "
           f"{f_ghz[hi]:.2f}] GHz; dk zero-crossings at "
           f"{[f'{c:.2f}' for c in crossings]} GHz, in lobes: "
           f"{in_low}/{in_high}", t0)


def _phase_slope(traj, mode, beat_dk):
    """Average phase slope over an integer number of beat periods."""
    period = 2 * math.pi / abs(beat_dk)
    n_per = max(1, int(traj.x[-1] / period))
    window = n_per * period
    ph = traj.phases()[:, mode]
    ph_end = float(np.interp(window, traj.x, ph))
    return (ph_end - ph[0]) / window


def test_criterion_05_dynamic_phase_oracle():
    t0 = time.perf_counter()
    spec = device(tan_delta=0.0)
    flux_kf = kerr_free_flux(spec)
    coeffs, m = medium_at(spec, flux_kf)
    assert abs(coeffs.gamma_t) < 1e-12

    from scipy.optimize import brentq
    wap = 2 * math.pi * 10.0e9
    # place the idler where its upconversion coefficient coincides with
    # the reduced symmetric form (2 k_i = 1)
    wi = brentq(lambda f: wavevector(m, 2 * math.pi * f) - 0.5, 1e9, 30e9)
    ws = 2 * wap - 2 * math.pi * wi

    a_p = amplitude_from_dbm(m, wap, -84.0)
    a_s = amplitude_from_dbm(m, ws, -130.0)
    modes = ModeSet4WM.initial(ws, wap, a_s, a_p, a_i=a_s)
    traj = integrate_4wm(m, modes, beta=coeffs.beta, gamma=coeffs.gamma,
                         rtol=1e-12, n_samples=2801)

    de = dynamic_etas(m, coeffs.beta, ws, wap, a_p)
    eta_s, eta_i, eta_ap = kerr_etas(m, coeffs.gamma, ws, wap, a_p)
    k = {n: wavevector(m, w) for n, w in
         zip("s ap i 2ap su iu".split(), modes.frequencies)}
    beats = {"ap": 2 * k["ap"] - k["2ap"],
             "s": k["ap"] + k["s"] - k["su"],
             "i": k["ap"] + k["i"] - k["iu"]}
    analytic = {"ap": eta_ap + de.eta_ap_dyn,
                "s": eta_s + de.eta_s_dyn,
                "i": eta_i + de.eta_i_dyn}
    mode_idx = {"s": 0, "ap": 1, "i": 2}

    errs = {}
    for name in ("ap", "s", "i"):
        slope = _phase_slope(traj, mode_idx[name], beats[name])
        errs[name] = abs(slope - analytic[name]) / abs(analytic[name])
    ok = all(e <= 0.05 for e in errs.values())
    report(5, "dynamic-phase oracle", ok,
           f"flux {flux_kf:.4f} Phi0, pump 10 GHz @ -84 dBm; relative "
           f"error on the nonlinear phase slope: pump {errs['ap']:.1%}, "
           f"signal {errs['s']:.1%}, idler {errs['i']:.1%} (tol 5%)", t0)


def test_criterion_06_pump_power_scaling(medium_035):
    t0 = time.perf_counter()
    m = medium_035
    ws = 2 * math.pi * 7e9
    amp = 0.8
    k1 = kerr_etas(m, 0.05, ws, W_AP, amp)
    k2 = kerr_etas(m, 0.05, ws, W_AP, 2 * amp)
    d1 = dynamic_etas(m, 0.08, ws, W_AP, amp)
    d2 = dynamic_etas(m, 0.08, ws, W_AP, 2 * amp)
    dk_kerr = (2 * k1[2] - k1[0] - k1[1], 2 * k2[2] - k2[0] - k2[1])
    dk_dyn = (2 * d1.eta_ap_dyn - d1.eta_s_dyn - d1.eta_i_dyn,
              2 * d2.eta_ap_dyn - d2.eta_s_dyn - d2.eta_i_dyn)
    err_k = abs(dk_kerr[1] / dk_kerr[0] - 4.0) / 4.0
    err_d = abs(dk_dyn[1] / dk_dyn[0] - 4.0) / 4.0
    ok = err_k <= 1e-9 and err_d <= 1e-9
    report(6, "pump-power scaling", ok,
           f"doubling |A_ap| scales dk_kerr by 4 (err {err_k:.2e}) and "
           f"dk_dynamic by 4 (err {err_d:.2e}); tol 1e-9", t0)


def test_criterion_07_saturation(medium_035):
    t0 = time.perf_counter()
    pump = ToneConfig(W_AP, -78.0)
    powers = np.arange(-150.0, -84.0, 2.5)
    res = saturation_curve(fitted(medium_035), pump, 2 * math.pi * 7.6e9,
                           powers, beta=BETA_FIT, gamma=GAMMA_FIT, rtol=1e-9)
    flat = abs(res.gain_db[1] - res.gain_db[0])
    comp = res.compression_1db_dbm
    knee_ok = comp is not None and comp < pump.power_dbm
    tail = res.gain_db[res.power_dbm >= (comp if comp else -150.0)]
    monotone = bool(np.all(np.diff(tail) <= 1e-6))
    ok = flat <= 0.05 and knee_ok and monotone
    report(7, "gain saturation", ok,
           f"small-signal flat to {flat:.3f} dB at -150 dBm; 1 dB "
           f"compression at {comp if comp else float('nan'):.1f} dBm "
           f"(< pump {pump.power_dbm} dBm); tail monotone: {monotone}", t0)


def test_criterion_08_three_wave_conservation(linear_dispersion_medium,
                                              device_spec):
    t0 = time.perf_counter()
    # photon-number conservation of the signal family, lossless flat line
    m = linear_dispersion_medium
    w_ip = 2 * math.pi * 12e9
    w_s = 2 * math.pi * 5e9
    a_p = amplitude_from_dbm(dataclasses.replace(m, amp_scale=1.5), w_ip,
                             -75.0)
    modes = ModeSet3WM.initial(w_s, w_ip, 1e-5, a_p)
    traj = integrate_3wm(m, modes, beta=0.05, rtol=1e-11)
    n = traj.photon_flux()
    family = n[:, 0] + n[:, 3] + n[:, 4]
    rel = abs(family[-1] - family[0]) / family[0]
    converted = (n[-1, 3] + n[-1, 4]) / family[0]

    # flux nulls: with beta = 0 the isolation is exactly the linear loss
    worst_null = 0.0
    for flux in (0.0, 0.5):
        coeffs, md = medium_at(device_spec, flux)
        spec = isolation_spectrum(md, ToneConfig(w_ip, -76.0),
                                  [w_s], beta=coeffs.beta, rtol=1e-11)
        loss = linear_transmission_db(md, w_s)
        worst_null = max(worst_null, abs(spec.gain_db[0] - loss))

    ok = rel < 1e-6 and converted > 0.1 and worst_null < 1e-6
    report(8, "3WM conservation and flux nulls", ok,
           f"signal-family photon drift {rel:.2e} (tol 1e-6, "
           f"{converted:.0%} upconverted); max |isolation - loss| at "
           f"beta=0 fluxes = {worst_null:.2e} dB", t0)


def test_criterion_09_noise_fit_recovery():
    t0 = time.perf_counter()
    temps = np.array([0.04, 0.06, 0.08, 0.10, 0.85, 0.90, 0.95, 1.00])
    freqs = [4e9, 5e9, 6e9]
    g_true, n_photons, b_w = 1e6, 10.0, 1e6
    err_g, err_n = [], []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        om, tt, pp, ww = [], [], [], []
        for f in freqs:
            w = 2 * math.pi * f
            n_out = n_photons * HBAR * w
            x = np.array([source_noise(w, t) for t in temps])
            p_clean = (x + n_out) * g_true * b_w
            p = p_clean * (1 + 0.01 * rng.standard_normal(temps.size))
            om.append(np.full(temps.size, w))
            tt.append(temps)
            pp.append(p)
            ww.append(1.0 / (0.01 * p_clean) ** 2)
        data = NoiseMeasurement(omega=np.concatenate(om),
                                temperature=np.concatenate(tt),
                                power=np.concatenate(pp),
                                weight=np.concatenate(ww))
        fit = fit_output_line(data, b_w)
        for i, f in enumerate(freqs):
            w = 2 * math.pi * f
            err_g.append(abs(fit.model.g_out[i] - g_true) / g_true)
            err_n.append(abs(fit.model.n_out[i] - n_photons * HBAR * w)
                         / (n_photons * HBAR * w))
    med_g, med_n = float(np.median(err_g)), float(np.median(err_n))

    vacuum_exact = all(source_noise(w, 0.0) == HBAR * w / 2.0
                       for w in (2 * math.pi * f for f in freqs))
    ok = med_g < 0.03 and med_n < 0.03 and vacuum_exact
    report(9, "noise-fit recovery", ok,
           f"median over 100 seeds x 3 bins: G_out {med_g:.2%}, N_out "
           f"{med_n:.2%} (tol 3%); T=0 source noise exactly hbar*omega/2: "
           f"{vacuum_exact}", t0)


def test_criterion_10_system_noise_round_trip():
    t0 = time.perf_counter()
    w = 2 * math.pi * np.linspace(4e9, 8e9, 17)
    chain = NoiseChainModel(omega=w, g_out=np.full(w.size, 2.5e6),
                            n_out=12.0 * HBAR * w, b_w=1e6)
    # round trip of the generative model
    g_dev = np.full(w.size, 80.0)
    n_true = 1.75 * HBAR * w
    p = n_true * g_dev * chain.g_out * chain.b_w
    n_w, _ = system_noise(p, g_dev, chain)
    rt_err = float(np.max(np.abs(n_w / n_true - 1.0)))
    # synthetic three-photon scenario
    p3 = 3.0 * HBAR * w * g_dev * chain.g_out * chain.b_w
    _, n_ph = system_noise(p3, g_dev, chain)
    sql_err = float(np.max(np.abs(n_ph - 3.0)))
    ok = rt_err <= 1e-12 and sql_err <= 1e-9
    report(10, "system-noise round trip", ok,
           f"generative-model inversion error {rt_err:.2e} (tol 1e-12); "
           f"3x SQL scenario reports 3 photons +- {sql_err:.2e} "
           f"(tol 1e-9)", t0)


def oracle_4wm(m, beta, gamma, ws, wap, pump_depletion=True):
    """The six-mode system of docs/cme_reduction.md, transcribed
    independently of twpasim.cme: returns ``rhs(x, y) -> dy/dx``.
    Without ``pump_depletion`` the signal-idler backaction term of the
    pump equation is dropped."""
    dep = 1 if pump_depletion else 0
    wi = 2 * wap - ws
    w = [ws, wap, wi, 2 * wap, ws + wap, wi + wap]
    k = [wavevector(m, x) for x in w]
    wt = [omega_tilde(m, x) for x in w]
    kpp = [x * m.tan_delta / 2 for x in k]
    ks, kp, ki, k2, ku, kv = k
    ts, tp, ti, t2, tu, tv = wt

    def rhs(x, y):
        As, Ap, Ai, A2, Au, Av = y
        p2 = kp * kp * abs(Ap) ** 2
        s2 = k2 * k2 * abs(A2) ** 2
        e1 = cmath.exp(1j * (2 * kp - ki - ks) * x)
        e2 = cmath.exp(1j * (ku - kp - ks) * x)
        e3 = cmath.exp(1j * (2 * kp - k2) * x)
        e4 = cmath.exp(1j * (kv - kp - ki) * x)
        dAs = (1j * 6 * gamma * ks / (8 * ts) * (p2 + s2) * As
               + 1j * 3 * gamma / (8 * ts * ks) * (2 * kp - ki) * kp * kp
               * ki * Ap * Ap * Ai.conjugate() * e1
               + beta * (kp - ku) * kp * ku / (2 * ks * ts)
               * Au * Ap.conjugate() * e2 - kpp[0] * As)
        dAp = (beta * (kp - k2) * k2 / (2 * tp)
               * Ap.conjugate() * A2 * e3.conjugate()
               + 1j * 3 * gamma * kp / (8 * tp) * (p2 + 2 * s2) * Ap
               + dep * 1j * 6 * gamma / (8 * tp) * ks * ki * (ks + ki - kp)
               * As * Ai * Ap.conjugate() * e1.conjugate() - kpp[1] * Ap)
        dAi = (1j * 6 * gamma * ki / (8 * ti) * (p2 + s2) * Ai
               + 1j * 3 * gamma / (8 * ti * ki) * (2 * kp - ks) * kp * kp
               * ks * Ap * Ap * As.conjugate() * e1
               + beta * (kp - kv) * kv * kp / ti
               * Av * Ap.conjugate() * e4 - kpp[2] * Ai)
        dA2 = (beta * kp ** 3 / (2 * k2 * t2) * Ap * Ap * e3
               + 1j * 3 * gamma * k2 / (8 * t2) * (2 * p2 + s2) * A2
               - kpp[3] * A2)
        dAu = (beta * (ks + kp) * kp * ks / (2 * ku * tu)
               * As * Ap * e2.conjugate()
               + 1j * 6 * gamma * ku / (8 * tu) * (p2 + s2) * Au
               - kpp[4] * Au)
        dAv = (beta * (kp + ki) * kp * ki / (2 * kv * tv)
               * Ai * Ap * e4.conjugate()
               + 1j * 6 * gamma * kv / (8 * tv) * (p2 + s2) * Av
               - kpp[5] * Av)
        return (dAs, dAp, dAi, dA2, dAu, dAv)

    return rhs


def oracle_3wm(m, beta, ws, wip):
    """The five-mode upconversion system of docs/cme_reduction.md,
    transcribed independently of twpasim.cme."""
    w = [ws, wip, 2 * wip, ws + wip, ws + 2 * wip]
    k = [wavevector(m, x) for x in w]
    wt = [omega_tilde(m, x) for x in w]
    kpp = [x * m.tan_delta / 2 for x in k]
    ks, kp, k2, ku, kw = k
    ts, tp, t2, tu, tw = wt

    def rhs(x, y):
        As, Ap, A2, Au, Aw = y
        fa = cmath.exp(1j * (2 * kp - k2) * x)
        fb = cmath.exp(1j * (ku - kp - ks) * x)
        fc = cmath.exp(1j * (kw - kp - ku) * x)
        dAs = (beta * (kp - ku) * kp * ku / (2 * ks * ts)
               * Au * Ap.conjugate() * fb - kpp[0] * As)
        dAp = (beta * (kp - k2) * k2 / (2 * tp)
               * Ap.conjugate() * A2 * fa.conjugate() - kpp[1] * Ap)
        dA2 = beta * kp ** 3 / (2 * k2 * t2) * Ap * Ap * fa - kpp[2] * A2
        dAu = (beta * (ks + kp) * kp * ks / (2 * ku * tu)
               * As * Ap * fb.conjugate()
               + beta * (kp - kw) * kp * kw / (2 * ku * tu)
               * Aw * Ap.conjugate() * fc - kpp[3] * Au)
        dAw = (beta * (ku + kp) * kp * ku / (2 * kw * tw)
               * Au * Ap * fc.conjugate() - kpp[4] * Aw)
        return (dAs, dAp, dA2, dAu, dAw)

    return rhs


def _rk4_oracle_gain(m, beta, gamma, ws, wap, p_pump_dbm, p_sig_dbm,
                     steps=100_000):
    """Fixed-step classical RK4 on an independently transcribed system."""
    rhs = oracle_4wm(m, beta, gamma, ws, wap)
    a_p = amplitude_from_dbm(m, wap, p_pump_dbm)
    a_s = amplitude_from_dbm(m, ws, p_sig_dbm)
    y = (complex(a_s), complex(a_p), 0j, 0j, 0j, 0j)
    h = m.N / steps
    x = 0.0
    for _ in range(steps):
        k1 = rhs(x, y)
        k2_ = rhs(x + h / 2, tuple(yi + h / 2 * ki for yi, ki in zip(y, k1)))
        k3 = rhs(x + h / 2, tuple(yi + h / 2 * ki for yi, ki in zip(y, k2_)))
        k4 = rhs(x + h, tuple(yi + h * ki for yi, ki in zip(y, k3)))
        y = tuple(yi + h / 6 * (a + 2 * b + 2 * c + d)
                  for yi, a, b, c, d in zip(y, k1, k2_, k3, k4))
        x += h
    return 20 * math.log10(abs(y[0]) / a_s)


def test_criterion_11_solver_convergence(medium_035):
    t0 = time.perf_counter()
    m = fitted(medium_035)
    ws = 2 * math.pi * 7.6e9
    adaptive = gain_spectrum(m, ToneConfig(W_AP, -78.0), [ws],
                             beta=BETA_FIT, gamma=GAMMA_FIT,
                             rtol=1e-10).gain_db[0]
    oracle = _rk4_oracle_gain(m, BETA_FIT, GAMMA_FIT, ws, W_AP, -78.0,
                              -130.0)
    err = abs(adaptive - oracle)
    ok = err <= 1e-4
    report(11, "solver convergence", ok,
           f"adaptive {adaptive:.6f} dB vs 1e5-step RK4 oracle "
           f"{oracle:.6f} dB; |diff| = {err:.2e} dB (tol 1e-4)", t0)


W_IP = 2 * math.pi * 12.2e9


def _system(m, system):
    """``(rhs, theta)`` of the system's coupling table, the transcribed
    oracle, the initial state and the pump amplitude of one parametrized
    system at its test point."""
    beta = 0.0 if system.endswith("beta0") else BETA_FIT
    if system.startswith("4wm"):
        depletion = system != "4wm-no-depletion"
        ws, wap = 2 * math.pi * 7.6e9, W_AP
        scale = amplitude_from_dbm(m, wap, -78.0)
        modes = ModeSet4WM.initial(
            ws, wap, amplitude_from_dbm(m, ws, -130.0), scale)
        k, wt = _point(m, ws, wap, 6)
        table = cme._table_4wm(k, wt, m.tan_delta, beta, GAMMA_FIT,
                               depletion)
        oracle = oracle_4wm(m, beta, GAMMA_FIT, ws, wap,
                                pump_depletion=depletion)
    else:
        ws, wip = 2 * math.pi * 6e9, W_IP
        scale = amplitude_from_dbm(m, wip, -74.0)
        modes = ModeSet3WM.initial(
            ws, wip, amplitude_from_dbm(m, ws, -130.0), scale)
        _, _, k, wt, _ = cme._grid_3wm(m, ws, wip)
        table = cme._table_3wm(k[:, 0].tolist(), wt[:, 0].tolist(),
                               m.tan_delta, beta)
        oracle = oracle_3wm(m, beta, ws, wip)
    frame = cme._TableRhs(table, ()), np.array(table.theta)
    return frame, oracle, modes, scale


@pytest.mark.parametrize("system", ["4wm", "3wm", "4wm-no-depletion",
                                    "4wm-beta0"])
def test_rhs_matches_transcribed_oracle(medium_035, system):
    """Pointwise check of the integrated right-hand sides against the
    transcriptions above at seeded random states: a mistyped coupling
    coefficient shows up here without any integration.  The code
    integrates ``u = y exp(-i theta x)``, so its lab-frame derivative is
    ``exp(i theta x) (rhs(x, u) + i theta u)``; a monomial that the rates
    theta do not balance keeps a phase in x and fails here.  Each state is
    also evaluated at a NumPy position, as ``solve_ivp`` passes it."""
    m = fitted(medium_035)
    (rhs, theta), oracle, modes, scale = _system(m, system)
    n = modes.amplitudes.size
    rng = np.random.default_rng(20240)
    for _ in range(5):
        x = rng.uniform(0.0, m.N)
        y = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        rot = np.exp(1j * theta * x)
        u = y / rot
        expected = oracle(x, tuple(y))
        for pos in (x, np.float64(x)):
            np.testing.assert_allclose(rot * (rhs(pos, u) + 1j * theta * u),
                                       expected, rtol=1e-12)


@pytest.mark.parametrize("system", ["4wm", "3wm"])
def test_trajectory_matches_lab_frame_oracle(medium_035, system):
    """``integrate_4wm`` / ``integrate_3wm`` against the stepper run
    directly on the transcribed lab-frame system from the same state, with
    the tolerances ``cme`` uses: every sample agrees in amplitude and
    phase, so the rotating frame and its way back to the lab leave the
    trajectory as it was."""
    m = fitted(medium_035)
    _, oracle, modes, _ = _system(m, system)
    if system == "4wm":
        traj = integrate_4wm(m, modes, BETA_FIT, GAMMA_FIT)
    else:
        traj = cme.integrate_3wm(m, modes, BETA_FIT)
    y0 = modes.amplitudes
    rtol = 1e-10
    lab = _kernels.integrate(oracle, y0, traj.x, rtol,
                             rtol * np.abs(y0).max() * 1e-6, cme._MAX_STEPS)
    assert traj.amplitudes.shape == lab.shape == (257, y0.size)
    np.testing.assert_allclose(traj.amplitudes, lab, rtol=1e-8)


@pytest.mark.parametrize("pump_dbm", [-76.0, -74.0, -72.0])
def test_upconversion_two_mode_closed_form(pump_dbm):
    """Closed-form oracle for the isolation path.  On a lossless line,
    with the 2ip and s+2ip rows of the transcribed upconversion system
    zeroed, the pump stays constant and s <-> s+ip is a two-mode frequency
    converter: |A_s(x)/A_s(0)|^2 = 1 - (kappa/g)^2 sin^2(g x), with
    kappa^2 = -cs_up * csu_src * |A_ip|^2 and g^2 = kappa^2 + (db/2)^2."""
    m = fitted(medium_at(device(tan_delta=0.0), 0.35)[1])
    ws, wip = 2 * math.pi * 6e9, 2 * math.pi * 10e9
    oracle = oracle_3wm(m, BETA_FIT, ws, wip)
    keep = np.array([1.0, 1.0, 0.0, 1.0, 0.0])

    def rhs(x, y):
        return keep * np.array(oracle(x, tuple(y)))

    a_ip = amplitude_from_dbm(m, wip, pump_dbm)
    a_s = amplitude_from_dbm(m, ws, -130.0)
    x = np.linspace(0.0, m.N, 257)
    rtol = 1e-11
    y = _kernels.integrate(
        rhs, np.array([a_s, a_ip, 0, 0, 0], dtype=complex), x, rtol,
        rtol * a_ip * 1e-6, 2_000_000)

    ks, kip, ksu = (wavevector(m, w) for w in (ws, wip, ws + wip))
    cs_up = BETA_FIT * (kip - ksu) * kip * ksu / (2 * ks * omega_tilde(m, ws))
    csu_src = (BETA_FIT * (ks + kip) * kip * ks
               / (2 * ksu * omega_tilde(m, ws + wip)))
    kappa_sq = -cs_up * csu_src * a_ip ** 2
    g = math.sqrt(kappa_sq + ((ksu - kip - ks) / 2) ** 2)
    closed = 1 - kappa_sq / g ** 2 * np.sin(g * x) ** 2
    assert kappa_sq / g ** 2 > 0.9  # nearly phase matched: deep conversion
    np.testing.assert_allclose(np.abs(y[:, 0] / a_s) ** 2, closed,
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("pump_dbm", [-80.0, -78.0])
@pytest.mark.parametrize("f_s", [6e9, 7.6e9, 8.5e9, 11e9])
def test_parametric_gain_closed_form(medium_035, f_s, pump_dbm):
    """Closed-form oracle for the gain path (Yaakobi et al., PRB 87,
    144301, 2013).  On a lossless line with beta = 0 and no depletion the
    pump only picks up a Kerr phase and the signal gain is
    G = |cosh(gN) + i (Delta/2g) sinh(gN)|^2, with P = kap^2 |A_p|^2,
    Delta = d1 + 2 cap_kerr P - (cs_k + ci_k) P and
    g^2 = cs_pair ci_pair |A_p|^4 - (Delta/2)^2 (coefficients named as
    in cme._table_4wm).  Here g^2 < 0, so cosh and sinh turn into cos and
    sin: the mismatch only just outweighs the pair coupling."""
    m = fitted(medium_035, tan_delta=0.0)
    ws = 2 * math.pi * f_s
    a_p = amplitude_from_dbm(m, W_AP, pump_dbm)
    a_s = amplitude_from_dbm(m, ws, -130.0)
    modes = ModeSet4WM.initial(ws, W_AP, a_s, a_p)
    traj = integrate_4wm(m, modes, beta=0.0, gamma=GAMMA_FIT, rtol=1e-11,
                         pump_depletion=False)
    gain_db = 20 * math.log10(abs(traj.amplitudes[-1, 0]) / a_s)

    ks, kap, ki = (wavevector(m, w) for w in modes.frequencies[:3])
    ts, tap, ti = (omega_tilde(m, w) for w in modes.frequencies[:3])
    cs_k = 6 * GAMMA_FIT * ks / (8 * ts)
    cs_pair = 3 * GAMMA_FIT / (8 * ts * ks) * (2 * kap - ki) * kap**2 * ki
    cap_kerr = 3 * GAMMA_FIT * kap / (8 * tap)
    ci_k = 6 * GAMMA_FIT * ki / (8 * ti)
    ci_pair = 3 * GAMMA_FIT / (8 * ti * ki) * (2 * kap - ks) * kap**2 * ks
    p = kap**2 * a_p**2
    delta = 2 * kap - ki - ks + 2 * cap_kerr * p - (cs_k + ci_k) * p
    g = cmath.sqrt(cs_pair * ci_pair * a_p**4 - (delta / 2) ** 2)
    closed = abs(cmath.cosh(g * m.N)
                 + 1j * delta / (2 * g) * cmath.sinh(g * m.N)) ** 2
    assert abs(gain_db - 10 * math.log10(closed)) <= 1e-8
