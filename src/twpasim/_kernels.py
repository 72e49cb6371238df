"""Integration kernels for the coupled-mode systems.

The right-hand sides ``_rhs_4wm`` / ``_rhs_3wm`` and the adaptive
Dormand-Prince 5(4) stepper ``integrate`` are plain Python/NumPy.  A
right-hand side has the signature ``rhs(x, y, p, out)`` and writes
dy/dx into ``out``; ``integrate`` takes it as its first argument.

Parameter packing (float64 arrays, built in :mod:`twpasim.cme`):

four-wave system, state [A_s, A_ap, A_i, A_2ap, A_s+ap, A_i+ap]::

    0 cs_k    1 cs_pair  2 cs_up    3 kpp_s
    4 cap_shg 5 cap_kerr 6 cap_dep  7 kpp_ap
    8 ci_k    9 ci_pair 10 ci_up   11 kpp_i
   12 c2_src 13 c2_kerr 14 kpp_2ap
   15 csu_src 16 csu_kerr 17 kpp_su
   18 ciu_src 19 ciu_kerr 20 kpp_iu
   21 k_ap^2 22 k_2ap^2
   23 d1 = 2k_ap-k_i-k_s   24 d2 = k_su-k_ap-k_s
   25 d3 = 2k_ap-k_2ap     26 d4 = k_iu-k_ap-k_i

three-wave system, state [A_s, A_ip, A_2ip, A_s+ip, A_s+2ip]::

    0 cs_up   1 kpp_s    2 cip_shg 3 kpp_ip
    4 c2_src  5 kpp_2ip  6 csu_src 7 csu_up 8 kpp_su
    9 csu2_src 10 kpp_su2
   11 da = 2k_ip-k_2ip  12 db = k_su-k_ip-k_s  13 dc = k_su2-k_ip-k_su
"""

import numpy as np

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_STEP_UNDERFLOW = 2


def _rhs_4wm(x, y, p, out):
    a_s = y[0]
    a_p = y[1]
    a_i = y[2]
    a_2 = y[3]
    a_su = y[4]
    a_iu = y[5]

    pump2 = p[21] * (a_p.real * a_p.real + a_p.imag * a_p.imag)
    sh2 = p[22] * (a_2.real * a_2.real + a_2.imag * a_2.imag)
    cross = pump2 + sh2

    e1 = np.exp(1j * p[23] * x)
    e2 = np.exp(1j * p[24] * x)
    e3 = np.exp(1j * p[25] * x)
    e4 = np.exp(1j * p[26] * x)

    out[0] = (1j * p[0] * cross * a_s
              + 1j * p[1] * a_p * a_p * np.conj(a_i) * e1
              + p[2] * a_su * np.conj(a_p) * e2
              - p[3] * a_s)
    out[1] = (p[4] * np.conj(a_p) * a_2 * np.conj(e3)
              + 1j * p[5] * (pump2 + 2.0 * sh2) * a_p
              + 1j * p[6] * a_s * a_i * np.conj(a_p) * np.conj(e1)
              - p[7] * a_p)
    out[2] = (1j * p[8] * cross * a_i
              + 1j * p[9] * a_p * a_p * np.conj(a_s) * e1
              + p[10] * a_iu * np.conj(a_p) * e4
              - p[11] * a_i)
    out[3] = (p[12] * a_p * a_p * e3
              + 1j * p[13] * (2.0 * pump2 + sh2) * a_2
              - p[14] * a_2)
    out[4] = (p[15] * a_s * a_p * np.conj(e2)
              + 1j * p[16] * cross * a_su
              - p[17] * a_su)
    out[5] = (p[18] * a_i * a_p * np.conj(e4)
              + 1j * p[19] * cross * a_iu
              - p[20] * a_iu)


def _rhs_3wm(x, y, p, out):
    a_s = y[0]
    a_p = y[1]
    a_2 = y[2]
    a_su = y[3]
    a_su2 = y[4]

    f1 = np.exp(1j * p[11] * x)
    f2 = np.exp(1j * p[12] * x)
    f3 = np.exp(1j * p[13] * x)

    out[0] = p[0] * a_su * np.conj(a_p) * f2 - p[1] * a_s
    out[1] = p[2] * np.conj(a_p) * a_2 * np.conj(f1) - p[3] * a_p
    out[2] = p[4] * a_p * a_p * f1 - p[5] * a_2
    out[3] = (p[6] * a_s * a_p * np.conj(f2)
              + p[7] * a_su2 * np.conj(a_p) * f3
              - p[8] * a_su)
    out[4] = p[9] * a_su * a_p * np.conj(f3) - p[10] * a_su2


# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5, _C6 = 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0,
                                71.0 / 1920.0, -17253.0 / 339200.0,
                                22.0 / 525.0, -1.0 / 40.0)


def integrate(rhs, y0, p, x_eval, rtol, atol, max_steps):
    """Integrate dy/dx = rhs(x, y, p) from x_eval[0], sampling y at every
    x_eval point.  Returns ``(samples, status)`` with samples of shape
    (len(x_eval), len(y0)) and one of the ``STATUS_*`` codes; on failure
    the samples past the last reached point stay zero."""
    n = y0.shape[0]
    n_out = x_eval.shape[0]
    out = np.zeros((n_out, n), dtype=np.complex128)

    y = y0.copy()
    x = x_eval[0]
    out[0] = y

    k1 = np.zeros(n, dtype=np.complex128)
    k2 = np.zeros(n, dtype=np.complex128)
    k3 = np.zeros(n, dtype=np.complex128)
    k4 = np.zeros(n, dtype=np.complex128)
    k5 = np.zeros(n, dtype=np.complex128)
    k6 = np.zeros(n, dtype=np.complex128)
    k7 = np.zeros(n, dtype=np.complex128)
    yt = np.zeros(n, dtype=np.complex128)
    y5 = np.zeros(n, dtype=np.complex128)

    span = x_eval[n_out - 1] - x_eval[0]
    h = span * 1e-3
    h_min = span * 1e-14
    steps = 0

    for i_out in range(1, n_out):
        x_next = x_eval[i_out]
        while x < x_next:
            if steps >= max_steps:
                return out, STATUS_MAX_STEPS
            steps += 1
            if h > x_next - x:
                h_try = x_next - x
            else:
                h_try = h

            rhs(x, y, p, k1)
            for j in range(n):
                yt[j] = y[j] + h_try * _A21 * k1[j]
            rhs(x + _C2 * h_try, yt, p, k2)
            for j in range(n):
                yt[j] = y[j] + h_try * (_A31 * k1[j] + _A32 * k2[j])
            rhs(x + _C3 * h_try, yt, p, k3)
            for j in range(n):
                yt[j] = y[j] + h_try * (_A41 * k1[j] + _A42 * k2[j]
                                        + _A43 * k3[j])
            rhs(x + _C4 * h_try, yt, p, k4)
            for j in range(n):
                yt[j] = y[j] + h_try * (_A51 * k1[j] + _A52 * k2[j]
                                        + _A53 * k3[j] + _A54 * k4[j])
            rhs(x + _C5 * h_try, yt, p, k5)
            for j in range(n):
                yt[j] = y[j] + h_try * (_A61 * k1[j] + _A62 * k2[j]
                                        + _A63 * k3[j] + _A64 * k4[j]
                                        + _A65 * k5[j])
            rhs(x + _C6 * h_try, yt, p, k6)
            for j in range(n):
                y5[j] = y[j] + h_try * (_B1 * k1[j] + _B3 * k3[j]
                                        + _B4 * k4[j] + _B5 * k5[j]
                                        + _B6 * k6[j])
            rhs(x + h_try, y5, p, k7)

            # scaled RMS of the embedded 4th/5th-order difference
            err_sq = 0.0
            finite = True
            for j in range(n):
                e = h_try * (_E1 * k1[j] + _E3 * k3[j] + _E4 * k4[j]
                             + _E5 * k5[j] + _E6 * k6[j] + _E7 * k7[j])
                ya = abs(y[j])
                yb = abs(y5[j])
                big = ya if ya > yb else yb
                sc = atol + rtol * big
                q = abs(e) / sc
                if not np.isfinite(q):
                    finite = False
                    break
                err_sq += q * q
            err = np.sqrt(err_sq / n)

            if finite and err <= 1.0:
                x = x + h_try
                for j in range(n):
                    y[j] = y5[j]
                if err == 0.0:
                    fac = 5.0
                else:
                    fac = 0.9 * err ** -0.2
                    if fac > 5.0:
                        fac = 5.0
                    elif fac < 0.2:
                        fac = 0.2
                h = h_try * fac
            else:
                if not finite:
                    h = h_try * 0.1
                else:
                    fac = 0.9 * err ** -0.2
                    if fac < 0.1:
                        fac = 0.1
                    h = h_try * fac
                if h < h_min:
                    return out, STATUS_STEP_UNDERFLOW
        out[i_out] = y
    return out, STATUS_OK

