"""Adaptive Dormand-Prince 5(4) stepper for the coupled-mode systems.

``integrate`` is plain Python/NumPy.  It takes the right-hand side as
its first argument: a callable ``rhs(x, y, out)`` that writes dy/dx into
``out``.  The right-hand sides themselves are built, with their
coefficients, in :mod:`twpasim.cme`.
"""

import numpy as np

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_STEP_UNDERFLOW = 2


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


def integrate(rhs, y0, x_eval, rtol, atol, max_steps):
    """Integrate dy/dx = rhs(x, y) from x_eval[0], sampling y at every
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

            rhs(x, y, k1)
            for j in range(n):
                yt[j] = y[j] + h_try * _A21 * k1[j]
            rhs(x + _C2 * h_try, yt, k2)
            for j in range(n):
                yt[j] = y[j] + h_try * (_A31 * k1[j] + _A32 * k2[j])
            rhs(x + _C3 * h_try, yt, k3)
            for j in range(n):
                yt[j] = y[j] + h_try * (_A41 * k1[j] + _A42 * k2[j]
                                        + _A43 * k3[j])
            rhs(x + _C4 * h_try, yt, k4)
            for j in range(n):
                yt[j] = y[j] + h_try * (_A51 * k1[j] + _A52 * k2[j]
                                        + _A53 * k3[j] + _A54 * k4[j])
            rhs(x + _C5 * h_try, yt, k5)
            for j in range(n):
                yt[j] = y[j] + h_try * (_A61 * k1[j] + _A62 * k2[j]
                                        + _A63 * k3[j] + _A64 * k4[j]
                                        + _A65 * k5[j])
            rhs(x + _C6 * h_try, yt, k6)
            for j in range(n):
                y5[j] = y[j] + h_try * (_B1 * k1[j] + _B3 * k3[j]
                                        + _B4 * k4[j] + _B5 * k5[j]
                                        + _B6 * k6[j])
            rhs(x + h_try, y5, k7)

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

