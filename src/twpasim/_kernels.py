"""Adaptive Dormand-Prince 5(4) stepper for the coupled-mode systems.

``integrate`` is plain NumPy on whole state arrays.  It takes the
right-hand side as its first argument: a callable ``rhs(x, y)`` that
returns dy/dx as a new array shaped like ``y`` (the ``solve_ivp``
convention).  The right-hand sides themselves are built, with their
coefficients, in :mod:`twpasim.cme`.

The seven stages of a step are the rows of one ``(7, n)`` array.  The
last stage of an accepted step is dy/dx at the new point, so it is
reused as the first stage of the next step ("first same as last") and
each attempted step costs six right-hand-side evaluations.
"""

import numpy as np

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_STEP_UNDERFLOW = 2


# Dormand-Prince 5(4) tableau: stage s (0..5) is evaluated at x + _C[s]*h
# from y + h * (_A[s, :s] @ k[:s]); the fifth-order solution weights the
# first six stages by _B, and _E weights all seven stages (the last one
# taken at the fifth-order solution) into the embedded error estimate.
_C = np.array([0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.2, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0,
     -212.0 / 729.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0],
])
_B = np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
               -2187.0 / 6784.0, 11.0 / 84.0])
_E = np.array([71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
               -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0])


def integrate(rhs, y0, x_eval, rtol, atol, max_steps):
    """Integrate dy/dx = rhs(x, y) from x_eval[0], sampling y at every
    x_eval point.  Returns ``(samples, status)`` with samples of shape
    (len(x_eval), len(y0)) and one of the ``STATUS_*`` codes; on failure
    the samples past the last reached point stay zero."""
    n_out = x_eval.shape[0]
    out = np.zeros((n_out, y0.shape[0]), dtype=np.complex128)
    k = np.empty((7, y0.shape[0]), dtype=np.complex128)

    y = y0
    x = x_eval[0]
    out[0] = y

    span = x_eval[n_out - 1] - x_eval[0]
    h = span * 1e-3
    h_min = span * 1e-14
    steps = 0

    k[0] = rhs(x, y)
    for i_out in range(1, n_out):
        x_next = x_eval[i_out]
        while x < x_next:
            if steps >= max_steps:
                return out, STATUS_MAX_STEPS
            steps += 1
            h_try = min(h, x_next - x)

            for s in range(1, 6):
                k[s] = rhs(x + _C[s] * h_try, y + h_try * (_A[s, :s] @ k[:s]))
            y5 = y + h_try * (_B @ k[:6])
            k[6] = rhs(x + h_try, y5)

            # scaled RMS of the embedded 4th/5th-order difference
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            err = np.sqrt(np.mean((np.abs(h_try * (_E @ k)) / scale) ** 2))

            finite = np.isfinite(err)
            if finite and err <= 1.0:
                x = x + h_try
                y = y5
                k[0] = k[6]
                fac = 5.0 if err == 0.0 else 0.9 * err ** -0.2
                h = h_try * min(max(fac, 0.2), 5.0)
            else:
                h = h_try * (max(0.9 * err ** -0.2, 0.1) if finite else 0.1)
                if h < h_min:
                    return out, STATUS_STEP_UNDERFLOW
        out[i_out] = y
    return out, STATUS_OK
