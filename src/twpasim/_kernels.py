"""Adaptive Dormand-Prince 8(5,3) stepper for the coupled-mode systems.

``integrate`` combines the stages as NumPy arrays and keeps the step
control (position, step size, error norm) in Python floats.  It takes the
right-hand side as its first argument, a callable ``rhs(x, y)``: ``y`` is
a complex array that is valid only during the call (the stepper reuses
its memory), and ``rhs`` returns dy/dx as any sequence of ``len(y)``
numbers, a list or an array.  The state is one vector of modes or a
batch of them, the columns of an ``(n, B)`` array that share one step
sequence.  The right-hand sides themselves are built, with their
coefficients, in :mod:`twpasim.cme`.  A run that cannot be completed
raises ``StepFailure`` and returns no partial samples.

The method is DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., 1993, section II.10): twelve stages
give an eighth-order solution, and a combined fifth- and third-order
estimate of its error drives the step size.  The last stage, dy/dx at
the new point, is reused as the first stage of the next step ("first
same as last"), so each attempted step costs twelve right-hand-side
evaluations.

On five or six modes NumPy's fixed cost per call, not the arithmetic,
sets the price of a stage, so the tableau is augmented to make each
stage one call.  The state and the thirteen stages are the rows of one
``(14, n * B)`` array ``z = [y, k_0 .. k_12]``, each row a flattened
state (B = 1 for one state of shape ``(n,)``); the weights are one real
``(13, 13)`` array whose column 0 is 1 and whose other columns are
``h * [A; B]``, refreshed once per attempted step.  A stage's input
``y + h * (A[s, :s] @ k[:s])`` is then ``w[s, :s+1] @ z[:s+1]``, taken
against the real and imaginary parts of the stages, the eighth-order
solution is ``w[12] @ z[:13]``, and both error estimates are one product
``[E5; E3] @ k``.  One state and a batch take the same products.
"""

import math

import numpy as np

from .errors import StepFailure


# Dormand-Prince 8(5,3) tableau: stage s (0..11) is evaluated at
# x + _C[s]*h from y + h * (_A[s, :s] @ k[:s]); the eighth-order solution
# weights the twelve stages by _B, and _E5 / _E3 weight all thirteen
# stages (the last one, taken at the new point, with weight 0) into the
# fifth- and third-order error estimates.
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
_A = np.zeros((12, 12))
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2,
             5.91751709536136983633785987549e-2]
_A[3, :3] = [2.95875854768068491816892993775e-2, 0.0,
             8.87627564304205475450678981324e-2]
_A[4, :4] = [2.41365134159266685502369798665e-1, 0.0,
             -8.84549479328286085344864962717e-1,
             9.24834003261792003115737966543e-1]
_A[5, :5] = [3.7037037037037037037037037037e-2, 0.0, 0.0,
             1.70828608729473871279604482173e-1,
             1.25467687566822425016691814123e-1]
_A[6, :6] = [3.7109375e-2, 0.0, 0.0,
             1.70252211019544039314978060272e-1,
             6.02165389804559606850219397283e-2,
             -1.7578125e-2]
_A[7, :7] = [3.70920001185047927108779319836e-2, 0.0, 0.0,
             1.70383925712239993810214054705e-1,
             1.07262030446373284651809199168e-1,
             -1.53194377486244017527936158236e-2,
             8.27378916381402288758473766002e-3]
_A[8, :8] = [6.24110958716075717114429577812e-1, 0.0, 0.0,
             -3.36089262944694129406857109825,
             -8.68219346841726006818189891453e-1,
             2.75920996994467083049415600797e1,
             2.01540675504778934086186788979e1,
             -4.34898841810699588477366255144e1]
_A[9, :9] = [4.77662536438264365890433908527e-1, 0.0, 0.0,
             -2.48811461997166764192642586468,
             -5.90290826836842996371446475743e-1,
             2.12300514481811942347288949897e1,
             1.52792336328824235832596922938e1,
             -3.32882109689848629194453265587e1,
             -2.03312017085086261358222928593e-2]
_A[10, :10] = [-9.3714243008598732571704021658e-1, 0.0, 0.0,
               5.18637242884406370830023853209,
               1.09143734899672957818500254654,
               -8.14978701074692612513997267357,
               -1.85200656599969598641566180701e1,
               2.27394870993505042818970056734e1,
               2.49360555267965238987089396762,
               -3.0467644718982195003823669022]
_A[11, :11] = [2.27331014751653820792359768449, 0.0, 0.0,
               -1.05344954667372501984066689879e1,
               -2.00087205822486249909675718444,
               -1.79589318631187989172765950534e1,
               2.79488845294199600508499808837e1,
               -2.85899827713502369474065508674,
               -8.87285693353062954433549289258,
               1.23605671757943030647266201528e1,
               6.43392746015763530355970484046e-1]
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
    0.0,
])
# eighth-order minus third-order weights; the third-order solution
# differs from _B in stages 0, 8 and 11 only
_E3 = np.append(_B, 0.0)
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

# What the stepper reads on every step: the nodes as Python floats and
# the augmented tableau (module docstring), which it scales by h into its
# weights.  The error weights are complex, because np.dot would otherwise
# cast them against the complex stages on every call.
_C_NODES = _C.tolist()
_AB = np.vstack([_A, _B])
_E53 = np.vstack([_E5, _E3]).astype(np.complex128)


def integrate(rhs, y0, x_eval, rtol, atol, max_steps, stats=None):
    """Integrate dy/dx = rhs(x, y) from x_eval[0], sampling y at every
    x_eval point; returns the samples, of shape ``(len(x_eval),) +
    y0.shape``.  Raises ``StepFailure``, keeping no partial samples, when
    ``max_steps`` attempted steps do not reach the end or the step falls
    below its floor (a stiff run, or a non-finite state).

    ``y0`` is one state of shape ``(n,)`` or a batch of B states, one per
    column of an ``(n, B)`` array, and ``atol`` a float or one per
    column.  DOP853's error norm is taken per column and the largest
    decides, so every column takes the step sequence of the hardest one;
    for one state that is DOP853's norm itself.

    ``rhs(x, y)`` gets a complex array shaped like ``y0`` that is valid
    only during the call and returns dy/dx in that shape (for one state,
    any sequence of len(y0) numbers).  One state runs as a batch of one:
    the same products, the same bits as its ``(n, 1)`` column.  ``y0``
    itself is never written.
    A ``stats`` dict, if given, receives the run's ``accepted`` and
    ``rejected`` steps, ``rhs_calls`` and ``min_step``, the smallest step
    size the controller chose (before a step is cut short to land on a
    sample), also when the run fails."""
    xs = x_eval.tolist()
    n_out = len(xs)
    shape = y0.shape
    n = shape[0]
    out = np.zeros((n_out,) + shape, dtype=np.complex128)
    # the stages, flattened so that each is one product with a weight row;
    # `zs` views them in the state's shape
    z = np.empty((14, y0.size), dtype=np.complex128)
    zs = z.reshape((14,) + shape)
    # BLAS's vector product rounds its last few columns apart from the
    # rest, which would tie a row's result to its place in the batch; its
    # matrix product does not, so each weight row gets a second, zero row,
    # against the stages' real and imaginary parts
    w = np.zeros((13, 2, 13))
    w[:, 0, 0] = 1.0
    hw = w[:, 0, 1:]
    # views built once: stage s reads rows[s] against heads[s]
    rows = [w[s, :, :s + 1] for s in range(13)]
    heads = [z[:s + 1].view(np.float64) for s in range(13)]
    buffer = np.empty((2, 2 * y0.size))
    stage = buffer[0].view(np.complex128).reshape(shape)
    ks = z[1:]
    y = zs[0]

    x = xs[0]
    y[...] = y0
    out[0] = y

    span = xs[-1] - xs[0]
    h = h_low = span * 1e-3
    # well below any regular step (0.3-5 cells), and high enough that a
    # stiff run that stays finite gives up quickly instead of creeping
    # through the whole step budget
    h_min = span * 1e-10
    steps = accepted = 0
    if stats is None:
        stats = {}

    def record():
        stats.update(accepted=accepted, rejected=steps - accepted,
                     rhs_calls=1 + 12 * steps, min_step=h_low)

    zs[1] = rhs(x, y)
    for i_out in range(1, n_out):
        x_next = xs[i_out]
        while x < x_next:
            if steps >= max_steps:
                record()
                raise StepFailure(f"step budget of {max_steps} exhausted")
            steps += 1
            h_try = min(h, x_next - x)
            np.multiply(_AB, h_try, out=hw)

            for s in range(1, 12):
                np.dot(rows[s], heads[s], out=buffer)
                zs[s + 1] = rhs(x + _C_NODES[s] * h_try, stage)
            np.dot(rows[12], heads[12], out=buffer)
            zs[13] = rhs(x + h_try, stage)

            # DOP853's combined norm of the 5th- and 3rd-order estimates
            # per column, 0 where its denominator vanishes (as in scipy; a
            # Python float would raise), then the largest, or the first NaN.
            # np.add.reduce is np.sum without the cost of its Python wrapper.
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(stage))
            e5s, e3s = np.add.reduce(
                (np.abs(np.dot(_E53, ks).reshape((2,) + shape)) / scale) ** 2,
                axis=1).reshape(2, -1).tolist()
            err = 0.0
            for e5, e3 in zip(e5s, e3s):
                denom = (e5 + 0.01 * e3) * n
                col = 0.0 if denom == 0.0 else h_try * e5 / math.sqrt(denom)
                if not col <= err:
                    err = col
                    if col != col:
                        break

            finite = math.isfinite(err)
            if finite and err <= 1.0:
                accepted += 1
                x = x + h_try
                y[...] = stage
                z[1] = z[13]
                fac = 5.0 if err == 0.0 else 0.9 * err ** -0.125
                h = h_try * min(max(fac, 0.2), 5.0)
            else:
                h = h_try * (max(0.9 * err ** -0.125, 0.1) if finite else 0.1)
                if h < h_min:
                    h_low = min(h_low, h)
                    record()
                    raise StepFailure("step size underflow or non-finite "
                                      "state (stiff or blowing-up run)")
            h_low = min(h_low, h)
        out[i_out] = y
    record()
    return out
