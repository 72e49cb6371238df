"""Adaptive Dormand-Prince 8(5,3) stepper for the coupled-mode systems.

``integrate`` combines the stages as NumPy arrays and keeps the step
control (position, step size, error norm) in Python floats.  It takes the
right-hand side as its first argument: an :class:`InPlace`, which it
fills and evaluates in buffers the two share, or a plain callable
``rhs(x, y)``, which it wraps once.  Such an ``rhs`` gets a complex ``y``
that is valid only during the call (the stepper reuses its memory) and
returns dy/dx as any sequence of ``len(y)`` numbers, a list or an array.
The state is one vector of modes or a batch of them, the columns of an
``(n, B)`` array that share one step sequence.  The right-hand sides
themselves are built, with their coefficients, in :mod:`twpasim.cme`.  A
run that cannot be completed raises ``StepFailure`` and returns no
partial samples.

The method is DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., 1993, section II.10): twelve stages
give an eighth-order solution, and a combined fifth- and third-order
estimate of its error drives the step size.  The last stage, dy/dx at
the new point, is reused as the first stage of the next step ("first
same as last"), so each attempted step costs twelve right-hand-side
evaluations.

On five or six modes NumPy's fixed cost per call, not the arithmetic,
sets the price of a stage, so the tableau is augmented to make each
stage input one call.  The state and the thirteen stages are the rows of
one ``(14, n * B)`` array ``z = [y, k_0 .. k_12]``, each row a flattened
state (B = 1 for one state of shape ``(n,)``); stage s weights the rows
before it by ``[1, h * A[s, :s]]`` (``h * B`` for the eighth-order
solution), refreshed once per attempted step.  A stage's input
``y + h * (A[s, :s] @ k[:s])`` is then one matrix product against the
real and imaginary parts of ``z[:s+1]``, written straight into the
evaluator's state, and the evaluator writes dy/dx straight into the
stage's row of ``z``: a stage of a coupling table (``cme._TableRhs``)
is that product, a conjugate, a gather, the factor products and one
scatter product, with no copy and no allocation.  Both error estimates
are one product ``[E5; E3] @ k``, and their norm reuses ``|y|`` from the
step that produced ``y``.  One state and a batch take the same products.
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

# What the stepper reads on every step: the nodes as Python floats, with
# a last 1.0 for the thirteenth stage at the new point, the augmented
# tableau (module docstring) laid out as below, which it scales by h, and
# the error weights.  Those are complex, because np.dot would otherwise
# cast them against the complex stages on every call.
_NODES = _C.tolist() + [1.0]
_AB = np.vstack([_A, _B])
# Stage s (1..12) weights the rows of z before it by [1, h * _AB[s, :s]],
# twice over (see `integrate`), from a C-contiguous (2, s + 1) block of
# one flat array, which BLAS takes faster than a strided one: _BLOCKS
# holds each block's bounds, _W the unscaled weights and _W_ONES the
# places of the 1s, which the stepper puts back after scaling by h.
_BLOCKS = [((s - 1) * (s + 2), s * (s + 3)) for s in range(1, 13)]
_W = np.ones(_BLOCKS[-1][1])
for _s, (_a, _b) in enumerate(_BLOCKS, 1):
    _W[_a:_b].reshape(2, _s + 1)[:, 1:] = _AB[_s, :_s]
_W_ONES = np.array([i for a, b in _BLOCKS for i in (a, (a + b) // 2)])
_E53 = np.vstack([_E5, _E3]).astype(np.complex128)


class InPlace:
    """A right-hand side that the stepper evaluates in its own buffers.

    ``state`` is a complex ``(2,) + shape`` array.  Before an evaluation
    the stepper writes the stage's ``y`` into both of its rows, and
    ``into(x, out)`` writes dy/dx at ``(x, state[0])`` into ``out``,
    leaving ``state[0]`` as it is (``state[1]`` it may overwrite).
    Called as ``rhs(x, y)``, it returns dy/dx as a new array, like any
    right-hand side."""

    def __init__(self, state, into):
        self.state, self.into = state, into

    def __call__(self, x, y):
        self.state[...] = y
        out = np.empty_like(self.state[0])
        self.into(x, out)
        return out


def _adapt(rhs, shape):
    """A plain ``rhs(x, y)`` as an :class:`InPlace`: ``y`` is
    ``state[0]``, and the result is copied into ``out``."""
    state = np.empty((2,) + shape, dtype=np.complex128)
    y = state[0]

    def into(x, out):
        out[...] = rhs(x, y)

    return InPlace(state, into)


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

    ``rhs`` is an :class:`InPlace` whose ``state`` fits ``y0``, which
    the stepper fills and evaluates in place, or a plain ``rhs(x, y)``.
    That gets a complex array shaped like ``y0`` that is valid only
    during the call and returns dy/dx in that shape (for one state, any
    sequence of len(y0) numbers); the stepper wraps it once.  Both take
    the same products, to the same bits.  One state runs as a batch of
    one: the same products, the same bits as its ``(n, 1)`` column.
    ``y0`` itself is never written.
    A ``stats`` dict, if given, receives the run's ``accepted`` and
    ``rejected`` steps, ``rhs_calls`` and ``min_step``, the smallest step
    size the controller chose (before a step is cut short to land on a
    sample), also when the run fails."""
    xs = x_eval.tolist()
    n_out = len(xs)
    shape = y0.shape
    n = shape[0]
    if not isinstance(rhs, InPlace):
        rhs = _adapt(rhs, shape)
    state, into = rhs.state, rhs.into
    out = np.zeros((n_out,) + shape, dtype=np.complex128)
    # the stages, flattened so that each is one product with a weight row;
    # `zs` views them in the state's shape
    z = np.empty((14, y0.size), dtype=np.complex128)
    zs = z.reshape((14,) + shape)
    # BLAS's vector product rounds its last few columns apart from the
    # rest, which would tie a row's result to its place in the batch; its
    # matrix product does not, so each weight row is taken twice, against
    # the stages' real and imaginary parts, and the product fills both
    # rows of the evaluator's state: y, and the slot it conjugates
    w = np.empty(_W.size)
    # views built once: stage s (1..12) takes its weight rows against the
    # rows of z before it, at its node, into its row of z
    stages = [(w[a:b].reshape(2, s + 1), z[:s + 1].view(np.float64),
               _NODES[s], zs[s + 1]) for s, (a, b) in enumerate(_BLOCKS, 1)]
    target = state.view(np.float64).reshape(2, 2 * y0.size)
    stage = state[0]
    ks = z[1:]
    y = zs[0]
    # the error norm's buffers; `mag` holds |y|, `mag_new` |stage|
    mag, mag_new, scale = (np.empty(shape) for _ in range(3))
    e53 = np.empty((2, y0.size), dtype=np.complex128)
    e53_modes = e53.reshape((2,) + shape)
    e53_abs = np.empty((2,) + shape)
    sums = np.empty((2, y0.size // n))
    sums_out = sums.reshape((2,) + shape[1:])

    x = xs[0]
    y[...] = y0
    np.abs(y, out=mag)
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

    state[...] = y
    into(x, zs[1])
    for i_out in range(1, n_out):
        x_next = xs[i_out]
        while x < x_next:
            if steps >= max_steps:
                record()
                raise StepFailure(f"step budget of {max_steps} exhausted")
            steps += 1
            h_try = min(h, x_next - x)
            np.multiply(_W, h_try, out=w)
            w[_W_ONES] = 1.0

            for row, head, node, k in stages:
                np.dot(row, head, out=target)
                into(x + node * h_try, k)

            # DOP853's combined norm of the 5th- and 3rd-order estimates
            # per column, 0 where its denominator vanishes (as in scipy; a
            # Python float would raise), then the largest, or the first NaN.
            # np.add.reduce is np.sum without the cost of its Python wrapper.
            np.abs(stage, out=mag_new)
            np.maximum(mag, mag_new, out=scale)
            np.multiply(scale, rtol, out=scale)
            np.add(scale, atol, out=scale)
            np.dot(_E53, ks, out=e53)
            np.abs(e53_modes, out=e53_abs)
            np.divide(e53_abs, scale, out=e53_abs)
            np.square(e53_abs, out=e53_abs)
            np.add.reduce(e53_abs, axis=1, out=sums_out)
            e5s, e3s = sums.tolist()
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
                mag, mag_new = mag_new, mag
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
