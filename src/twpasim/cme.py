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
the line is spelled out in ``docs/cme_reduction.md``.  Each mixing
process is written once, as a function giving its monomials
(``_harmonic``, ``_upconversion``; the Kerr rates are
``phasematch._kerr_rates``), and each system has one owner,
``_table_4wm`` / ``_table_3wm``, which writes it from them as a coupling
table (``_Table``), for one point (floats) or a batch of points (arrays),
in the rotating frame ``u = y exp(-i theta x)`` whose rates balance every
mixing term, so that it has no phase factors.  Every table reaches the
stepper through ``_propagate``, which turns it into its one evaluator,
``_TableRhs``: ``rhs(x, u) -> du/dx`` for one point or a batch, which
:func:`twpasim._kernels.integrate` steps in place (raising
``StepFailure``); ``_propagate`` returns the lab-frame ``y``.

The six modes have one order, [s, ap, i, 2ap, s+ap, i+ap], that of
``phasematch._frequencies``; ``phasematch._ladder`` gives the ladders
and band checks (``_grid``, ``_grid_3wm``; ``_point`` for one six-mode
point).  The three spectra build their rows in one place, ``_rows``,
and ``_spectrum`` integrates a grid of at least ``_BATCH_MIN`` in-band
rows as one batch, and one row at a time below that size; a batch that
fails splits in halves until each failing row is alone, its own gap.

Photon bookkeeping uses the flux ``n_m = k_m * (1 - omega_m^2/omegaJ^2)
* |A_m|^2``; with this normalization the lossless couplings conserve the
pairwise photon relations exactly in the dispersionless limit (and to
O(dk) otherwise), which the test suite verifies rather than assumes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DomainError, StepFailure, describe
from .medium import (MediumParams, amplitude_from_dbm, band_error,
                     omega_tilde, wavevector)
from .phasematch import (ToneConfig, _aux_mismatch, _frequencies, _grid,
                         _kerr_rates, _ladder, _mismatch, _point,
                         idler_frequency)

PLASMA_GUARD_3WM = 0.95  # harder guard: upconversion modes approach omegaJ
RTOL_RANGE = (1e-12, 1e-6)  # accepted integrator tolerances

_MAX_STEPS = 2_000_000
# Grids of at least this many rows integrate as one batch; on fewer, one
# batch wins over one run per row by too little to count on
_BATCH_MIN = 3


def _increasing(grid, name: str) -> np.ndarray:
    """``grid`` as floats; ``ValueError`` naming it unless 1-D, increasing."""
    values = np.asarray(grid, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{name} grid must be one-dimensional")
    if np.any(np.diff(values) <= 0):
        raise ValueError(f"{name} grid must be strictly increasing")
    return values


def _amplitudes(amplitudes, n: int, omega_s: float,
                omega_p: float) -> np.ndarray:
    """The complex state of an ``n``-mode set with signal ``omega_s`` and
    pump ``omega_p``; ``DomainError`` unless it holds ``n`` finite
    amplitudes and both frequencies are positive."""
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    if amplitudes.shape != (n,):
        raise DomainError(f"expected {n} mode amplitudes")
    if not np.all(np.isfinite(amplitudes)):
        raise DomainError("amplitudes must be finite")
    if not (omega_s > 0 and omega_p > 0):
        raise DomainError("frequencies must be positive")
    return amplitudes


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
        self.amplitudes = _amplitudes(self.amplitudes, 6, self.omega_s,
                                      self.omega_ap)
        idler_frequency(self.omega_s, self.omega_ap)

    @property
    def frequencies(self) -> np.ndarray:
        return np.array(_frequencies(self.omega_s, self.omega_ap))

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
        self.amplitudes = _amplitudes(self.amplitudes, 5, self.omega_s,
                                      self.omega_ip)

    @property
    def frequencies(self) -> np.ndarray:
        return np.array(_frequencies_3wm(self.omega_s, self.omega_ip))

    @classmethod
    def initial(cls, omega_s: float, omega_ip: float, a_s: complex,
                a_ip: complex) -> "ModeSet3WM":
        return cls(omega_s, omega_ip,
                   np.array([a_s, a_ip, 0.0, 0.0, 0.0], dtype=np.complex128))


@dataclass
class Trajectory:
    """Sampled solution of a coupled-mode run.

    A batched run has one more axis: ``amplitudes`` is (n_samples,
    n_modes, B) and ``frequencies`` (n_modes, B), one column per state.
    ``solver_stats`` holds the run's step counts (see
    :func:`twpasim._kernels.integrate`) and ``rows``, its state count.
    """

    x: np.ndarray
    amplitudes: np.ndarray          # (n_samples, n_modes[, B]) complex
    frequencies: np.ndarray
    medium: MediumParams
    solver_stats: dict = field(default_factory=dict)

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.amplitudes)

    def phases(self) -> np.ndarray:
        return np.unwrap(np.angle(self.amplitudes), axis=0)

    def photon_flux(self) -> np.ndarray:
        """k * (1 - w^2/wJ^2) * |A|^2 per mode and sample; a mode at or
        above the plasma guard raises ``AbovePlasmaCutoff``."""
        k = wavevector(self.medium, self.frequencies)
        wt = omega_tilde(self.medium, self.frequencies)
        return k * wt * np.abs(self.amplitudes) ** 2


@dataclass
class GainSpectrum:
    """Gain (or isolation) versus signal frequency.

    ``gain_db`` is 20 log10 |A_s(N)/A_s(0)| so that 0 dB is a lossless
    line.  Failed grid points carry NaN gain and are recorded in ``gaps``
    as ``(index, omega, "Type: message")``.  For isolation runs
    ``upconverted_fraction`` holds the photon fraction moved out of the
    signal frequency.  ``solver_stats`` lists the ``Trajectory.solver_stats``
    of every completed integration, a batch of rows or a single row, in
    the order run.  ``gain_db`` and any ``upconverted_fraction`` have the
    shape of ``omega``, a 1-D increasing grid.
    """

    omega: np.ndarray
    gain_db: np.ndarray
    metadata: dict = field(default_factory=dict)
    upconverted_fraction: np.ndarray | None = None
    gaps: list = field(default_factory=list)
    solver_stats: list = field(default_factory=list)

    def __post_init__(self):
        self.omega = _increasing(self.omega, "frequency")
        self.gain_db = np.asarray(self.gain_db, dtype=float)
        for name in ("gain_db", "upconverted_fraction"):
            values = getattr(self, name)
            if values is not None and np.shape(values) != self.omega.shape:
                raise ValueError(f"{name} has shape {np.shape(values)}, the "
                                 f"frequency grid {self.omega.shape}")
        if np.isinf(self.gain_db).any():
            raise ValueError("gain must be finite (or NaN at gap points)")


class _Table:
    """One coupled-mode system written as data, in a rotating frame.  It
    integrates ``u_m = y_m exp(-i theta_m x)``:

        du_m/dx = sum over the monomials of mode m of c * f_1 ... f_r,

    where each factor ``f`` (at most three) is a mode's ``u`` or ``conj
    u``.  Loss and rotation ``(loss_m - i theta_m) u_m`` and cross-Kerr
    ``c u_p conj(u_p) u_m`` are monomials like any mixing term.  The rates
    ``theta`` balance every mixing term (``docs/cme_reduction.md``), so no
    term depends on x.  Coefficients are floats for one point or
    equal-length arrays for a batch of points, one entry per point.

    A monomial is ``(mode, c, "factors")`` with the factors named by mode
    (``"ap"``, or ``"ap*"`` for its conjugate); monomials that vanish on
    every point (``beta = 0``, no pump depletion) are dropped.  Modes are
    kept as indices and factors as indices into ``[u, conj u]`` for the
    evaluator, :class:`_TableRhs`, which :func:`_propagate` builds.
    """

    def __init__(self, names, monomials, theta):
        n = len(names)
        stack = {name: j for j, name in enumerate(names)}

        def index(factor):
            return stack[factor.rstrip("*")] + n * factor.endswith("*")

        self.names, self.theta = tuple(names), tuple(theta)
        self.monomials = tuple(
            (stack[mode], c, tuple(map(index, factors.split())))
            for mode, c, factors in monomials if np.any(c))


def _frame(f, rates):
    """The rates ``f @ rates`` of a frame ``(rows, denominator)``, a sum per
    mode, so that a point of a batch gets the floats it gets alone."""
    rows, den = f
    return [sum(c * r for c, r in zip(row, rates)) / den for row in rows]


# The minimum-norm rotation rates that balance every monomial
# (docs/cme_reduction.md), as integer rows over a common denominator: the
# six-mode rates from (d1, d2, d3, d4), the five-mode ones from (da, db, dc)
_F4 = (((18, 23, -8, -7), (-12, 8, -8, 8), (18, -7, -8, 23),
        (-24, 16, 44, 16), (6, -29, -16, 1), (6, 1, -16, -29)), 60)
_F3 = (((6, 11, 4), (-6, 3, 3), (9, 6, 6), (0, -7, 7), (-6, -4, -11)), 21)


_MODES_4WM = ("s", "ap", "i", "2ap", "s+ap", "i+ap")
_MODES_3WM = ("s", "ip", "2ip", "s+ip", "s+2ip")


def _harmonic(beta: float, k_p, k_2p, wt_p, wt_2p, p: str, h: str) -> list:
    """Harmonic generation ``p + p -> h``: p's backaction, h's source."""
    return [(p, beta * (k_p - k_2p) * k_2p / (2.0 * wt_p), f"{p}* {h}"),
            (h, beta * k_p**3 / (2.0 * k_2p * wt_2p), f"{p} {p}")]


def _upconversion(beta: float, k_p, k_m, k_u, wt_m, wt_u, m: str, u: str,
                  p: str) -> list:
    """Upconversion ``m + p -> u``: m's backaction, then u's source."""
    return [(m, beta * (k_p - k_u) * k_p * k_u / (2.0 * k_m * wt_m),
             f"{u} {p}*"),
            (u, beta * (k_m + k_p) * k_p * k_m / (2.0 * k_u * wt_u),
             f"{m} {p}")]


def _table_4wm(k, wt, tan_delta: float, beta: float, gamma: float,
               pump_depletion: bool) -> _Table:
    """The six-mode system (``docs/cme_reduction.md``) from the
    wavevectors and plasma factors of [s, ap, i, 2ap, s+ap, i+ap]: floats
    from ``_point`` or rows of arrays from ``_grid``."""
    ks, kap, ki, k2, ksu, kiu = k
    ts, tap, ti, t2, tsu, tiu = wt
    beta, gamma = float(beta), float(gamma)
    cs_pair = 3.0 * gamma / (8.0 * ts * ks) * (2.0 * kap - ki) * kap**2 * ki
    cap_dep = (6.0 * gamma / (8.0 * tap) * ks * ki * (ks + ki - kap)
               if pump_depletion else 0.0)
    ci_pair = 3.0 * gamma / (8.0 * ti * ki) * (2.0 * kap - ks) * kap**2 * ks
    _, iu_src = _upconversion(beta, kap, ki, kiu, ti, tiu, "i", "i+ap", "ap")
    # the one override: the idler's backaction keeps the literal reduced
    # form, without the symmetric form's 1/(2 k_i) (docs/model.md's
    # idler-channel caveat; ROADMAP.md, "One coupling per process")
    ci_up = beta * (kap - kiu) * kiu * kap / ti
    # the s+ap and i+ap phases run opposite to their auxiliary mismatches
    d_2ap, d_su, d_iu = _aux_mismatch(k)
    theta = _frame(_F4, (_mismatch(k), -d_su, d_2ap, -d_iu))
    # cross-Kerr in k_ap^2 |A_ap|^2 and k_2ap^2 |A_2ap|^2 at phasematch's
    # rates; the pump and its harmonic weight their own power half as much
    rs, rap, ri, r2, rsu, riu = _kerr_rates(gamma, k, wt)
    jkap_sq, jk2_sq = 1j * kap**2, 1j * k2**2
    loss = [-kj * tan_delta / 2.0 for kj in k]
    kp = (rs, 0.5 * rap, ri, r2, rsu, riu)
    kh = (rs, rap, ri, 0.5 * r2, rsu, riu)
    return _Table(_MODES_4WM, [
        *[(m, c - 1j * r, m) for m, c, r in zip(_MODES_4WM, loss, theta)],
        *[(m, c * jkap_sq, f"ap ap* {m}") for m, c in zip(_MODES_4WM, kp)],
        *[(m, c * jk2_sq, f"2ap 2ap* {m}") for m, c in zip(_MODES_4WM, kh)],
        *_harmonic(beta, kap, k2, tap, t2, "ap", "2ap"),
        ("s", 1j * cs_pair, "ap ap i*"),
        ("ap", 1j * cap_dep, "s i ap*"),
        ("i", 1j * ci_pair, "ap ap s*"),
        *_upconversion(beta, kap, ks, ksu, ts, tsu, "s", "s+ap", "ap"),
        ("i", ci_up, "i+ap ap*"),
        iu_src,
    ], theta)


def _table_3wm(k, wt, tan_delta: float, beta: float) -> _Table:
    """The five-mode upconversion system from the wavevectors and plasma
    factors of [s, ip, 2ip, s+ip, s+2ip], floats or rows of arrays:
    second-order couplings only, no Kerr terms."""
    ks, kip, k2, ksu, ksu2 = k
    ts, tip, t2, tsu, tsu2 = wt
    beta = float(beta)
    theta = _frame(_F3, (2.0 * kip - k2, ksu - kip - ks, ksu2 - kip - ksu))
    return _Table(_MODES_3WM, [
        *[(m, -kj * tan_delta / 2.0 - 1j * r, m)
          for m, kj, r in zip(_MODES_3WM, k, theta)],
        *_upconversion(beta, kip, ks, ksu, ts, tsu, "s", "s+ip", "ip"),
        *_harmonic(beta, kip, k2, tip, t2, "ip", "2ip"),
        *_upconversion(beta, kip, ksu, ksu2, tsu, tsu2, "s+ip", "s+2ip",
                       "ip"),
    ], theta)


class _TableRhs(_kernels.InPlace):
    """The rotating-frame ``rhs(x, u) -> du/dx`` of a table, shaped like
    ``u``: ``(n,) + shape``, with ``shape`` ``()`` for one point's floats
    or ``(B,)`` for a batch, whose coefficients are arrays of B entries or
    floats that every column shares.  The stepper evaluates it in place
    (:class:`twpasim._kernels.InPlace`).

    The monomials sit in slots of shape ``(K, n)``, K the most monomials
    any mode has: slot ``(k, m)`` holds the k-th monomial of mode m, in
    table order.  Its coefficient is ``coef[k, m]``, written once, and its
    factors a column of ``gather``, indices into the stack ``[u, conj u,
    1]``, whose first two blocks are the stepper's ``state``, padded with
    the 1.  A slot that mode m leaves unused has coefficient 0 and gathers
    only the 1, an exact zero.  An evaluation conjugates its slot in
    place, gathers all factors at once, multiplies ``coef`` by them from
    the left and sums each mode's slots by one real product with a ``(2,
    K)`` matrix of ones, each into a buffer of its own: its rows are the
    stepper's ``out[0]`` and the scratch ``out[1]``."""

    def __init__(self, t: _Table, shape: tuple):
        n = len(t.names)
        modes, _, factors = zip(*t.monomials)
        one, slots = 2 * n, max(map(modes.count, range(n)))
        stack = np.empty((one + 1,) + shape, dtype=np.complex128)
        stack[one] = 1.0
        coef = np.zeros((slots, n) + shape, dtype=np.complex128)
        gather = np.full((max(map(len, factors)), slots, n), one)
        filled = [0] * n
        for mode, c, f in t.monomials:
            coef[filled[mode], mode] = c
            gather[:len(f), filled[mode], mode] = f
            filled[mode] += 1
        conj = stack[n:one]
        gathered = np.empty(gather.shape + shape, dtype=np.complex128)
        products = np.empty_like(coef)
        terms = products.view(np.float64).reshape(slots, -1)
        ones = np.ones((2, slots))
        first, *rest = gathered
        dot, multiply, conjugate = np.dot, np.multiply, np.conjugate
        take = stack.take

        def into(x, out):
            conjugate(conj, conj)
            # take is stack[gather] without the cost of fancy indexing;
            # "clip" writes straight into `gathered`, where the default
            # "raise" buffers it (every index is in range by construction)
            take(gather, 0, gathered, "clip")
            multiply(coef, first, products)
            for f in rest:
                multiply(products, f, products)
            # BLAS's matrix product sums a column the same way wherever it
            # sits, which keeps a batch row's result apart from its place
            dot(ones, terms, out)

        super().__init__(stack[:one].reshape((2, n) + shape), into)
        self.stack, self.coef, self.gather = stack, coef, gather


def _frequencies_3wm(omega_s, omega_ip):
    """[s, ip, 2ip, s+ip, s+2ip], floats or arrays."""
    return (omega_s, omega_ip, 2.0 * omega_ip, omega_s + omega_ip,
            omega_s + 2.0 * omega_ip)


def _grid_3wm(m: MediumParams, omega_s, omega_ip):
    """The five modes of a point or a grid as :func:`phasematch._ladder`
    gives them, below ``PLASMA_GUARD_3WM * omegaJ``."""
    return _ladder(m, _frequencies_3wm(np.asarray(omega_s, float),
                                       np.asarray(omega_ip, float)),
                   PLASMA_GUARD_3WM,
                   lambda w: band_error(m, w, PLASMA_GUARD_3WM))


def _validate_rtol(rtol: float) -> None:
    lo, hi = RTOL_RANGE
    if not (lo <= rtol <= hi):
        raise ValueError(f"rtol must lie in [{lo:g}, {hi:g}]")


def _propagate(m: MediumParams, table: _Table, y0: np.ndarray, frequencies,
               rtol: float, n_samples: int) -> Trajectory:
    """Integrate ``table`` from the state ``y0``, or the batch of states in
    its columns, over the line, with an absolute tolerance per state; the
    samples are the lab-frame amplitudes ``u exp(i theta x)``, ``theta``
    the table's rates."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    shape = y0.shape[1:]
    rhs = _TableRhs(table, shape)
    theta = np.array([np.broadcast_to(r, shape) for r in table.theta])
    x_eval = np.linspace(0.0, float(m.N), n_samples)
    atol = rtol * np.maximum(np.abs(y0).max(axis=0), 1e-30) * 1e-6
    stats = {"rows": 1 if y0.ndim == 1 else y0.shape[1]}
    # a blowing-up run raises StepFailure; its overflow is not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        u = _kernels.integrate(rhs, y0, x_eval, rtol, atol, _MAX_STEPS,
                               stats)
    traj = u * np.exp(1j * np.multiply.outer(x_eval, theta))
    return Trajectory(x=x_eval, amplitudes=traj, frequencies=frequencies,
                      medium=m, solver_stats=stats)


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
    k, wt = _point(m, modes.omega_s, modes.omega_ap, 6)
    table = _table_4wm(k, wt, m.tan_delta, beta, gamma, pump_depletion)
    return _propagate(m, table, modes.amplitudes, modes.frequencies, rtol,
                      n_samples)


def integrate_3wm(m: MediumParams, modes: ModeSet3WM, beta: float,
                  rtol: float = 1e-10, n_samples: int = 257) -> Trajectory:
    """Integrate the five-mode upconversion system (second-order
    couplings only) over the line, x = 0 to N.  All five modes must sit
    below 0.95 * omegaJ."""
    _validate_rtol(rtol)
    ok, errors, k, wt, _ = _grid_3wm(m, modes.omega_s, modes.omega_ip)
    if not ok[0]:
        raise errors[0]
    table = _table_3wm(k[:, 0].tolist(), wt[:, 0].tolist(), m.tan_delta, beta)
    return _propagate(m, table, modes.amplitudes, modes.frequencies, rtol,
                      n_samples)


def _gain_db_from(traj: Trajectory):
    """20 log10 |A_s(N)/A_s(0)|: a float, or an array over a batch.  Each
    value is math.log10's, which NumPy's log10 does not always match."""
    a0 = np.abs(traj.amplitudes[0, 0])
    a1 = np.abs(traj.amplitudes[-1, 0])
    gain = [20.0 * math.log10(v1 / v0)
            for v0, v1 in zip(np.ravel(a0).tolist(), np.ravel(a1).tolist())]
    return np.array(gain) if a0.ndim else gain[0]


def _spectrum(task: str, m: MediumParams, rtol: float, n: int, errors,
              build, finish, width=1):
    """Every row of an ``n``-row grid but those ``errors`` names: one
    batched run when there are at least ``_BATCH_MIN`` of them, and row by
    row, each a batch of one, below that size.  A batch that raises
    ``StepFailure`` splits in halves, each run by the same rule, so a
    failing row ends up alone, with its own error.

    ``errors`` maps the index of each row outside the model to its error;
    ``build(rows)`` gives the coupling table, the ``(n_modes, B)`` initial
    state and the mode frequencies of an array of row indices, which
    :func:`_propagate` integrates over ``m`` at ``rtol`` to a batched
    ``Trajectory``; ``finish(traj)`` gives a trajectory's ``width``
    values, arrays over its batch.  Returns ``(values, failed,
    solver_stats)``: NaN rows for the failed ones, and ``failed`` maps
    each such row to its ``TwpaError``, the rows ``errors`` names
    included.  At ``info`` the log times each batch's ``build`` ("set up
    a batch"), logs each split and times the whole grid.
    """
    # imported here so that a bare `import twpasim` does not load logging
    # (the CLI, which reads TWPASIM_LOG, has loaded it already)
    import logging
    log = logging.getLogger(__name__)
    runs = []
    values = np.full((n, width), np.nan)
    failed = dict(errors)
    t0 = time.perf_counter()
    rows = np.flatnonzero([j not in errors for j in range(n)])
    todo = [rows] if rows.size else []
    while todo:  # groups of rows, run first to last
        rows = todo.pop(0)
        if 1 < rows.size < _BATCH_MIN:
            todo[:0] = np.split(rows, rows.size)
            continue
        t1 = time.perf_counter()
        table, y0, frequencies = build(rows)
        if rows.size > 1:
            log.info("%s: set up a batch of %d rows in %.3f s", task,
                     rows.size, time.perf_counter() - t1)
        try:
            traj = _propagate(m, table, y0, frequencies, rtol, 2)
        except StepFailure as exc:
            if rows.size == 1:
                failed[int(rows[0])] = exc
            else:
                log.info("%s: a batch of %d rows failed (%s); splitting it",
                         task, rows.size, describe(exc))
                todo[:0] = np.array_split(rows, 2)
            continue
        values[rows] = np.column_stack(finish(traj))
        runs.append(traj.solver_stats)
    log.info("%s: integrated %d rows (runs: %d, steps: %d) in %.3f s", task,
             sum(r["rows"] for r in runs), len(runs),
             sum(r["accepted"] + r["rejected"] for r in runs),
             time.perf_counter() - t0)
    return values, failed, runs


def _gaps(points, failed) -> list:
    """The rows ``failed`` maps, as ``(index, point, "Type: message")`` in
    grid order."""
    return [(j, float(points[j]), describe(exc))
            for j, exc in sorted(failed.items())]


def _initial(n_modes: int, a_s, a_p: float) -> np.ndarray:
    """The (n_modes, B) state of a batch: the signal amplitudes ``a_s``,
    the pump ``a_p`` and every other mode at zero."""
    y0 = np.zeros((n_modes, len(a_s)), dtype=np.complex128)
    y0[0], y0[1] = a_s, a_p
    return y0


def _rows(task: str, m: MediumParams, pump: ToneConfig, omega_s, power_dbm,
          ladder, table, couplings: tuple, rtol: float,
          finish=lambda traj: (_gain_db_from(traj),), width: int = 1):
    """:func:`_spectrum` over the rows of signals at ``omega_s`` [rad/s]
    and ``power_dbm``, broadcast together, against ``pump``: the pump's
    amplitude is checked, then the signals', then ``ladder`` (``_grid`` or
    ``_grid_3wm``) gives the rows' modes and gaps.  A batch integrates
    ``table(k, wt, m.tan_delta, *couplings)`` from ``_initial``."""
    a_p = amplitude_from_dbm(m, pump.freq, pump.power_dbm)
    a_s = amplitude_from_dbm(m, omega_s, power_dbm)
    ok, errors, k, wt, w = ladder(m, np.broadcast_to(omega_s, a_s.shape),
                                  pump.freq)
    col = np.cumsum(ok) - 1  # an in-band row's column of k, wt and w

    def build(rows):
        c = col[rows]
        return (table(k[:, c], wt[:, c], m.tan_delta, *couplings),
                _initial(len(k), a_s[rows], a_p), w[:, c])

    return _spectrum(task, m, rtol, a_s.size, errors, build, finish, width)


def gain_spectrum(m: MediumParams, pump: ToneConfig, signal_omegas,
                  signal_power_dbm: float = -130.0, beta: float = 0.0,
                  gamma: float = 0.0, rtol: float = 1e-10) -> GainSpectrum:
    """Small-signal gain, with pump depletion, over a signal frequency
    grid [rad/s]; each point integrates straight to x = N, a grid of at
    least ``_BATCH_MIN`` in-band points as one batch.  A point that fails
    with a ``TwpaError`` (plasma guard, negative idler, stiff run) is a
    NaN gap, a stiff row split off from its batch's other rows; a point
    outside the model gets the error :func:`phasematch.dk_total` raises,
    checked in its order (pump guard first).  A grid that is not strictly
    increasing, an ``rtol`` outside ``RTOL_RANGE`` or a signal power
    whose amplitude is not finite and positive raises ``ValueError``
    before any point is integrated."""
    omegas = _increasing(signal_omegas, "frequency")
    _validate_rtol(rtol)
    gain, failed, runs = _rows("gain", m, pump, omegas, signal_power_dbm,
                               _grid, _table_4wm, (beta, gamma, True), rtol)
    meta = {"pump": pump, "amp_scale": m.amp_scale, "beta": beta,
            "gamma": gamma, "signal_power_dbm": signal_power_dbm}
    return GainSpectrum(omega=omegas, gain_db=gain[:, 0], metadata=meta,
                        gaps=_gaps(omegas, failed), solver_stats=runs)


@dataclass
class SaturationResult:
    power_dbm: np.ndarray
    gain_db: np.ndarray
    small_signal_gain_db: float
    compression_1db_dbm: float | None
    solver_stats: list = field(default_factory=list)


def saturation_curve(m: MediumParams, pump: ToneConfig, omega_s: float,
                     power_grid_dbm, beta: float = 0.0, gamma: float = 0.0,
                     rtol: float = 1e-10) -> SaturationResult:
    """Gain versus signal power with full pump depletion; each power
    integrates straight to x = N, a grid of at least ``_BATCH_MIN``
    powers as one batch.  Reports the 1 dB compression input power
    (linear interpolation on the grid) if the curve crosses it.  An empty
    or not strictly increasing power grid raises ``ValueError``; a
    (signal, pump) point outside the model raises the ``TwpaError`` that
    :func:`phasematch.dk_total` raises, before any power is integrated,
    and a power whose run fails raises its ``StepFailure``.
    ``solver_stats`` is as in :class:`GainSpectrum`.
    """
    powers = _increasing(power_grid_dbm, "power")
    if not powers.size:
        raise ValueError("power grid must not be empty")
    _validate_rtol(rtol)
    # the pump amplitude, then the point (pump guard first), then the powers
    amplitude_from_dbm(m, pump.freq, pump.power_dbm)
    _point(m, omega_s, pump.freq, 6)
    gain, failed, runs = _rows("saturation", m, pump, omega_s, powers, _grid,
                               _table_4wm, (beta, gamma, True), rtol)
    if failed:
        raise failed[min(failed)]
    gain = gain[:, 0]
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
                            compression_1db_dbm=comp, solver_stats=runs)


def isolation_spectrum(m: MediumParams, ip_pump: ToneConfig, signal_omegas,
                       signal_power_dbm: float = -130.0, beta: float = 0.0,
                       rtol: float = 1e-10) -> GainSpectrum:
    """Upconversion (isolation) spectrum for the co-moving backward pair.

    Returns transmission in dB (negative = isolation) and the photon
    fraction upconverted to ``omega_s + omega_ip`` and
    ``omega_s + 2 omega_ip``, referenced to the signal input.  Each point
    integrates straight to x = N, a grid of at least ``_BATCH_MIN``
    in-band points as one batch.  Grid points that fail with a
    ``TwpaError`` (e.g. a mode ladder above the 0.95 * omegaJ guard)
    become gaps, as in :func:`gain_spectrum`.  A grid that is not strictly
    increasing, an ``rtol`` outside ``RTOL_RANGE`` or a signal power
    whose amplitude is not finite and positive raises ``ValueError``
    before any point is integrated."""
    omegas = _increasing(signal_omegas, "frequency")
    _validate_rtol(rtol)

    def finish(traj):
        n = traj.photon_flux()
        return _gain_db_from(traj), (n[-1, 3] + n[-1, 4]) / n[0, 0]

    values, failed, runs = _rows("isolation", m, ip_pump, omegas,
                                 signal_power_dbm, _grid_3wm, _table_3wm,
                                 (beta,), rtol, finish, 2)
    meta = {"pump": ip_pump, "amp_scale": m.amp_scale, "beta": beta,
            "signal_power_dbm": signal_power_dbm}
    return GainSpectrum(omega=omegas, gain_db=values[:, 0], metadata=meta,
                        upconverted_fraction=values[:, 1],
                        gaps=_gaps(omegas, failed), solver_stats=runs)
