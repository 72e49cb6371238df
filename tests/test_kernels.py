"""Stepper checks: the adaptive Dormand-Prince 8(5,3) integrator must
agree with an external integrator on both coupled-mode systems, carry
the published tableau and raise its failure modes as StepFailure."""

import math

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from twpasim import ModeSet3WM, ModeSet4WM, amplitude_from_dbm
from twpasim import _kernels, cme
from twpasim.cme import _MAX_STEPS
from twpasim.phasematch import _grid, _point
from twpasim.errors import StepFailure


def _standard_setup(medium):
    a_p = amplitude_from_dbm(medium, 2 * math.pi * 9.2e9, -78.0)
    a_s = amplitude_from_dbm(medium, 2 * math.pi * 7.6e9, -130.0)
    modes = ModeSet4WM.initial(2 * math.pi * 7.6e9, 2 * math.pi * 9.2e9,
                               a_s, a_p)
    k, wt = _point(medium, modes.omega_s, modes.omega_ap, 6)
    table = cme._table_4wm(k, wt, medium.tan_delta, 0.104388, 0.122339, True)
    return modes.amplitudes, cme._TableRhs(table, ())


def _upconversion_setup(medium):
    """Backward 12.2 GHz pump at -74 dBm upconverting a 6 GHz signal."""
    a_p = amplitude_from_dbm(medium, 2 * math.pi * 12.2e9, -74.0)
    a_s = amplitude_from_dbm(medium, 2 * math.pi * 6e9, -130.0)
    modes = ModeSet3WM.initial(2 * math.pi * 6e9, 2 * math.pi * 12.2e9,
                               a_s, a_p)
    ok, _, k, wt, _ = cme._grid_3wm(medium, modes.omega_s, modes.omega_ip)
    assert ok.all()
    table = cme._table_3wm(k[:, 0].tolist(), wt[:, 0].tolist(),
                           medium.tan_delta, 0.104388)
    return modes.amplitudes, cme._TableRhs(table, ())


def _batch_setup(medium, system):
    """``(y0, rhs)`` of a four-row batch of the six-mode (``"4wm"``) or
    five-mode (``"3wm"``) table, the operating points of the one-point
    setups above at four signal frequencies."""
    omegas = 2 * math.pi * np.linspace(5e9, 8e9, 4)
    if system == "4wm":
        w_p, p_dbm, n_modes = 2 * math.pi * 9.2e9, -78.0, 6
        ok, _, k, wt, _ = _grid(medium, omegas, w_p)
        assert ok.all()
        table = cme._table_4wm(k, wt, medium.tan_delta, 0.104388, 0.122339,
                               True)
    else:
        w_p, p_dbm, n_modes = 2 * math.pi * 12.2e9, -74.0, 5
        ok, _, k, wt, _ = cme._grid_3wm(medium, omegas, w_p)
        assert ok.all()
        table = cme._table_3wm(k, wt, medium.tan_delta, 0.104388)
    y0 = cme._initial(n_modes, amplitude_from_dbm(medium, omegas, -130.0),
                      amplitude_from_dbm(medium, w_p, p_dbm))
    return y0, cme._TableRhs(table, omegas.shape)


@pytest.mark.parametrize("setup", [
    _standard_setup, _upconversion_setup,
    lambda m: _batch_setup(m, "4wm"), lambda m: _batch_setup(m, "3wm")],
    ids=["4wm", "3wm", "4wm-batch", "3wm-batch"])
def test_in_place_and_plain_callable_agree(medium_fit, setup):
    """The stepper evaluates a coupling table in place, in buffers the two
    share, and wraps any other callable once; the same table behind a
    plain ``rhs(x, y)`` gives the same samples, bit for bit, and the same
    statistics."""
    y0, rhs = setup(medium_fit)
    assert isinstance(rhs, _kernels.InPlace)
    x_eval = np.linspace(0.0, 700.0, 5)
    atol = 1e-10 * np.abs(y0).max(axis=0) * 1e-6
    in_place, plain = {}, {}
    y = _kernels.integrate(rhs, y0, x_eval, 1e-10, atol, _MAX_STEPS,
                           in_place)
    y_plain = _kernels.integrate(lambda x, y: rhs(x, y), y0, x_eval, 1e-10,
                                 atol, _MAX_STEPS, plain)
    assert y.shape == x_eval.shape + y0.shape
    assert y.tobytes() == y_plain.tobytes()
    assert in_place["accepted"] > 1
    assert in_place == plain


@pytest.mark.parametrize("setup", [_standard_setup, _upconversion_setup],
                         ids=["4wm", "3wm"])
def test_agrees_with_scipy_reference(medium_fit, setup):
    """The same right-hand side integrated by scipy's DOP853."""
    y0, rhs = setup(medium_fit)
    ref = solve_ivp(rhs, (0.0, 700.0), y0, method="DOP853", rtol=1e-11,
                    atol=1e-11 * abs(y0).max() * 1e-6)
    x_eval = np.array([0.0, 700.0])
    mine = _kernels.integrate(rhs, y0, x_eval,
                              1e-11, 1e-11 * abs(y0).max() * 1e-6, 2_000_000)
    np.testing.assert_allclose(mine[-1], ref.y[:, -1], rtol=1e-7)


def test_step_budget_exhaustion_is_reported(medium_fit):
    y0, rhs = _standard_setup(medium_fit)
    x_eval = np.linspace(0.0, 700.0, 65)
    with pytest.raises(StepFailure, match="^step budget of 10 exhausted$"):
        _kernels.integrate(rhs, y0, x_eval, 1e-10, 1e-20, 10)


def test_step_failure_surfaces_as_typed_error(medium_035):
    from twpasim.cme import ModeSet4WM, integrate_4wm

    a = amplitude_from_dbm(medium_035, 2 * math.pi * 9.2e9, -78.0)
    modes = ModeSet4WM.initial(2 * math.pi * 7.6e9, 2 * math.pi * 9.2e9,
                               1e-6, a)
    # absurd coupling makes the run stiff: it goes non-finite or its step
    # falls below the floor
    with pytest.raises(StepFailure):
        integrate_4wm(medium_035, modes, beta=0.0, gamma=1e12, rtol=1e-8)


def test_stiff_run_underflows_within_a_thousand_calls(medium_035):
    """The absurd-coupling run above, handed straight to the stepper with
    the production step budget, stays finite at tiny steps; the step
    floor must end it as an underflow instead of letting it creep
    through the budget."""
    a = amplitude_from_dbm(medium_035, 2 * math.pi * 9.2e9, -78.0)
    modes = ModeSet4WM.initial(2 * math.pi * 7.6e9, 2 * math.pi * 9.2e9,
                               1e-6, a)
    k, wt = _point(medium_035, modes.omega_s, modes.omega_ap, 6)
    rhs = cme._TableRhs(cme._table_4wm(k, wt, medium_035.tan_delta, 0.0,
                                       1e12, True), ())
    calls = 0

    def counting(x, y):
        nonlocal calls
        calls += 1
        # fail here rather than wait minutes for the budget to run out
        assert calls <= 1000, "stiff run still stepping after 1000 calls"
        return rhs(x, y)

    y0 = modes.amplitudes
    x_eval = np.linspace(0.0, float(medium_035.N), 257)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StepFailure, match="^step size underflow"):
        _kernels.integrate(counting, y0, x_eval, 1e-8,
                           1e-8 * abs(y0).max() * 1e-6, _MAX_STEPS)


def test_trajectory_endpoints_and_sampling(medium_fit):
    y0, rhs = _standard_setup(medium_fit)
    x_eval = np.linspace(0.0, 700.0, 129)
    y = _kernels.integrate(rhs, y0, x_eval, 1e-10, 1e-20, 2_000_000)
    assert y.shape == (129, 6)
    np.testing.assert_array_equal(y[0], y0)
    assert np.all(np.isfinite(y.view(float)))


def test_tableau_order_conditions():
    """Each row of _A sums to its node, the eighth-order weights integrate
    x^q exactly for q = 0..7 and both error weights cancel on a
    constant."""
    A, B, C = _kernels._A, _kernels._B, _kernels._C
    np.testing.assert_allclose(A.sum(axis=1), C, rtol=0, atol=1e-14)
    assert abs(B.sum() - 1.0) <= 1e-14
    assert abs(_kernels._E5.sum()) <= 1e-14
    assert abs(_kernels._E3.sum()) <= 1e-14
    for q in range(8):
        assert abs(np.sum(B * C**q) - 1.0 / (q + 1)) <= 1e-14


def test_tableau_matches_scipy_dop853():
    """The transcribed constants are scipy's DOP853 tableau, bit for bit."""
    for name in ("A", "B", "C", "E3", "E5"):
        np.testing.assert_array_equal(getattr(_kernels, "_" + name),
                                      getattr(DOP853, name), err_msg=name)


def test_augmented_tableau_matches_scipy_dop853():
    """The weight matrices the stepper scales by h each step are scipy's
    stacked [A; B] and [E5; E3], bit for bit, with zero imaginary part."""
    for name, rows in (("_AB", ("A", "B")), ("_E53", ("E5", "E3"))):
        weights = getattr(_kernels, name)
        np.testing.assert_array_equal(
            weights.real, np.vstack([getattr(DOP853, r) for r in rows]),
            err_msg=name)
        assert not weights.imag.any(), name


@pytest.mark.parametrize("setup", [_standard_setup, _upconversion_setup],
                         ids=["4wm", "3wm"])
def test_rhs_may_return_a_list_or_an_array(medium_fit, setup):
    """The stepper copies whatever sequence rhs returns into its stage
    buffer, so a list and an ndarray of the same numbers give the same
    samples to the bit."""
    y0, rhs = setup(medium_fit)
    x_eval = np.linspace(0.0, 700.0, 5)
    atol = 1e-10 * abs(y0).max() * 1e-6
    runs = [_kernels.integrate(wrap, y0, x_eval, 1e-10, atol, 2_000_000)
            for wrap in (lambda x, y: list(rhs(x, y)),
                         lambda x, y: np.array(rhs(x, y)))]
    np.testing.assert_array_equal(runs[0], runs[1])


def test_caller_state_is_never_written(medium_fit):
    """The stepper keeps its state in its own buffer: y0 keeps its values
    through a whole run."""
    y0, rhs = _standard_setup(medium_fit)
    before = y0.copy()
    _kernels.integrate(rhs, y0, np.array([0.0, 700.0]), 1e-10, 1e-20,
                       2_000_000)
    np.testing.assert_array_equal(y0, before)


def test_non_finite_state_is_a_step_underflow():
    """Past x = 1 every step is non-finite and shrinks until it underflows,
    while a run that stays at or below x = 1 is the exact exp(-x)."""
    def rhs(x, y):
        return np.full_like(y, np.nan) if x > 1.0 else -y

    y0 = np.array([1.0 + 0.0j, 2.0j])
    x_eval = np.linspace(0.0, 2.0, 9)
    with pytest.raises(StepFailure, match="^step size underflow"):
        _kernels.integrate(rhs, y0, x_eval, 1e-10, 1e-12, 100_000)
    reached = x_eval[x_eval <= 1.0]
    y = _kernels.integrate(rhs, y0, reached, 1e-10, 1e-12, 100_000)
    np.testing.assert_allclose(y, np.exp(-reached)[:, None] * y0, rtol=1e-8)


def test_last_stage_is_reused_as_first_stage(medium_fit):
    """First same as last: no (x, y) is evaluated twice, neither across an
    accepted step nor on the retry after a rejection, so a run costs one
    evaluation plus twelve per attempted step."""
    y0, rhs = _standard_setup(medium_fit)
    calls = []

    def recording(x, y):
        calls.append((float(x), y.tobytes()))
        return rhs(x, y)

    x_eval = np.linspace(0.0, 700.0, 65)
    _kernels.integrate(recording, y0, x_eval, 1e-10,
                       1e-10 * abs(y0).max() * 1e-6, 2_000_000)
    assert len(calls) % 12 == 1
    assert len(set(calls)) == len(calls)


def test_batch_takes_the_hardest_columns_steps():
    """The DOP853 norm is taken per column and the largest decides: a
    batch of the decays exp(-x) and exp(-3x) takes as many steps as the
    faster decay alone, and each column still solves its own equation."""
    rates = np.array([1.0, 3.0])
    y0 = np.array([[1.0 + 0.0j, 1.0 + 0.0j], [2.0j, 2.0j]])
    x_eval = np.linspace(0.0, 1.0, 5)
    batch, alone = {}, {}
    y = _kernels.integrate(lambda x, y: -rates * y, y0, x_eval, 1e-8,
                           1e-20, 100_000, batch)
    _kernels.integrate(lambda x, y: -3.0 * y, y0[:, 1], x_eval, 1e-8, 1e-20,
                       100_000, alone)
    assert y.shape == (5, 2, 2)
    assert batch["accepted"] > 1
    for key in ("accepted", "rejected", "rhs_calls"):
        assert batch[key] == alone[key], key
    np.testing.assert_allclose(
        y, np.exp(-np.multiply.outer(x_eval, rates))[:, None, :] * y0,
        rtol=1e-8)


def test_batch_atol_is_per_column():
    """Each column is measured against its own atol: a faster decay
    scaled down by 1e-12, with its atol scaled alike, still sets the
    steps of a batch it shares with a slow decay of unit size."""
    rates = np.array([1.0, 3.0])
    y0 = np.array([[1.0 + 0.0j, 1e-12 + 0.0j], [2.0j, 2e-12j]])
    x_eval = np.linspace(0.0, 1.0, 5)
    batch, alone = {}, {}
    y = _kernels.integrate(lambda x, y: -rates * y, y0, x_eval, 1e-8,
                           np.array([1e-16, 1e-28]), 100_000, batch)
    _kernels.integrate(lambda x, y: -3.0 * y, y0[:, 1], x_eval, 1e-8, 1e-28,
                       100_000, alone)
    for key in ("accepted", "rejected", "rhs_calls"):
        assert batch[key] == alone[key], key
    np.testing.assert_allclose(y[-1, :, 1], np.exp(-3.0) * y0[:, 1],
                               rtol=1e-8)


@pytest.mark.parametrize("setup", [_standard_setup, _upconversion_setup],
                         ids=["4wm", "3wm"])
def test_one_state_is_a_batch_of_one(medium_fit, setup):
    """A state of shape (n,) and the same state as an (n, 1) column go
    through the same products: the same samples, bit for bit, and the
    same statistics."""
    y0, rhs = setup(medium_fit)
    x_eval = np.linspace(0.0, 700.0, 5)
    atol = 1e-10 * abs(y0).max() * 1e-6
    alone, column = {}, {}
    y = _kernels.integrate(rhs, y0, x_eval, 1e-10, atol, 2_000_000, alone)
    y_col = _kernels.integrate(
        lambda x, y: np.asarray(rhs(x, y[:, 0]))[:, None], y0[:, None],
        x_eval, 1e-10, np.array([atol]), 2_000_000, column)
    assert y_col.shape == y.shape + (1,)
    assert y_col.tobytes() == y.tobytes()
    assert alone["accepted"] > 1
    assert column == alone
