"""Flux-dependent SNAIL unit-cell quantities.

A cell is a loop of three large Josephson junctions (critical current
``I0``) in one arm and a single small junction (``r * I0``) in the other.
The loop current as a function of the superconducting phase ``phi`` across
the cell, with an external flux ``phi_ext`` (radians) threading the loop,
is

    I(phi) / I0 = r sin(phi) + sin((phi - phi_ext) / 3).

Expanding around the equilibrium phase ``phi*`` (the zero of the loop
current on the branch continuously connected to phi* = 0 at zero flux)
gives the cubic current-phase relation

    I(phi* + phi) / I0 = alpha * phi - beta_t * phi^2 - gamma_t * phi^3,

whose coefficients set the cell inductance and the three- and four-wave
mixing strengths of the transmission line built from these cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import E_CHARGE, HBAR, PHI0, R_Q
from .errors import NonConvergence, NonPositiveInductance, NotFound

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, slots=True)
class SnailSpec:
    """Physical parameters of one unit cell and the cell count.

    Attributes
    ----------
    I0 : float
        Critical current of the large junctions [A].
    r : float
        Small-to-large junction critical-current ratio, 0 < r < 1.
    Cg : float
        Ground capacitance per cell [F].
    CJ : float
        Junction (plasma) capacitance per cell [F].
    N : int
        Number of cells in the line.
    tan_delta : float
        Dielectric loss tangent (>= 0).
    """

    I0: float
    r: float
    Cg: float
    CJ: float
    N: int
    tan_delta: float = 0.0

    def __post_init__(self):
        if not (self.I0 > 0):
            raise ValueError("I0 must be positive")
        if not (0.0 < self.r < 1.0):
            raise ValueError("r must be in (0, 1)")
        if not (self.Cg > 0 and self.CJ > 0):
            raise ValueError("capacitances must be positive")
        if not (int(self.N) == self.N and self.N >= 1):
            raise ValueError("N must be an integer >= 1")
        if self.tan_delta < 0:
            raise ValueError("tan_delta must be >= 0")


@dataclass(frozen=True, slots=True)
class FluxPoint:
    """Equilibrium phase at one external flux.

    ``phi_ext`` is in flux-quantum units; ``phi_ext_rad`` and ``phi_star``
    are radians.  ``phi_star`` lies on the branch through (0, 0).
    """

    phi_ext: float
    phi_ext_rad: float
    phi_star: float


@dataclass(frozen=True, slots=True)
class CellCoefficients:
    """Expansion coefficients and derived line parameters at one flux.

    ``alpha``, ``beta_t``, ``gamma_t`` are the dimensionless linear,
    quadratic and cubic current-phase coefficients.  ``L`` is the cell
    inductance [H]; ``omega0 = 1/sqrt(L Cg)`` and ``omegaJ = 1/sqrt(L CJ)``
    are the characteristic and plasma angular frequencies [rad/s];
    ``Z = sqrt(L/Cg)`` [Ohm].  ``g3`` and ``g4`` are the three- and
    four-wave rates [rad/s]; ``beta`` and ``gamma`` are the dimensionless
    couplings that enter the wave equation:

        beta  = 6 g3 sqrt(R_Q / (pi omega0^2 Z))
        gamma = 8 g4 R_Q / (pi omega0 Z)
    """

    flux: FluxPoint
    alpha: float
    beta_t: float
    gamma_t: float
    L: float
    omega0: float
    omegaJ: float
    Z: float
    g3: float
    g4: float
    beta: float
    gamma: float


def _branch_phases(r: float, phi_ext: np.ndarray) -> np.ndarray:
    """Equilibrium phases [rad] on the branch through (0, 0) at the external
    fluxes ``phi_ext`` [rad], NaN where ``|phi_ext|`` is at or past the fold.

    Newton steps on the branch relation ``g(phi) = phi + 3 asin(r sin(phi))
    - phi_ext = 0`` (``docs/model.md``) stay inside a bracket of the root or
    bisect it.  A value stays put once its step is below one ulp, and a
    bracket one ulp wide bisects onto an end, so the loop ends when no value
    moves, and each value is the same whatever grid it is solved in.
    """
    fold = math.inf
    past = np.zeros(phi_ext.shape, dtype=bool)
    cos_sq = (1.0 - r * r) / (8.0 * r * r)
    if cos_sq < 1.0:
        # r > 1/3: the branch folds where cos^2(phi*) = cos_sq, cos(phi*) < 0
        fold = math.acos(-math.sqrt(cos_sq))
        past = np.abs(phi_ext) >= fold + 3.0 * math.asin(r * math.sin(fold))
        phi_ext = np.where(past, 0.0, phi_ext)  # solved as 0, returned NaN
    width = 3.0 * math.asin(r)  # |phi* - phi_ext| <= 3 asin(r)
    lo = np.maximum(phi_ext - width, -fold)
    hi = np.minimum(phi_ext + width, fold)
    phi = np.clip(phi_ext - 3.0 * np.arcsin(r * np.sin(phi_ext)), lo, hi)
    while True:
        s = r * np.sin(phi)
        g = phi + 3.0 * np.arcsin(s) - phi_ext
        lo = np.where(g < 0.0, phi, lo)
        hi = np.where(g > 0.0, phi, hi)
        dg = 1.0 + 3.0 * r * np.cos(phi) / np.sqrt(1.0 - s * s)
        # dg > 0 inside the bracket except at the fold and, for r = 1/3, at
        # phi* = pi: there the infinite step bisects
        newton = phi - np.divide(g, dg, out=np.full_like(g, np.inf),
                                 where=dg > 0.0)
        new = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
        new = np.where((g == 0.0) | (newton == phi), phi, new)
        if (new == phi).all():
            return np.where(past, np.nan, phi)
        phi = new


def _flux_point(r: float, phi_ext: float, phi_star: float) -> FluxPoint:
    if math.isnan(phi_star):
        raise NonConvergence(
            f"|phi_ext| = {abs(phi_ext)} Phi0 is at or past the fold of the "
            f"equilibrium branch (r={r} > 1/3)")
    return FluxPoint(phi_ext, _TWO_PI * phi_ext, phi_star)


def equilibrium_phase(spec: SnailSpec, phi_ext: float) -> FluxPoint:
    """Equilibrium phase of the cell at external flux ``phi_ext`` [Phi0].

    The root of the loop current lies on the branch through
    (phi_ext, phi*) = (0, 0), which the device follows when the flux is
    swept up from zero; it is solved from the branch's closed form, as
    :func:`flux_sweep` solves each of its fluxes.

    Raises
    ------
    NonConvergence
        If ``r > 1/3`` and ``|phi_ext|`` is at or past the flux where the
        branch folds (the hysteretic regime).
    """
    if not math.isfinite(phi_ext):
        raise ValueError("phi_ext must be finite")
    phi = _branch_phases(spec.r, np.array([_TWO_PI * phi_ext])).item()
    return _flux_point(spec.r, phi_ext, phi)


def _expansion(r: float, phi_star, phi_ext_rad, consistent_derivatives):
    """``(alpha, beta_t, gamma_t)`` at equilibrium phases ``phi_star`` and
    fluxes ``phi_ext_rad`` [rad]: floats, or arrays as in :func:`_line`."""
    xp = np if isinstance(phi_star, np.ndarray) else math
    arg = (phi_star - phi_ext_rad) / 3.0
    inner = xp.cos(arg) / 3.0 if consistent_derivatives else xp.cos(arg)
    alpha = r * xp.cos(phi_star) + inner
    beta_t = 0.5 * (r * xp.sin(phi_star) + xp.sin(arg) / 9.0)
    gamma_t = (r * xp.cos(phi_star) + xp.cos(arg) / 27.0) / 6.0
    return alpha, beta_t, gamma_t


def _line(spec: SnailSpec, alpha, beta_t, gamma_t):
    """``(L, omega0, omegaJ, Z, g3, g4, beta, gamma)`` for ``alpha > 0``:
    floats, or arrays of the same operations in the same order.  NumPy's
    sqrt, sin and cos match the math module's bits, but its array square is
    ``omega0 * omega0``, so ``omega0**2`` is Python's, element by element."""
    xp = np if isinstance(alpha, np.ndarray) else math
    L = PHI0 / (_TWO_PI * spec.I0 * alpha)
    omega0 = 1.0 / xp.sqrt(L * spec.Cg)
    omegaJ = 1.0 / xp.sqrt(L * spec.CJ)
    Z = xp.sqrt(L / spec.Cg)
    Ec = E_CHARGE**2 / (2.0 * spec.Cg)
    g3 = (beta_t / (3.0 * alpha)) * xp.sqrt(Ec * HBAR * omega0) / HBAR
    g4 = (gamma_t / (2.0 * alpha)) * Ec / HBAR
    omega0_sq = (omega0**2 if xp is math
                 else np.array([w**2 for w in omega0.tolist()]))
    beta = 6.0 * g3 * xp.sqrt(R_Q / (math.pi * omega0_sq * Z))
    gamma = 8.0 * g4 * R_Q / (math.pi * omega0 * Z)
    return L, omega0, omegaJ, Z, g3, g4, beta, gamma


def cell_coefficients(spec: SnailSpec, fp: FluxPoint,
                      consistent_derivatives: bool = False) -> CellCoefficients:
    """Expansion coefficients and line parameters at a flux point.

    With ``consistent_derivatives=False`` (default) the linear coefficient
    is ``alpha = r cos(phi*) + cos((phi* - phi_ext)/3)``; with the flag set
    the second cosine carries the 1/3 factor of the true first derivative
    of the loop current, matching the 1/9 and 1/27 factors of ``beta_t``
    and ``gamma_t``.  The formulas are the ones :func:`flux_sweep` runs in
    one array pass over its grid, on floats, with the same bits.

    Raises
    ------
    NonPositiveInductance
        If ``alpha <= 0`` at this flux.
    """
    alpha, beta_t, gamma_t = _expansion(spec.r, fp.phi_star, fp.phi_ext_rad,
                                        consistent_derivatives)
    if alpha <= 0.0:
        raise NonPositiveInductance(
            f"alpha={alpha:.6g} <= 0 at phi_ext={fp.phi_ext} Phi0")
    return CellCoefficients(fp, alpha, beta_t, gamma_t,
                            *_line(spec, alpha, beta_t, gamma_t))


def _sweep(spec: SnailSpec, flux_grid, consistent_derivatives: bool):
    """:func:`flux_sweep` as arrays: ``(flux, phi_ext_rad, phi_star,
    columns)``, ``columns`` in CellCoefficients' field order after flux."""
    flux = np.ravel(np.asarray(flux_grid, dtype=float))
    if flux.size == 0:
        raise ValueError("flux grid is empty")
    if not np.isfinite(flux).all():
        raise ValueError("flux grid contains non-finite values")
    rad = _TWO_PI * flux
    phi = _branch_phases(spec.r, rad)
    expansion = _expansion(spec.r, phi, rad, consistent_derivatives)
    bad = ~(expansion[0] > 0.0)  # alpha is NaN past the fold
    if bad.any():  # the first bad flux raises the one-point error
        i = int(bad.argmax())
        f = flux[i].item()
        try:
            cell_coefficients(spec, _flux_point(spec.r, f, phi[i].item()),
                              consistent_derivatives)
        except (NonConvergence, NonPositiveInductance) as exc:
            raise type(exc)(f"flux grid index {i} ({f} Phi0): {exc}") from exc
    return flux, rad, phi, expansion + _line(spec, *expansion)


def flux_sweep(spec: SnailSpec, flux_grid,
               consistent_derivatives: bool = False) -> list[CellCoefficients]:
    """Cell coefficients at each flux of ``flux_grid`` [Phi0], in order.

    The equilibrium phases, then the coefficient formulas, run in one array
    pass each, with the bits of :func:`equilibrium_phase` and
    :func:`cell_coefficients` at each flux (:func:`_line` says how).  The
    first bad flux raises their error, with its grid index.
    """
    flux, rad, phi, columns = _sweep(spec, flux_grid, consistent_derivatives)
    points = map(FluxPoint, flux.tolist(), rad.tolist(), phi.tolist())
    return list(map(CellCoefficients, points,
                    *(c.tolist() for c in columns)))


def kerr_free_flux(spec: SnailSpec) -> float:
    """Smallest flux in (0, 0.5] Phi0 where ``gamma_t`` vanishes, in closed
    form.

    On the branch through (0, 0), ``psi = (phi* - phi_ext)/3`` obeys
    ``sin(psi) = -r sin(phi*)`` with ``|psi| < pi/2``, so the branch is
    ``phi_ext = phi* + 3 asin(r sin(phi*))`` and ``gamma_t`` first vanishes
    where ``cos(phi*) = -sqrt((1/r^2 - 1)/728)``.  That point lies before
    the branch's fold (which exists only for ``r > 1/3``).  For
    ``r > 1/27`` ``gamma_t`` changes sign there; at ``r = 1/27`` it only
    touches zero, at ``phi* = pi``, and the function returns 0.5.

    Raises
    ------
    NotFound
        If ``r < 1/27`` (``gamma_t`` stays positive) or the zero lies past
        half flux (large ``r``).
    """
    r = spec.r
    cos_sq = (1.0 / (r * r) - 1.0) / 728.0
    if not cos_sq <= 1.0:
        raise NotFound(
            f"gamma_t has no zero for r={r} < 1/27: it stays positive")
    phi_star = math.acos(-math.sqrt(cos_sq))
    flux = (phi_star + 3.0 * math.asin(r * math.sin(phi_star))) / _TWO_PI
    if flux > 0.5:
        raise NotFound(
            f"gamma_t vanishes at {flux:.4f} Phi0 for r={r}, past half flux")
    return flux
