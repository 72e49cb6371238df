"""Measurement-chain noise calibration.

A thermal source of tunable temperature feeds the output line; the
measured power follows

    P(omega) = (N_source(omega, T) + N_out(omega)) * G_out(omega) * B_w,

with the source spectral density N_source = (hbar omega / 2)
coth(hbar omega / 2 kB T).  A per-frequency weighted linear fit of P
against N_source recovers the line gain G_out and its input-referred
added noise N_out.  With the line calibrated, the total system noise of
a chain containing a device of gain G_dev is

    N_sys(omega) = P(omega) / (G_dev * G_out * B_w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import HBAR, K_B
from .errors import NonPositiveGain, SingularFit


def source_noise(omega: float, temperature: float) -> float:
    """Thermal source spectral density [W/Hz] at ``omega`` [rad/s].

    ``(hbar omega / 2) coth(hbar omega / 2 kB T)``; the T -> 0 limit is
    the half-photon vacuum term ``hbar omega / 2``.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not temperature >= 0:
        raise ValueError("temperature must be >= 0")
    half = HBAR * omega / 2.0
    if temperature == 0.0:
        return half
    x = half / (K_B * temperature)
    if x > 350.0:  # coth(x) = 1 to double precision
        return half
    return half / math.tanh(x)


@dataclass
class NoiseMeasurement:
    """Calibration records: arrays of (omega [rad/s], T [K], P [W]) with
    optional least-squares weights (used as given, proportional to the
    inverse variance).  Every value must be finite."""

    omega: np.ndarray
    temperature: np.ndarray
    power: np.ndarray
    weight: np.ndarray | None = None

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.temperature = np.asarray(self.temperature, dtype=float)
        self.power = np.asarray(self.power, dtype=float)
        n = self.omega.size
        if self.temperature.size != n or self.power.size != n:
            raise ValueError("omega, temperature and power must be "
                             "equal-length")
        if self.weight is not None:
            self.weight = np.asarray(self.weight, dtype=float)
            if self.weight.size != n:
                raise ValueError("weight length mismatch")
            if np.any(self.weight <= 0):
                raise ValueError("weights must be positive")
        for name in ("omega", "temperature", "power", "weight"):
            values = getattr(self, name)
            if values is not None and not np.isfinite(values).all():
                j = int(np.isfinite(values).argmin())
                raise ValueError(f"{name} of record {j + 1} is "
                                 f"{values.flat[j]}, not finite")


@dataclass
class NoiseChainModel:
    """Fitted output line: linear power gain and added noise [W/Hz]
    referred to the line input, on a frequency grid [rad/s]."""

    omega: np.ndarray
    g_out: np.ndarray
    n_out: np.ndarray
    b_w: float

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.g_out = np.asarray(self.g_out, dtype=float)
        self.n_out = np.asarray(self.n_out, dtype=float)
        if np.any(self.g_out <= 0):
            raise NonPositiveGain("fitted G_out must be positive")
        if np.any(self.n_out < 0):
            raise ValueError("N_out must be >= 0")
        if not self.b_w > 0:
            raise ValueError("B_w must be positive")


@dataclass
class NoiseFitResult:
    model: NoiseChainModel
    g_stderr: np.ndarray
    n_stderr: np.ndarray
    residual_rms: np.ndarray
    points_per_bin: np.ndarray = field(default_factory=lambda: np.array([]))


def _weighted_line_fit(x, y, w):
    """Weighted least squares y = a + b x; returns a, b, var_a, var_b,
    residual rms."""
    sw = w.sum()
    xm = (w * x).sum() / sw
    ym = (w * y).sum() / sw
    sxx = (w * (x - xm) ** 2).sum()
    if sxx == 0.0:
        raise SingularFit("all source-noise values in a bin are equal")
    b = (w * (x - xm) * (y - ym)).sum() / sxx
    a = ym - b * xm
    resid = y - (a + b * x)
    dof = max(x.size - 2, 1)
    s2 = (w * resid**2).sum() / dof
    var_b = s2 / sxx
    var_a = s2 * (1.0 / sw + xm**2 / sxx)
    rms = math.sqrt(float(np.mean(resid**2)))
    return a, b, var_a, var_b, rms


def fit_output_line(data: NoiseMeasurement, b_w: float) -> NoiseFitResult:
    """Per-frequency fit of the output-line gain and added noise.

    Within each frequency bin P is regressed on N_source(omega, T):
    slope = G_out * B_w and intercept/slope = N_out.  Bins need at least
    two distinct temperatures.

    Raises
    ------
    SingularFit
        On a rank-deficient bin or a non-positive fitted slope.
    """
    if not b_w > 0:
        raise ValueError("b_w must be positive")
    freqs = np.unique(data.omega)
    g_out = np.empty(freqs.size)
    n_out = np.empty(freqs.size)
    g_err = np.empty(freqs.size)
    n_err = np.empty(freqs.size)
    rms = np.empty(freqs.size)
    npts = np.empty(freqs.size, dtype=int)

    for i, f in enumerate(freqs):
        sel = data.omega == f
        t = data.temperature[sel]
        p = data.power[sel]
        w = (data.weight[sel] if data.weight is not None
             else np.ones(t.size))
        if np.unique(t).size < 2:
            raise SingularFit(
                f"bin at {f / (2 * math.pi) / 1e9:.4f} GHz has fewer than "
                "two distinct temperatures")
        x = np.array([source_noise(f, ti) for ti in t])
        a, b, var_a, var_b, r = _weighted_line_fit(x, p, w)
        if b <= 0:
            raise SingularFit(
                f"non-positive fitted slope at {f / (2 * math.pi) / 1e9:.4f}"
                " GHz")
        g_out[i] = b / b_w
        n_out[i] = a / b
        g_err[i] = math.sqrt(var_b) / b_w
        # first-order error propagation for the ratio a/b
        n_err[i] = abs(a / b) * math.sqrt(
            var_a / a**2 + var_b / b**2) if a != 0 else math.sqrt(var_a) / b
        rms[i] = r
        npts[i] = t.size

    model = NoiseChainModel(omega=freqs, g_out=g_out,
                            n_out=np.maximum(n_out, 0.0), b_w=b_w)
    return NoiseFitResult(model=model, g_stderr=g_err, n_stderr=n_err,
                          residual_rms=rms, points_per_bin=npts)


def system_noise(p_out, g_device, chain: NoiseChainModel):
    """Total system noise of a chain containing a device of gain
    ``g_device`` (linear, referenced to lossless transmission).

    ``N_sys = P / (G_dev * G_out * B_w)``; returns ``(n_w_per_hz,
    n_photons)`` on the chain's frequency grid, the photon form dividing
    by ``hbar omega``.
    """
    p = np.asarray(p_out, dtype=float)
    g = np.asarray(g_device, dtype=float)
    if p.shape != chain.omega.shape or g.shape != chain.omega.shape:
        raise ValueError("p_out and g_device must match the chain grid")
    if np.any(g <= 0):
        raise NonPositiveGain("device gain must be positive")
    n_w = p / (g * chain.g_out * chain.b_w)
    n_photons = n_w / (HBAR * chain.omega)
    return n_w, n_photons


def sql_reference(omega_grid) -> np.ndarray:
    """Standard quantum limit of the total system noise: one photon
    (half vacuum, half minimum added), i.e. ``hbar omega`` in W/Hz."""
    w = np.asarray(omega_grid, dtype=float)
    if np.any(w <= 0):
        raise ValueError("frequencies must be positive")
    return HBAR * w


def read_noise_records(path) -> NoiseMeasurement:
    """Read calibration records from a delimited text file.

    The header must be ``freq_hz,temp_k,power_w`` with an optional
    fourth ``weight`` column; frequencies are converted to rad/s.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = [c.strip() for c in header.split(",")]
        if cols[:3] != ["freq_hz", "temp_k", "power_w"]:
            raise ValueError(
                f"expected header 'freq_hz,temp_k,power_w[,weight]', "
                f"got '{header}'")
        has_weight = len(cols) == 4 and cols[3] == "weight"
        if len(cols) > 3 and not has_weight:
            raise ValueError(f"unexpected extra columns in '{header}'")
        records = [ln for ln in fh if ln.split("#", 1)[0].strip()]
    if not records:
        raise ValueError(f"{path} holds no records after the header")
    rows = np.loadtxt(records, delimiter=",", ndmin=2)
    want = 4 if has_weight else 3
    if rows.shape[1] != want:
        raise ValueError(f"expected {want} columns, got {rows.shape[1]}")
    return NoiseMeasurement(
        omega=2.0 * math.pi * rows[:, 0],
        temperature=rows[:, 1],
        power=rows[:, 2],
        weight=rows[:, 3] if has_weight else None)
