"""Configuration-driven command line front end.

Usage::

    twpasim <task> --config <path> [--out <path>] [--format csv|json]

The config is a flat ``key = value`` text file ('#' starts a comment).
Frequencies are in Hz, powers in dBm, flux in flux quanta; see the README
for the full key table and per-task output columns.  Exit codes: 0 on
success, 2 on a configuration error, 3 on a numeric/model error.  The
environment variable ``TWPASIM_LOG`` (debug/info/warning) controls log
verbosity; at ``info`` the log on stderr gives the seconds spent parsing
the config, setting up the device, running the task (device setup
included), formatting and writing the artifact, which itself does not
change.

Each task (``_TASKS``) returns ``(columns, table, metadata)``: the column
names, a 2-D float64 array with one column per name and one row per grid
point, and the JSON ``metadata`` dict; :func:`run` writes that table.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import astuple

import numpy as np

from . import __version__
from . import constants
from .cme import (RTOL_RANGE, _gaps, gain_spectrum, isolation_spectrum,
                  saturation_curve)
from .errors import ConfigError, TwpaError
from .medium import (MediumParams, band_error, in_band, linear_transmission_db,
                     loss_wavevector, wavevector)
from .noisecal import fit_output_line, read_noise_records
from .phasematch import ToneConfig, breakdown_grid
from .unitcell import SnailSpec, _sweep, cell_coefficients, equilibrium_phase

log = logging.getLogger("twpasim")


def _positive(key, value):
    if value <= 0:
        return f"'{key}' must be positive, got {value!r}"


def _count(key, value):
    if value < 1:
        return f"'{key}' must be >= 1"


def _within(lo, hi):
    def check(key, value):
        if not lo <= value <= hi:
            return f"'{key}' must lie in [{lo:g}, {hi:g}]"
    return check


def _format(key, value):
    if value not in ("csv", "json"):
        return f"format must be csv or json, got {value!r}"


def _task(key, value):
    if value not in _TASKS:
        return f"unknown task '{value}'; expected one of {', '.join(TASKS)}"


# key -> (type, default, check): check(key, value) gives the diagnostic of a
# value that a config sets, or None, once a float is finite; task is required
_SCHEMA = {
    "task": (str, None, _task),
    "critical_current_a": (float, 2.2e-6, None),
    "asymmetry_ratio": (float, 0.07, None),
    "ground_capacitance_f": (float, 250e-15, None),
    "junction_capacitance_f": (float, 35e-15, None),
    "cells": (int, 700, _count),
    "tan_delta": (float, 2.9e-3, None),
    "flux": (float, 0.0, None),
    "consistent_derivatives": (bool, False, None),
    "amp_scale": (float, 1.0, _positive),
    "beta_override": (float, None, None),
    "gamma_override": (float, None, None),
    "pump_freq_hz": (float, None, _positive),
    "pump_power_dbm": (float, None, None),
    "iso_pump_freq_hz": (float, None, _positive),
    "iso_pump_power_dbm": (float, None, None),
    "signal_freq_min_hz": (float, 4e9, _positive),
    "signal_freq_max_hz": (float, 8e9, _positive),
    "signal_points": (int, 101, _count),
    "signal_freq_hz": (float, None, _positive),
    "signal_power_dbm": (float, -130.0, None),
    "signal_power_min_dbm": (float, -150.0, None),
    "signal_power_max_dbm": (float, -85.0, None),
    "signal_power_points": (int, 27, _count),
    "flux_min": (float, 0.0, None),
    "flux_max": (float, 0.5, None),
    "flux_points": (int, 51, _count),
    "noise_data_path": (str, None, None),
    "bandwidth_hz": (float, None, _positive),
    "solver_rtol": (float, 1e-10, _within(*RTOL_RANGE)),
    "out_path": (str, None, None),
    "format": (str, "csv", _format),
    # 17 significant digits round-trip any double; more print noise
    "precision": (int, 12, _within(1, 17)),
}

# SnailSpec's fields and their keys; every task but noise-fit builds one
_SPEC_KEYS = {"I0": "critical_current_a", "r": "asymmetry_ratio",
              "Cg": "ground_capacitance_f", "CJ": "junction_capacitance_f",
              "N": "cells", "tan_delta": "tan_delta"}


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def validate(config_text: str) -> dict:
    """Parse and validate a config; returns its values, defaults applied.

    Raises :class:`ConfigError` carrying (line, message) diagnostics for
    every problem found.
    """
    diags = []
    seen = {}
    for lineno, raw in enumerate(config_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            diags.append((lineno, f"expected 'key = value', got {raw!r}"))
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            diags.append((lineno, f"unknown key '{key}'"))
            continue
        if key in seen:
            diags.append((lineno, f"duplicate key '{key}' "
                                  f"(first at line {seen[key][1]})"))
            continue
        seen[key] = (value, lineno)

    values = {}
    for key, (typ, default, check) in _SCHEMA.items():
        if key not in seen:
            values[key] = default
            continue
        text, lineno = seen[key]
        try:
            value = values[key] = (_parse_bool if typ is bool else typ)(text)
        except ValueError:
            diags.append((lineno, f"cannot parse '{key}' value "
                                  f"{text!r} as {typ.__name__}"))
            continue
        if typ is float and not math.isfinite(value):
            diags.append((lineno, f"'{key}' must be finite, got {value!r}"))
        elif check is not None and (message := check(key, value)):
            diags.append((lineno, message))

    task = values["task"]
    if task is None:
        diags.append((0, "missing task"))
    elif task in _TASKS:
        _, required, grid, device = _TASKS[task]
        for req in required:
            if values.get(req) is None:
                diags.append((0, f"task '{task}' requires key '{req}'"))
        if (task == "noise-fit" and values.get("noise_data_path")
                and not os.path.exists(values["noise_data_path"])):
            diags.append((seen["noise_data_path"][1],
                          f"noise_data_path does not exist: "
                          f"{values['noise_data_path']}"))
        if grid is not None:
            lo, hi, n = grid
            if (values.get(n, 0) > 1
                    and values.get(lo, -math.inf) >= values.get(hi, math.inf)):
                line = max(seen.get(k, ("", 0))[1] for k in (lo, hi))
                diags.append((line, f"{lo} must be below {hi} when {n} > 1"))
        # SnailSpec's own checks, once every device key has parsed clean
        bad = {line for line, _ in diags}
        if device and all(k in values and seen.get(k, ("", -1))[1] not in bad
                          for k in _SPEC_KEYS.values()):
            try:
                _spec(values)
            except ValueError as exc:
                diags.append((0, f"invalid device: {exc}"))

    if diags:
        raise ConfigError(sorted(diags))
    log.info("config valid: task=%s, resolved %d keys", values["task"],
             len(values))
    for k in sorted(values):
        log.debug("  %s = %r", k, values[k])
    return values


def _spec(cfg: dict) -> SnailSpec:
    return SnailSpec(**{field: cfg[key] for field, key in _SPEC_KEYS.items()})


def _device(cfg: dict):
    t0 = time.perf_counter()
    spec = _spec(cfg)
    fp = equilibrium_phase(spec, cfg["flux"])
    coeffs = cell_coefficients(spec, fp, cfg["consistent_derivatives"])
    medium = MediumParams.from_cell(spec, coeffs, cfg["amp_scale"])
    beta = cfg["beta_override"] if cfg["beta_override"] is not None \
        else coeffs.beta
    gamma = cfg["gamma_override"] if cfg["gamma_override"] is not None \
        else coeffs.gamma
    log.info("set up the device in %.3f s", time.perf_counter() - t0)
    return coeffs, medium, beta, gamma


def _signal_grid(cfg: dict) -> np.ndarray:
    return 2.0 * math.pi * np.linspace(cfg["signal_freq_min_hz"],
                                       cfg["signal_freq_max_hz"],
                                       cfg["signal_points"])


def _cell_table(flux, phi_star, c) -> np.ndarray:
    """Rows of flux, phase and ``CellCoefficients``' fields after ``flux``
    (floats for one row, or a column each), omega0 and omegaJ in Hz."""
    hz = [w / (2 * math.pi) for w in c[4:6]]
    return np.column_stack((flux, phi_star, *c[:4], *hz, *c[6:]))


_CELL_COLUMNS = ["flux_phi0", "phi_star_rad", "alpha_tilde", "beta_tilde",
                 "gamma_tilde", "inductance_h", "f0_hz", "fj_hz",
                 "impedance_ohm", "g3_rad_s", "g4_rad_s", "beta", "gamma"]


def _task_cell_params(cfg: dict):
    coeffs, _, _, _ = _device(cfg)
    return (_CELL_COLUMNS, _cell_table(cfg["flux"], coeffs.flux.phi_star,
                                       astuple(coeffs)[1:]), {})


def _task_flux_sweep(cfg: dict):
    grid = np.linspace(cfg["flux_min"], cfg["flux_max"], cfg["flux_points"])
    flux, _, phi_star, columns = _sweep(_spec(cfg), grid,
                                        cfg["consistent_derivatives"])
    return _CELL_COLUMNS, _cell_table(flux, phi_star, columns), {}


def _gap_metadata(gaps) -> dict:
    """Why each NaN row of a frequency grid is NaN, in grid order."""
    return {"gaps": [{"freq_hz": w / (2 * math.pi), "error": err}
                     for _, w, err in gaps]}


def _solver_metadata(runs) -> dict:
    """The step counts of a task's completed integrator runs (its
    ``solver_stats``), summed: counts only, no timings and no step sizes,
    so that a rerun writes the same bytes."""
    keys = ("rows", "accepted", "rejected", "rhs_calls")
    return {"runs": len(runs), **{k: sum(r[k] for r in runs) for k in keys}}


def _grid_rows(omegas, *columns) -> np.ndarray:
    return np.column_stack((omegas / (2 * math.pi),) + columns)


def _task_dispersion(cfg: dict):
    _, medium, _, _ = _device(cfg)
    omegas = _signal_grid(cfg)
    ok = in_band(medium, omegas)
    w = omegas[ok]
    values = np.full((omegas.size, 3), np.nan)
    values[ok] = np.column_stack([wavevector(medium, w),
                                  loss_wavevector(medium, w),
                                  linear_transmission_db(medium, w)])
    gaps = _gaps(omegas, {j: band_error(medium, omegas[j])
                          for j in np.flatnonzero(~ok)})
    cols = ["freq_hz", "k_rad_per_cell", "loss_k_per_cell",
            "transmission_db"]
    return cols, _grid_rows(omegas, values), _gap_metadata(gaps)


def _tone(cfg: dict, prefix: str) -> ToneConfig:
    """A tone from ``<prefix>_freq_hz`` and ``<prefix>_power_dbm``."""
    return ToneConfig(freq=2 * math.pi * cfg[f"{prefix}_freq_hz"],
                      power_dbm=cfg[f"{prefix}_power_dbm"])


def _breakdown(medium, beta, gamma, pump, omegas):
    """The phase-mismatch breakdown of a weak signal over omegas, in one
    pass, and its gaps."""
    values, errors = breakdown_grid(medium, beta, gamma, omegas, pump.freq,
                                    pump.power_dbm)
    return values, _gaps(omegas, dict(errors))


def _task_phase_mismatch(cfg: dict):
    _, medium, beta, gamma = _device(cfg)
    pump = _tone(cfg, "pump")
    omegas = _signal_grid(cfg)
    values, gaps = _breakdown(medium, beta, gamma, pump, omegas)
    cols = ["freq_hz", "dk_dispersion_rad_per_cell", "dk_kerr_rad_per_cell",
            "dk_dynamic_rad_per_cell", "dk_total_rad_per_cell"]
    return cols, _grid_rows(omegas, values), _gap_metadata(gaps)


def _task_gain(cfg: dict):
    _, medium, beta, gamma = _device(cfg)
    pump = _tone(cfg, "pump")
    omegas = _signal_grid(cfg)
    spec = gain_spectrum(medium, pump, omegas, cfg["signal_power_dbm"],
                         beta=beta, gamma=gamma, rtol=cfg["solver_rtol"])
    dk, _ = _breakdown(medium, beta, gamma, pump, omegas)
    # the gaps listed are the gain column's
    return (["freq_hz", "gain_db", "dk_total_rad_per_cell"],
            _grid_rows(omegas, spec.gain_db, dk[:, 3]),
            {**_gap_metadata(spec.gaps),
             "solver": _solver_metadata(spec.solver_stats)})


def _task_isolation(cfg: dict):
    _, medium, beta, _ = _device(cfg)
    pump = _tone(cfg, "iso_pump")
    omegas = _signal_grid(cfg)
    spec = isolation_spectrum(medium, pump, omegas, cfg["signal_power_dbm"],
                              beta=beta, rtol=cfg["solver_rtol"])
    return (["freq_hz", "isolation_db", "upconverted_fraction"],
            _grid_rows(omegas, spec.gain_db, spec.upconverted_fraction),
            {**_gap_metadata(spec.gaps),
             "solver": _solver_metadata(spec.solver_stats)})


def _task_saturation(cfg: dict):
    _, medium, beta, gamma = _device(cfg)
    pump = _tone(cfg, "pump")
    powers = np.linspace(cfg["signal_power_min_dbm"],
                         cfg["signal_power_max_dbm"],
                         cfg["signal_power_points"])
    res = saturation_curve(medium, pump, 2 * math.pi * cfg["signal_freq_hz"],
                           powers, beta=beta, gamma=gamma,
                           rtol=cfg["solver_rtol"])
    meta = {"small_signal_gain_db": res.small_signal_gain_db,
            "compression_1db_dbm": res.compression_1db_dbm,
            "solver": _solver_metadata(res.solver_stats)}
    return (["signal_power_dbm", "gain_db"],
            np.column_stack((res.power_dbm, res.gain_db)), meta)


def _task_noise_fit(cfg: dict):
    data = read_noise_records(cfg["noise_data_path"])
    fit = fit_output_line(data, cfg["bandwidth_hz"])
    m = fit.model
    table = np.column_stack((m.omega / (2 * math.pi), m.g_out, m.n_out,
                             m.n_out / (constants.HBAR * m.omega),
                             fit.g_stderr, fit.n_stderr))
    cols = ["freq_hz", "g_out", "n_out_w_per_hz", "n_out_photons",
            "g_stderr", "n_stderr"]
    return cols, table, {"bandwidth_hz": cfg["bandwidth_hz"]}


_PUMP = ("pump_freq_hz", "pump_power_dbm")
_SIGNAL_GRID = ("signal_freq_min_hz", "signal_freq_max_hz", "signal_points")

# task -> (function, required keys, (min, max, points) keys of the grid its
# library call takes strictly increasing or None, builds a device)
_TASKS = {
    "cell-params": (_task_cell_params, (), None, True),
    "dispersion": (_task_dispersion, (), None, True),
    "phase-mismatch": (_task_phase_mismatch, _PUMP, None, True),
    "gain": (_task_gain, _PUMP, _SIGNAL_GRID, True),
    "isolation": (_task_isolation, ("iso_pump_freq_hz", "iso_pump_power_dbm"),
                  _SIGNAL_GRID, True),
    "saturation": (_task_saturation, (*_PUMP, "signal_freq_hz"),
                   ("signal_power_min_dbm", "signal_power_max_dbm",
                    "signal_power_points"), True),
    "noise-fit": (_task_noise_fit, ("noise_data_path", "bandwidth_hz"), None,
                  False),
    "flux-sweep": (_task_flux_sweep, (), None, True),
}
TASKS = tuple(_TASKS)  # in order: argparse's choices, unknown-task message


# stands in for the rows while the rest of a JSON artifact is encoded; with
# sorted keys only "task" and "version", both from fixed vocabularies, come
# after "rows", so the last occurrence of its encoding is the rows' slot
_ROWS_SLOT = "<rows>"


def _json_tokens(values: tuple, precision: int) -> list:
    """``json.dumps(float(f"%.{precision}g" % v))`` for each of ``values``:
    one ``%``-format rounds them all and one call of json's C encoder
    writes the rounded floats (``float.__repr__``, ``NaN``, ``Infinity``)."""
    if not values:
        return []
    rounded = map(float, ((f"%.{precision}g " * len(values)) % values).split())
    return json.dumps(list(rounded))[1:-1].split(", ")


def _json_rows(table: np.ndarray, precision: int) -> str:
    """A 2-D float table as ``json.dumps(indent=1)`` writes the ``rows``
    value of an artifact, each float first rounded to ``precision``
    significant digits: a value's token is
    ``json.dumps(float(f"%.{precision}g" % v))``, and NaN and inf stay as
    they are.

    The table is one ``str.format`` of a template laid out with the
    encoder's separators.  Where ``2 <= precision <= 15`` and ``v`` is zero
    or a normal double with ``|v| < 0.5 * 10**(precision - 1)``, the
    template's field is ``{:.precision}``, which writes that token itself:
    both formats round ``v`` to the same ``precision`` digits; a decimal of
    at most 15 digits is the one shortest string that reads back as its
    nearest double, so ``float.__repr__`` prints exactly those digits; and
    the format's ``None`` type lays them out as ``repr`` does, with ``.0``
    on an integer and an ``e-05`` exponent below 1e-4, for any rounded
    value below ``10**(precision - 1)``, which a value below half of it
    cannot round up to.  Every other value (NaN, inf, subnormals, larger
    magnitudes, and all values at precision 1, where the format writes
    zero as ``0e+00``, 16 and 17) takes its token from
    :func:`_json_tokens`, one pass for all of them, and the token, which
    holds no brace, stands in the template as it is; a table without a
    ``{:.precision}`` field is its template.
    """
    if not table.size:
        return "[]"
    nrows, ncols = table.shape
    row = ",\n   ".join(["%s"] * ncols)
    rows = "\n  ],\n  [\n   ".join([row] * nrows)
    layout = f"[\n  [\n   {rows}\n  ]\n ]"
    values = table.ravel()
    size = np.abs(values)
    exact = ((2 <= precision <= 15)
             & (size < 0.5 * 10.0 ** (precision - 1))
             & ((size >= sys.float_info.min) | (size == 0)))
    fields = np.empty(values.size, object)
    fields.fill(f"{{:.{precision}}}")  # np.full of an object is slower
    fields[~exact] = _json_tokens(tuple(values[~exact].tolist()), precision)
    return (layout % tuple(fields.tolist())).format(*values[exact].tolist())


def run(cfg: dict, out_path=None, out_format=None) -> str:
    """Execute the configured task and write the artifact file.

    Returns the output path.  Output is deterministic for identical
    configs: rows follow grid order and floats are rendered at the
    configured precision.  Each table is rendered whole, in one pass, and
    the bytes are those of rendering value by value: a CSV value is
    ``f"{v:.{precision}g}"``, and the JSON document is
    ``json.dumps(doc, indent=1, sort_keys=True, allow_nan=True)`` with each
    finite row value replaced by ``float(f"{v:.{precision}g}")``
    (``tests/test_cli.py`` keeps that rule as its oracle), so a JSON row
    value's token is ``json.dumps(float(f"%.{precision}g" % v))``;
    :func:`_json_rows` says how one ``str.format`` writes it.
    """
    task = cfg["task"]
    t0 = time.perf_counter()
    cols, table, meta = _TASKS[task][0](cfg)
    t1 = time.perf_counter()
    log.info("ran task %s in %.3f s", task, t1 - t0)
    fmt = out_format or cfg["format"]
    path = out_path or cfg["out_path"] or f"{task}.{fmt}"
    prec = cfg["precision"]
    table = np.reshape(np.asarray(table, dtype=float), (-1, len(cols)))

    if fmt == "csv":
        row = ",".join([f"%.{prec}g"] * len(cols)) + "\n"
        payload = (",".join(cols) + "\n"
                   + (row * len(table)) % tuple(table.ravel().tolist()))
    else:
        import hashlib  # only here: it loads OpenSSL, a CSV run needs none
        doc = {
            "task": task,
            "version": __version__,
            "config_hash": hashlib.sha256("\n".join(
                f"{k}={cfg[k]!r}" for k in sorted(cfg)).encode()).hexdigest(),
            "config": {k: cfg[k] for k in sorted(cfg)},
            "constants": {
                "h": constants.H, "hbar": constants.HBAR,
                "e": constants.E_CHARGE, "k_b": constants.K_B,
                "phi0": constants.PHI0, "r_q": constants.R_Q,
            },
            "columns": cols,
            "rows": _ROWS_SLOT,
            "metadata": meta,
        }
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=True)
        head, _, tail = text.rpartition(json.dumps(_ROWS_SLOT))
        payload = head + _json_rows(table, prec) + tail + "\n"

    t2 = time.perf_counter()
    log.info("formatted %d rows as %s in %.3f s", len(table), fmt, t2 - t1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    log.info("wrote %s in %.3f s", path, time.perf_counter() - t2)
    return path


def _error_exit(code: int, kind: str, payload) -> int:
    sys.stderr.write(json.dumps({"error": kind, "detail": payload}) + "\n")
    return code


_PARSER = argparse.ArgumentParser(prog="twpasim", description=__doc__)
_PARSER.add_argument("task", choices=TASKS)
_PARSER.add_argument("--config", required=True)
_PARSER.add_argument("--out", default=None)
_PARSER.add_argument("--format", choices=("csv", "json"), default=None)


def main(argv=None) -> int:
    # a level name; any other value (BASIC_FORMAT names a string) is warning
    level = getattr(logging, os.environ.get("TWPASIM_LOG", "").upper(), None)
    logging.basicConfig(format="%(name)s %(levelname)s %(message)s")
    # on the package logger, so the setting holds even where the root
    # logger was configured before (an embedding program, pytest)
    log.setLevel(level if isinstance(level, int) else logging.WARNING)
    args = _PARSER.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return _error_exit(2, "config", [[0, f"cannot read config: {exc}"]])

    t0 = time.perf_counter()
    try:
        cfg = validate(text)
        if cfg["task"] != args.task:
            return _error_exit(2, "config", [[0,
                f"config task '{cfg['task']}' does not match command "
                f"'{args.task}'"]])
    except ConfigError as exc:
        return _error_exit(2, "config", exc.diagnostics)
    log.info("parsed config in %.3f s", time.perf_counter() - t0)

    try:
        run(cfg, out_path=args.out, out_format=args.format)
    except (TwpaError, ValueError, OSError) as exc:
        return _error_exit(3, type(exc).__name__, str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
