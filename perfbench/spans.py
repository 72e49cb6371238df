"""Spans at twpasim's module boundaries.

A boundary is named by its dotted path inside the package, e.g.
``cme.integrate_4wm`` or ``medium.MediumParams.from_cell``.  Installing a
:class:`Tracer` wraps each boundary where its callers look it up: the
named attribute itself, plus every other ``twpasim`` module attribute
bound to the same object (for ``cme.gain_spectrum`` also
``cli.gain_spectrum`` and the package-level ``twpasim.gain_spectrum``).
Restoring puts the originals back.  A boundary whose name no longer resolves is reported
absent with zero calls instead of failing the run, so the benchmark keeps
working across refactors that move or delete functions.

The tracer assumes one caller thread: spans nest on a single stack.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

BOUNDARIES = (
    "cli.main",
    "cli.validate",
    "cli.run",
    "unitcell.equilibrium_phase",
    "unitcell.cell_coefficients",
    "unitcell.flux_sweep",
    "unitcell.kerr_free_flux",
    "medium.MediumParams.from_cell",
    "medium.amplitude_from_dbm",
    "phasematch.dk_total",
    "phasematch.find_matched_pump",
    "cme.gain_spectrum",
    "cme.saturation_curve",
    "cme.isolation_spectrum",
    "cme.integrate_4wm",
    "cme.integrate_3wm",
    "cme.Trajectory.photon_flux",
    "_kernels.integrate",
    "noisecal.read_noise_records",
    "noisecal.fit_output_line",
)

# per-boundary statistic -> unit; busy_s is inclusive, self_s excludes the
# time covered by child spans, failed counts calls that raised
STATS = {"calls": "count", "busy_s": "s", "self_s": "s", "failed": "count"}

PACKAGE = "twpasim"
_UNSET = object()


def _resolve(path: str):
    """Return ``(owner, attr, raw)`` for a boundary, or None if absent.

    ``raw`` is the object as stored on ``owner`` (for class attributes the
    descriptor itself, e.g. a ``classmethod``).
    """
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        modname = ".".join([PACKAGE] + parts[:split])
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            continue
        for attr in parts[split:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        name = parts[-1]
        if isinstance(owner, type):
            for klass in owner.__mro__:
                if name in vars(klass):
                    return owner, name, vars(klass)[name]
            return None
        raw = vars(owner).get(name)
        return (owner, name, raw) if callable(raw) else None
    return None


class Tracer:
    """Counts calls and time per boundary while installed.

    ``stats[name]`` holds running totals of :data:`STATS`.  When
    ``record`` is true, every finished span is also appended to ``spans``
    as ``(id, parent_id, name, start_s, end_s, failed)``.
    """

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = tuple(boundaries)
        self.stats = {b: dict.fromkeys(STATS, 0) for b in self.boundaries}
        self.absent = [b for b in self.boundaries if _resolve(b) is None]
        self.record = False
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]          # id, time covered by children
            stack.append(frame)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                busy = end - start
                stats["calls"] += 1
                stats["busy_s"] += busy
                stats["self_s"] += busy - frame[1]
                stats["failed"] += failed
                if parent is not None:
                    parent[1] += busy
                if self.record:
                    self.spans.append((span_id,
                                       parent[0] if parent else None,
                                       name, start, end, failed))

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for name in self.boundaries:
            found = _resolve(name)
            if found is None:
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._patch(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            # aliases bound by ``from .x import f`` in other modules
            for mod in modules:
                if mod is owner:
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, alias, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _UNSET)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _UNSET:      # was inherited from a base class
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
