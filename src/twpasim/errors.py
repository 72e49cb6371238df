"""Domain error types, and :func:`describe`, the reason a grid row that
raised one gives for its gap."""


class TwpaError(Exception):
    """Base class for all domain errors."""


class DomainError(TwpaError, ValueError):
    """An input outside the model's domain: a non-positive frequency, or
    a mode state of the wrong shape or with non-finite amplitudes.  It is
    also a ``ValueError``, so callers that catch that keep working."""


class NonConvergence(TwpaError):
    """Equilibrium-phase root finding did not converge (pathological
    asymmetry ratio, typically near the hysteretic regime)."""


class NonPositiveInductance(TwpaError):
    """The linear expansion coefficient is not positive at the requested
    flux; the operating point is invalid."""


class NotFound(TwpaError):
    """A requested search (Kerr-free flux, matched pump) found no
    acceptable solution."""


class AbovePlasmaCutoff(TwpaError):
    """A mode frequency is at or above the guard fraction of the plasma
    frequency, where the dispersion model is invalid."""


class NegativeIdler(TwpaError):
    """The idler frequency 2*omega_pump - omega_signal is not positive."""


class SmallDenominator(TwpaError):
    """A phase-mismatch denominator is too small for the perturbative
    dynamic-phase expressions to be meaningful."""


class StepFailure(TwpaError):
    """The adaptive integrator could not complete the run (step size
    underflow, step budget exhausted, or non-finite state)."""


class SingularFit(TwpaError):
    """A least-squares fit is rank deficient (e.g. a frequency bin with a
    single source temperature)."""


class NonPositiveGain(TwpaError):
    """A gain passed to the noise referencing is not strictly positive."""


class ConfigError(TwpaError):
    """Run configuration is invalid; carries structured diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(f"line {ln}: {msg}" if ln else msg
                                   for ln, msg in self.diagnostics))


def describe(exc: TwpaError) -> str:
    """A gap's reason: ``"Type: message"``."""
    return f"{type(exc).__name__}: {exc}"

