"""Wave-mixing simulations for SNAIL-based nonlinear transmission lines."""

__version__ = "0.1.0"

from .unitcell import (SnailSpec, FluxPoint, CellCoefficients,
                       equilibrium_phase, cell_coefficients, kerr_free_flux,
                       flux_sweep)
from .medium import (MediumParams, wavevector, loss_wavevector,
                     linear_transmission_db, amplitude_from_dbm,
                     power_dbm_from_amplitude, omega_tilde)
from .phasematch import (ToneConfig, PhaseMismatchBreakdown, DynamicEtas,
                         dk_dispersion, kerr_etas, dynamic_etas, dk_total,
                         find_matched_pump, attenuated_pump_amplitude)
from .cme import (ModeSet4WM, ModeSet3WM, Trajectory, GainSpectrum,
                  SaturationResult, integrate_4wm, integrate_3wm,
                  gain_spectrum, saturation_curve, isolation_spectrum)
from .noisecal import (NoiseMeasurement, NoiseChainModel, NoiseFitResult,
                       source_noise, fit_output_line, system_noise,
                       sql_reference, read_noise_records)
from . import errors

__all__ = [
    "SnailSpec", "FluxPoint", "CellCoefficients", "equilibrium_phase",
    "cell_coefficients", "kerr_free_flux", "flux_sweep",
    "MediumParams", "wavevector", "loss_wavevector",
    "linear_transmission_db", "amplitude_from_dbm",
    "power_dbm_from_amplitude", "omega_tilde",
    "ToneConfig", "PhaseMismatchBreakdown", "DynamicEtas", "dk_dispersion",
    "kerr_etas", "dynamic_etas", "dk_total", "find_matched_pump",
    "attenuated_pump_amplitude",
    "ModeSet4WM", "ModeSet3WM", "Trajectory", "GainSpectrum",
    "SaturationResult", "integrate_4wm", "integrate_3wm", "gain_spectrum",
    "saturation_curve", "isolation_spectrum",
    "NoiseMeasurement", "NoiseChainModel", "NoiseFitResult", "source_noise",
    "fit_output_line", "system_noise", "sql_reference", "read_noise_records",
    "errors",
]
