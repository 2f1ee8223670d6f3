"""Detuning scans: simulate and analyze the ensemble signal across a detuning axis.

A scan row carries the analysis outputs for one detuning, with an error
column instead of an exception when a single point fails, so a long scan
always completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ensemble import EnsembleConfig, ensemble_signal
from .fitting import fit_single_frequency, fit_two_frequency
from .model import DriveParams
from .spectrum import fft_spectrum
from .units import angular_to_khz


@dataclass(frozen=True)
class ScanRow:
    """Analysis results at one detuning. Frequencies are ordinary kHz.

    Which fields are populated depends on the analysis: single-frequency
    fits fill frequency/amplitude/gamma and their CIs; two-frequency fits
    fill fraction/omega_bar/gamma_b; FFT analysis fills the peak list.
    error is empty on success and holds the failure text otherwise; an FFT
    point whose spectrum has no peak is a failure.
    """

    detuning_khz: float
    frequency_khz: float = math.nan
    frequency_ci_khz: float = math.nan
    amplitude: float = math.nan
    amplitude_ci: float = math.nan
    gamma: float = math.nan
    gamma_ci: float = math.nan
    r_squared: float = math.nan
    fraction_a: float = math.nan
    fraction_a_ci: float = math.nan
    omega_bar_khz: float = math.nan
    gamma_b: float = math.nan
    indistinguishable: bool = False
    fraction_ci_wide: bool = False
    peaks_khz: tuple = field(default_factory=tuple)
    error: str = ""


def _default_times():
    dt = 0.008
    return np.arange(0.0, 1.0 + dt / 2, dt)


def _analyze_single(trace, config, window, decay):
    drive = config.drive
    sigma = config.distribution.std_shift()
    omega_r = math.hypot(drive.omega0, drive.delta)
    guesses = [sigma]
    if omega_r > 0 and sigma > 0:
        guesses.append(sigma * abs(drive.delta) / omega_r)
    fit = fit_single_frequency(trace, window, decay=decay,
                               gamma_guesses=[g for g in guesses if g > 0] or None)
    return ScanRow(
        detuning_khz=angular_to_khz(drive.delta),
        frequency_khz=angular_to_khz(fit.omega),
        frequency_ci_khz=angular_to_khz(fit.ci95.get("omega", math.nan)),
        amplitude=fit.A,
        amplitude_ci=fit.ci95.get("A", math.nan),
        gamma=fit.gamma,
        gamma_ci=fit.ci95.get("gamma", math.nan),
        r_squared=fit.r_squared,
    )


def _analyze_two(trace, config, window):
    drive = config.drive
    fit = fit_two_frequency(trace, drive.omega0, window)
    return ScanRow(
        detuning_khz=angular_to_khz(drive.delta),
        frequency_khz=angular_to_khz(fit.omega_bar),
        amplitude=fit.A,
        r_squared=fit.r_squared,
        fraction_a=fit.fraction_a,
        fraction_a_ci=fit.ci95.get("fraction_a", math.nan),
        omega_bar_khz=angular_to_khz(fit.omega_bar),
        gamma_b=fit.gamma_b,
        indistinguishable=fit.indistinguishable,
        fraction_ci_wide=fit.fraction_ci_wide,
    )


def _analyze_fft(trace, config, fft_options):
    spec = fft_spectrum(trace, **dict(fft_options or {}))
    if not spec.peak_frequencies_khz.size:
        raise ValueError("no spectral peak: the FFT power has no interior "
                         "maximum of the required prominence")
    peaks = tuple(float(f) for f in spec.peak_frequencies_khz)
    return ScanRow(detuning_khz=angular_to_khz(config.drive.delta),
                   frequency_khz=peaks[0], peaks_khz=peaks)


def scan_detuning(base_config: EnsembleConfig, detunings, *, analysis="single",
                  times=None, window=None, decay="exp", fft_options=None):
    """Run the ensemble simulation and analysis at each angular detuning.

    detunings are angular (rad/ms), matching DriveParams.delta. The points
    run one after another, and the result is a list of ScanRow in input
    order. A point whose simulation or analysis fails gets its error
    message recorded instead of aborting the scan.
    """
    detunings = [float(d) for d in detunings]
    if not detunings:
        raise ValueError("detuning list must not be empty")
    if analysis not in ("single", "two", "fft"):
        raise ValueError(f"unknown analysis {analysis!r}")
    t = _default_times() if times is None else np.asarray(times, dtype=float)

    if window is None and analysis == "single":
        window = (0.01, 0.6)

    rows = []
    for delta in detunings:
        drive = DriveParams(omega0=base_config.drive.omega0, delta=delta)
        config = replace(base_config, drive=drive)
        try:
            trace = ensemble_signal(config, t)
            if analysis == "single":
                row = _analyze_single(trace, config, window, decay)
            elif analysis == "two":
                row = _analyze_two(trace, config, window)
            else:
                row = _analyze_fft(trace, config, fft_options)
        except (ValueError, RuntimeError) as exc:
            # FitFailure is a RuntimeError
            row = ScanRow(detuning_khz=angular_to_khz(delta), error=str(exc))
        rows.append(row)
    return rows
