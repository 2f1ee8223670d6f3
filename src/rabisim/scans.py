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
# fit_two_frequency is imported, not called: perfbench/tracing.py wraps
# this binding.
from .fitting import fit_single_frequency, fit_two_frequency  # noqa: F401
from .fitting import fit_two_frequency_block
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


# A scan simulates and analyses its points a chunk at a time: a chunk holds
# at most about this many trace samples (always at least one point), so a
# long scan's memory is bounded by the chunk.
_CHUNK_SAMPLES = 4096


def _default_times():
    dt = 0.008
    return np.arange(0.0, 1.0 + dt / 2, dt)


def _attempt(fn, *args, **kwargs):
    """fn's result, or the error it raised (FitFailure is a RuntimeError)."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return exc


def _fft_peaks(trace, fft_options):
    spec = fft_spectrum(trace, **dict(fft_options or {}))
    if not spec.peak_frequencies_khz.size:
        raise ValueError("no spectral peak: the FFT power has no interior "
                         "maximum of the required prominence")
    return tuple(float(f) for f in spec.peak_frequencies_khz)


def _analyse(analysis, traces, omega0, window, decay, fft_options):
    """A fit (for FFT, the peak list), or the error it raised, per trace."""
    if analysis == "single":
        return [_attempt(fit_single_frequency, tr, window, decay=decay)
                for tr in traces]
    if analysis == "fft":
        return [_attempt(_fft_peaks, tr, fft_options) for tr in traces]
    fits = _attempt(fit_two_frequency_block, traces, omega0, window)
    # The block rejects omega0, the window or the time grid, which every
    # point of the chunk shares: each point records the error.
    return [fits] * len(traces) if isinstance(fits, Exception) else fits


def _single_row(fit, delta):
    return ScanRow(
        detuning_khz=angular_to_khz(delta),
        frequency_khz=angular_to_khz(fit.omega),
        frequency_ci_khz=angular_to_khz(fit.ci95["omega"]),
        amplitude=fit.A,
        amplitude_ci=fit.ci95["A"],
        gamma=fit.gamma,
        gamma_ci=fit.ci95["gamma"],
        r_squared=fit.r_squared,
    )


def _two_row(fit, delta):
    return ScanRow(
        detuning_khz=angular_to_khz(delta),
        frequency_khz=angular_to_khz(fit.omega_bar),
        amplitude=fit.A,
        r_squared=fit.r_squared,
        fraction_a=fit.fraction_a,
        fraction_a_ci=fit.ci95["fraction_a"],
        omega_bar_khz=angular_to_khz(fit.omega_bar),
        gamma_b=fit.gamma_b,
        indistinguishable=fit.indistinguishable,
        fraction_ci_wide=fit.fraction_ci_wide,
    )


def _fft_row(peaks, delta):
    return ScanRow(detuning_khz=angular_to_khz(delta), frequency_khz=peaks[0],
                   peaks_khz=peaks)


_ROWS = {"single": _single_row, "two": _two_row, "fft": _fft_row}


def scan_detuning(base_config: EnsembleConfig, detunings, *, analysis="single",
                  times=None, window=None, decay="exp", fft_options=None):
    """Run the ensemble simulation and analysis at each angular detuning.

    detunings are angular (rad/ms), matching DriveParams.delta. The result
    is a list of ScanRow in input order. Every analysis runs a chunk of
    points at a time (at most about 4,096 trace samples, at least one
    point): the chunk's points are simulated, then analysed together.
    Two-frequency points are fitted as one block, whose fits are bitwise
    the per-point ones; single-frequency and FFT points are analysed one
    trace at a time. A point whose simulation or analysis fails gets its
    error message recorded instead of aborting the scan.
    """
    detunings = [float(d) for d in detunings]
    if not detunings:
        raise ValueError("detuning list must not be empty")
    if analysis not in _ROWS:
        raise ValueError(f"unknown analysis {analysis!r}")
    t = _default_times() if times is None else np.asarray(times, dtype=float)
    chunk = max(1, _CHUNK_SAMPLES // max(t.size, 1))
    rows = []
    for start in range(0, len(detunings), chunk):
        deltas = detunings[start:start + chunk]
        configs = [replace(base_config, drive=replace(base_config.drive, delta=delta))
                   for delta in deltas]
        # a trace, or the error its simulation raised, per point
        traces = [_attempt(ensemble_signal, config, t) for config in configs]
        simulated = [tr for tr in traces if not isinstance(tr, Exception)]
        fits = iter(_analyse(analysis, simulated, base_config.drive.omega0, window,
                             decay, fft_options))
        for delta, trace in zip(deltas, traces):
            fit = trace if isinstance(trace, Exception) else next(fits)
            rows.append(ScanRow(detuning_khz=angular_to_khz(delta), error=str(fit))
                        if isinstance(fit, Exception) else _ROWS[analysis](fit, delta))
    return rows
