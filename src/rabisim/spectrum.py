"""FFT spectra and time-resolved frequency tracking of oscillation traces.

Frequencies here are ordinary (kHz), not angular: spectra are what one would
plot against a frequency axis, and the sliding-window track reports the
fitted frequency per window converted to kHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import OscillationTrace
from .units import TWO_PI, angular_to_khz

# Fewest samples fft_spectrum takes a spectrum of.
MIN_FFT_SAMPLES = 16

# Most peaks x samples compared in one block of the prominence walk, which
# keeps its boolean matrices at a few MB on any spectrum length.
_PEAK_BLOCK = 1 << 22


def _prominence_bases(x, peaks):
    """Reference level of each peak's prominence.

    From each peak, walk out to the nearest strictly higher sample on each
    side (or to the end of the array); the base is the higher of the two
    minima met on the way.
    """
    n = x.size
    idx = np.arange(n)
    higher = x > x[peaks][:, None]
    left = higher & (idx < peaks[:, None])
    right = higher & ~left
    # First sample of the left walk and last sample of the right walk.
    lo = np.where(left.any(axis=1), n - np.argmax(left[:, ::-1], axis=1), 0)
    hi = np.where(right.any(axis=1), np.argmax(right, axis=1), n) - 1
    # mins[0::4] is min x[lo:peak + 1], mins[2::4] is min x[peak:hi]; the
    # right walk's last sample x[hi] is added separately so that no index
    # reaches n.
    mins = np.minimum.reduceat(x, np.column_stack([lo, peaks + 1, peaks, hi]).ravel())
    return np.maximum(mins[0::4], np.minimum(mins[2::4], x[hi]))


def _find_peaks(x, prominence):
    """Indices, ascending, of the peaks of x with at least this prominence.

    A peak is a run of equal samples strictly above both neighbouring
    samples, placed at the run's midpoint; runs touching either end are not
    peaks. Its prominence is its height above the base that
    _prominence_bases finds. This is scipy.signal.find_peaks(x,
    prominence=prominence) without the scipy.signal import.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 3:
        return np.empty(0, dtype=np.intp)
    last = np.flatnonzero(x[1:] != x[:-1])
    starts = np.concatenate(([0], last + 1))
    ends = np.concatenate((last, [n - 1]))
    v = x[starts]
    runs = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    peaks = (starts[runs] + ends[runs]) // 2
    # A base is never below the global minimum, so this drops only peaks
    # that would fail the prominence test anyway.
    peaks = peaks[x[peaks] - x.min() >= prominence]
    base = np.empty(peaks.size)
    step = max(1, _PEAK_BLOCK // n)
    for s in range(0, peaks.size, step):
        base[s:s + step] = _prominence_bases(x, peaks[s:s + step])
    return peaks[x[peaks] - base >= prominence]


@dataclass(frozen=True)
class SpectrumResult:
    """One-sided power spectrum with labelled peaks.

    frequencies_khz and power have equal length; peak_frequencies_khz and
    peak_heights list detected peaks sorted by height, strongest first.
    """

    frequencies_khz: np.ndarray
    power: np.ndarray
    peak_frequencies_khz: np.ndarray
    peak_heights: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies_khz, dtype=float)
        p = np.asarray(self.power, dtype=float)
        if f.shape != p.shape or f.ndim != 1:
            raise ValueError("frequencies and power must be equal-length 1-d arrays")
        pf = np.asarray(self.peak_frequencies_khz, dtype=float)
        ph = np.asarray(self.peak_heights, dtype=float)
        if pf.shape != ph.shape or pf.ndim != 1:
            raise ValueError("peak arrays must be equal-length 1-d arrays")
        object.__setattr__(self, "frequencies_khz", f)
        object.__setattr__(self, "power", p)
        object.__setattr__(self, "peak_frequencies_khz", pf)
        object.__setattr__(self, "peak_heights", ph)


def fft_spectrum(trace: OscillationTrace, *, detrend=True, window_fn="hann",
                 pad_factor=4, prominence=0.05) -> SpectrumResult:
    """Power spectrum of a trace with peak detection.

    detrend removes the least-squares line before transforming (otherwise
    only the mean is removed); window_fn is "hann" or "none"; pad_factor
    in 1..4 zero-pads the transform for smoother peak positions.
    A peak is a local maximum of the power (the midpoint of a flat top);
    its prominence is its height above the higher of the two minima met
    walking out from it to the nearest higher power on each side, or to
    the end of the spectrum. Peaks are listed when their prominence is at
    least prominence times the maximum power. Power is scaled by the
    window's coherent gain so a cosine of amplitude a contributes a peak of
    height close to a^2.
    """
    y = trace.values.astype(float)
    n = y.size
    if n < MIN_FFT_SAMPLES:
        raise ValueError(f"spectrum needs at least {MIN_FFT_SAMPLES} samples")
    if window_fn not in ("hann", "none"):
        raise ValueError(f"unknown window function {window_fn!r}")
    pad_factor = int(pad_factor)
    if not 1 <= pad_factor <= 4:
        raise ValueError("pad_factor must be between 1 and 4")
    if not 0 < prominence < 1:
        raise ValueError("prominence must lie in (0, 1)")

    t = trace.times
    if detrend:
        design = np.column_stack([t, np.ones_like(t)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        y = y - design @ coef
    else:
        y = y - y.mean()

    if window_fn == "hann":
        w = np.hanning(n)
        y = y * w
        gain = w.sum()
    else:
        gain = float(n)

    nfft = pad_factor * n
    amp = (2.0 / gain) * np.abs(np.fft.rfft(y, n=nfft))
    power = amp * amp
    freqs = np.fft.rfftfreq(nfft, d=trace.dt)

    if power.max() > 0:
        idx = _find_peaks(power, prominence * power.max())
    else:
        idx = np.array([], dtype=int)
    order = np.argsort(power[idx])[::-1]
    idx = idx[order]
    return SpectrumResult(frequencies_khz=freqs, power=power,
                          peak_frequencies_khz=freqs[idx],
                          peak_heights=power[idx])


@dataclass(frozen=True)
class FrequencyTrackPoint:
    """Fitted frequency at one window center of a sliding-window track."""

    t_center: float
    frequency_khz: float
    ci95_khz: float


def sliding_window_frequency(trace: OscillationTrace, window_length, hop, *,
                             t_stop=None):
    """Track the dominant frequency with short overlapping window fits.

    Each window of the given length (hopping by hop, both in ms) gets a
    single-frequency fit whose frequency starts come from the window's own
    FFT peaks; the trace's global FFT peak f0 adds only one decay-rate
    start, 2 pi f0 / 10. Windows whose fit does not converge are skipped,
    leaving gaps in the track.
    The window must hold at least three periods of the global peak
    frequency, else the estimate would not resolve the oscillation.
    """
    from .fitting import FitFailure, fit_single_frequency

    window_length = float(window_length)
    hop = float(hop)
    if window_length <= 0 or hop <= 0:
        raise ValueError("window_length and hop must be positive")
    spec = fft_spectrum(trace, pad_factor=4)
    if spec.peak_frequencies_khz.size == 0:
        raise ValueError("trace has no spectral peak to track")
    f0 = float(spec.peak_frequencies_khz[0])
    if f0 <= 0 or window_length * f0 < 3.0:
        raise ValueError(
            f"window of {window_length} ms holds fewer than three periods "
            f"of the dominant {f0:.3g} kHz component"
        )

    t = trace.times
    t_end = t[-1] if t_stop is None else min(float(t_stop), t[-1])
    points = []
    start = t[0]
    while start + window_length <= t_end + 0.5 * trace.dt:
        stop = min(start + window_length, t[-1])
        try:
            fit = fit_single_frequency(trace, (start, stop),
                                       gamma_guesses=[TWO_PI * f0 / 10.0])
        except (FitFailure, ValueError):
            start += hop
            continue
        if fit.flat or not np.isfinite(fit.omega):
            start += hop
            continue
        points.append(FrequencyTrackPoint(
            t_center=start + 0.5 * window_length,
            frequency_khz=angular_to_khz(fit.omega),
            ci95_khz=angular_to_khz(fit.ci95.get("omega", math.inf)),
        ))
        start += hop
    return points
