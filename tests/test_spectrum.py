import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks  # the oracle; rabisim never imports it

from rabisim import spectrum
from rabisim.model import OscillationTrace
from rabisim.spectrum import _find_peaks, fft_spectrum, sliding_window_frequency
from rabisim.units import khz_to_angular


def _tone(f_khz, n=500, dt=0.004, amp=1.0, decay=0.0, offset=0.0, slope=0.0):
    t = dt * np.arange(n)
    y = amp * np.exp(-decay * t) * np.cos(khz_to_angular(f_khz) * t) + offset + slope * t
    return OscillationTrace.from_times(t, y)


def test_pure_tone_peak_location():
    trace = _tone(9.0)
    spec = fft_spectrum(trace)
    df = spec.frequencies_khz[1] - spec.frequencies_khz[0]
    assert spec.peak_frequencies_khz.size >= 1
    assert abs(spec.peak_frequencies_khz[0] - 9.0) <= df


def test_two_tones_resolved_and_ordered_by_height():
    t = 0.004 * np.arange(500)
    y = 1.0 * np.cos(khz_to_angular(9.0) * t) + 0.4 * np.cos(khz_to_angular(13.5) * t)
    spec = fft_spectrum(OscillationTrace.from_times(t, y))
    assert spec.peak_frequencies_khz.size >= 2
    df = spec.frequencies_khz[1] - spec.frequencies_khz[0]
    assert abs(spec.peak_frequencies_khz[0] - 9.0) <= df
    assert abs(spec.peak_frequencies_khz[1] - 13.5) <= df
    assert spec.peak_heights[0] > spec.peak_heights[1]


def test_detrend_removes_ramp_leakage():
    trace = _tone(9.0, amp=0.2, slope=2.0)
    spec = fft_spectrum(trace, detrend=True)
    df = spec.frequencies_khz[1] - spec.frequencies_khz[0]
    assert abs(spec.peak_frequencies_khz[0] - 9.0) <= df
    # without detrending the ramp's low-frequency leakage dwarfs the tone
    raw = fft_spectrum(trace, detrend=False)
    low = raw.power[raw.frequencies_khz < 2.0].max()
    assert low > raw.power[np.argmin(np.abs(raw.frequencies_khz - 9.0))]


def test_no_window_option():
    trace = _tone(6.25)
    spec = fft_spectrum(trace, window_fn="none")
    df = spec.frequencies_khz[1] - spec.frequencies_khz[0]
    assert abs(spec.peak_frequencies_khz[0] - 6.25) <= df


def test_spectrum_validation():
    trace = _tone(9.0)
    short = OscillationTrace.from_times(0.004 * np.arange(8), np.ones(8))
    with pytest.raises(ValueError):
        fft_spectrum(short)
    with pytest.raises(ValueError):
        fft_spectrum(trace, pad_factor=0)
    with pytest.raises(ValueError):
        fft_spectrum(trace, pad_factor=8)
    with pytest.raises(ValueError):
        fft_spectrum(trace, prominence=0.0)
    with pytest.raises(ValueError):
        fft_spectrum(trace, prominence=1.5)
    with pytest.raises(ValueError):
        fft_spectrum(trace, window_fn="blackman")


@given(f_khz=st.floats(min_value=3.0, max_value=25.0))
@settings(max_examples=40, deadline=None)
def test_peak_recovery_property(f_khz):
    trace = _tone(f_khz)
    spec = fft_spectrum(trace)
    df = spec.frequencies_khz[1] - spec.frequencies_khz[0]
    assert spec.peak_frequencies_khz.size >= 1
    assert abs(spec.peak_frequencies_khz[0] - f_khz) <= df


def test_power_parseval_scale():
    # a unit cosine carries amplitude 1, so the peak power is near 1^2
    trace = _tone(9.0, amp=1.0)
    spec = fft_spectrum(trace, window_fn="none", detrend=False)
    assert spec.peak_heights[0] == pytest.approx(1.0, rel=0.05)


def test_sliding_window_tracks_constant_frequency():
    trace = _tone(9.0, n=501, decay=1.0)
    points = sliding_window_frequency(trace, fft_spectrum(trace), 0.5, 0.5)
    assert len(points) == 4
    for p in points:
        assert abs(p.frequency_khz - 9.0) < max(0.05, p.ci95_khz)
    centers = [p.t_center for p in points]
    assert centers == sorted(centers)


def test_sliding_window_t_stop_limits_track():
    trace = _tone(9.0, n=500, decay=1.0)
    points = sliding_window_frequency(trace, fft_spectrum(trace), 0.5, 0.5, t_stop=1.0)
    assert len(points) == 2
    assert all(p.t_center <= 1.0 for p in points)


def test_sliding_window_follows_decreasing_frequency():
    # two back-to-back tones: the track must step down between them
    dt = 0.004
    t = dt * np.arange(500)
    f = np.where(t < 1.0, 12.0, 8.0)
    phase = 2.0 * np.pi * np.cumsum(f) * dt
    trace = OscillationTrace.from_times(t, np.cos(phase))
    points = sliding_window_frequency(trace, fft_spectrum(trace), 0.5, 0.5)
    assert points[0].frequency_khz > points[-1].frequency_khz + 2.0


def test_sliding_window_skips_flat_windows():
    # A tone that stops dead at 1 ms: the windows after it fit as flat and
    # are left out of the track.
    trace = _tone(9.0, n=501, decay=1.0)
    values = np.where(trace.times < 1.0, trace.values, trace.values[250])
    flat_tail = OscillationTrace.from_times(trace.times, values)
    points = sliding_window_frequency(flat_tail, fft_spectrum(flat_tail), 0.5, 0.5)
    assert [p.t_center for p in points] == pytest.approx([0.25, 0.75])


def test_sliding_window_skips_windows_too_short_to_fit():
    # At dt = 0.02 ms a 0.5 ms window holds 25 samples, under the 30 a fit
    # needs, so every window is skipped and the track is empty.
    trace = _tone(9.0, n=101, dt=0.02)
    assert sliding_window_frequency(trace, fft_spectrum(trace), 0.5, 0.5) == []


def test_sliding_window_rejects_a_trace_without_a_peak():
    # Detrending removes a straight line whole, leaving no peak to track.
    t = 0.004 * np.arange(500)
    line = OscillationTrace.from_times(t, 0.3 * t + 0.1)
    with pytest.raises(ValueError, match="no spectral peak"):
        sliding_window_frequency(line, fft_spectrum(line), 0.4, 0.2)


def test_sliding_window_rejects_short_window():
    trace = _tone(9.0)
    spec = fft_spectrum(trace)
    with pytest.raises(ValueError):
        sliding_window_frequency(trace, spec, 0.1, 0.1)  # under three periods
    with pytest.raises(ValueError):
        sliding_window_frequency(trace, spec, -0.5, 0.5)
    with pytest.raises(ValueError):
        sliding_window_frequency(trace, spec, 0.5, 0.0)


def test_sliding_window_guards_on_the_spectrum_it_is_given(monkeypatch):
    # The track takes no spectrum of its own: its guard reads the strongest
    # peak of the spectrum passed in, which has no default.
    trace = _tone(9.0, n=501, decay=1.0)
    own, slow = fft_spectrum(trace), fft_spectrum(_tone(3.0, n=501))
    monkeypatch.setattr(spectrum, "fft_spectrum", None)
    with pytest.raises(ValueError, match="fewer than three periods of the dominant 2.99 kHz"):
        sliding_window_frequency(trace, slow, 0.5, 0.5)
    assert len(sliding_window_frequency(trace, own, 0.5, 0.5)) == 4
    spec_param = inspect.signature(sliding_window_frequency).parameters["spectrum"]
    assert spec_param.default is inspect.Parameter.empty


def _hann_fft_magnitude(rng, n):
    t = 0.01 * np.arange(n)
    y = sum(rng.random() * np.exp(-rng.random() * t)
            * np.cos(50.0 * rng.random() * t + rng.random()) for _ in range(3))
    return np.abs(np.fft.rfft(y * np.hanning(n), n=4 * n))


@pytest.mark.parametrize("block", [spectrum._PEAK_BLOCK, 500])
@pytest.mark.parametrize("kind", ["uniform", "plateaus", "hann_fft"])
def test_find_peaks_matches_scipy(kind, block, monkeypatch):
    # A block of 500 splits the prominence walk over many blocks.
    monkeypatch.setattr(spectrum, "_PEAK_BLOCK", block)
    rng = np.random.default_rng(["uniform", "plateaus", "hann_fft"].index(kind))
    for _ in range(200):
        n = int(rng.integers(3, 400))
        if kind == "uniform":
            x = rng.random(n)
        elif kind == "plateaus":
            x = np.round(rng.random(n) * rng.integers(1, 6)).astype(float)
        else:
            x = _hann_fft_magnitude(rng, n)
        for fraction in (0.0, 0.05, 0.3):
            p = fraction * x.max()
            np.testing.assert_array_equal(_find_peaks(x, p),
                                          find_peaks(x, prominence=p)[0])


@pytest.mark.parametrize("x, p, expected", [
    ([], 0.0, []),
    ([1.0], 0.0, []),
    ([0.0, 1.0], 0.0, []),
    ([4.0] * 10, 0.0, []),                      # all constant
    ([3.0, 3.0, 1.0, 2.0, 1.0], 0.5, [3]),      # plateau at the left end
    ([1.0, 2.0, 1.0, 3.0, 3.0], 0.5, [1]),      # plateau at the right end
    ([3.0, 3.0, 1.0, 3.0, 3.0], 0.0, []),       # plateaus at both ends
    ([0.0, 2.0, 2.0, 0.0], 0.0, [1]),           # even plateau: left midpoint
    ([0.0, 2.0, 2.0, 2.0, 0.0], 0.0, [2]),
    ([0.0, 1.0, 0.5, 2.0, 0.0], 0.5, [1, 3]),   # prominence exactly p
    ([0.0, 1.0, 0.5, 2.0, 0.0], 0.5000000000000001, [3]),
    ([0.0, 1.0, 0.0], 1.0, [1]),                # height above global min = p
])
def test_find_peaks_edge_cases(x, p, expected):
    x = np.array(x, dtype=float)
    got = _find_peaks(x, p)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(got, find_peaks(x, prominence=p)[0])
