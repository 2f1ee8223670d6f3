import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsq_oracles import assert_bitwise_equal, reference_lm

from rabisim import fitting, lsq
from rabisim.fitting import (
    FitFailure,
    _detrend_line,
    _fft_peak_frequencies,
    fit_single_frequency,
    fit_two_frequency,
    fit_two_frequency_block,
)
from rabisim.ensemble import AtomModel, DetuningDistribution, EnsembleConfig, ensemble_signal
from rabisim.model import DriveParams, OscillationTrace
from rabisim.units import TWO_PI, khz_to_angular

TIMES = np.arange(0.0, 2.0, 0.004)


def _window_samples(trace, window):
    """The fit window of trace and the trace's samples on it."""
    win = fitting._fit_window(trace, window)
    return win, trace.values[win.rows]


def _damped_cosine(a, gamma, omega, phi, slope=0.0, offset=0.0, times=TIMES, noise=None):
    y = a * np.exp(-gamma * times) * np.cos(omega * times + phi) + slope * times + offset
    if noise is not None:
        y = y + noise
    return OscillationTrace.from_times(times, y)


def test_single_fit_recovers_damped_cosine():
    trace = _damped_cosine(0.4, 2.0, khz_to_angular(9.0), 0.3, slope=0.05, offset=0.5)
    fit = fit_single_frequency(trace, (0.01, 1.8))
    assert fit.converged
    assert fit.r_squared > 0.9999
    assert fit.A == pytest.approx(0.4, rel=1e-2)
    assert fit.gamma == pytest.approx(2.0, rel=1e-2)
    assert fit.omega == pytest.approx(khz_to_angular(9.0), rel=1e-4)
    assert fit.phi == pytest.approx(0.3, abs=1e-2)
    assert fit.B == pytest.approx(0.05, abs=1e-3)
    assert fit.C == pytest.approx(0.5, abs=1e-3)


def test_single_fit_gaussian_decay():
    gamma = 3.0
    y = 0.3 * np.exp(-0.5 * (gamma * TIMES) ** 2) * np.cos(khz_to_angular(7.0) * TIMES) + 0.5
    trace = OscillationTrace.from_times(TIMES, y)
    fit = fit_single_frequency(trace, (0.0, 1.5), decay="gauss")
    assert fit.decay == "gauss"
    assert fit.gamma == pytest.approx(gamma, rel=1e-2)
    assert fit.omega == pytest.approx(khz_to_angular(7.0), rel=1e-3)


def test_single_fit_canonical_parameters():
    # a negative amplitude must come back positive with the phase absorbed
    trace = _damped_cosine(-0.4, 1.0, khz_to_angular(9.0), 0.3)
    fit = fit_single_frequency(trace, (0.01, 1.8))
    assert fit.A > 0
    assert -math.pi < fit.phi <= math.pi
    assert fit.phi == pytest.approx(0.3 - math.pi, abs=1e-2)


@pytest.mark.parametrize("a, omega, phi", [
    (-0.4, 3.0, 0.3), (0.4, -3.0, 0.3), (-0.4, -3.0, -2.9), (0.4, 3.0, 7.0),
    (0.4, -3.0, math.pi), (-0.4, 3.0, 2.0 * math.pi),
], ids=["negative_a", "negative_omega", "both_negative", "phase_past_pi",
        "negative_omega_at_pi", "negative_a_at_two_pi"])
def test_package_single_canonical_form(a, omega, phi):
    # Every LM optimum is turned into omega >= 0, A >= 0, phi in (-pi, pi]
    # describing the same curve; SingleFreqFit rejects any other form.
    t = np.linspace(0.01, 0.6, 40)
    params = np.array([a, 1.2, omega, phi, 0.1, 0.2])
    res = lsq.LsqResult(params, ssr=1e-4, n_iter=5, converged=True)
    fit = fitting._package_single(res, 1e-6 * np.eye(6), np.sin(t), "exp")
    assert fit.A >= 0 and fit.omega >= 0 and -math.pi < fit.phi <= math.pi
    assert (fit.A, fit.omega) == (abs(a), abs(omega))

    def curve(a, omega, phi):
        return a * np.cos(omega * t + phi)

    np.testing.assert_allclose(curve(fit.A, fit.omega, fit.phi), curve(a, omega, phi),
                               rtol=0.0, atol=1e-14)


def test_fft_starts_fall_back_to_the_strongest_bin_without_a_peak():
    # A detrended parabola has a smooth spectrum with no interior peak, so
    # the one start is the strongest bin above the DC floor.
    t = np.arange(0.0, 2.0, 0.004)
    win, y = _window_samples(OscillationTrace.from_times(t, 0.3 * t * t), (0.01, 0.6))
    ts = win.t
    slope, offset = _detrend_line(win, y)
    resid = y - (slope * ts + offset)
    nfft = 4 * resid.size
    power = np.abs(np.fft.rfft(resid * np.hanning(resid.size), n=nfft))
    freqs = np.fft.rfftfreq(nfft, d=ts[1] - ts[0])
    above = freqs > 0.5 / (ts[-1] - ts[0])
    assert fitting._find_peaks(power, 0.05 * power.max()).size == 0
    best = freqs[above][np.argmax(power[above])]
    assert _fft_peak_frequencies(win, resid, 5) == [2.0 * math.pi * best]


def test_single_fit_flat_trace():
    trace = OscillationTrace.from_times(TIMES, np.full_like(TIMES, 0.37))
    fit = fit_single_frequency(trace, (0.01, 1.8))
    assert fit.flat
    assert fit.A == 0.0
    assert fit.ci95["omega"] == math.inf


def _near_flat(level=0.3):
    # A constant level carrying one ulp of rounding: peak-to-peak 5.6e-17.
    y = np.full_like(TIMES, level)
    y[::7] = np.nextafter(level, 1.0)
    assert 0.0 < np.ptp(y) < 1e-16
    return OscillationTrace.from_times(TIMES, y)


def test_single_fit_near_flat_trace():
    fit = fit_single_frequency(_near_flat(), (0.01, 1.8))
    assert fit.flat
    assert fit.A == 0.0
    assert fit.ci95["omega"] == math.inf


def test_single_fit_noisy_confidence_intervals():
    rng = np.random.default_rng(3)
    trace = _damped_cosine(
        0.3, 1.5, khz_to_angular(9.0), 1.0, offset=0.5, noise=0.02 * rng.standard_normal(TIMES.size)
    )
    fit = fit_single_frequency(trace, (0.01, 1.8))
    assert 0.9 < fit.r_squared < 1.0
    ci = fit.ci95["omega"]
    assert 0 < ci < khz_to_angular(0.5)
    assert abs(fit.omega - khz_to_angular(9.0)) < 3.0 * ci


def test_single_fit_default_window():
    trace = _damped_cosine(0.4, 2.0, khz_to_angular(9.0), 0.3, slope=0.05, offset=0.5)
    assert repr(fit_single_frequency(trace)) == repr(fit_single_frequency(trace, (0.01, 0.6)))


def test_single_fit_window_validation():
    trace = _damped_cosine(0.3, 1.0, khz_to_angular(9.0), 0.0)
    with pytest.raises(ValueError):
        fit_single_frequency(trace, (0.0, 0.05))  # too few samples
    with pytest.raises(ValueError):
        fit_single_frequency(trace, (1.5, 5.0))  # reaches past the trace
    with pytest.raises(ValueError):
        fit_single_frequency(trace, (0.01, 0.6), decay="power")


def test_single_fit_failure_carries_last_attempt():
    rng = np.random.default_rng(11)
    trace = _damped_cosine(
        0.3, 1.0, khz_to_angular(9.0), 0.0, noise=0.05 * rng.standard_normal(TIMES.size)
    )
    with pytest.raises(FitFailure) as info:
        fit_single_frequency(trace, (0.01, 1.8), max_iter=1)
    assert info.value.last_fit is not None
    assert not info.value.last_fit.converged


@given(
    a=st.floats(min_value=0.05, max_value=1.0),
    gamma=st.floats(min_value=0.0, max_value=4.0),
    f_khz=st.floats(min_value=2.0, max_value=20.0),
    phi=st.floats(min_value=0.0, max_value=6.2),
    offset=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_single_fit_round_trip_property(a, gamma, f_khz, phi, offset):
    trace = _damped_cosine(a, gamma, khz_to_angular(f_khz), phi, offset=offset)
    fit = fit_single_frequency(trace, (0.0, 1.9))
    assert fit.omega == pytest.approx(khz_to_angular(f_khz), rel=1e-3)
    assert fit.A == pytest.approx(a, rel=2e-2)


def _record_stacks(monkeypatch):
    """Wrap the stacked LM loop; return the list of (starts, results) it ran.
    The evaluate(P, rows) callable passes through unchanged."""
    stacks = []
    real = lsq.stacked_levenberg_marquardt

    def recording(evaluate, p0, **kwargs):
        results = real(evaluate, p0, **kwargs)
        stacks.append((np.array(p0), results))
        return results

    monkeypatch.setattr(lsq, "stacked_levenberg_marquardt", recording)
    return stacks


def _halves_rate(win, y, omega):
    """ln(|D1| / |D2|) / (t[h] - t[0]), at least 1/span: D1 and D2 are the
    detrended window's demodulated sums over its first and second h = n // 2
    samples."""
    t = win.t
    b0, c0 = _detrend_line(win, y)
    z = (y - (b0 * t + c0)) * np.exp(-1j * omega * t)
    h = t.size // 2
    rate = math.log(abs(z[:h].sum()) / abs(z[h:2 * h].sum())) / (t[h] - t[0])
    return max(1.0 / (t[-1] - t[0]), rate)


def test_single_fit_runs_one_start_per_fft_peak(monkeypatch):
    stacks = _record_stacks(monkeypatch)
    window = (0.01, 1.8)
    clean = _damped_cosine(0.4, 2.0, khz_to_angular(9.0), 0.3, slope=0.05, offset=0.5)
    fit = fit_single_frequency(clean, window)
    win, y = _window_samples(clean, window)
    span = win.t[-1] - win.t[0]
    assert fit.r_squared > 0.9999
    assert len(stacks) == 1
    (p0, results), = stacks
    assert p0.shape == (1, 6)
    # The decay rate starts where the demodulated tone's fall between the
    # halves of the window puts it, here within 1 % of the true 2/ms.
    assert p0[0, 1] == pytest.approx(_halves_rate(win, y, p0[0, 2]), rel=1e-12)
    assert p0[0, 1] == pytest.approx(2.0, rel=1e-2)
    assert fit.ssr == results[0].ssr

    # Two tones: every FFT peak gets a row of one stack, in peak order, and
    # the winner is the lowest-ssr row, here not the strongest peak's.
    stacks.clear()
    y = (0.4 * np.exp(-TIMES) * np.cos(khz_to_angular(9.0) * TIMES + 0.3)
         + 0.2 * np.cos(khz_to_angular(15.0) * TIMES) + 0.5)
    two_tone = OscillationTrace.from_times(TIMES, y)
    fit = fit_single_frequency(two_tone, window)
    win, y = _window_samples(two_tone, window)
    b0, c0 = _detrend_line(win, y)
    peaks = _fft_peak_frequencies(win, y - (b0 * win.t + c0), 5)
    assert len(peaks) >= 2
    assert len(stacks) == 1
    (p0, results), = stacks
    assert p0.shape == (len(peaks), 6)
    assert list(p0[:, 2]) == peaks
    rates = [_halves_rate(win, y, omega) for omega in peaks]
    assert list(p0[:, 1]) == pytest.approx(rates, rel=1e-12)
    assert (p0[:, 1] >= 1.0 / span).all()
    assert all(res.converged for res in results)
    ssrs = [res.ssr for res in results]
    assert fit.ssr == min(ssrs)
    assert ssrs[1] < ssrs[0]

    # Each row is bitwise its start run alone.
    for start, res in zip(p0, results):
        (alone,) = lsq.stacked_levenberg_marquardt(
            lambda P, rows: fitting._single_eval(P, win.t ** np.arange(5)[:, None], y, "exp"),
            start[None])
        assert np.array_equal(alone.params, res.params)
        assert alone.ssr == res.ssr
        assert (alone.n_iter, alone.converged, alone.message) == (
            res.n_iter, res.converged, res.message)
        assert np.array_equal(alone.jac, res.jac)


def _two_component(a, phi_a, b, omega_bar, phi_b, gamma_b, offset, omega0, times=TIMES):
    y = (
        a * np.cos(omega0 * times + phi_a)
        + b * np.exp(-0.5 * (gamma_b * times) ** 2) * np.cos(omega_bar * times + phi_b)
        + offset
    )
    return OscillationTrace.from_times(times, y)


def test_two_frequency_round_trip():
    omega0 = khz_to_angular(9.0)
    trace = _two_component(0.1, 0.2, 0.25, khz_to_angular(14.0), -0.4, 12.0, 0.45, omega0)
    fit = fit_two_frequency(trace, omega0, window=(0.0, 1.5))
    assert fit.converged
    assert fit.r_squared > 0.999
    assert fit.A == pytest.approx(0.1, rel=3e-2)
    assert fit.B_amp == pytest.approx(0.25, rel=3e-2)
    assert fit.omega_bar == pytest.approx(khz_to_angular(14.0), rel=1e-2)
    assert fit.gamma_b == pytest.approx(12.0, rel=5e-2)
    assert fit.offset == pytest.approx(0.45, abs=1e-2)
    assert fit.fraction_a == pytest.approx(0.1 / 0.35, rel=3e-2)
    assert not fit.indistinguishable


def test_fits_compute_the_covariance_of_the_returned_start_only(monkeypatch):
    calls = []
    real = lsq.covariance
    monkeypatch.setattr(lsq, "covariance",
                        lambda jac, ssr: calls.append(ssr) or real(jac, ssr))
    # one start runs for the one FFT peak
    single = fit_single_frequency(
        _damped_cosine(0.4, 2.0, khz_to_angular(9.0), 0.3, slope=0.05, offset=0.5),
        (0.01, 1.8))
    assert calls == [single.ssr]
    # the two grid starts are polished in one stack
    omega0 = khz_to_angular(9.0)
    two = fit_two_frequency(
        _two_component(0.1, 0.2, 0.25, khz_to_angular(14.0), -0.4, 12.0, 0.45, omega0),
        omega0, window=(0.0, 1.5))
    assert len(calls) == 2
    assert math.isfinite(two.ci95["omega_bar"])


def test_ci95_is_the_delta_method_on_the_winners_covariance(monkeypatch):
    seen = []
    for name in ("_package_single", "_package_two"):
        real = getattr(fitting, name)
        monkeypatch.setattr(fitting, name, lambda res, cov, y, *rest, real=real:
                            seen.append((res.params, cov, y.size)) or real(res, cov, y, *rest))

    single = fit_single_frequency(
        _damped_cosine(0.4, 2.0, khz_to_angular(9.0), 0.3, slope=0.05, offset=0.5),
        (0.01, 1.8))
    _, cov, n = seen[-1]
    tq = lsq.t_quantile_975(n - 6)
    expected = tq * np.sqrt(np.diag(cov))
    assert [single.ci95[k] for k in ("A", "gamma", "omega", "phi", "B", "C")] == list(expected)

    omega0 = khz_to_angular(9.0)
    two = fit_two_frequency(
        _two_component(0.1, 0.2, 0.25, khz_to_angular(14.0), -0.4, 12.0, 0.45, omega0),
        omega0, window=(0.0, 1.5))
    (a1, a2, b1, b2, _, du, gb), cov, n = seen[-1]
    amp_a, amp_b = math.hypot(a1, a2), math.hypot(b1, b2)
    total = amp_a + amp_b
    grads = {
        "A": [a1 / amp_a, a2 / amp_a, 0, 0, 0, 0, 0],
        "phi_a": [a2 / amp_a**2, -a1 / amp_a**2, 0, 0, 0, 0, 0],
        "B_amp": [0, 0, b1 / amp_b, b2 / amp_b, 0, 0, 0],
        "phi_b": [0, 0, b2 / amp_b**2, -b1 / amp_b**2, 0, 0, 0],
        "omega_bar": [0, 0, 0, 0, 0, math.copysign(1.0, du), 0],
        "gamma_b": [0, 0, 0, 0, 0, 0, math.copysign(1.0, gb)],
        "offset": [0, 0, 0, 0, 1.0, 0, 0],
        "fraction_a": (amp_b / total**2) * np.array([a1 / amp_a, a2 / amp_a, 0, 0, 0, 0, 0])
        - (amp_a / total**2) * np.array([0, 0, b1 / amp_b, b2 / amp_b, 0, 0, 0]),
    }
    tq = lsq.t_quantile_975(n - 7)
    for name, grad in grads.items():
        grad = np.array(grad, dtype=float)
        assert two.ci95[name] == tq * math.sqrt(max(float(grad @ cov @ grad), 0.0)), name


def test_ci95_matches_a_freshly_evaluated_jacobian(monkeypatch):
    # The covariance comes from the Jacobian the LM loop returns with the
    # winner; evaluating the model again at its params gives the same CIs.
    seen = []
    for name in ("_package_single", "_package_two"):
        real = getattr(fitting, name)
        monkeypatch.setattr(fitting, name, lambda res, cov, y, *rest, real=real:
                            seen.append(res) or real(res, cov, y, *rest))

    window = (0.01, 1.8)
    trace = _damped_cosine(0.4, 2.0, khz_to_angular(9.0), 0.3, slope=0.05, offset=0.5)
    single = fit_single_frequency(trace, window)
    res = seen[-1]
    win, y = _window_samples(trace, window)
    _, jac, _ = fitting._single_eval(res.params[None], win.t ** np.arange(5)[:, None], y,
                                     "exp")
    fresh = fitting._package_single(res, lsq.covariance(jac[0], res.ssr), y, "exp")
    assert fresh.ci95 == single.ci95

    omega0 = khz_to_angular(9.0)
    window = (0.0, 1.5)
    trace = _two_component(0.1, 0.2, 0.25, khz_to_angular(14.0), -0.4, 12.0, 0.45, omega0)
    two = fit_two_frequency(trace, omega0, window=window)
    res = seen[-1]
    win, y = _window_samples(trace, window)
    t = win.t
    _, jac = fitting._two_freq_eval(res.params[None], t, y, omega0,
                                    np.cos(omega0 * t), np.sin(omega0 * t))
    fresh = fitting._package_two(res, lsq.covariance(jac[0], res.ssr), y, omega0)
    assert fresh.ci95 == two.ci95


def test_fraction_without_amplitude_a_keeps_an_infinite_ci():
    # At |A| = 0 the fraction A / (A + B) has no gradient, so its CI stays
    # infinite, as those of A and phi_a do.
    res = lsq.LsqResult(np.array([0.0, 0.0, 0.2, -0.1, 0.5, 1.0, 3.0]), 0.01, 5, True)
    fit = fitting._package_two(res, 1e-4 * np.eye(7), np.linspace(0.0, 1.0, 60),
                               khz_to_angular(9.0))
    assert fit.fraction_a == 0.0
    assert {k for k, v in fit.ci95.items() if math.isinf(v)} == {"A", "phi_a", "fraction_a"}


def test_two_frequency_single_component_is_indistinguishable():
    omega0 = khz_to_angular(9.0)
    trace = _two_component(0.3, 0.0, 0.0, khz_to_angular(14.0), 0.0, 10.0, 0.5, omega0)
    fit = fit_two_frequency(trace, omega0, window=(0.0, 1.5))
    assert fit.indistinguishable


def test_two_frequency_ci_flag_on_weak_component():
    omega0 = khz_to_angular(9.0)
    rng = np.random.default_rng(5)
    y = (
        0.01 * np.cos(omega0 * TIMES)
        + 0.3 * np.exp(-0.5 * (8.0 * TIMES) ** 2) * np.cos(khz_to_angular(15.0) * TIMES)
        + 0.5
        + 0.03 * rng.standard_normal(TIMES.size)
    )
    trace = OscillationTrace.from_times(TIMES, y)
    fit = fit_two_frequency(trace, omega0, window=(0.0, 1.5))
    # the slow part is buried in noise, so its share of the amplitude is
    # known only to within a factor of order one: wide-interval flag
    assert fit.fraction_a < 0.1
    assert fit.fraction_ci_wide


def test_two_frequency_clean_fit_has_tight_fraction():
    omega0 = khz_to_angular(9.0)
    trace = _two_component(0.2, 0.0, 0.2, khz_to_angular(16.0), 0.3, 10.0, 0.5, omega0)
    fit = fit_two_frequency(trace, omega0, window=(0.0, 1.5))
    assert not fit.fraction_ci_wide
    assert not fit.indistinguishable


def test_two_frequency_flat_trace():
    omega0 = khz_to_angular(9.0)
    trace = OscillationTrace.from_times(TIMES, np.full_like(TIMES, 0.5))
    fit = fit_two_frequency(trace, omega0, window=(0.0, 1.5))
    assert fit.indistinguishable
    assert fit.fraction_ci_wide


def test_two_frequency_near_flat_trace(monkeypatch):
    # One ulp of rounding on a constant is no signal: the same flat rule as
    # the single-frequency fit, and no start reaches the LM loop.
    stacks = _record_stacks(monkeypatch)
    omega0 = khz_to_angular(9.0)
    fit = fit_two_frequency(_near_flat(), omega0, window=(0.0, 1.5))
    assert stacks == []
    assert fit.A == fit.B_amp == fit.fraction_a == fit.r_squared == 0.0
    assert fit.offset == pytest.approx(0.3, abs=1e-16)
    assert fit.indistinguishable and fit.fraction_ci_wide
    assert all(ci == math.inf for ci in fit.ci95.values())


def test_two_frequency_default_window_is_ten_periods():
    omega0 = khz_to_angular(9.0)
    trace = _two_component(0.1, 0.0, 0.2, khz_to_angular(13.0), 0.0, 8.0, 0.5, omega0)
    fit = fit_two_frequency(trace, omega0)
    assert fit.converged
    assert fit.omega_bar == pytest.approx(khz_to_angular(13.0), rel=2e-2)


def _reference_node_fits(t, y, omega0):
    """(ssr, grid index, omega_bar, gamma_b, coef) of every grid node, in
    grid order, each from its own lstsq solve."""
    candidates = []
    for omega_bar in omega0 * np.linspace(1.0, 4.0, 24):
        for gamma_b in omega0 * np.linspace(0.02, 2.0, 16):
            env = np.exp(-0.5 * (gamma_b * t) ** 2)
            design = np.column_stack([
                np.cos(omega0 * t), np.sin(omega0 * t),
                env * np.cos(omega_bar * t), env * np.sin(omega_bar * t),
                np.ones_like(t),
            ])
            coef, res_ss, rank, _ = np.linalg.lstsq(design, y, rcond=None)
            if res_ss.size and rank == design.shape[1]:
                ssr = float(res_ss[0])
            else:
                diff = design @ coef - y
                ssr = float(diff @ diff)
            candidates.append((ssr, len(candidates), omega_bar, gamma_b, coef))
    return candidates


def _reference_grid_starts(t, y, omega0):
    """Per-node lstsq ranking of the (omega_bar, gamma_b) grid, node by node.

    Returns the (grid index, coef) of the best node and of the best node
    from a different grid region, ranked by a stable sort on the residual
    sum: the oracle for the stacked screen.
    """
    candidates = sorted(_reference_node_fits(t, y, omega0), key=lambda c: c[0])
    starts = [candidates[0]]
    for cand in candidates[1:]:
        if (abs(cand[2] - starts[0][2]) > 0.25 * omega0
                or abs(cand[3] - starts[0][3]) > 0.25 * omega0):
            starts.append(cand)
            break
    return [(index, coef) for _, index, _, _, coef in starts]


def _block(traces, window):
    win = fitting._fit_window(traces[0], window)
    return win.t, np.array([trace.values[win.rows] for trace in traces])


def _assert_same_starts(traces, omega0, window=(0.0, 1.5)):
    # The traces share one grid and one screen, as in a block fit.
    assert len(traces) >= 2
    t, Y = _block(traces, window)
    grid = fitting._Grid(t, omega0, np.cos(omega0 * t), np.sin(omega0 * t))
    block = [grid.starts(y, screen) for y, screen in zip(Y, grid.screen(Y))]
    assert len(block) == len(traces)
    for y, got in zip(Y, block):
        want = _reference_grid_starts(t, y, omega0)
        assert [int(s[0]) for s in got] == [index for index, _ in want]
        for (_, _, _, coef), (_, ref_coef) in zip(got, want):
            assert np.array_equal(coef, ref_coef)


def test_grid_starts_match_per_node_ranking_on_exact_ties():
    # No fast component: every node fits the trace to rounding, so the
    # choice rests on exact residual sums and the grid-index tie break.
    omega0 = khz_to_angular(9.0)
    traces = [_two_component(0.3, 0.0, 0.0, khz_to_angular(14.0), 0.0, 10.0, 0.5, omega0),
              _two_component(0.2, 1.0, 0.0, khz_to_angular(20.0), 0.0, 30.0, 0.4, omega0)]
    _assert_same_starts(traces, omega0)


def test_grid_starts_match_per_node_ranking_on_noisy_trace():
    omega0 = khz_to_angular(9.0)
    rng = np.random.default_rng(17)
    clean = _two_component(0.15, 0.3, 0.25, khz_to_angular(15.0), -0.2, 12.0, 0.5, omega0)
    traces = [OscillationTrace.from_times(
        TIMES, clean.values + 0.02 * rng.standard_normal(TIMES.size)) for _ in range(2)]
    _assert_same_starts(traces, omega0)


def _fig5_trace(delta_khz, times=np.linspace(0.0, 1.2, 151)):
    # The fig5 regime where the fast component is broad: Omega0 9 kHz,
    # sigma 27 kHz, no single-atom decay.
    config = EnsembleConfig(
        drive=DriveParams(omega0=khz_to_angular(9.0), delta=khz_to_angular(delta_khz)),
        distribution=DetuningDistribution(kind="gaussian", sigma=khz_to_angular(27.0)),
        atom_model=AtomModel(gamma=0.0),
    )
    return ensemble_signal(config, times)


def test_grid_starts_match_per_node_ranking_on_fig5_ensemble_trace():
    # sigma and delta at three times omega0, fitted over ten bare periods.
    omega0 = khz_to_angular(9.0)
    _assert_same_starts([_fig5_trace(27.0), _fig5_trace(13.5)], omega0,
                        window=(0.0, 10.0 * TWO_PI / omega0))


def test_grid_screen_matches_per_node_residual_sums_at_top_of_gamma_grid():
    # A fast component at omega_bar = omega0 and gamma_b = 2 omega0, the top
    # of the gamma_b grid, where u_perp and v_perp are the most correlated
    # of the grid (|cos| of their angle about 0.64). Each screen value is
    # the node's lstsq residual sum to rounding, far inside the 1e-9 |y|^2
    # margin the exact re-solve relies on.
    omega0 = khz_to_angular(9.0)
    rng = np.random.default_rng(23)
    clean = _two_component(0.2, 0.3, 1.0, omega0, 0.5, 2.0 * omega0, 0.5, omega0)
    top = OscillationTrace.from_times(
        TIMES, clean.values + 1e-3 * rng.standard_normal(TIMES.size))
    clean = _two_component(0.15, 0.3, 0.25, khz_to_angular(15.0), -0.2, 12.0, 0.5, omega0)
    noisy = OscillationTrace.from_times(
        TIMES, clean.values + 0.02 * rng.standard_normal(TIMES.size))
    traces = [top, noisy]
    _assert_same_starts(traces, omega0)

    t, Y = _block(traces, (0.0, 1.5))
    assert _reference_grid_starts(t, Y[0], omega0)[0][0] == 15  # omega_bar[0], gamma_b[15]
    grid = fitting._Grid(t, omega0, np.cos(omega0 * t), np.sin(omega0 * t))
    for y, screen in zip(Y, grid.screen(Y)):
        exact = np.array([c[0] for c in _reference_node_fits(t, y, omega0)])
        assert np.abs(screen - exact).max() <= 1e-12 * float(y @ y)


@pytest.mark.parametrize("max_iter", [200, 22])
def test_block_fits_equal_per_trace_fits(monkeypatch, max_iter):
    # fig5-like traces at 7 detunings plus a flat one. Their starts take 16
    # to 36 iterations. At max_iter 22 every start but those of delta 22.5
    # kHz hits the cap, so the block holds FitFailures and fits side by side.
    omega0 = khz_to_angular(9.0)
    window = (0.0, 10.0 * TWO_PI / omega0)
    traces = [_fig5_trace(delta) for delta in np.arange(0.0, 27.1, 4.5)]
    traces.insert(3, OscillationTrace(t0=traces[0].t0, dt=traces[0].dt,
                                      values=np.full(len(traces[0]), 0.5)))
    stacks = _record_stacks(monkeypatch)
    block = fit_two_frequency_block(traces, omega0, window, max_iter=max_iter)
    # one stack for the block, two starts per trace, none for the flat one
    assert [p0.shape for p0, _ in stacks] == [(14, 7)]
    assert len(block) == len(traces)
    for trace, got in zip(traces, block):
        try:
            alone = fit_two_frequency(trace, omega0, window, max_iter=max_iter)
        except FitFailure as exc:
            alone = exc
        assert type(got) is type(alone)
        if isinstance(alone, FitFailure):
            assert str(got) == str(alone)
            assert repr(got.last_fit) == repr(alone.last_fit)
        else:
            assert repr(got) == repr(alone)
    kinds = [type(fit) for fit in block]
    if max_iter == 22:
        assert kinds.count(FitFailure) == 6
        assert "did not converge within 22 iterations" in str(block[0])
    else:
        assert FitFailure not in kinds
    assert block[3].A == 0.0 and block[3].indistinguishable


def test_block_needs_one_time_grid():
    omega0 = khz_to_angular(9.0)
    short = OscillationTrace.from_times(TIMES[:300], np.cos(omega0 * TIMES[:300]))
    long = OscillationTrace.from_times(TIMES, np.cos(omega0 * TIMES))
    with pytest.raises(ValueError, match="share one time grid"):
        fit_two_frequency_block([short, long], omega0, (0.0, 1.0))
    assert fit_two_frequency_block([], omega0) == []


@pytest.mark.parametrize("decay", ["exp", "gauss"])
def test_single_curvature_is_the_hessian_less_the_gauss_newton_part(decay):
    # S = sum_i r_i Hess r_i is the Hessian of ssr / 2 less J^T J; the
    # Hessian here is a central difference of the analytic gradient J^T r.
    rng = np.random.default_rng(11)
    t = np.linspace(0.01, 0.6, 119)
    t_powers = t ** np.arange(5)[:, None]
    y = 0.3 * np.exp(-2.0 * t) * np.cos(57.0 * t + 0.4) + 0.05 * t + 0.5
    P = np.column_stack([rng.uniform(0.1, 1.0, 6), rng.uniform(0.5, 5.0, 6),
                         rng.uniform(30.0, 80.0, 6), rng.uniform(-3.0, 3.0, 6),
                         rng.uniform(-1.0, 1.0, 6), rng.uniform(0.0, 1.0, 6)])
    _, jac, curv = fitting._single_eval(P, t_powers, y, decay)

    def gradient(p):
        r, jac, _ = fitting._single_eval(p[None], t_powers, y, decay)
        return jac[0].T @ r[0]

    for p, jac_p, curv_p in zip(P, jac, curv):
        steps = 1e-5 * np.maximum(np.abs(p), 1.0)
        hessian = np.column_stack([(gradient(p + h * e) - gradient(p - h * e)) / (2.0 * h)
                                   for h, e in zip(steps, np.eye(6))])
        want = hessian - jac_p.T @ jac_p
        assert np.abs(curv_p - want).max() <= 1e-6 * np.abs(curv_p).max()
        assert np.array_equal(curv_p, curv_p.T)
        assert not curv_p[4:].any()  # B and C enter linearly


def _fig7b_block(omega0_khz):
    """The scenario of the fig7b preset and the traces of its block at
    Omega0 / 2 pi = omega0_khz, one per detuning."""
    from rabisim.scenario import load_scenario_dict, parse_scenario, preset_file

    scenario = parse_scenario(load_scenario_dict(preset_file("fig7b")))
    ((_, _, config),) = [block for block in scenario.blocks()
                         if block[0] == khz_to_angular(omega0_khz)]
    traces = [ensemble_signal(replace(config, drive=replace(config.drive, delta=delta)),
                              scenario.times) for delta in scenario.deltas]
    assert len(traces) == 21
    return scenario, traces


def test_relative_offset_stop_lands_within_1e_4_of_a_ci_on_fig7b(monkeypatch):
    # fig7b's Omega0 = 9 kHz block: each fit the relative-offset stop ends
    # lies within 1e-4 of its own CI of the fit run to the 1e-12 rules.
    scenario, traces = _fig7b_block(9.0)

    def fits():
        out = []
        for trace in traces:
            try:
                out.append(fit_single_frequency(trace, scenario.analysis.window))
            except FitFailure:
                out.append(None)
        return out

    loose = fits()
    monkeypatch.setattr(lsq, "RO_TOL", 0.0)
    tight = fits()
    names = ("A", "gamma", "omega", "phi", "B", "C")
    worst = 0.0
    for a, b in zip(loose, tight):
        assert (a is None) == (b is None)
        if a is not None:
            worst = max(worst, *(abs(getattr(a, name) - getattr(b, name)) / b.ci95[name]
                                 for name in names))
    assert worst <= 1e-4


def test_single_fits_match_the_one_start_oracle_on_fig7b(monkeypatch):
    # fig7b's Omega0 = 5 kHz block, every start also run through the
    # one-start oracle with the model's curvature: each start's LM result,
    # relative offset included, is bitwise the oracle's, and so are the
    # phi, B, C, ssr and n_iter of the fit built from the winner, which no
    # golden pins. The rows at delta = +-25 kHz reach the iteration cap, and
    # their FitFailure's last_fit is compared.
    scenario, traces = _fig7b_block(5.0)
    window = scenario.analysis.window
    stacks = _record_stacks(monkeypatch)
    capped = []
    for delta, trace in zip(scenario.deltas, traces):
        stacks.clear()
        try:
            fit = fit_single_frequency(trace, window)
        except FitFailure as failure:
            fit = failure.last_fit
            capped.append(delta)
        ((p0, results),) = stacks
        win, y = _window_samples(trace, window)
        t_powers = win.t ** np.arange(5)[:, None]

        def output(i):
            return lambda p: fitting._single_eval(p[None], t_powers, y, "exp")[i][0]

        refs = [reference_lm(output(0), output(1), start, curvature=output(2))
                for start in p0]
        for res, ref in zip(results, refs):
            assert_bitwise_equal(res, ref)
        best = min([ref for ref in refs if ref.converged] or refs, key=lambda ref: ref.ssr)
        want = fitting._package_single(
            best, lsq.covariance(output(1)(best.params), best.ssr), y, "exp")
        assert fit.converged == best.converged
        for name in ("phi", "B", "C", "ssr", "n_iter"):
            assert getattr(fit, name) == getattr(want, name), (delta, name)
    assert capped == [khz_to_angular(-25.0), khz_to_angular(25.0)]


def _outcome(fit_fn, *args):
    """repr of a fit, or of a FitFailure's text and last_fit: repr spells
    every float exactly, so equal reprs are bitwise-equal fits."""
    try:
        return repr(fit_fn(*args))
    except FitFailure as failure:
        return repr((str(failure), failure.last_fit))


def test_fits_on_a_cached_window_equal_fits_on_a_fresh_one(monkeypatch):
    # fig7b's Omega0 = 5 kHz block, its two capped rows included: every
    # fit after the first reads the window the first one built, and each
    # equals the fit run after the window cache is cleared.
    scenario, traces = _fig7b_block(5.0)
    window = scenario.analysis.window
    fitting._grid_window.cache_clear()
    warm = [_outcome(fit_single_frequency, trace, window) for trace in traces]
    assert fitting._grid_window.cache_info().hits == len(traces) - 1
    cold = []
    for trace in traces:
        fitting._grid_window.cache_clear()
        cold.append(_outcome(fit_single_frequency, trace, window))
    assert cold == warm
    assert sum("did not converge" in text for text in warm) == 2

    # A sliding-window track: its second run reads every window from the
    # cache, and equals a run that clears the cache before each fit.
    from rabisim.spectrum import fft_spectrum, sliding_window_frequency

    trace = _damped_cosine(0.4, 1.0, khz_to_angular(9.0), 0.3, slope=0.05, offset=0.5,
                           noise=1e-3 * np.random.default_rng(5).standard_normal(TIMES.size))
    spec = fft_spectrum(trace)
    fitting._grid_window.cache_clear()
    sliding_window_frequency(trace, spec, 0.4, 0.2)
    warm = repr(sliding_window_frequency(trace, spec, 0.4, 0.2))
    info = fitting._grid_window.cache_info()
    assert (info.hits, info.misses) == (8, 8)
    assert warm.count("FrequencyTrackPoint(") == 8
    real = fitting.fit_single_frequency

    def fresh(*args, **kwargs):
        fitting._grid_window.cache_clear()
        return real(*args, **kwargs)

    monkeypatch.setattr(fitting, "fit_single_frequency", fresh)
    assert repr(sliding_window_frequency(trace, spec, 0.4, 0.2)) == warm


@pytest.mark.parametrize("window, text", [
    ((0.5, 0.5), "fit window must have t_max > t_min"),
    ((5.0, -1.0), "fit window must have t_max > t_min"),
    ((0.01, 5.0), "fit window [0.01, 5.0] falls outside the trace [0, 1.996]"),
    ((-1.0, 0.05), "fit window [-1.0, 0.05] falls outside the trace [0, 1.996]"),
    ((0.0, 0.1), "fit window must contain at least 30 samples"),
], ids=["empty", "reversed", "past_the_end", "before_the_start_and_short", "short"])
def test_refused_windows_keep_their_text_and_are_not_cached(window, text):
    # The first failing check names the window, as before the window cache.
    trace = _damped_cosine(0.4, 2.0, khz_to_angular(9.0), 0.3)
    fitting._grid_window.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError) as excinfo:
            fit_single_frequency(trace, window)
        assert str(excinfo.value) == text
    info = fitting._grid_window.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 2)
    with pytest.raises(ValueError) as excinfo:
        fit_two_frequency(trace, khz_to_angular(9.0), window)
    assert str(excinfo.value) == text


def test_fits_leave_their_traces_unchanged():
    # The fits read a trace through a view of its samples.
    omega0 = khz_to_angular(9.0)
    single = _damped_cosine(0.4, 2.0, omega0, 0.3, slope=0.05, offset=0.5)
    two = _two_component(0.1, 0.2, 0.25, khz_to_angular(14.0), -0.4, 12.0, 0.45, omega0)
    copies = [single.values.copy(), two.values.copy()]
    fit_single_frequency(single, (0.01, 1.8))
    fit_two_frequency(two, omega0, window=(0.0, 1.5))
    for trace, copy in zip((single, two), copies):
        assert np.array_equal(trace.values, copy)
        assert trace.values.flags.writeable


def test_fig5_blocks_build_one_grid(monkeypatch, tmp_path):
    # fig5's five sigma blocks share Omega0, the time grid and the window,
    # so the first block's start grid serves the other four.
    from rabisim import cli
    from rabisim.scenario import load_scenario_dict, parse_scenario, preset_file

    data = load_scenario_dict(preset_file("fig5"))
    scenario = parse_scenario(data)
    assert len(list(scenario.blocks())) == 5
    built = []
    real = fitting._Grid
    monkeypatch.setattr(fitting, "_Grid", lambda *args: built.append(args) or real(*args))
    fitting._two_freq_grid.cache_clear()
    cli.run_scenario(scenario, "0" * 64, tmp_path)
    assert len(built) == 1


def test_cached_window_and_grid_are_read_only():
    omega0 = khz_to_angular(9.0)
    trace = _two_component(0.1, 0.2, 0.25, khz_to_angular(14.0), -0.4, 12.0, 0.45, omega0)
    fit_two_frequency(trace, omega0, window=(0.0, 1.5))
    win = fitting._fit_window(trace, (0.0, 1.5))
    grid = fitting._two_freq_grid(win, omega0)
    assert fitting._two_freq_grid.cache_info().hits >= 1
    arrays = [win.t, win.t_powers, win.hann, win.freqs, win.design,
              grid.node_omega_bar, grid.node_gamma_b, grid.env, grid.cos_bar,
              grid.sin_bar, *grid.shared, grid.q_shared, grid.q_moving]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


@pytest.mark.parametrize("value", [math.nan, -0.0, 0.0, -1.0, 0.25, 1.0, 2.0,
                                   math.inf, -math.inf])
def test_r_squared_is_clamped_bitwise_as_np_clip_clamps(value):
    want = repr(float(np.clip(value, 0.0, 1.0)))
    single = fitting.SingleFreqFit(A=0.1, gamma=1.0, omega=2.0, phi=0.0, B=0.0, C=0.0,
                                   r_squared=value)
    two = fitting.TwoFreqFit(A=0.1, phi_a=0.0, B_amp=0.1, omega_bar=2.0, phi_b=0.0,
                             gamma_b=1.0, offset=0.0, omega0=1.0, r_squared=value,
                             fraction_a=0.5)
    assert repr(single.r_squared) == repr(two.r_squared) == want
