import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabisim.ensemble import DetuningDistribution, EnsembleConfig, ensemble_signal
from rabisim.model import (
    DriveParams,
    OscillationTrace,
    analytic_small_sigma_signal,
    generalized_rabi,
    p1_two_level,
    p1_two_level_damped,
    uniform_grid,
)
from rabisim.units import TWO_PI, angular_to_khz, field_mg_to_khz, khz_to_angular


def test_unit_round_trip():
    assert angular_to_khz(khz_to_angular(9.0)) == pytest.approx(9.0, rel=1e-15)
    assert khz_to_angular(1.0) == pytest.approx(TWO_PI)


def test_field_conversion():
    assert field_mg_to_khz(10.0) == pytest.approx(7.0)


def test_generalized_rabi_resonant():
    drive = DriveParams(omega0=khz_to_angular(9.0))
    assert generalized_rabi(drive) == pytest.approx(drive.omega0)


def test_generalized_rabi_matches_hypot():
    drive = DriveParams(omega0=3.0, delta=4.0)
    assert generalized_rabi(drive) == pytest.approx(5.0)
    # local shift adds onto the central detuning
    assert generalized_rabi(drive, local_shift=-4.0) == pytest.approx(3.0)


def test_drive_rejects_nonpositive_omega0():
    with pytest.raises(ValueError):
        DriveParams(omega0=0.0)
    with pytest.raises(ValueError):
        DriveParams(omega0=-1.0)


def test_resonant_population_is_sin_squared():
    drive = DriveParams(omega0=khz_to_angular(9.0))
    t = np.linspace(0.0, 1.0, 401)
    expected = np.sin(0.5 * drive.omega0 * t) ** 2
    assert np.max(np.abs(p1_two_level(drive, 0.0, t) - expected)) < 1e-12


def test_detuned_amplitude_is_lorentzian():
    omega0 = khz_to_angular(9.0)
    for delta_khz in (0.0, 4.5, 9.0, 18.0, -27.0):
        drive = DriveParams(omega0=omega0, delta=khz_to_angular(delta_khz))
        t = np.linspace(0.0, 5.0, 20001)
        peak = np.max(p1_two_level(drive, 0.0, t))
        lorentzian = 1.0 / (1.0 + (delta_khz / 9.0) ** 2)
        assert peak == pytest.approx(lorentzian, rel=2e-4)


@given(
    omega0=st.floats(min_value=1.0, max_value=200.0),
    delta=st.floats(min_value=-400.0, max_value=400.0),
    t=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=200, deadline=None)
def test_population_stays_in_unit_interval(omega0, delta, t):
    drive = DriveParams(omega0=omega0, delta=delta)
    p = float(p1_two_level(drive, 0.0, t))
    assert 0.0 <= p <= 1.0 + 1e-12


def test_damped_population_relaxes_to_half_of_amplitude():
    drive = DriveParams(omega0=khz_to_angular(9.0), delta=khz_to_angular(5.0))
    gamma = khz_to_angular(2.0)
    t = np.array([50.0])
    amp = (drive.omega0 / generalized_rabi(drive)) ** 2
    assert p1_two_level_damped(drive, 0.0, t, gamma)[0] == pytest.approx(0.5 * amp, abs=1e-12)


def test_damped_population_undamped_limit():
    drive = DriveParams(omega0=khz_to_angular(9.0), delta=khz_to_angular(3.0))
    t = np.linspace(0.0, 2.0, 257)
    undamped = p1_two_level(drive, 0.0, t)
    assert np.max(np.abs(p1_two_level_damped(drive, 0.0, t, 0.0) - undamped)) < 1e-12


def test_damped_population_rejects_negative_gamma():
    drive = DriveParams(omega0=1.0)
    with pytest.raises(ValueError):
        p1_two_level_damped(drive, 0.0, np.array([0.0, 0.1]), -1.0)


def test_small_sigma_signal_sigma_zero_is_undamped():
    drive = DriveParams(omega0=khz_to_angular(9.0), delta=khz_to_angular(4.0))
    times = np.arange(0.0, 1.0, 0.002)
    trace = analytic_small_sigma_signal(drive, 0.0, times)
    expected = p1_two_level_damped(drive, 0.0, times, 0.0)
    assert np.max(np.abs(trace.values - expected)) < 1e-12


def test_small_sigma_signal_decays_at_detuning():
    """With sigma > 0 and delta != 0 the late-time oscillation dies out.

    The offset asserted is the first-order form's; the second-order form
    shifts it by the amplitude curvature term c2 sigma^2.
    """
    drive = DriveParams(omega0=khz_to_angular(9.0), delta=khz_to_angular(9.0))
    times = np.arange(0.0, 3.0, 0.002)
    trace = analytic_small_sigma_signal(drive, khz_to_angular(1.0), times, order=1)
    offset = 0.5 / (1.0 + 1.0)
    late = trace.values[times > 2.5]
    assert np.max(np.abs(late - offset)) < 1e-3


def _small_sigma_error(order, delta_mult):
    omega0 = khz_to_angular(9.0)
    sigma = 0.05 * omega0
    drive = DriveParams(omega0=omega0, delta=delta_mult * omega0)
    times = np.arange(0.0, 10.0 * TWO_PI / omega0, 0.002)
    closed = analytic_small_sigma_signal(drive, sigma, times, order=order)
    config = EnsembleConfig(
        drive=drive, distribution=DetuningDistribution(kind="gaussian", sigma=sigma)
    )
    exact = ensemble_signal(config, times).values
    return np.max(np.abs(closed.values - exact)) / np.max(np.abs(exact))


def test_first_order_small_sigma_error_frozen():
    """The paper's first-order form misses the resonant curvature decay.

    At sigma = 0.05 omega0 on resonance it disagrees with the quadrature by
    about 3.9e-2; the bracket pins that level so a change to either path
    shows up here.
    """
    assert 3e-2 < _small_sigma_error(1, 0.0) < 5e-2


def test_second_order_small_sigma_holds_for_red_detuning():
    """The odd terms (c1, a) carry the sign of delta; criterion 01 covers delta >= 0."""
    assert _small_sigma_error(2, -1.0) < 1e-3


def test_small_sigma_signal_rejects_unknown_order():
    drive = DriveParams(omega0=1.0)
    with pytest.raises(ValueError):
        analytic_small_sigma_signal(drive, 0.01, np.arange(0.0, 1.0, 0.1), order=3)


def test_trace_times_and_from_times_round_trip():
    times = 0.05 + 0.004 * np.arange(40)
    values = np.sin(times)
    trace = OscillationTrace.from_times(times, values)
    assert trace.t0 == pytest.approx(0.05)
    assert trace.dt == pytest.approx(0.004)
    assert np.allclose(trace.times, times)
    assert len(trace) == 40


def test_trace_rejects_bad_grids():
    with pytest.raises(ValueError):
        OscillationTrace(t0=0.0, dt=-0.1, values=np.zeros(16))
    with pytest.raises(ValueError):
        OscillationTrace(t0=0.0, dt=0.1, values=np.zeros(4))
    with pytest.raises(ValueError):
        OscillationTrace.from_times(np.array([0.0, 0.1, 0.3]), np.zeros(3))
    with pytest.raises(ValueError):
        OscillationTrace.from_times(np.array([]), np.array([]))


def test_uniform_grid_tolerance_and_non_finite_times():
    # dt is the span over the seven steps, and each spacing may differ from
    # it by 1e-9 dt; a NaN or infinite time fails wherever it sits, also as
    # the second of two samples.
    times = 0.25 * np.arange(8)
    assert uniform_grid(times) == (0.0, 0.25)
    nudged = times.copy()
    nudged[-1] += 0.5e-9 * 0.25
    assert uniform_grid(nudged) == (0.0, (nudged[-1] - nudged[0]) / 7)
    nudged[-1] += 2e-9 * 0.25
    bad = [nudged]
    for value in (np.nan, np.inf, -np.inf):
        for index in (0, 1, 7):
            grid = times.copy()
            grid[index] = value
            bad.append(grid)
    bad.append(np.array([0.0, np.inf]))
    for grid in bad:
        with pytest.raises(ValueError, match="uniformly spaced"):
            uniform_grid(grid)
