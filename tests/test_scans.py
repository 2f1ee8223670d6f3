import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabisim import scans
from rabisim.cli import _SCAN_TABLES
from rabisim.ensemble import AtomModel, DetuningDistribution, EnsembleConfig, ensemble_signal
from rabisim.fitting import fit_two_frequency
from rabisim.model import DriveParams
from rabisim.scans import ScanRow, scan_detuning
from rabisim.units import angular_to_khz, khz_to_angular

OMEGA0 = khz_to_angular(9.0)


def _config(sigma_khz, skew=0.0, gamma_khz=0.0):
    kind = "skewed_gaussian" if skew != 0.0 else "gaussian"
    return EnsembleConfig(
        drive=DriveParams(omega0=OMEGA0),
        distribution=DetuningDistribution(kind=kind, sigma=khz_to_angular(sigma_khz), skew=skew),
        atom_model=AtomModel(gamma=khz_to_angular(gamma_khz)),
    )


def test_narrow_distribution_follows_generalized_rabi():
    detunings = khz_to_angular(np.array([0.0, 4.5, 9.0, -13.5, 27.0]))
    rows = scan_detuning(_config(0.0), detunings)
    assert [r.detuning_khz for r in rows] == pytest.approx(angular_to_khz(detunings))
    for row in rows:
        assert row.error == ""
        expected = math.hypot(9.0, row.detuning_khz)
        assert row.frequency_khz == pytest.approx(expected, rel=1e-2)
        lorentzian = 0.5 / (1.0 + (row.detuning_khz / 9.0) ** 2)
        assert row.amplitude == pytest.approx(lorentzian, rel=2e-2)
        assert row.r_squared > 0.999


def test_broad_distribution_pins_frequency():
    detunings = khz_to_angular(np.array([-18.0, -9.0, 0.0, 9.0, 18.0]))
    rows = scan_detuning(_config(18.0, gamma_khz=1.0), detunings)
    for row in rows:
        assert row.error == ""
        assert abs(row.frequency_khz - 9.0) < 0.15 * 9.0


def test_failed_point_records_error_and_continues():
    detunings = khz_to_angular(np.array([0.0, 9.0]))
    times = np.arange(0.0, 0.5, 0.004)
    rows = scan_detuning(_config(0.0), detunings, times=times, window=(0.01, 2.0))
    assert len(rows) == 2
    for row in rows:
        assert row.error != ""
        assert math.isnan(row.frequency_khz)


def test_two_frequency_analysis_columns():
    detunings = khz_to_angular(np.array([0.0, 18.0]))
    rows = scan_detuning(_config(9.0), detunings, analysis="two")
    resonant, detuned = rows
    assert resonant.error == "" and detuned.error == ""
    assert detuned.omega_bar_khz >= 9.0
    assert 0.0 <= detuned.fraction_a <= 1.0
    assert detuned.fraction_a < resonant.fraction_a


def test_two_frequency_chunks_match_per_point_fits(monkeypatch):
    # A chunk of one point is the per-point fit; two chunks of three and
    # one, and one chunk of all four, give the same rows.
    detunings = khz_to_angular(np.array([0.0, 9.0, 18.0, 27.0]))
    times = np.arange(0.0, 1.2, 0.008)
    window = (0.0, 1.0)
    config = _config(27.0)
    whole = scan_detuning(config, detunings, analysis="two", times=times, window=window)
    for per_chunk in (1, 3):
        monkeypatch.setattr(scans, "_CHUNK_SAMPLES", per_chunk * times.size)
        rows = scan_detuning(config, detunings, analysis="two", times=times, window=window)
        assert repr(rows) == repr(whole)
    for delta, row in zip(detunings, whole):
        point = replace(config, drive=DriveParams(omega0=OMEGA0, delta=delta))
        fit = fit_two_frequency(ensemble_signal(point, times), OMEGA0, window)
        assert row.error == ""
        assert (row.fraction_a, row.omega_bar_khz, row.gamma_b) == (
            fit.fraction_a, angular_to_khz(fit.omega_bar), fit.gamma_b)


def test_two_frequency_window_error_is_each_points_row():
    detunings = khz_to_angular(np.array([0.0, 9.0, 18.0]))
    times = np.arange(0.0, 0.5, 0.008)
    rows = scan_detuning(_config(9.0), detunings, analysis="two", times=times,
                         window=(0.0, 2.0))
    with pytest.raises(ValueError) as info:
        fit_two_frequency(ensemble_signal(_config(9.0), times), OMEGA0, (0.0, 2.0))
    assert [row.error for row in rows] == [str(info.value)] * 3
    assert all(math.isnan(row.fraction_a) for row in rows)


def test_fft_analysis_reports_peaks():
    detunings = khz_to_angular(np.array([0.0]))
    rows = scan_detuning(_config(0.0), detunings, analysis="fft")
    assert rows[0].peaks_khz
    assert abs(rows[0].peaks_khz[0] - 9.0) < 0.2


def test_fft_point_without_peak_is_error_row():
    # On the far tail of a strongly skewed spread the signal is a monotone
    # settle with no oscillation, so the spectrum has no interior peak.
    detunings = khz_to_angular(np.array([0.0, -30.0]))
    rows = scan_detuning(_config(10.0, skew=-3.0, gamma_khz=1.0), detunings, analysis="fft")
    peaked, flat = rows
    assert peaked.error == "" and peaked.peaks_khz
    assert flat.peaks_khz == ()
    assert math.isnan(flat.frequency_khz)
    assert "no spectral peak" in flat.error


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_detuning(_config(0.0), [])
    with pytest.raises(ValueError):
        scan_detuning(_config(0.0), [0.0], analysis="wavelet")


_NUMERIC_FIELDS = {f.name for f in fields(ScanRow) if f.type == "float"}


@given(kind=st.sampled_from(["single", "two", "fft"]),
       sigma_khz=st.floats(0.0, 30.0), skew=st.floats(-5.0, 5.0),
       omega0_khz=st.floats(3.0, 25.0),
       deltas_khz=st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=2),
       gamma_khz=st.floats(0.0, 2.0), t_max=st.floats(0.8, 2.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_scan_rows_without_error_are_finite(kind, sigma_khz, skew, omega0_khz,
                                            deltas_khz, gamma_khz, t_max):
    config = EnsembleConfig(
        drive=DriveParams(omega0=khz_to_angular(omega0_khz)),
        distribution=DetuningDistribution(kind="skewed_gaussian",
                                          sigma=khz_to_angular(sigma_khz), skew=skew),
        atom_model=AtomModel(gamma=khz_to_angular(gamma_khz)),
    )
    times = np.arange(0.0, t_max + 0.004, 0.008)
    rows = scan_detuning(config, khz_to_angular(np.array(deltas_khz)),
                         analysis=kind, times=times)
    written = [c for c in _SCAN_TABLES[kind][0] if c in _NUMERIC_FIELDS]
    for row in rows:
        if row.error == "":
            assert all(math.isfinite(getattr(row, c)) for c in written), row
            assert all(math.isfinite(p) for p in row.peaks_khz), row
