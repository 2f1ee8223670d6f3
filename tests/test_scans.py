import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabisim import scans
from rabisim.cli import _SCAN_TABLES
from rabisim.ensemble import AtomModel, DetuningDistribution, EnsembleConfig, ensemble_signal
from rabisim.fitting import fit_single_frequency, fit_two_frequency
from rabisim.model import DriveParams
from rabisim.scans import ScanRow, scan_detuning
from rabisim.spectrum import fft_spectrum
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


_CHUNK_DETUNINGS = khz_to_angular(np.array([0.0, 9.0, 18.0, 27.0]))
_CHUNK_TIMES = np.arange(0.0, 1.2, 0.008)
_CHUNK_WINDOW = (0.0, 1.0)
# The row fields each analysis fills from its fit.
_FITTED = {"single": ("frequency_khz", "amplitude", "gamma"),
           "two": ("fraction_a", "omega_bar_khz", "gamma_b"),
           "fft": ("peaks_khz",)}


def _scan_chunked(kind, points_per_chunk, monkeypatch, detunings=_CHUNK_DETUNINGS):
    monkeypatch.setattr(scans, "_CHUNK_SAMPLES", points_per_chunk * _CHUNK_TIMES.size)
    return scan_detuning(_config(27.0), detunings, analysis=kind, times=_CHUNK_TIMES,
                         window=_CHUNK_WINDOW)


def _analysed_alone(kind, trace):
    """The _FITTED values of a trace analysed on its own."""
    if kind == "single":
        fit = fit_single_frequency(trace, _CHUNK_WINDOW)
        return angular_to_khz(fit.omega), fit.A, fit.gamma
    if kind == "two":
        fit = fit_two_frequency(trace, OMEGA0, _CHUNK_WINDOW)
        return fit.fraction_a, angular_to_khz(fit.omega_bar), fit.gamma_b
    return (tuple(float(f) for f in fft_spectrum(trace).peak_frequencies_khz),)


@pytest.mark.parametrize("kind", ["single", "two", "fft"])
def test_chunks_match_per_point_analysis(kind, monkeypatch):
    # Chunks of one point, of three and one, and one chunk of all four
    # points give the same rows, and each row is its point analysed alone.
    whole = _scan_chunked(kind, len(_CHUNK_DETUNINGS), monkeypatch)
    for per_chunk in (1, 3):
        assert repr(_scan_chunked(kind, per_chunk, monkeypatch)) == repr(whole)
    config = _config(27.0)
    for delta, row in zip(_CHUNK_DETUNINGS, whole):
        point = replace(config, drive=DriveParams(omega0=OMEGA0, delta=delta))
        assert row.error == ""
        assert tuple(getattr(row, name) for name in _FITTED[kind]) == _analysed_alone(
            kind, ensemble_signal(point, _CHUNK_TIMES))


@pytest.mark.parametrize("kind", ["single", "two", "fft"])
def test_failed_simulation_in_chunk_is_its_points_row(kind, monkeypatch):
    detunings = _CHUNK_DETUNINGS[:3]
    clean = _scan_chunked(kind, 3, monkeypatch, detunings)

    def failing_signal(config, times):
        if config.drive.delta == detunings[1]:
            raise ValueError("simulation failed here")
        return ensemble_signal(config, times)

    monkeypatch.setattr(scans, "ensemble_signal", failing_signal)
    rows = _scan_chunked(kind, 3, monkeypatch, detunings)
    assert repr(rows[1]) == repr(ScanRow(detuning_khz=clean[1].detuning_khz,
                                         error="simulation failed here"))
    assert repr([rows[0], rows[2]]) == repr([clean[0], clean[2]])


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
