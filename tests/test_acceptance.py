"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single `criterion NN: PASS/FAIL` line with the measured
numbers and then asserts. One known model-level gap is left to fail
honestly rather than loosening its stated tolerance: the fast component's
fitted decay rate falls short of sigma/2 at large sigma (one clause of
criterion 06). The model's signal does not contain such a rate. For sigma
well above omega0 the density is flat across the Lorentzian
(omega0/omega_R)^2, so the oscillating part is rho(-delta) times an
integral that does not depend on sigma. At delta = 18 kHz the fitted
gamma_b is 16.3, 15.7, 17.4 and 19.3 rad/ms for sigma = 18, 27, 54 and
108 kHz, i.e. gamma_b/sigma = 0.144, 0.093, 0.051, 0.028. Freeing the
pinned component's decay as well lowers the residual about threefold at
the failing points but leaves gamma_b/sigma at 0.15-0.35.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest
from goldens import golden_report
from multilevel_oracles import evolve_rk4

from rabisim.cli import main
from rabisim.ensemble import (
    AtomModel,
    DetuningDistribution,
    EnsembleConfig,
    ensemble_signal,
    monte_carlo_signal,
)
from rabisim.fieldmap import field_magnitude_histogram, histogram_to_distribution
from rabisim.fitting import fit_single_frequency
from rabisim.model import DriveParams, analytic_small_sigma_signal
from rabisim.multilevel import DensityMatrix, build_f2_system, evolve_density, p1_multilevel
from rabisim.output import read_csv
from rabisim.scans import scan_detuning
from rabisim.scenario import PRESET_NAMES, load_scenario_dict, parse_scenario, preset_file
from rabisim.units import khz_to_angular

OMEGA0_KHZ = 9.0
OMEGA0 = khz_to_angular(OMEGA0_KHZ)


def _report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def preset_outputs(tmp_path_factory):
    """All bundled presets run once through the CLI."""
    out = tmp_path_factory.mktemp("presets")
    t0 = time.perf_counter()
    for name in PRESET_NAMES:
        target = out / name
        target.mkdir()
        code = main(["reproduce", name, "--out", str(target)])
        assert code == 0, f"preset {name} exited {code}"
    elapsed = time.perf_counter() - t0
    return {"dir": out, "elapsed": elapsed}


def _rows(preset_outputs, preset, filename=None):
    path = preset_outputs["dir"] / preset / (filename or f"{preset}.csv")
    meta, cols, rows = read_csv(path)
    return meta, [dict(zip(cols, r)) for r in rows]


def test_criterion_01_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    sigma = 0.05 * OMEGA0
    times = np.arange(0.0, 10.0 * 2.0 * math.pi / OMEGA0, 0.002)
    worst = 0.0
    per_delta = []
    for mult in (0.0, 1.0, 3.0):
        drive = DriveParams(omega0=OMEGA0, delta=mult * OMEGA0)
        closed = analytic_small_sigma_signal(drive, sigma, times)
        config = EnsembleConfig(
            drive=drive,
            distribution=DetuningDistribution(kind="gaussian", sigma=sigma),
        )
        exact = ensemble_signal(config, times)
        rel = np.max(np.abs(closed.values - exact.values)) / np.max(np.abs(exact.values))
        per_delta.append(f"delta={mult:g}*omega0: {rel:.2e}")
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 1.0
    _report(1, ok, f"max rel err {worst:.2e} (limit 1e-3); {'; '.join(per_delta)}; {elapsed:.2f} s")


def test_criterion_02_gaussian_decay_rate():
    t0 = time.perf_counter()
    times = np.arange(0.0, 3.0, 0.004)
    worst = 0.0
    for sig_ratio in (0.02, 0.05):
        for det_ratio in (0.5, 1.0, 2.0):
            sigma = sig_ratio * OMEGA0
            delta = det_ratio * OMEGA0
            drive = DriveParams(omega0=OMEGA0, delta=delta)
            config = EnsembleConfig(
                drive=drive,
                distribution=DetuningDistribution(kind="gaussian", sigma=sigma),
            )
            trace = ensemble_signal(config, times)
            expected = sigma * delta / math.hypot(OMEGA0, delta)
            fit = fit_single_frequency(trace, (0.0, times[-1]), decay="gauss")
            dev = abs(fit.gamma - expected) / expected
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.05 and elapsed < 5.0
    _report(2, ok, f"max decay-rate deviation {worst:.1%} (limit 5%); {elapsed:.2f} s")


def test_criterion_03_rigidity_with_symmetric_broadening():
    t0 = time.perf_counter()
    config = EnsembleConfig(
        drive=DriveParams(omega0=OMEGA0),
        distribution=DetuningDistribution(kind="gaussian", sigma=2.0 * OMEGA0),
        atom_model=AtomModel(gamma=khz_to_angular(1.0)),
    )
    detunings = khz_to_angular(np.arange(-18.0, 18.1, 3.0))
    rows = scan_detuning(config, detunings)
    devs = [abs(r.frequency_khz - OMEGA0_KHZ) / OMEGA0_KHZ for r in rows if not r.error]
    errors = [r for r in rows if r.error]
    homogeneous_edge = math.hypot(OMEGA0_KHZ, 18.0) / OMEGA0_KHZ
    elapsed = time.perf_counter() - t0
    ok = (
        not errors
        and max(devs) < 0.15
        and homogeneous_edge > 2.2
        and elapsed < 10.0
    )
    _report(
        3,
        ok,
        f"max |f-omega0|/omega0 {max(devs):.1%} over |delta| <= 2*omega0 "
        f"(limit 15%) vs homogeneous {homogeneous_edge:.2f}*omega0 at the edge; {elapsed:.2f} s",
    )


def _homogeneous_scan():
    config = EnsembleConfig(
        drive=DriveParams(omega0=OMEGA0),
        distribution=DetuningDistribution(kind="gaussian", sigma=0.0),
        atom_model=AtomModel(gamma=khz_to_angular(1.0)),
    )
    detunings = khz_to_angular(np.arange(-27.0, 27.1, 3.0))
    return scan_detuning(config, detunings)


def test_criterion_04_homogeneous_frequency_control():
    t0 = time.perf_counter()
    rows = _homogeneous_scan()
    worst = 0.0
    for r in rows:
        assert r.error == ""
        expected = math.hypot(OMEGA0_KHZ, r.detuning_khz)
        worst = max(worst, abs(r.frequency_khz - expected) / expected)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.01 and elapsed < 5.0
    _report(4, ok, f"max generalized-frequency deviation {worst:.2%} (limit 1%); {elapsed:.2f} s")


def test_criterion_05_two_frequency_fit_quality(preset_outputs):
    t0 = time.perf_counter()
    _, rows = _rows(preset_outputs, "fig5")
    checked = [
        r for r in rows if float(r["sigma_khz"]) in (1.8, 9.0, 18.0, 27.0)
    ]
    assert len(checked) == 28
    r2 = [float(r["r_squared"]) for r in checked if not r["error"]]
    failures = [r for r in checked if r["error"]]
    lo, hi = min(r2), max(r2)
    elapsed = preset_outputs["elapsed"] + time.perf_counter() - t0
    ok = not failures and lo >= 0.90 and hi <= 1.0 and elapsed < 30.0
    _report(5, ok, f"r^2 range [{lo:.4f}, {hi:.4f}] over 28 fits (required [0.90, 1.00]); {elapsed:.1f} s")


def test_criterion_06_two_frequency_shape_trends(preset_outputs):
    t0 = time.perf_counter()
    _, rows = _rows(preset_outputs, "fig5")
    sigmas = (1.8, 5.4, 9.0, 18.0, 27.0)

    fractions = [
        float(r["fraction_a"])
        for s in sigmas
        for r in rows
        if float(r["sigma_khz"]) == s and float(r["detuning_khz"]) == 18.0
    ]
    monotone = all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))

    gamma_b_failures = []
    for r in rows:
        s = float(r["sigma_khz"])
        d = float(r["detuning_khz"])
        if s >= OMEGA0_KHZ and d >= OMEGA0_KHZ:
            gamma_b = float(r["gamma_b"])
            if gamma_b < 0.5 * khz_to_angular(s):
                gamma_b_failures.append((s, d, gamma_b / khz_to_angular(s)))
    gamma_b_ok = not gamma_b_failures

    flagged = {
        (float(r["sigma_khz"]), float(r["detuning_khz"]))
        for r in rows
        if r["fraction_ci_wide"] == "true"
    }
    dashed_small_sigma = any(s <= 5.4 and d >= 18.0 for s, d in flagged)
    solid_large_sigma = not any(s >= 9.0 and d <= 9.0 for s, d in flagged)
    dashed_ok = dashed_small_sigma and solid_large_sigma

    elapsed = preset_outputs["elapsed"] + time.perf_counter() - t0
    ok = monotone and gamma_b_ok and dashed_ok and elapsed < 60.0
    detail = (
        f"fraction_a at delta=2*omega0 {['%.3f' % f for f in fractions]} monotone={monotone}; "
        f"gamma_b >= sigma/2 {'holds' if gamma_b_ok else 'fails at ' + str([(s, d, round(g, 3)) for s, d, g in gamma_b_failures])}; "
        f"dashed region {'reproduced' if dashed_ok else 'missing'}; {elapsed:.1f} s"
    )
    _report(6, ok, detail)


def _peak_ratio(spectra_rows, peaks_rows, detuning):
    spec = [
        (float(r["frequency_khz"]), float(r["power"]))
        for r in spectra_rows
        if float(r["detuning_khz"]) == detuning
    ]
    freqs = np.array([f for f, _ in spec])
    power = np.array([p for _, p in spec])
    pinned = power[np.argmin(np.abs(freqs - OMEGA0_KHZ))]
    moving = [
        float(r["peak_height"])
        for r in peaks_rows
        if float(r["detuning_khz"]) == detuning
        and abs(float(r["peak_frequency_khz"]) - OMEGA0_KHZ) > 1.0
    ]
    return pinned / max(moving) if moving else math.inf


def test_criterion_07_double_peak_and_frequency_track(preset_outputs):
    t0 = time.perf_counter()
    _, red_peaks = _rows(preset_outputs, "fig6a", "fig6a_peaks.csv")
    _, red_spectra = _rows(preset_outputs, "fig6a", "fig6a_spectra.csv")
    _, track = _rows(preset_outputs, "fig6a", "fig6a_track.csv")
    _, blue_peaks = _rows(preset_outputs, "fig6b", "fig6b_peaks.csv")
    _, blue_spectra = _rows(preset_outputs, "fig6b", "fig6b_spectra.csv")

    double_peak_ok = True
    details = []
    for d in (-6.0, -10.0):
        peaks = [
            float(r["peak_frequency_khz"])
            for r in red_peaks
            if float(r["detuning_khz"]) == d
        ]
        near = [p for p in peaks if abs(p - OMEGA0_KHZ) <= 1.0]
        double_peak_ok &= len(peaks) >= 2 and bool(near)
        details.append(f"delta={d:g}: peaks {['%.2f' % p for p in peaks]}")

    track_ok = True
    for d in (-6.0, -10.0):
        pts = [
            (float(r["frequency_khz"]), float(r["ci95_khz"]))
            for r in track
            if float(r["detuning_khz"]) == d
        ]
        track_ok &= len(pts) >= 2
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                fi, ci = pts[i]
                fj, cj = pts[j]
                if fj > fi + ci + cj:
                    track_ok = False

    ratio_ok = True
    for d in (6.0, 10.0):
        red_ratio = _peak_ratio(red_spectra, red_peaks, -d)
        blue_ratio = _peak_ratio(blue_spectra, blue_peaks, d)
        ratio_ok &= blue_ratio <= red_ratio / 3.0
        details.append(f"pinned/moving at -/+{d:g}: {red_ratio:.2f} vs {blue_ratio:.3f}")

    elapsed = preset_outputs["elapsed"] + time.perf_counter() - t0
    ok = double_peak_ok and track_ok and ratio_ok and elapsed < 30.0
    _report(
        7,
        ok,
        f"double peak {double_peak_ok}, track non-increasing {track_ok}, "
        f"blue suppression {ratio_ok} ({'; '.join(details)}); {elapsed:.1f} s",
    )


def test_criterion_08_amplitude_profile(preset_outputs):
    t0 = time.perf_counter()
    rows = _homogeneous_scan()
    amp0 = next(r.amplitude for r in rows if r.detuning_khz == 0.0)
    worst = 0.0
    for r in rows:
        lorentzian = 1.0 / (1.0 + (r.detuning_khz / OMEGA0_KHZ) ** 2)
        worst = max(worst, abs(r.amplitude / amp0 - lorentzian) / lorentzian)
    narrow_ok = worst < 0.02

    _, broad_rows = _rows(preset_outputs, "fig7b")
    broad = [
        (float(r["detuning_khz"]), float(r["amplitude"]))
        for r in broad_rows
        if r["omega0_khz"] == "9" and not r["error"]
    ]
    amp0_b = next(a for d, a in broad if d == 0.0)
    violations = [
        d
        for d, a in broad
        if abs(d) >= 8.0 and a / amp0_b <= 1.0 / (1.0 + (d / OMEGA0_KHZ) ** 2)
    ]
    broad_ok = not violations

    elapsed = preset_outputs["elapsed"] + time.perf_counter() - t0
    ok = narrow_ok and broad_ok and elapsed < 10.0
    _report(
        8,
        ok,
        f"narrow-limit Lorentzian deviation {worst:.2%} (limit 2%); broadened profile "
        f"{'exceeds the Lorentzian' if broad_ok else 'dips below at ' + str(violations)} "
        f"for |delta| >= sigma; {elapsed:.1f} s",
    )


def test_criterion_09_multilevel_consistency():
    t0 = time.perf_counter()
    drive = DriveParams(omega0=khz_to_angular(10.0))
    times = np.arange(0.0, 1.0, 0.004)
    quad = khz_to_angular(100.0)

    trace = p1_multilevel(drive, 0.0, quad, 0.0, times)
    two_level = np.sin(0.5 * drive.omega0 * times) ** 2
    p1_dev = np.max(np.abs(trace.values - two_level))

    system = build_f2_system(drive, 0.0, quad, 0.0)
    rhos = evolve_density(system, DensityMatrix.pure(0), times)
    trace_dev = np.max(np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0))
    purity_dev = np.max(np.abs(np.einsum("tij,tji->t", rhos, rhos).real - 1.0))

    coarse = evolve_rk4(system, DensityMatrix.pure(0), times, step=5e-5)
    fine = evolve_rk4(system, DensityMatrix.pure(0), times, step=2.5e-5)
    halving_dev = np.max(np.abs(coarse - fine))

    elapsed = time.perf_counter() - t0
    ok = (
        p1_dev < 0.05
        and trace_dev < 1e-9
        and purity_dev < 1e-6
        and halving_dev < 1e-6
        and elapsed < 30.0
    )
    _report(
        9,
        ok,
        f"two-level match {p1_dev:.2e} (limit 5e-2), trace {trace_dev:.1e}, "
        f"purity {purity_dev:.1e}, step halving {halving_dev:.1e}; {elapsed:.1f} s",
    )


def test_criterion_10_monte_carlo_oracle():
    t0 = time.perf_counter()
    times = np.arange(0.0, 1.0, 0.004)
    worst = 0.0
    for ratio in (0.5, 1.0, 2.0):
        config = EnsembleConfig(
            drive=DriveParams(omega0=OMEGA0, delta=0.5 * OMEGA0),
            distribution=DetuningDistribution(kind="gaussian", sigma=ratio * OMEGA0),
        )
        exact = ensemble_signal(config, times)
        mc = monte_carlo_signal(config, times, 100_000, seed=0)
        worst = max(worst, float(np.max(np.abs(mc.values - exact.values))))
    elapsed = time.perf_counter() - t0
    ok = worst < 5e-3 and elapsed < 30.0
    _report(10, ok, f"max |MC - quadrature| {worst:.2e} (limit 5e-3); {elapsed:.1f} s")


def _rigidity_extent(rows, sign, omega0_khz, step):
    extent = 0.0
    k = 1
    while True:
        d = sign * step * k
        row = next((r for r in rows if abs(r.detuning_khz - d) < 1e-9), None)
        if row is None:
            break
        if row.error or abs(row.frequency_khz - omega0_khz) / omega0_khz > 0.25:
            break
        extent = abs(d)
        k += 1
    return extent


def test_criterion_11_fieldmap_asymmetry(preset_outputs):
    t0 = time.perf_counter()
    meta, _ = _rows(preset_outputs, "fig8")
    third_plus = float(meta["sign_+1_third_moment"])
    third_minus = float(meta["sign_-1_third_moment"])
    flip_ok = third_plus * third_minus < 0

    scenario = parse_scenario(
        load_scenario_dict(preset_file("fig8")), base_dir=preset_file("fig8").parent
    )
    spec = scenario.field_dist
    model = dataclasses.replace(spec.model, current_sign=-1)
    hist = field_magnitude_histogram(model, spec.beam, spec.n_bins)
    distribution = histogram_to_distribution(hist)

    omega0_khz = 1.5
    config = EnsembleConfig(
        drive=DriveParams(omega0=khz_to_angular(omega0_khz)),
        distribution=distribution,
        atom_model=AtomModel(gamma=khz_to_angular(0.5)),
    )
    step = 0.75
    detunings = khz_to_angular(
        np.concatenate([np.arange(-6.0, 0.0, step), np.arange(step, 6.0 + step / 2, step)])
    )
    rows = scan_detuning(
        config, detunings, times=np.arange(0.0, 2.0, 0.008), window=(0.02, 1.2)
    )
    red = _rigidity_extent(rows, -1, omega0_khz, step)
    blue = _rigidity_extent(rows, +1, omega0_khz, step)
    extent_ok = red >= blue + 2 * step

    elapsed = preset_outputs["elapsed"] + time.perf_counter() - t0
    ok = flip_ok and extent_ok and elapsed < 30.0
    _report(
        11,
        ok,
        f"third moment {third_plus:+.3f} / {third_minus:+.3f} (sign flip {flip_ok}); "
        f"rigidity extent red {red:.2f} kHz vs blue {blue:.2f} kHz; {elapsed:.1f} s",
    )


def test_criterion_12_determinism(tmp_path):
    """Two full preset runs in one process write byte-identical CSVs.

    The guarantee is per numpy build and BLAS kernel: another kernel can
    move fitted numbers at rounding level, and test_presets_match_the_goldens
    bounds such a move.
    """
    t0 = time.perf_counter()
    runs = []
    for tag in ("one", "two"):
        root = tmp_path / tag
        for name in PRESET_NAMES:
            target = root / name
            target.mkdir(parents=True)
            assert main(["reproduce", name, "--out", str(target)]) == 0
        runs.append(root)
    mismatches = []
    n_files = 0
    for csv_path in sorted(runs[0].rglob("*.csv")):
        other = runs[1] / csv_path.relative_to(runs[0])
        n_files += 1
        if csv_path.read_bytes() != other.read_bytes():
            mismatches.append(str(csv_path.relative_to(runs[0])))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and n_files >= len(PRESET_NAMES) and elapsed < 60.0
    _report(
        12,
        ok,
        f"{n_files} CSV files byte-identical across two full preset runs"
        + (f", mismatches: {mismatches}" if mismatches else "")
        + f"; {elapsed:.1f} s",
    )


def test_presets_match_the_goldens(preset_outputs):
    """The preset run matches tests/golden/ (see tests/goldens.py).

    Byte for byte on the numpy version and OpenBLAS core the goldens were
    written on; elsewhere with no flag, error or text cell moved and every
    number within 1e-4 of its CI (1e-6 relative where it has none).
    """
    report = golden_report(preset_outputs["dir"])
    assert not report, report
