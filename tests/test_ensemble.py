import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from rabisim import ensemble
from rabisim.ensemble import (
    AtomModel,
    DetuningDistribution,
    EnsembleConfig,
    QuadratureSupportError,
    _quadrature,
    _sample_shifts,
    ensemble_signal,
    load_empirical_distribution,
    monte_carlo_signal,
    skewed_gaussian_density,
)
from rabisim.model import DriveParams, p1_two_level, p1_two_level_damped, uniform_grid
from rabisim.scans import scan_detuning
from rabisim.scenario import MAX_SAMPLES, ScenarioError, parse_scenario
from rabisim.units import khz_to_angular

OMEGA0 = khz_to_angular(9.0)
TIMES = np.arange(0.0, 1.0, 0.004)


def _config(sigma_khz, delta_khz=0.0, skew=0.0, gamma_khz=0.0, **kwargs):
    kind = "skewed_gaussian" if skew != 0.0 else "gaussian"
    return EnsembleConfig(
        drive=DriveParams(omega0=OMEGA0, delta=khz_to_angular(delta_khz)),
        distribution=DetuningDistribution(kind=kind, sigma=khz_to_angular(sigma_khz), skew=skew),
        atom_model=AtomModel(gamma=khz_to_angular(gamma_khz)),
        **kwargs,
    )


@given(
    sigma=st.floats(min_value=0.5, max_value=100.0),
    skew=st.floats(min_value=-8.0, max_value=8.0),
)
@example(sigma=3.7, skew=1e200)
@example(sigma=3.7, skew=-1e200)
@settings(max_examples=60, deadline=None)
def test_skew_density_normalized_and_centered(sigma, skew):
    # As |skew| grows the density tends to a half-normal. Its step at the
    # mode is summed by the trapezoid rule only to first order in the
    # spacing, so those inputs are checked to 1e-3 instead of 1e-6.
    tol = 1e-6 if abs(skew) <= 8.0 else 1e-3
    x = np.linspace(-12.0 * sigma, 12.0 * sigma, 4001)
    pdf = skewed_gaussian_density(sigma, skew, x)
    assert np.all(pdf >= 0.0)
    mass = np.trapezoid(pdf, x)
    mean = np.trapezoid(x * pdf, x)
    var = np.trapezoid(x * x * pdf, x) - mean**2
    assert mass == pytest.approx(1.0, abs=tol)
    assert abs(mean) < tol * sigma
    assert math.sqrt(var) == pytest.approx(sigma, rel=tol)


def test_skew_zero_density_is_the_normal_pdf():
    sigma = 3.7
    x = np.linspace(-8.0 * sigma, 8.0 * sigma, 1001)
    normal = np.exp(-0.5 * (x / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)
    np.testing.assert_allclose(skewed_gaussian_density(sigma, 0.0, x), normal,
                               rtol=1e-15, atol=0.0)
    # 0.5 (1 + erf(+-0)) is exactly 0.5, so the skew-0 member is bitwise
    # (2/w) phi(z) / 2, on an array and on a scalar, which stays a scalar.
    xi, w, _ = ensemble._skew_normal_params(sigma, 0.0)
    for point in (x, 0.5, -0.0):
        z = (np.asarray(point) - xi) / w
        expected = (2.0 / w) * (np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)) * 0.5
        value = skewed_gaussian_density(sigma, 0.0, point)
        assert np.array_equal(value, expected)
        assert isinstance(value, np.ndarray) == isinstance(point, np.ndarray)


@pytest.mark.parametrize("skew", [-1e4, -3.0, -0.5, 0.5, 3.0, 300.0, 1e200])
def test_skew_density_matches_scipy_erf_formula(skew):
    # The stdlib erf against scipy's. The bound is absolute, relative to
    # the peak: in the far tail 1 + erf cancels, so a relative error there
    # says nothing about either erf.
    from scipy.special import erf

    sigma = 3.7
    xi, w, _ = ensemble._skew_normal_params(sigma, skew)
    x = np.linspace(-12.0 * sigma, 12.0 * sigma, 4001)

    def formula(x):
        z = (x - xi) / w
        with np.errstate(over="ignore"):
            cdf = 0.5 * (1.0 + erf(skew * z / math.sqrt(2.0)))
        return (2.0 / w) * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * cdf

    expected = formula(x)
    assert np.max(np.abs(skewed_gaussian_density(sigma, skew, x) - expected)) \
        <= 1e-15 * expected.max()
    for point in (x[1000], x[2000], x[3000]):
        value = skewed_gaussian_density(sigma, skew, point)
        assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)
        assert abs(value - formula(point)) <= 1e-15 * expected.max()


@pytest.mark.parametrize("kind", ["gaussian", "skewed_gaussian"])
@pytest.mark.parametrize("seed", [0, 7])
def test_skew_zero_samples_are_rng_normal(kind, seed):
    # The skew-0 member of the family draws the plain normal stream,
    # whichever kind names it.
    sigma = khz_to_angular(8.0)
    dist = DetuningDistribution(kind=kind, sigma=sigma)
    samples = _sample_shifts(dist, 5000, np.random.default_rng(seed))
    assert np.array_equal(samples, np.random.default_rng(seed).normal(0.0, sigma, 5000))


@pytest.mark.parametrize("skew", [1e200, -1e200])
def test_extreme_skew_samples_are_half_normal(skew):
    # The half-normal limit keeps mean 0 and std sigma; its standardized
    # third moment is +-0.995.
    sigma = khz_to_angular(8.0)
    dist = DetuningDistribution(kind="skewed_gaussian", sigma=sigma, skew=skew)
    samples = _sample_shifts(dist, 100_000, np.random.default_rng(5))
    assert abs(samples.mean()) < 1e-2 * sigma
    assert samples.std() == pytest.approx(sigma, rel=1e-2)
    skewness = np.mean((samples - samples.mean()) ** 3) / samples.std() ** 3
    assert skewness == pytest.approx(math.copysign(0.995, skew), abs=0.05)


def test_skew_density_third_moment_sign_follows_skew():
    sigma = 5.0
    x = np.linspace(-12.0 * sigma, 12.0 * sigma, 8001)
    for alpha, sign in ((3.0, 1.0), (-3.0, -1.0)):
        pdf = skewed_gaussian_density(sigma, alpha, x)
        m3 = np.trapezoid(x**3 * pdf, x)
        assert np.sign(m3) == sign
        assert abs(m3) > 0.1 * sigma**3


def test_distribution_validation():
    with pytest.raises(ValueError):
        DetuningDistribution(kind="triangular")
    with pytest.raises(ValueError):
        DetuningDistribution(kind="gaussian", sigma=-1.0)
    with pytest.raises(ValueError):
        DetuningDistribution(kind="gaussian", sigma=1.0, skew=2.0)
    with pytest.raises(ValueError):
        DetuningDistribution(kind="empirical")
    with pytest.raises(ValueError):
        DetuningDistribution(kind="empirical", shifts=np.array([1.0]), weights=np.array([-1.0]))


def test_empirical_weights_normalized():
    dist = DetuningDistribution(
        kind="empirical", shifts=np.array([-1.0, 0.0, 2.0]), weights=np.array([1.0, 2.0, 1.0])
    )
    assert dist.weights.sum() == pytest.approx(1.0)
    assert dist.mean_shift() == pytest.approx(0.25)
    expected_var = 0.25 * (-1.25) ** 2 + 0.5 * (-0.25) ** 2 + 0.25 * 1.75**2
    assert dist.std_shift() == pytest.approx(math.sqrt(expected_var))


def test_config_validation():
    with pytest.raises(ValueError):
        _config(5.0, quadrature_nodes=100)
    with pytest.raises(ValueError):
        _config(5.0, support_half_width=3.0)


def test_quadrature_support_too_narrow():
    # bypass the config guard to exercise the mass check itself
    cfg = SimpleNamespace(
        drive=DriveParams(omega0=OMEGA0),
        distribution=DetuningDistribution(kind="gaussian", sigma=khz_to_angular(8.0)),
        atom_model=AtomModel(),
        quadrature_nodes=2001,
        support_half_width=2.0,
    )
    with pytest.raises(QuadratureSupportError):
        ensemble_signal(cfg, TIMES)


@pytest.mark.parametrize("half_width, miss", [(8.0, "1.88e-04"), (20.0, "3.07e-03")])
def test_quadrature_miss_names_the_rule(half_width, miss):
    # At skew 1e4 the density is nearly the half-normal's step at its mode,
    # which 2001 nodes resolve no better over a wider support: the miss
    # grows with the half-width, so the message states the rule, not a fix.
    dist = DetuningDistribution(kind="skewed_gaussian", sigma=1.0, skew=1e4)
    with pytest.raises(QuadratureSupportError) as info:
        _quadrature(dist, 2001, half_width)
    message = str(info.value)
    assert f"2001 nodes over +-{half_width:g} sigma misses {miss}" in message
    assert "widen" not in message


def test_one_rule_per_distribution(monkeypatch):
    # The rule depends on the distribution only, so a scan builds it once.
    calls = []
    real = ensemble.skewed_gaussian_density
    monkeypatch.setattr(ensemble, "skewed_gaussian_density",
                        lambda *args: calls.append(args) or real(*args))
    ensemble._parametric_rule.cache_clear()
    base = _config(8.0, skew=3.0)
    rows = scan_detuning(base, khz_to_angular(np.linspace(-20.0, 20.0, 41)),
                         times=np.arange(0.0, 1.0, 0.008), analysis="fft")
    assert len(rows) == 41
    assert len(calls) == 1

    shifts, weights = _quadrature(base.distribution, base.quadrature_nodes,
                                  base.support_half_width)
    assert not shifts.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 1.0

    # A rejected rule is not cached: every call raises, with the same message.
    narrow = DetuningDistribution(kind="skewed_gaussian", sigma=1.0, skew=20.0)
    messages = []
    for _ in range(2):
        with pytest.raises(QuadratureSupportError) as info:
            _quadrature(narrow, 2001, 5.0)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    data = {"name": "narrow", "command": "simulate",
            "drive": {"omega0_khz": 9.0, "delta_khz": 0.0},
            "distribution": {"kind": "skewed_gaussian", "sigma_khz": 8.0, "skew": 20.0},
            "ensemble": {"support_half_width": 5.0},
            "time_grid": {"t_max_ms": 1.0, "dt_ms": 0.008}}
    for _ in range(2):
        with pytest.raises(ScenarioError, match="ensemble.support_half_width"):
            parse_scenario(data)


@pytest.fixture(scope="module")
def leggauss_4001():
    return leggauss(4001)


def _leggauss_reference(config, times, rule):
    """Distribution average by a Gauss-Legendre rule on [-1, 1], scaled to
    the same +-support_half_width sigma, of the per-atom closed form."""
    dist = config.distribution
    half = config.support_half_width * dist.sigma
    x, w = rule
    shifts = half * x
    weights = half * w * skewed_gaussian_density(dist.sigma, dist.skew, shifts)
    p1 = p1_two_level_damped(config.drive, shifts[:, None], times[None, :],
                             config.atom_model.gamma)
    return (weights @ p1) / weights.sum()


@pytest.mark.parametrize("omega0_khz, delta_khz, sigma_khz, skew, gamma_khz, t_max, dt", [
    pytest.param(9.0, 13.5, 27.0, 0.0, 0.0, 1.2, 0.008, id="fig5-widest"),
    pytest.param(5.0, 8.0, 10.0, 3.0, 1.0, 1.0, 0.008, id="fig3a-skewed"),
    pytest.param(9.0, 7.5, 12.0, 0.0, 1.0, 4.0, 0.004, id="dense-gaussian"),
    pytest.param(9.0, -7.5, 10.0, -3.0, 1.0, 4.0, 0.004, id="dense-skewed"),
])
def test_trapezoid_rule_matches_leggauss_reference(leggauss_4001, omega0_khz, delta_khz,
                                                   sigma_khz, skew, gamma_khz, t_max, dt):
    kind = "skewed_gaussian" if skew else "gaussian"
    config = EnsembleConfig(
        drive=DriveParams(omega0=khz_to_angular(omega0_khz), delta=khz_to_angular(delta_khz)),
        distribution=DetuningDistribution(kind=kind, sigma=khz_to_angular(sigma_khz),
                                          skew=skew),
        atom_model=AtomModel(gamma=khz_to_angular(gamma_khz)),
    )
    times = np.arange(0.0, t_max + 0.5 * dt, dt)
    values = ensemble_signal(config, times).values
    assert np.max(np.abs(values - _leggauss_reference(config, times, leggauss_4001))) < 1e-12


def test_sigma_zero_reduces_to_homogeneous():
    for delta_khz, gamma_khz in ((0.0, 0.0), (6.0, 1.0)):
        cfg = _config(0.0, delta_khz=delta_khz, gamma_khz=gamma_khz)
        trace = ensemble_signal(cfg, TIMES)
        expected = p1_two_level_damped(
            cfg.drive, 0.0, TIMES, cfg.atom_model.gamma
        )
        assert np.max(np.abs(trace.values - expected)) < 1e-14


def test_node_doubling_converged():
    a = ensemble_signal(_config(8.0, delta_khz=5.0), TIMES)
    b = ensemble_signal(_config(8.0, delta_khz=5.0, quadrature_nodes=4001), TIMES)
    assert np.max(np.abs(a.values - b.values)) < 1e-8


def test_gaussian_signal_symmetric_in_detuning():
    plus = ensemble_signal(_config(8.0, delta_khz=7.0), TIMES)
    minus = ensemble_signal(_config(8.0, delta_khz=-7.0), TIMES)
    assert np.max(np.abs(plus.values - minus.values)) < 1e-10


def test_long_time_signal_settles_to_weighted_offset():
    """After dephasing the signal sits at the average of the per-atom offsets."""
    cfg = _config(18.0, delta_khz=4.0)
    times = np.arange(0.0, 40.0, 0.004)
    trace = ensemble_signal(cfg, times)
    from rabisim.ensemble import _quadrature

    shifts, weights = _quadrature(cfg.distribution, cfg.quadrature_nodes,
                                  cfg.support_half_width)
    omega_r = np.hypot(cfg.drive.omega0, cfg.drive.delta + shifts)
    expected = float(weights @ (0.5 * (cfg.drive.omega0 / omega_r) ** 2))
    late = trace.values[times > 35.0]
    assert np.mean(late) == pytest.approx(expected, abs=1e-4)


def test_monte_carlo_same_seed_bit_identical():
    cfg = _config(8.0, delta_khz=3.0)
    a = monte_carlo_signal(cfg, TIMES, 10_000, seed=13)
    b = monte_carlo_signal(cfg, TIMES, 10_000, seed=13)
    assert np.array_equal(a.values, b.values)


def _oracle_populations(drive, shifts, gamma, times):
    """Per-atom populations, one row per shift, from model.p1_two_level: the
    reference for the ensemble module's kernel. The envelope damps the
    oscillating part, 0.5 A (1 - env cos) = 0.5 A (1 - env) + env p1."""
    amp = (drive.omega0 / np.hypot(drive.omega0, drive.delta + shifts))[:, None] ** 2
    envelope = np.exp(-0.5 * gamma * times)[None, :]
    p1 = p1_two_level(drive, shifts[:, None], times[None, :])
    return 0.5 * amp * (1.0 - envelope) + envelope * p1


def _oracle_configs(gamma_khz):
    rng = np.random.default_rng(11)
    empirical = DetuningDistribution(kind="empirical",
                                     shifts=khz_to_angular(rng.normal(0.0, 6.0, 300)),
                                     weights=rng.random(300))
    return [
        _config(12.0, delta_khz=3.0, gamma_khz=gamma_khz),
        _config(12.0, delta_khz=3.0, skew=-3.0, gamma_khz=gamma_khz),
        EnsembleConfig(drive=DriveParams(omega0=OMEGA0, delta=khz_to_angular(-2.0)),
                       distribution=empirical,
                       atom_model=AtomModel(gamma=khz_to_angular(gamma_khz))),
    ]


@pytest.mark.parametrize("gamma_khz", [0.0, 0.7])
def test_averages_match_independent_oracle(gamma_khz):
    # T = 8, 9 and 126, 127 sit on both sides of a square (b = ceil(sqrt(T))
    # and the number of blocks change there); 1001 is the dense-scan length.
    for config in _oracle_configs(gamma_khz):
        shifts, weights = _quadrature(config.distribution, config.quadrature_nodes,
                                      config.support_half_width)
        for n_t in (8, 9, 126, 127, 1001):
            for t0 in (0.0, 0.37):
                times = t0 + 0.004 * np.arange(n_t)
                expected = weights @ _oracle_populations(
                    config.drive, shifts, config.atom_model.gamma, times)
                values = ensemble_signal(config, times).values
                assert values.shape == expected.shape
                assert np.max(np.abs(values - expected)) < 1e-13
                if t0 == 0.0:
                    assert values[0] == 0.0


@pytest.mark.parametrize("gamma_khz", [0.0, 0.7])
def test_monte_carlo_matches_chunked_oracle(gamma_khz):
    for config in _oracle_configs(gamma_khz):
        # 46000 samples leave a partial last chunk
        n = 46000
        chunk = ensemble._MC_CHUNK
        assert n % chunk
        samples = _sample_shifts(config.distribution, n, np.random.default_rng(3))
        acc = np.zeros_like(TIMES)
        for start in range(0, n, chunk):
            part = samples[start:start + chunk]
            acc += _oracle_populations(config.drive, part, config.atom_model.gamma,
                                       TIMES).sum(axis=0)
        values = monte_carlo_signal(config, TIMES, n, seed=3).values
        assert np.max(np.abs(values - acc / n)) < 1e-13
        assert values[0] == 0.0


_EXTENDED = pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                               reason="np.longdouble is float64 on this platform")


@_EXTENDED
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 32, 317])
def test_rotations_match_extended_precision_reference(n):
    # k theta is exact in long double (a 53-bit theta times k < 2^9), so the
    # reference is cos and sin of the float64 angles themselves; the doubling
    # may lose about one rounding per row.
    theta = np.geomspace(1e-6, 1e3, 91)
    theta = np.concatenate([theta, -theta])
    table = ensemble._rotations(theta, n)
    assert table.shape == (n, theta.size)
    assert np.all(table[0] == 1.0 + 0.0j)
    angles = np.arange(n, dtype=np.longdouble)[:, None] * theta.astype(np.longdouble)
    eps = np.finfo(float).eps
    assert np.max(np.abs(table.real - np.cos(angles))) <= n * eps
    assert np.max(np.abs(table.imag - np.sin(angles))) <= n * eps


@_EXTENDED
@pytest.mark.parametrize("t0, dt, n_t", [
    pytest.param(0.0, 2.0 / 20_000, 20_001, id="20001"),
    pytest.param(0.0, 2.0 / (MAX_SAMPLES - 1), MAX_SAMPLES, id=str(MAX_SAMPLES)),
    pytest.param(0.37, 2e-5, MAX_SAMPLES, id=f"{MAX_SAMPLES}-offset"),
])
def test_long_grid_matches_extended_precision_oracle(t0, dt, n_t):
    # The rotation tables' error grows with their length, so the kernel is
    # pinned at the longest grid a scenario may ask for (316 and 317 rows)
    # against a per-atom long double sum on the same float64 grid. It reads
    # about 3e-15 here; one 100,000-row table per atom instead of the
    # sqrt(T) split reads 4e-13, which a 1e-12 bound would let through. On
    # the offset grid a dt taken from the first difference drifts from the
    # given times and reads 1.0e-11.
    drive = DriveParams(omega0=OMEGA0, delta=khz_to_angular(5.0))
    shifts, weights = _quadrature(DetuningDistribution(kind="gaussian",
                                                       sigma=khz_to_angular(8.0)), 101, 8.0)
    times = t0 + dt * np.arange(n_t)
    values = ensemble._two_level_sum(drive, shifts, weights, 0.0, times,
                                     *uniform_grid(times))
    omega = np.hypot(drive.omega0, drive.delta + shifts).astype(np.longdouble)
    amp = 0.5 * (np.longdouble(drive.omega0) / omega) ** 2
    t = times.astype(np.longdouble)
    expected = np.zeros(n_t, dtype=np.longdouble)
    for om, a, w in zip(omega, amp, weights.astype(np.longdouble)):
        expected += w * a * (1.0 - np.cos(om * t))
    assert np.max(np.abs(values - expected)) < 1e-13
    if t0 == 0.0:
        assert values[0] == 0.0


@pytest.mark.parametrize("times, message", [
    (np.array([]), "empty time grid"),
    (np.array([0.5]), "need at least two sample times"),
    (np.array([0.0, 0.1, 0.2, 0.35, 0.4, 0.5, 0.6, 0.7]), "uniformly spaced"),
    (0.7 - 0.1 * np.arange(8), "uniformly spaced"),
])
def test_bad_time_grids_raise(times, message):
    config = _config(8.0, delta_khz=3.0)
    with pytest.raises(ValueError, match=message):
        ensemble_signal(config, times)
    with pytest.raises(ValueError, match=message):
        monte_carlo_signal(config, times, 1000)


def test_time_grid_validated_once_per_call(monkeypatch):
    # The kernel takes (t0, dt) from its caller, so a Monte Carlo estimate
    # checks its grid once, not once per fixed-size chunk of samples.
    calls = []
    real = ensemble.uniform_grid
    monkeypatch.setattr(ensemble, "uniform_grid",
                        lambda times: calls.append(times.size) or real(times))
    config = _config(8.0, delta_khz=3.0)
    trace = ensemble_signal(config, TIMES)
    assert calls == [TIMES.size]
    assert (trace.t0, trace.dt) == real(TIMES)
    monte_carlo_signal(config, TIMES, 45000)
    assert calls == [TIMES.size] * 2


def test_monte_carlo_approaches_quadrature():
    cfg = _config(8.0, delta_khz=5.0)
    exact = ensemble_signal(cfg, TIMES)
    mc = monte_carlo_signal(cfg, TIMES, 100_000, seed=0)
    # 1e5 samples of a bounded variable: statistical error well under 1e-2
    assert np.max(np.abs(mc.values - exact.values)) < 8e-3


def test_monte_carlo_rejects_small_samples_and_multilevel():
    cfg = _config(8.0)
    with pytest.raises(ValueError):
        monte_carlo_signal(cfg, TIMES, 10)
    ml = EnsembleConfig(
        drive=DriveParams(omega0=OMEGA0),
        distribution=DetuningDistribution(kind="gaussian", sigma=khz_to_angular(8.0)),
        atom_model=AtomModel(kind="multilevel"),
    )
    with pytest.raises(ValueError):
        monte_carlo_signal(ml, TIMES, 10_000)


def test_empirical_monte_carlo_matches_discrete_average():
    dist = DetuningDistribution(
        kind="empirical",
        shifts=khz_to_angular(np.array([-4.0, 0.0, 6.0])),
        weights=np.array([0.3, 0.5, 0.2]),
    )
    cfg = EnsembleConfig(drive=DriveParams(omega0=OMEGA0), distribution=dist)
    exact = ensemble_signal(cfg, TIMES)
    mc = monte_carlo_signal(cfg, TIMES, 200_000, seed=2)
    assert np.max(np.abs(mc.values - exact.values)) < 5e-3


def test_load_empirical_distribution(tmp_path):
    path = tmp_path / "dist.txt"
    path.write_text("# shift_khz weight\n-2.0 1\n0.0, 2\n3.0 1\n")
    dist = load_empirical_distribution(path)
    assert dist.kind == "empirical"
    assert np.allclose(dist.shifts, khz_to_angular(np.array([-2.0, 0.0, 3.0])))
    assert np.allclose(dist.weights, [0.25, 0.5, 0.25])


def test_load_empirical_distribution_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0 3.0\n")
    with pytest.raises(ValueError):
        load_empirical_distribution(path)
    path.write_text("1.0 abc\n")
    with pytest.raises(ValueError):
        load_empirical_distribution(path)
